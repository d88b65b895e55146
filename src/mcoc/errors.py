"""Exception hierarchy for the package, and the value checks that raise
ConfigError. Every error raised on purpose is a McocError."""

import math
import sys


class McocError(Exception):
    pass


class ZeroNorm(McocError):
    """Vector with (near-)zero L2 norm where a direction is required."""


class DimMismatch(McocError):
    """Operands with incompatible dimensions."""


class MosOutOfRange(McocError):
    """MOS value outside the [1, 5] rating scale."""


class ParseError(McocError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingField(McocError):
    pass


class MissingQuality(McocError):
    """Bona fide sample used in a quality-dependent path without a quality level."""


class InvalidScheme(McocError):
    pass


class EmptyClass(McocError):
    """EER requested with one of the two score lists empty."""


class DivergenceDetected(McocError):
    """Training loss went non-finite or exceeded the divergence threshold."""


class ConfigError(McocError):
    pass


class IoError(McocError):
    pass


def is_int(value):
    """A JSON integer: bool is an int subclass and is rejected, not read as
    0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value):
    """A finite float, or an int that fits in one."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max


def require(ok, name, value, what):
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
