"""Exception hierarchy for the package, the value checks that raise
ConfigError, and ``from_dict``, the one builder that turns a JSON object
into a config dataclass. Every error raised on purpose is a McocError."""

import math
import sys
from dataclasses import MISSING, fields, is_dataclass


class McocError(Exception):
    pass


class ZeroNorm(McocError):
    """Vector with a (near-)zero or non-finite L2 norm where a direction is
    required."""


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


def from_dict(cls, d, name):
    """The dataclass `cls` built from the JSON object `d`, whose keys must
    be fields of `cls`; a field left out takes its default. A field whose
    default factory is a dataclass is a section and is built the same way
    from its own object. An unknown key, a missing required field and a
    section that is not an object are ConfigErrors naming the section
    (`name`, then `name.section`); the values are checked by `cls`."""
    require(isinstance(d, dict), name, d, "an object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    missing = [k for k, f in known.items() if k not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{name}: missing keys {missing}")
    kwargs = dict(d)
    for key, value in d.items():
        section = known[key].default_factory
        if is_dataclass(section):
            kwargs[key] = from_dict(section, value, f"{name}.{key}")
    return cls(**kwargs)
