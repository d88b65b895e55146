"""Exception hierarchy for the package, the value checks that raise
ConfigError, ``load_json``, the one reader of a JSON input file, and
``from_dict``, the one builder that turns a JSON object into a dataclass:
every config, the gen spec and the checkpoint. Every error raised on
purpose is a McocError."""

import json
import math
import sys
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


class McocError(Exception):
    """Any error raised on purpose; cli.main gives each kind one exit code."""


class ZeroNorm(McocError):
    """Vector with a (near-)zero or non-finite L2 norm where a direction is
    required."""


class ScoreOutOfRange(McocError):
    """Binary head score beyond scoring.MAX_HEAD_SCORE in size, or NaN."""


class DimMismatch(McocError):
    """Operands with incompatible dimensions."""


class MosOutOfRange(McocError):
    """MOS value outside the [1, 5] rating scale."""


class ParseError(McocError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyClass(McocError):
    """EER requested with one of the two score lists empty."""


class DivergenceDetected(McocError):
    """Training loss went non-finite or exceeded the divergence threshold."""


class ConfigError(McocError):
    pass


class MissingQuality(ConfigError):
    """Bona fide sample used in a quality-dependent path without a quality
    level: the data does not fit the configured loss or strategy."""


# what json raises for text it cannot decode: ValueError for malformed JSON
# (JSONDecodeError), bytes that are not UTF-8 and integers over the digit
# limit; RecursionError for nesting too deep for the decoder
UNDECODABLE = (ValueError, RecursionError)


def is_int(value):
    """A JSON integer: bool is an int subclass and is rejected, not read as
    0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value):
    """A finite float, or an int that fits in one."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max


# the most characters of a value or a record id that a message echoes
ECHO_MAX = 100


def echo(value):
    """repr(value), the form in which every message names a value or a
    record id: one line, as repr escapes line breaks and every other
    control character, and at most ECHO_MAX characters of it, followed by
    `… (N chars)`, N the length of the whole repr, where it is longer."""
    text = repr(value)
    if len(text) <= ECHO_MAX:
        return text
    return f"{text[:ECHO_MAX]}… ({len(text)} chars)"


def require(ok, name, value, what):
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {echo(value)}")


_SHAPES = ("a finite number", "a list of finite numbers",
           "a list of equal-length lists of finite numbers")


def reals(value, name, ndim):
    """`value`, a JSON number (ndim 0), list of numbers (1) or list of rows
    of numbers (2), as a float64 array; any number that fails the is_real
    rule is a ConfigError naming `name`. A row of floats costs one type set
    and isfinite runs once over the array; only a row holding something
    else is checked value by value."""
    rows = [[value]] if ndim == 0 else [value] if ndim == 1 else value
    try:
        if isinstance(rows, list) and all(
                isinstance(row, list) and (set(map(type, row)) <= {float}
                                           or all(map(is_real, row)))
                for row in rows):
            arr = np.array(value, dtype=np.float64)  # unequal rows: ValueError
            if arr.ndim == ndim and np.isfinite(arr).all():
                return arr
    except ValueError:
        pass
    raise ConfigError(f"{name} must be {_SHAPES[ndim]}")


def load_json(path):
    """The JSON object in the file at `path` (a config, a gen spec or a
    checkpoint), read as UTF-8; text that does not decode to one is a
    ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UNDECODABLE as exc:
            raise ConfigError(f"{path!r}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path!r}: expected a JSON object")
    return obj


def from_dict(cls, d, name, complete=False):
    """The dataclass `cls` built from the JSON object `d`, whose keys must
    be fields of `cls`; a field left out takes its default, unless
    `complete`, under which every field is required. An unknown key, a
    missing required field and a section that is not an object are
    ConfigErrors naming the section (`name`, then `name.key`); the values
    are checked by `cls`. A field's metadata says how its value is read:
    ``ndim``, an array of finite numbers converted by ``reals``; ``section``,
    a dataclass built the same way (so is a field whose default factory is
    a dataclass), or null too if ``optional``, and with every field required
    if ``complete``; ``many``, a list of sections named `name.key[i]`, where
    a ConfigError an item raises without its place gets that name in
    front."""
    require(isinstance(d, dict), name, d, "an object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {echo(unknown)}")
    missing = [k for k, f in known.items() if k not in d and (
        complete or f.default is MISSING and f.default_factory is MISSING)]
    if missing:
        raise ConfigError(f"{name}: missing keys {missing}")
    return cls(**{key: _read(known[key], value, f"{name}.{key}")
                  for key, value in d.items()})


def _read(f, value, name):
    """The value of field `f` read as its metadata says (see from_dict)."""
    meta = f.metadata
    if "ndim" in meta:
        return reals(value, name, meta["ndim"])
    if "many" in meta:
        require(isinstance(value, (list, tuple)), name, value,
                "a list of objects")
        return [_item(meta["many"], item, f"{name}[{i}]")
                for i, item in enumerate(value)]
    section = meta.get("section", f.default_factory)
    if not is_dataclass(section) or (value is None and meta.get("optional")):
        return value
    return from_dict(section, value, name, meta.get("complete", False))


def _item(cls, d, name):
    try:
        return from_dict(cls, d, name)
    except ConfigError as exc:
        if str(exc).startswith(name):
            raise
        raise ConfigError(f"{name}: {exc}") from exc
