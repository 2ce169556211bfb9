"""Exception types shared across the package, and the setting checks and input-file parsers that raise them."""

import dataclasses
import functools
import math
import numbers
import typing
from pathlib import Path


Threshold = typing.NewType("Threshold", float)  # a float setting a score is compared with; it may be +-inf


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or out of range."""


class ShapeError(ValueError):
    """Array arguments disagree on shape or length."""


class BatchError(ValueError):
    """A batch is too small for the requested operation."""


class MetricError(ValueError):
    """A metric was asked for an undefined quantity (empty input, bad band, ...)."""


class NumericError(RuntimeError):
    """A numeric failure (non-finite loss, diverged optimization)."""


def parse_lines(path, parse, kind: str, first: int = 1) -> list:
    """``parse`` of every nonblank line of a text file, from line ``first`` on.

    A file that is not UTF-8 text, or a line that does not parse, raises
    ConfigError naming ``kind``, the file and, for a line, its number.
    """
    records = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind} {path}: not UTF-8 text ({exc})") from None
    for number, line in enumerate(lines[first - 1:], start=first):
        try:
            if line.strip():
                records.append(parse(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{kind} {path}, line {number}: {exc!r}") from None
    return records


def token_ids(values, field: str) -> list:
    """``values`` if it is a list of nonnegative JSON integers, else ValueError naming ``field``.

    Token ids are written as integers; a parser that let ``3.5`` or ``-1``
    through would truncate or wrap it silently.
    """
    if not isinstance(values, list) or not all(type(v) is int and v >= 0 for v in values):
        raise ValueError(f"{field}: must be a list of nonnegative integers")
    return values


def require(condition: bool, field: str, message: str) -> None:
    """ConfigError ``<field>: <message>`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(f"{field}: {message}")


def number_setting(value, field: str) -> float:
    """``value`` as a float if it is a number other than NaN (+-inf passes), else ConfigError naming ``field``."""
    require(not isinstance(value, bool) and isinstance(value, numbers.Real) and value == value,
            field, f"must be a number and not NaN, got {value!r}")
    return float(value)


def integer_setting(value, field: str) -> int:
    """``value`` as an int if it is an integer, else ConfigError naming ``field``; ``16.5`` is never truncated."""
    require(not isinstance(value, bool) and isinstance(value, numbers.Integral), field, "must be an integer")
    return int(value)


def setting(value, kind, field: str):
    """``value`` as the declared type ``kind``: int, float, Threshold, or a tuple of them."""
    if kind is int:
        return integer_setting(value, field)
    if kind in (float, Threshold):
        number = number_setting(value, field)
        require(kind is Threshold or math.isfinite(number), field, f"must be finite, got {number!r}")
        return number
    require(isinstance(value, (list, tuple)), field, "must be a list")
    kinds = typing.get_args(kind)
    if kinds[-1] is Ellipsis:
        kinds = kinds[:1] * len(value)
    require(len(value) == len(kinds), field, f"must have {len(kinds)} items")
    return tuple(setting(v, k, field) for v, k in zip(value, kinds))


@functools.cache
def _numeric_fields(cls) -> tuple:
    """(name, type) of each field of ``cls`` declared int, float, Threshold or a tuple of them."""
    types = typing.get_type_hints(cls)
    return tuple((f.name, types[f.name]) for f in dataclasses.fields(cls)
                 if types[f.name] in (int, float, Threshold) or typing.get_origin(types[f.name]) is tuple)


def check_settings(settings) -> None:
    """Convert each number and tuple field of a settings dataclass to its declared type, in place.

    The one rule for every number setting: a float field takes a finite
    number, a Threshold field a number other than NaN, an int field an
    integer, and a tuple field a list of those, as many as a fixed-arity
    tuple such as ``tuple[float, float]`` declares.  A bool, a string or
    None is refused, never coerced.
    """
    for name, kind in _numeric_fields(type(settings)):
        object.__setattr__(settings, name, setting(getattr(settings, name), kind, name))
