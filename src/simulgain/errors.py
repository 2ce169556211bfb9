"""Exception types shared across the package, and the setting checks and input-file parsers that raise them."""

import contextlib
import dataclasses
import enum
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
    """``values`` if it is a list of nonnegative JSON integers below 2**63, else ValueError naming ``field``.

    Token ids are written as integers; a parser that let ``3.5`` or ``-1``
    through would truncate or wrap it silently, and numpy holds none beyond int64.
    """
    if not isinstance(values, list) or not all(type(v) is int and 0 <= v < 2**63 for v in values):
        raise ValueError(f"{field}: must be a list of nonnegative 64-bit integers")
    return values


def require(condition: bool, field: str, message: str) -> None:
    """ConfigError ``<field>: <message>`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(f"{field}: {message}")


@contextlib.contextmanager
def fits(field: str, what: str):
    """The one rule for sizes: in the block, an allocation too large for memory is a ConfigError naming ``field``.

    numpy refusing a shape (ValueError) or failing to place it (MemoryError), a
    count too large for a float (OverflowError) and a step that underflows to 0
    (ZeroDivisionError) read ``<field>: <what> in memory (<reason>)``.  The
    package's own errors pass through, though they are ValueErrors too.
    """
    try:
        yield
    except (ConfigError, ShapeError, BatchError, MetricError):
        raise
    except (ValueError, MemoryError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"{field}: {what} in memory ({exc})") from None


def setting(value, kind, field: str):
    """``value`` as the declared type ``kind``, else ConfigError naming ``field``; never coerced.

    ``kind`` is int (64-bit), float (finite), Threshold (a float that may be +-inf), str,
    bool, an Enum of strings, a settings dataclass (a section, given as a JSON
    object of its fields), or a tuple of these such as ``tuple[float, float]``.
    """
    if kind is int:  # 16.5 is never truncated, and numpy takes no int beyond int64
        require(not isinstance(value, bool) and isinstance(value, numbers.Integral), field, "must be an integer")
        require(-2**63 <= value < 2**63, field, "must fit in a 64-bit integer")
        return int(value)
    if kind in (float, Threshold):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
            raise ConfigError(f"{field}: must be a number and not NaN, got {value!r}")  # not require(): no repr per call
        try:
            number = float(value)
        except OverflowError:  # a JSON integer with hundreds of digits
            raise ConfigError(f"{field}: must fit in a float") from None
        if kind is not Threshold and not math.isfinite(number):
            raise ConfigError(f"{field}: must be finite, got {number!r}")
        return number
    if kind in (str, bool):
        require(isinstance(value, kind), field, "must be a string" if kind is str else "must be true or false")
        return value
    if isinstance(kind, enum.EnumMeta):
        names = [member.value for member in kind]
        require(isinstance(value, str) and value in names, field, f"must be one of {', '.join(names)}")
        return kind(value)
    if dataclasses.is_dataclass(kind):
        if isinstance(value, kind):
            return value
        require(isinstance(value, dict), field, "must be a JSON object")
        known = {f.name for f in dataclasses.fields(kind)}
        for key in value:
            require(key in known, f"{field}.{key}", "unknown field")
        return kind(**value)
    require(isinstance(value, (list, tuple)), field, "must be a list")
    kinds = typing.get_args(kind)
    if kinds[-1] is Ellipsis:
        kinds = kinds[:1] * len(value)
    require(len(value) == len(kinds), field, f"must have {len(kinds)} items")
    return tuple([setting(v, k, field) for v, k in zip(value, kinds)])


@functools.cache
def _setting_fields(cls) -> tuple:
    """(name, type) of each field of ``cls`` whose declared type :func:`setting` checks."""
    types = typing.get_type_hints(cls)
    return tuple((f.name, kind) for f in dataclasses.fields(cls)
                 if (kind := types[f.name]) in (int, float, Threshold, str, bool) or typing.get_origin(kind) is tuple
                 or isinstance(kind, enum.EnumMeta) or dataclasses.is_dataclass(kind))


def check_settings(settings) -> None:
    """The one rule for every setting: convert each field that :func:`setting` checks to its type, in place."""
    for name, kind in _setting_fields(type(settings)):
        object.__setattr__(settings, name, setting(getattr(settings, name), kind, name))
