"""Exception types shared across the package, and the input-file parsing helpers that raise them."""

import numbers
from pathlib import Path


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


def integer_setting(value, field: str) -> int:
    """``value`` as an int if it is an integer, else ConfigError naming ``field``.

    A setting written as ``16.5`` or ``true`` is refused, not truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{field}: must be an integer")
    return int(value)
