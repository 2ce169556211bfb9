"""Exception types shared across the package, and the line parser that raises them for input files."""

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

    A line that does not parse raises ConfigError naming ``kind``, the file
    and the line number.
    """
    records = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines[first - 1:], start=first):
        try:
            if line.strip():
                records.append(parse(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{kind} {path}, line {number}: {exc!r}") from None
    return records
