"""In-memory span recorder, call-site patching and self-time arithmetic.

A span is (name, start, end, parent, run): ``perf_counter`` seconds, the
index of the enclosing span (-1 for a root) and the id of the benchmark run
(set-up or one timed operation) it belongs to.  Spans are kept in flat
arrays while the workload runs and written out once, at the end.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; ``enabled`` switches the benchmark-side spans."""

    def __init__(self):
        self.enabled = False
        self.run_id = 0
        self.info: dict[int, dict] = {}
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code; does nothing while disabled."""
        if not self.enabled:
            yield None
            return
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, info=None):
        """``fn`` inside a span; ``info(args, kwargs, result)`` annotates it."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.info[idx] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[Span]:
        names = self._names
        return [Span(names[n], s, e, p, r) for n, s, e, p, r in
                zip(self._name, self._start, self._end, self._parent, self._run)]


class Patches:
    """Attribute replacements on modules or classes, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        current = vars(owner)[attr]
        self._saved.append((owner, attr, current))
        setattr(owner, attr, make(current))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out.setdefault(s.parent, []).append(i)
    return out


def step_intervals(spans: list[Span], parent: int, kids: list[int], marker: str):
    """Split a parent span into steps that begin at each ``marker`` child.

    Returns (duration, duration not covered by direct children) per step; the
    last step ends with the parent.
    """
    kids = sorted(kids, key=lambda i: spans[i].start)
    starts = [spans[i].start for i in kids if spans[i].name == marker]
    bounds = starts + [spans[parent].end]
    steps = []
    k = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        covered = 0.0
        while k < len(kids) and spans[kids[k]].start < hi:
            if spans[kids[k]].start >= lo:
                covered += spans[kids[k]].duration
            k += 1
        steps.append((hi - lo, hi - lo - covered))
    return steps


def write_spans(path, spans: list[Span]) -> None:
    """Gzipped tab-separated spans with a header; floats round-trip exactly."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name\tstart\tend\tparent\trun\n")
        for s in spans:
            fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.run}\n")


def read_spans(path) -> list[Span]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["name", "start", "end", "parent", "run"]:
            raise ValueError(f"{path}: not a span file")
        out = []
        for line in fh:
            name, start, end, parent, run = line.rstrip("\n").split("\t")
            out.append(Span(name, float(start), float(end), int(parent), int(run)))
    return out
