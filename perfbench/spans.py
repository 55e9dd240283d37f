"""In-memory spans and counters for the traced benchmark run.

A span has a name, start, end, the id of the span open when it started
(0 for none) and the id of the job it belongs to.  Spans stay in memory
until ``write`` dumps them as JSON lines at the end of the run.  Counters
are recorded at the same boundaries as the spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "attrs", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        tr = self.tracer
        tr._next_id += 1
        self.sid = tr._next_id
        self.parent = tr._stack[-1] if tr._stack else 0
        tr._stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, tr.job, self.name, self.start, end, self.attrs))
        return False


class Tracer:
    """Collects spans and counters; ``job`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job: int | str = "setup"
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def busy(self) -> dict[str, float]:
        """Seconds spent inside spans of each name (nested spans overlap)."""
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, attrs in self.spans:
                record = {"id": sid, "parent": parent, "job": job, "name": name,
                          "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in used when tracing is off: records nothing."""

    _span = _NoSpan()

    def span(self, name: str, **attrs) -> _NoSpan:
        return self._span

    def count(self, name: str, amount: int = 1) -> None:
        pass
