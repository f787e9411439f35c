"""In-memory spans around the harness's calls into ``deligne``.

A span records its name, start, end, parent span, op id and any counts
the caller attaches (flags visited, conditions checked, bytes written).
Spans stay in memory until the run ends and are then written out as JSON
lines.  ``NULL_TRACER`` has the same interface and records nothing; the
end-to-end numbers are always measured with it.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, TextIO


class Span:
    __slots__ = ("tracer", "name", "id", "parent", "op", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.counts: Dict[str, float] = {}

    def __enter__(self) -> "Span":
        t = self.tracer
        self.id = len(t.spans)
        self.parent = t.stack[-1] if t.stack else None
        self.op = t.op_id
        t.spans.append(self)
        t.stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self.tracer.stack.pop()
        return False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    enabled = True

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op_id: Optional[str] = None

    def span(self, name: str) -> Span:
        return Span(self, name)

    def self_ms(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start - covered) * 1e3
        return out

    def write(self, fh: TextIO) -> None:
        """One JSON object per span and line."""
        selfs = self.self_ms()
        for s in self.spans:
            doc = {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "op": s.op,
                "workload": self.workload,
                "start": s.start,
                "end": s.end,
                "self_ms": selfs[s.id],
                "counts": s.counts,
            }
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


class _NullSpan:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, float] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class _NullTracer:
    enabled = False
    op_id: Optional[str] = None
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()

