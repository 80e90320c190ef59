"""In-memory spans recorded around the benchmark's calls into qubokit.

A span has a name ``layer.function``, a start and end on the
``time.perf_counter`` clock, the id of the span that encloses it, and a
request id shared by every span of one (instance, solver) call or pipeline
step.  Probe spans time extra calls made only to measure a layer (the
energy re-evaluation, the eigen solve, model construction); the benchmark
subtracts them from the traced pass time.  Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    request: str
    parent: int | None
    start: float
    end: float
    probe: bool
    pass_no: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one pass; ``Tracer.off()`` records nothing."""

    def __init__(self, pass_no: int, enabled: bool = True):
        self.pass_no = pass_no
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @classmethod
    def off(cls) -> "Tracer":
        return cls(pass_no=-1, enabled=False)

    def span(self, name: str, request: str, probe: bool = False):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, request, probe)

    @contextlib.contextmanager
    def _span(self, name: str, request: str, probe: bool):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, request, parent, start, end, probe,
                                   self.pass_no))

    def busy(self, name: str) -> float:
        """Total seconds in spans called ``name`` (probe or not)."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def probe_seconds(self) -> float:
        """Seconds covered by outermost probe spans (nested probes count once)."""
        probes = {s.span_id for s in self.spans if s.probe}
        return sum(s.duration for s in self.spans
                   if s.probe and s.parent not in probes)

    def to_rows(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
