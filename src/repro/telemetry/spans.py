"""Stage spans: wall-clock *and* virtual-clock timing per pipeline stage.

A span records how long a named stage took in real time and which slice
of simulated time it covered.  Spans are observations about *this
process* (wall clock is inherently per-host), so the cross-shard merge
is a concatenation ordered by a stable key — never a sum, and never part
of the determinism contract the way counters and histograms are.

``ExperimentResult.timings`` is derived from these spans (see
:func:`timings_from_spans`), which keeps the historical 4-key dict alive
for analysis/bench consumers while the spans carry the richer story.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict
from typing import Callable, Dict, Iterable, List, Optional

from repro.records import frozen

PARENT_SHARD = -1
"""``Span.shard`` value for the parent process (or a serial run)."""


@frozen
class Span:
    """One completed stage timing."""

    name: str
    wall_seconds: float
    virtual_start: float
    virtual_end: float
    shard: int = PARENT_SHARD

    @property
    def virtual_seconds(self) -> float:
        return self.virtual_end - self.virtual_start

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(
            name=str(data["name"]),
            wall_seconds=float(data["wall_seconds"]),
            virtual_start=float(data["virtual_start"]),
            virtual_end=float(data["virtual_end"]),
            shard=int(data.get("shard", PARENT_SHARD)),
        )


class SpanTracer:
    """Collects spans for one process.

    ``virtual_now`` is the simulator clock read; it may be attached
    after construction (the "build" stage runs before a simulator
    exists) and defaults to a constant 0.0 until then.
    """

    def __init__(self, virtual_now: Optional[Callable[[], float]] = None,
                 shard: int = PARENT_SHARD):
        self.virtual_now = virtual_now
        self.shard = shard
        self.spans: List[Span] = []

    def _virtual(self) -> float:
        return self.virtual_now() if self.virtual_now is not None else 0.0

    @contextmanager
    def span(self, name: str):
        """Record one stage; re-raises, but still records, on error."""
        wall_start = time.perf_counter()
        virtual_start = self._virtual()
        try:
            yield
        finally:
            self.spans.append(Span(
                name=name,
                wall_seconds=time.perf_counter() - wall_start,
                virtual_start=virtual_start,
                virtual_end=self._virtual(),
                shard=self.shard,
            ))

    def add(self, span: Span) -> None:
        self.spans.append(span)


def merge_spans(span_groups: Iterable[Iterable[Span]]) -> List[Span]:
    """Concatenate span groups under a stable total order.

    Sorted by (name, shard, position) so the merged sequence depends
    only on the inputs — not on worker completion order.
    """
    keyed = [
        ((span.name, span.shard, position), span)
        for spans in span_groups
        for position, span in enumerate(spans)
    ]
    return [span for _, span in sorted(keyed, key=lambda pair: pair[0])]


def timings_from_spans(spans: Iterable[Span],
                       shard: int = PARENT_SHARD) -> Dict[str, float]:
    """The legacy ``timings`` dict: stage name -> wall seconds.

    Only the given shard's spans contribute (the serial runner and the
    sharded parent both use :data:`PARENT_SHARD`); repeated stage names
    accumulate.
    """
    timings: Dict[str, float] = {}
    for span in spans:
        if span.shard == shard:
            timings[span.name] = timings.get(span.name, 0.0) + span.wall_seconds
    return timings
