"""Event queue and simulator loop.

The queue is one binary heap of ``(time, sequence, event)`` tuples:
plain tuples, so ordering comparisons run at C speed, and ``(time,
sequence)`` is globally unique, so ties are impossible and events
scheduled for the same instant fire in scheduling order.

Work is scheduled up front: a campaign queues every Phase I send before
the clock starts, so each planned send holds a lower sequence number
than any follow-up an event handler schedules, and a follow-up landing
on the same instant fires after it.  The queue then peaks at about one
event per planned send, near the size of the decoy ledger the run keeps
anyway.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simkit.clock import VirtualClock
from repro.telemetry.registry import NULL_REGISTRY


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Ordering is (time, sequence) so that events scheduled for the same
    instant fire in scheduling order — a deterministic tiebreak that keeps
    campaigns reproducible.  ``slots=True`` keeps the per-event footprint
    small; a campaign schedules tens of thousands of these.
    """

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    on_cancel: Optional[Callable[[], None]] = field(
        compare=False, default=None, repr=False
    )
    """Owner notification hook — the simulator uses it to keep its pending
    counter live without scanning the queue."""

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        callback, self.on_cancel = self.on_cancel, None
        if callback is not None:
            callback()


class Simulator:
    """Minimal discrete-event simulator.

    Components schedule callbacks at absolute or relative virtual times;
    :meth:`run` drains the queue in timestamp order, advancing the shared
    :class:`VirtualClock` as it goes.
    """

    def __init__(self, clock: Optional[VirtualClock] = None, metrics=None):
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: list = []
        self._counter = itertools.count()
        self._processed = 0
        self._pending = 0
        self.label_counts: dict = {}
        """Executed-event tally per label — free introspection into what a
        campaign actually did (sends, retries, recursions, unsolicited
        emissions, cache refreshes...)."""
        # Handles are fetched once; with telemetry disabled they are
        # shared no-op singletons, keeping the event loop overhead to one
        # no-op call per operation.
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_scheduled = metrics.counter("sim.events.scheduled")
        self._m_fired = metrics.counter("sim.events.fired")
        self._m_cancelled = metrics.counter("sim.events.cancelled")
        self._m_heap_depth = metrics.gauge("sim.heap.max_depth")

    def now(self) -> float:
        return self.clock.now()

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._pending

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def _note_cancel(self) -> None:
        self._pending -= 1
        self._m_cancelled.inc()
        # Live depth shrank; sample it so the gauge reflects cancel-heavy
        # churn the same way it reflects pushes and pops.
        self._m_heap_depth.record(self._pending)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.clock.now()}"
            )
        event = Event(
            time=float(time),
            sequence=next(self._counter),
            action=action,
            label=label,
            on_cancel=self._note_cancel,
        )
        heapq.heappush(self._queue, (event.time, event.sequence, event))
        self._pending += 1
        self._m_scheduled.inc()
        # Depth counts live (not-cancelled) events, not raw heap length,
        # which would count cancelled tombstones awaiting their pop.
        self._m_heap_depth.record(self._pending)
        return event

    def schedule_in(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock.now() + delay, action, label=label)

    # -- main loop ---------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue, optionally stopping at time ``until``.

        Returns the number of events executed by this call.  Events
        scheduled exactly at ``until`` still fire; later ones stay queued.
        ``max_events`` bounds runaway feedback loops in tests.

        The clock only advances to ``until`` when the queue really
        drained past it.  In particular a ``max_events`` break leaves the
        clock at the last fired event: skipping ahead with work still
        queued before ``until`` would make the next :meth:`run` pop
        events stamped earlier than ``now()``.
        """
        executed = 0
        capped = False
        label_counts = self.label_counts
        queue = self._queue
        while True:
            if max_events is not None and executed >= max_events:
                capped = True
                break
            if not queue:
                break
            if until is not None and queue[0][0] > until:
                break
            time_, _sequence, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            # Detach the hook first: a late cancel() on an already-fired
            # event must not decrement the counter a second time.
            event.on_cancel = None
            self._pending -= 1
            self._m_heap_depth.record(self._pending)
            self.clock.advance_to(time_)
            event.action()
            executed += 1
            self._processed += 1
            self._m_fired.inc()
            if event.label:
                label_counts[event.label] = \
                    label_counts.get(event.label, 0) + 1
        if until is not None and not capped and self.clock.now() < until:
            if not queue or queue[0][0] > until:
                self.clock.advance_to(until)
        return executed

    def __repr__(self) -> str:
        return f"Simulator(now={self.clock.now()}, pending={self.pending})"
