"""Unit tests for the virtual clock and the event loop."""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkit import Simulator, VirtualClock
from repro.telemetry.registry import MetricsRegistry


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_advance_to_same_instant_is_allowed(self):
        clock = VirtualClock(3.0)
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_advance_backwards_raises(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("late"))
        sim.schedule_at(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule_at(2.0, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_tracks_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [4.0]

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: sim.schedule_in(5.0, lambda: seen.append(sim.now())))
        sim.run()
        assert seen == [15.0]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_run_until_leaves_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        executed = sim.run(until=5.0)
        assert executed == 1
        assert fired == [1]
        assert sim.pending == 1
        assert sim.now() == 5.0

    def test_run_until_fires_events_exactly_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("no"))
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.pending == 0

    def test_max_events_bounds_execution(self):
        sim = Simulator()

        def reschedule():
            sim.schedule_in(1.0, reschedule)

        sim.schedule_at(0.0, reschedule)
        executed = sim.run(max_events=10)
        assert executed == 10

    def test_processed_counter_accumulates(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert sim.processed == 2

    def test_events_scheduled_during_run_are_executed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: sim.schedule_at(2.0, lambda: fired.append("child")))
        sim.run()
        assert fired == ["child"]


class TestLabelCounts:
    def test_labels_tallied_on_execution(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, label="send:dns")
        sim.schedule_at(2.0, lambda: None, label="send:dns")
        sim.schedule_at(3.0, lambda: None, label="retry")
        sim.run()
        assert sim.label_counts == {"send:dns": 2, "retry": 1}

    def test_unlabelled_events_not_tallied(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.label_counts == {}

    def test_cancelled_events_not_tallied(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None, label="x")
        event.cancel()
        sim.run()
        assert sim.label_counts == {}

    def test_experiment_exposes_event_mix(self):
        from repro.core.config import ExperimentConfig
        from repro.core.experiment import Experiment
        result = Experiment(ExperimentConfig.tiny(seed=616)).run()
        counts = result.eco.sim.label_counts
        assert counts.get("send:dns", 0) > 0
        assert any(label.startswith("recursion:") for label in counts)
        assert any(label.startswith("unsolicited:") for label in counts)


class TestRunUntilClockSkip:
    """Regression: run(until=..., max_events=...) must not skip the clock
    to `until` while events before `until` are still queued."""

    def test_max_events_break_leaves_clock_at_last_fired(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        executed = sim.run(until=10.0, max_events=1)
        assert executed == 1
        # The old loop advanced to until=10.0 here, stranding the events
        # at t=2 and t=3 in the simulator's past...
        assert sim.now() == 1.0
        # ...which made the next run() pop events stamped earlier than
        # now() — this continuation used to be impossible.
        assert sim.run() == 2
        assert sim.now() == 3.0

    def test_drained_queue_still_advances_to_until(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now() == 5.0

    def test_max_events_cap_not_hit_still_advances(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=5.0, max_events=10)
        assert sim.now() == 5.0

    def test_pending_event_past_until_does_not_block_advance(self):
        sim = Simulator()
        sim.schedule_at(8.0, lambda: None)
        sim.run(until=5.0, max_events=10)
        assert sim.now() == 5.0
        assert sim.pending == 1


class TestCalendarQueue:
    """The queue fires in (time, sequence) order, whatever order events
    were scheduled in."""

    def test_cross_bucket_order(self):
        sim = Simulator()
        fired = []
        # Schedule out of order.
        for t in (33.0, 1.0, 17.5, 4.0, 3.9999, 64.0, 16.0, 0.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(fired)

    def test_bucket_refill_after_drain(self):
        sim = Simulator()
        fired = []
        # Fire an event, then (from within a later one) schedule a
        # follow-up after the queue has drained once.
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(9.0, lambda: (fired.append("b"),
                                      sim.schedule_at(9.5, lambda: fired.append("c"))))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order_across_push_pattern(self):
        sim = Simulator()
        fired = []
        for name in "abcd":
            sim.schedule_at(6.0, lambda name=name: fired.append(name))
        sim.run()
        assert fired == ["a", "b", "c", "d"]


_TIMES = st.integers(0, 8).map(float)
"""Few distinct times, so ties are common."""
_BEHAVIOURS = st.tuples(
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), max_size=2),
    st.none() | st.integers(0, 40),
)
"""What the event of one sequence number does when it fires: schedule
follow-ups at these delays from now (a delay of 0 ties the current time,
a short one lands before events already queued), then cancel the event
of this sequence number, if one was scheduled."""


class TestQueueOrderProperty:
    @given(st.lists(_TIMES, min_size=1, max_size=20),
           st.lists(_BEHAVIOURS, max_size=40),
           st.sets(st.integers(0, 19), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_list_reference(self, initial, behaviours,
                                           cancelled_first):
        """Events fire in (time, scheduling order) as a sorted list of
        live ``(time, sequence)`` pairs predicts, and ``pending`` and
        ``sim.heap.max_depth`` equal its live counts."""
        registry = MetricsRegistry()
        sim = Simulator(metrics=registry)
        events = []
        reference = []
        max_live = 0

        def schedule(time):
            nonlocal max_live
            sequence = len(events)
            events.append(sim.schedule_at(time, lambda: fire(sequence)))
            bisect.insort(reference, (time, sequence))
            max_live = max(max_live, len(reference))

        def cancel(sequence):
            if sequence < len(events):
                events[sequence].cancel()
                live = [entry for entry in reference if entry[1] == sequence]
                for entry in live:
                    reference.remove(entry)

        def fire(sequence):
            assert (sim.now(), sequence) == reference.pop(0)
            assert sim.pending == len(reference)
            if sequence < len(behaviours):
                delays, target = behaviours[sequence]
                for delay in delays:
                    schedule(sim.now() + delay)
                if target is not None:
                    cancel(target)
            assert sim.pending == len(reference)

        for time in initial:
            schedule(time)
        for sequence in cancelled_first:
            cancel(sequence)
        assert sim.pending == len(reference)
        sim.run()
        assert reference == []
        assert sim.pending == 0
        assert registry.gauge("sim.heap.max_depth").value == max_live


class TestDepthGauge:
    """sim.heap.max_depth samples live depth on push, pop, AND cancel, so
    cancelled events awaiting their pop never inflate the high-water
    mark."""

    def _sim_with_registry(self):
        from repro.telemetry.registry import MetricsRegistry
        registry = MetricsRegistry()
        return Simulator(metrics=registry), registry

    def test_depth_counts_live_events_not_tombstones(self):
        sim, registry = self._sim_with_registry()
        events = [sim.schedule_at(float(t), lambda: None) for t in range(1, 6)]
        for event in events[1:]:
            event.cancel()
        # 5 pushed, 4 cancelled: live depth high-water is 5 (before the
        # cancels), and the gauge never re-inflates afterwards.
        assert registry.gauge("sim.heap.max_depth").value == 5
        sim.schedule_at(10.0, lambda: None)
        # 2 live events now; the recorded max stays 5.
        assert registry.gauge("sim.heap.max_depth").value == 5
        assert sim.pending == 2
