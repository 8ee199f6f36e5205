"""Sharded executor determinism: N workers == serial, exactly.

The acceptance property of the sharded campaign executor is that a run
with any worker count produces results *identical* to the serial run on
the same config and seed — same ledger, same honeypot log, same
correlated shadowing events, same label counts, same observer locations.
These tests pin that guarantee at 2 and 4 shards, plus the unit-level
pieces it rests on (keyed substreams, stable pair partition, log merge,
O(1) pending counter), and that a worker's death fails the run at once.
"""

import multiprocessing
import os
import random
import time
import warnings

import pytest

from repro.core import ecosystem, shard
from repro.core.campaign import Campaign, pair_shard
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.shard import (
    events_digest,
    ledger_digest,
    log_digest,
    result_digest,
)
from repro.honeypot.logstore import LoggedRequest, LogStore
from repro.simkit.events import Simulator
from repro.simkit.rng import RandomRouter, SubstreamFactory

SEED = 77003


def _run(workers: int):
    config = ExperimentConfig.tiny(seed=SEED)
    config.workers = workers
    return Experiment(config).run()


@pytest.fixture(scope="module")
def serial():
    return _run(1)


@pytest.fixture(scope="module", params=[2, 4])
def sharded(request):
    return _run(request.param)


class TestShardedRunEqualsSerial:
    def test_ledger_domains_identical(self, serial, sharded):
        assert ([r.domain for r in serial.ledger.records()]
                == [r.domain for r in sharded.ledger.records()])

    def test_ledger_digest_identical(self, serial, sharded):
        assert ledger_digest(serial.ledger) == ledger_digest(sharded.ledger)

    def test_log_identical_including_order(self, serial, sharded):
        assert serial.log.all() == sharded.log.all()
        assert log_digest(serial.log) == log_digest(sharded.log)

    def test_shadowing_event_sequences_identical(self, serial, sharded):
        for phase in ("phase1", "phase2"):
            ours = getattr(serial, phase).events
            theirs = getattr(sharded, phase).events
            assert (
                [(e.decoy.domain, e.request.time, e.combo, e.origin_address)
                 for e in ours]
                == [(e.decoy.domain, e.request.time, e.combo, e.origin_address)
                    for e in theirs]
            )
            assert events_digest(ours) == events_digest(theirs)

    def test_label_counts_identical(self, serial, sharded):
        assert serial.eco.sim.label_counts == sharded.eco.sim.label_counts
        assert serial.eco.sim.processed == sharded.eco.sim.processed

    def test_locations_identical(self, serial, sharded):
        def rows(result):
            return [
                (l.vp_id, l.destination_address, l.protocol, l.trigger_ttl,
                 l.observer_address, l.observer_asn, l.observer_country)
                for l in result.locations
            ]
        assert rows(serial) == rows(sharded)

    def test_result_digest_byte_identical(self, serial, sharded):
        assert result_digest(serial) == result_digest(sharded)

    def test_vetting_and_virtual_span_identical(self, serial, sharded):
        assert len(serial.vetting.kept) == len(sharded.vetting.kept)
        assert (serial.timings["virtual_span"]
                == sharded.timings["virtual_span"])

    def test_ground_truth_identical(self, serial, sharded):
        def rows(result):
            return [
                (o.exhibitor, o.domain, o.observed_at, o.observed_from,
                 o.leveraged, o.scheduled_requests)
                for o in result.eco.ground_truth.observations
            ]
        assert rows(serial) == rows(sharded)


class TestWorkersForkFromVettedWorld:
    def test_workers_neither_build_nor_vet(self, monkeypatch, serial):
        """Workers start from the parent's built and vetted world: a
        build or a vetting pass in any other process fails the run."""
        parent_pid = os.getpid()

        def parent_only(function, name):
            def guarded(*args, **kwargs):
                if os.getpid() != parent_pid:
                    raise AssertionError(f"{name} ran in a shard worker")
                return function(*args, **kwargs)
            return guarded

        for module in (ecosystem, shard):
            monkeypatch.setattr(module, "build_ecosystem", parent_only(
                module.build_ecosystem, "build_ecosystem"))
        monkeypatch.setattr(Campaign, "vet_platform", parent_only(
            Campaign.vet_platform, "vet_platform"))
        assert result_digest(_run(2)) == result_digest(serial)

    def test_parent_forks_single_threaded(self):
        """A worker forked from a multi-threaded parent may inherit a lock
        another thread held.  Python 3.12+ warns on such a fork, and
        turning that warning into an error does not fail the run (the
        interpreter clears it), so record it instead."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _run(2)
        assert not [warning for warning in caught
                    if "multi-threaded" in str(warning.message)]


class _ExitOnRecv:
    """A worker's pipe whose first read ends the worker with exit code 3."""

    def __init__(self, conn):
        self._conn = conn

    def recv(self):
        os._exit(3)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestWorkerDeathFailsTheRun:
    """A worker that exits fails the run within seconds, naming its shard
    and exit code, and no worker outlives the failed run."""

    @pytest.mark.parametrize("when", ["before-phase1", "reading-phase2-slice"])
    def test_dead_worker_fails_fast(self, monkeypatch, when):
        real_worker = shard._shard_worker

        def dying_worker(conn, eco, vetting, shard_index, shard_count):
            if shard_index == 1:
                if when == "before-phase1":
                    os._exit(3)
                conn = _ExitOnRecv(conn)
            real_worker(conn, eco, vetting, shard_index, shard_count)

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(shard, "_shard_worker", dying_worker)
        config = ExperimentConfig.tiny(seed=7)
        config.workers = 2
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match="shard 1 worker exited with code 3"):
            Experiment(config).run()
        assert time.monotonic() - started < 5.0
        assert multiprocessing.active_children() == []


class TestPairShard:
    def test_stable_across_calls(self):
        assert (pair_shard("10.0.0.1", "8.8.8.8", 4)
                == pair_shard("10.0.0.1", "8.8.8.8", 4))

    def test_single_shard_owns_everything(self):
        assert pair_shard("10.0.0.1", "8.8.8.8", 1) == 0

    def test_partition_is_total(self):
        for count in (2, 3, 8):
            shard = pair_shard("10.0.0.1", "9.9.9.9", count)
            assert 0 <= shard < count

    def test_pairs_spread_over_shards(self):
        shards = {
            pair_shard(f"10.0.{i}.1", "8.8.8.8", 4) for i in range(64)
        }
        assert shards == {0, 1, 2, 3}

    def test_known_assignments_pinned(self):
        # The partition is a pure SHA-256 content hash; these values must
        # never change, or sharded replays of old configs would compute a
        # different campaign than they did when recorded.
        expected = {
            ("10.0.0.1", "8.8.8.8"): (1, 1, 1),
            ("10.0.0.2", "8.8.8.8"): (0, 2, 2),
            ("203.0.113.7", "114.114.114.114"): (1, 1, 5),
            ("198.51.100.23", "1.2.4.8"): (0, 2, 2),
        }
        for (vp, destination), shards in expected.items():
            assert tuple(
                pair_shard(vp, destination, count) for count in (2, 4, 8)
            ) == shards

    def test_asymmetric_in_pair_order(self):
        # (vp, dst) and (dst, vp) are different pairs and may hash apart;
        # the partition must key on the ordered pair.
        assert (pair_shard("10.0.0.1", "8.8.8.8", 8)
                != pair_shard("8.8.8.8", "10.0.0.1", 8))


class TestSubstreamFactory:
    def test_same_keys_same_draws(self):
        factory = RandomRouter(99).substreams("ns")
        assert (factory.derive("a", 1).random()
                == factory.derive("a", 1).random())

    def test_different_keys_differ(self):
        factory = RandomRouter(99).substreams("ns")
        assert (factory.derive("a").random()
                != factory.derive("b").random())

    def test_independent_of_stream_consumption(self):
        router = RandomRouter(99)
        before = router.substreams("ns").derive("key").random()
        router.stream("ns").random()  # burn the sequential stream
        after = router.substreams("ns").derive("key").random()
        assert before == after

    def test_distinct_from_stream_derivation(self):
        router = RandomRouter(99)
        assert (router.substreams("ns").derive().random()
                != router.stream("ns").random())

    def test_scoped_matches_extra_keys(self):
        factory = SubstreamFactory(7, "base")
        assert (factory.scoped("a").derive("b").random()
                == factory.derive("a", "b").random())

    def test_pickles(self):
        import pickle
        factory = SubstreamFactory(7, "base")
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert clone.derive("k").random() == factory.derive("k").random()


class TestLogStoreMerge:
    def _entry(self, time, domain):
        return LoggedRequest(time=time, site="US", protocol="dns",
                             src_address="192.0.2.1", domain=domain)

    def test_interleaves_by_time(self):
        merged = LogStore.merged([
            [self._entry(1.0, "a"), self._entry(3.0, "c")],
            [self._entry(2.0, "b")],
        ])
        assert [e.domain for e in merged] == ["a", "b", "c"]

    def test_ties_break_by_shard_position(self):
        merged = LogStore.merged([
            [self._entry(1.0, "shard0")],
            [self._entry(1.0, "shard1")],
        ])
        assert [e.domain for e in merged] == ["shard0", "shard1"]

    def test_empty_shards_allowed(self):
        merged = LogStore.merged([[], [self._entry(1.0, "x")], []])
        assert len(merged) == 1

    def test_no_stores_yields_empty_log(self):
        merged = LogStore.merged([])
        assert len(merged) == 0
        assert list(merged.all()) == []

    def test_single_store_preserved_verbatim(self):
        entries = [self._entry(1.0, "a"), self._entry(2.0, "b"),
                   self._entry(2.0, "c")]
        merged = LogStore.merged([entries])
        # One store needs no interleaving: its arrival order (including
        # same-timestamp tie order) is the serial order and must survive.
        assert [e.domain for e in merged] == ["a", "b", "c"]

    def test_out_of_order_shard_entries_rejected(self):
        # Each shard's simulator guarantees monotonic log time; merged()
        # leans on that, and the store's append guard turns a violation
        # into a hard error rather than a silently misordered log.
        with pytest.raises(ValueError, match="time order"):
            LogStore.merged([[self._entry(2.0, "b"), self._entry(1.0, "a")]])

    def test_all_identical_timestamps_order_by_shard_then_position(self):
        merged = LogStore.merged([
            [self._entry(5.0, "s0a"), self._entry(5.0, "s0b")],
            [self._entry(5.0, "s1a")],
            [self._entry(5.0, "s2a"), self._entry(5.0, "s2b")],
        ])
        assert [e.domain for e in merged] == [
            "s0a", "s0b", "s1a", "s2a", "s2b"]


class TestPendingCounter:
    def test_counter_tracks_push_pop_cancel(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending == 2
        first.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 0

    def test_cancel_after_fire_does_not_underflow(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=1.0)
        event.cancel()
        assert sim.pending == 1
