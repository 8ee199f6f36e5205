"""Streaming-vs-batch equivalence and merge-algebra tests.

The streaming engine (:mod:`repro.analysis.streaming`) promises *exact*
equality with the batch analyses — not approximate agreement — on any
seed and any shard layout.  This suite pins that contract:

* three seeds x {serial, 4-worker}: every accumulator-derived artifact
  is bit-identical to batch, and the result and rendered report match
  their pins in ``tests/pins.json``;
* ``AnalysisState.merge`` is associative and commutative over arbitrary
  partitions of a run's feed;
* snapshots round-trip through canonical JSON with equal digests.
"""

import itertools
import json

import pytest

from repro.analysis.paperreport import (
    batch_artifacts,
    full_report,
    full_report_from_state,
    streaming_artifacts,
)
from repro.analysis.streaming import AccumulatorMergeError, AnalysisState
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.shard import result_digest
from repro.simkit.units import HOUR
from tests.make_pins import (
    TINY_SEEDS as SEEDS,
    check,
    ciphertext_config,
    report_pin,
)

WORKERS = 4


@pytest.fixture(scope="module")
def runs():
    """seed -> (serial result, 4-worker result)."""
    results = {}
    for seed in SEEDS:
        serial = Experiment(ExperimentConfig.tiny(seed=seed)).run()
        config = ExperimentConfig.tiny(seed=seed)
        config.workers = WORKERS
        sharded = Experiment(config).run()
        results[seed] = (serial, sharded)
    return results


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_result_digest_pinned(self, runs, seed):
        serial, _ = runs[seed]
        check(f"tiny-{seed}-result", result_digest(serial))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_report_bit_identical(self, runs, seed):
        serial, _ = runs[seed]
        check(f"tiny-{seed}-report", report_pin(serial))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_report_bit_identical(self, runs, seed):
        _, sharded = runs[seed]
        check(f"tiny-{seed}-report", report_pin(sharded))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_artifact_equal(self, runs, seed):
        """Artifact-by-artifact comparison, not just the rendered text."""
        serial, _ = runs[seed]
        batch = batch_artifacts(serial)
        streaming = streaming_artifacts(serial.analysis)
        assert batch.keys() == streaming.keys()
        for key in batch:
            assert batch[key] == streaming[key], f"artifact {key!r} differs"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_state_equals_serial_state(self, runs, seed):
        serial, sharded = runs[seed]
        assert result_digest(serial) == result_digest(sharded)
        assert serial.analysis.digest() == sharded.analysis.digest()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_report_equals_serial_report(self, runs, seed):
        serial, sharded = runs[seed]
        assert (full_report_from_state(sharded.analysis)
                == full_report(serial))


def partition_feed(result, parts):
    """Re-feed a serial run's observations round-robin into fresh states.

    Covers exactly what the campaign fed ``result.analysis``: every decoy
    at send time, every Phase I event, every Phase II location, and the
    final log length (assigned wholly to part 0 — merge sums it).
    """
    eco = result.eco
    states = [AnalysisState(directory=eco.directory, blocklist=eco.blocklist)
              for _ in range(parts)]
    for index, record in enumerate(result.ledger.records()):
        states[index % parts].observe_decoy(record)
    for index, event in enumerate(result.phase1.events):
        states[index % parts].observe_event(event)
    for index, location in enumerate(result.locations):
        states[index % parts].observe_location(location)
    states[0].set_log_entries(len(result.log))
    return states


class TestMergeAlgebra:
    def test_merge_commutative_over_permutations(self, runs):
        serial, _ = runs[SEEDS[0]]
        states = partition_feed(serial, 4)
        digests = {
            AnalysisState.merged([states[i] for i in order]).digest()
            for order in itertools.permutations(range(4))
        }
        assert digests == {serial.analysis.digest()}

    def test_merge_associative(self, runs):
        serial, _ = runs[SEEDS[0]]
        a, b, c, d = partition_feed(serial, 4)
        left = AnalysisState.merged([a, b]).merge(
            AnalysisState.merged([c, d]))
        right = AnalysisState.merged([a]).merge(b).merge(c).merge(d)
        assert left.digest() == right.digest() == serial.analysis.digest()

    def test_partition_count_invariant(self, runs):
        serial, _ = runs[SEEDS[0]]
        reference = serial.analysis.digest()
        for parts in (1, 2, 3, 5):
            merged = AnalysisState.merged(partition_feed(serial, parts))
            assert merged.digest() == reference

    def test_merged_state_renders_identically(self, runs):
        serial, _ = runs[SEEDS[0]]
        merged = AnalysisState.merged(partition_feed(serial, 3))
        assert full_report_from_state(merged) == full_report(serial)

    def test_mismatched_multi_use_window_rejected(self):
        left = AnalysisState()
        right = AnalysisState()
        right.multi_use.after = 2 * HOUR
        with pytest.raises(AccumulatorMergeError):
            left.merge(right)


class TestSnapshotRoundTrip:
    def test_snapshot_is_canonical_json(self, runs):
        serial, _ = runs[SEEDS[0]]
        snapshot = serial.analysis.snapshot()
        wire = json.dumps(snapshot, sort_keys=True)
        assert json.loads(wire) == json.loads(wire)  # stable encoding
        restored = AnalysisState.from_snapshot(json.loads(wire))
        assert restored.digest() == serial.analysis.digest()

    def test_restored_state_renders_identically(self, runs):
        serial, _ = runs[SEEDS[0]]
        restored = AnalysisState.from_snapshot(serial.analysis.snapshot())
        assert full_report_from_state(restored) == full_report(serial)

    def test_restored_state_cannot_observe(self, runs):
        serial, _ = runs[SEEDS[0]]
        restored = AnalysisState.from_snapshot(serial.analysis.snapshot())
        with pytest.raises(RuntimeError):
            restored.observe_event(serial.phase1.events[0])

    def test_unknown_format_rejected(self):
        snapshot = AnalysisState().snapshot()
        snapshot["format"] = 999
        with pytest.raises(ValueError):
            AnalysisState.from_snapshot(snapshot)


@pytest.fixture(scope="module")
def ciphertext_runs():
    """seed -> (serial result, 4-worker result), matrix enabled."""
    return {
        seed: (Experiment(ciphertext_config(seed)).run(),
               Experiment(ciphertext_config(seed, workers=WORKERS)).run())
        for seed in SEEDS
    }


class TestMitigationMatrixEquivalence:
    """The matrix accumulator upholds the same bit-identity contract as
    every other accumulator: batch and streaming artifacts agree, and a
    4-worker shard merge reproduces the serial bytes exactly."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_report_equals_streaming_report(self, ciphertext_runs, seed):
        serial, _ = ciphertext_runs[seed]
        batch = batch_artifacts(serial)
        streaming = streaming_artifacts(serial.analysis)
        for key in batch:
            assert batch[key] == streaming[key], f"artifact {key!r} differs"
        assert "Mitigation vs observer class" in full_report(serial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_equals_sharded(self, ciphertext_runs, seed):
        serial, sharded = ciphertext_runs[seed]
        assert result_digest(serial) == result_digest(sharded)
        assert serial.analysis.digest() == sharded.analysis.digest()
        assert full_report(serial) == full_report(sharded)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matrix_snapshot_round_trips(self, ciphertext_runs, seed):
        serial, _ = ciphertext_runs[seed]
        snapshot = serial.analysis.snapshot()
        assert "matrix" in snapshot
        wire = json.dumps(snapshot, sort_keys=True)
        restored = AnalysisState.from_snapshot(json.loads(wire))
        assert restored.matrix.enabled
        assert restored.digest() == serial.analysis.digest()
        assert full_report_from_state(restored) == full_report(serial)


class TestMatrixMergeAlgebra:
    def _accumulator(self, link_threshold=3):
        from repro.analysis.streaming import MitigationMatrixAccumulator
        return MitigationMatrixAccumulator(enabled=True,
                                           link_threshold=link_threshold)

    def test_merge_is_union_and_order_free(self):
        import json as json_module
        a, b = self._accumulator(), self._accumulator()
        for acc, domains in ((a, ("d1", "d2")), (b, ("d2", "d3"))):
            for domain in domains:
                acc.observe_sent("ech", domain)
                acc.observe_classified("traffic-analysis", "ech", domain)
                acc.observe_flow("ech", domain, "10.0.0.1")
                acc.observe_event(type("E", (), {
                    "decoy": type("D", (), {"mitigation": "ech"})(),
                    "provenance": "metadata-inferred"})())
        ab, ba = self._accumulator(), self._accumulator()
        ab.merge(a); ab.merge(b)
        ba.merge(b); ba.merge(a)
        assert (json_module.dumps(ab.snapshot(), sort_keys=True)
                == json_module.dumps(ba.snapshot(), sort_keys=True))
        rows = {m: cells for m, _, cells in ab.rows()}
        assert ab.rows()[0][1] == 3  # union, not sum
        assert rows["ech"]["traffic-analysis"] == 3

    def test_link_threshold_applies_across_mitigations(self):
        acc = self._accumulator(link_threshold=3)
        acc.observe_sent("none", "d1")
        acc.observe_sent("ech", "d2")
        acc.observe_sent("doh", "d3")
        for mitigation, domain in (("none", "d1"), ("ech", "d2")):
            acc.observe_flow(mitigation, domain, "10.0.0.9")
        assert acc.flagged_destinations() == set()
        acc.observe_flow("doh", "d3", "10.0.0.9")  # third distinct domain
        assert acc.flagged_destinations() == {"10.0.0.9"}
        rows = {m: cells for m, _, cells in acc.rows()}
        assert rows["none"]["dst-ip"] == 1
        assert rows["ech"]["dst-ip"] == 1
        assert rows["doh"]["dst-ip"] == 1

    def test_disabled_default_adopts_enabled_side(self):
        base = AnalysisState()
        other = AnalysisState(matrix_enabled=True, matrix_link_threshold=2)
        base.merge(other)
        assert base.matrix.enabled
        assert base.matrix.link_threshold == 2

    def test_conflicting_link_thresholds_rejected(self):
        left = AnalysisState(matrix_enabled=True, matrix_link_threshold=2)
        right = AnalysisState(matrix_enabled=True, matrix_link_threshold=3)
        with pytest.raises(AccumulatorMergeError):
            left.merge(right)

    def test_default_state_snapshot_is_matrixless(self):
        assert "matrix" not in AnalysisState().snapshot()
