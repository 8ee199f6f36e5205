"""repro.telemetry: registry semantics, spans, export, and the
shard-merge acceptance property.

The acceptance criterion for the telemetry subsystem is twofold:

1. **Non-perturbation** — enabling telemetry changes nothing about the
   computed experiment (same ``result_digest`` as a telemetry-off run).
2. **Merge exactness** — a sharded run's merged counters and histograms
   equal the serial run's, value for value.  (Gauges and spans are
   per-process observations and deliberately excluded.)
"""

import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.shard import result_digest
from repro.telemetry import (
    MERGE_SAME,
    MetricsRegistry,
    NULL_REGISTRY,
    PARENT_SHARD,
    RunTelemetry,
    Span,
    SpanTracer,
    labeled,
    load_telemetry,
    merge_spans,
    registry_for,
    render_telemetry,
    timings_from_spans,
    write_telemetry,
)

SEED = 41005


# -- registry unit semantics ----------------------------------------------


class TestCounters:
    def test_sum_merge_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("sends").inc(3)
        b.counter("sends").inc(4)
        merged = MetricsRegistry.merged([a, b])
        assert merged.counter_values() == {"sends": 7}

    def test_same_merge_keeps_common_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("planned", merge=MERGE_SAME).inc(12)
        b.counter("planned", merge=MERGE_SAME).inc(12)
        merged = MetricsRegistry.merged([a, b])
        assert merged.counter_values() == {"planned": 12}

    def test_same_merge_tolerates_a_zero_source(self):
        # The sharded parent never schedules phase 1, so its registry may
        # simply lack (or hold zero for) a "same" counter the workers set.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("planned", merge=MERGE_SAME)
        b.counter("planned", merge=MERGE_SAME).inc(9)
        merged = MetricsRegistry.merged([a, b])
        assert merged.counter_values() == {"planned": 9}

    def test_same_merge_disagreement_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("planned", merge=MERGE_SAME).inc(12)
        b.counter("planned", merge=MERGE_SAME).inc(13)
        with pytest.raises(ValueError, match="disagrees"):
            MetricsRegistry.merged([a, b])

    def test_conflicting_merge_policy_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="merge"):
            registry.counter("x", merge=MERGE_SAME)

    def test_unknown_merge_policy_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x", merge="average")

    def test_handles_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGaugesAndHistograms:
    def test_gauge_keeps_high_water_mark(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.record(5)
        gauge.record(3)
        assert gauge.value == 5

    def test_gauge_merge_is_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").record(5)
        b.gauge("depth").record(9)
        assert MetricsRegistry.merged([a, b]).gauge_values() == {"depth": 9}

    def test_histogram_buckets(self):
        histogram = MetricsRegistry().histogram("delay", (10, 100))
        for value in (1, 10, 11, 1000):
            histogram.observe(value)
        # counts[i] tallies <= bounds[i]; last bucket is overflow.
        assert histogram.counts == [2, 1, 1]
        assert histogram.total == 4

    def test_histogram_merge_adds_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("delay", (10, 100)).observe(5)
        b.histogram("delay", (10, 100)).observe(50)
        merged = MetricsRegistry.merged([a, b])
        assert merged.histogram_values() == {"delay": [1, 1, 0]}

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("delay", (10, 100))
        with pytest.raises(ValueError, match="bounds"):
            registry.histogram("delay", (10, 200))

    def test_invalid_bounds_raise(self):
        for bad in ((), (10, 10), (100, 10)):
            with pytest.raises(ValueError):
                MetricsRegistry().histogram("delay", bad)


class TestSnapshots:
    def test_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.counter("b", merge=MERGE_SAME).inc(7)
        registry.gauge("g").record(3.5)
        registry.histogram("h", (1, 2)).observe(1.5)
        clone = MetricsRegistry.from_snapshot(registry.snapshot())
        assert clone.snapshot() == registry.snapshot()

    def test_snapshot_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa").inc()
        snapshot = registry.snapshot()
        json.dumps(snapshot)
        assert list(snapshot["counters"]) == ["aa", "zz"]


class TestNullBackend:
    def test_null_registry_is_free_of_state(self):
        NULL_REGISTRY.counter("x").inc(100)
        NULL_REGISTRY.gauge("g").record(5)
        NULL_REGISTRY.histogram("h", (1,)).observe(2)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert not NULL_REGISTRY.enabled

    def test_null_handles_are_shared_singletons(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.gauge("a") is NULL_REGISTRY.gauge("b")

    def test_registry_for(self):
        assert registry_for(False) is NULL_REGISTRY
        assert registry_for(True).enabled


class TestLabeled:
    def test_labels_sorted_and_canonical(self):
        assert (labeled("campaign.decoys_sent", protocol="dns", phase=1)
                == "campaign.decoys_sent[phase=1,protocol=dns]")

    def test_no_labels_is_identity(self):
        assert labeled("plain") == "plain"


# -- spans ----------------------------------------------------------------


class TestSpans:
    def test_tracer_records_wall_and_virtual(self):
        clock = iter([100.0, 250.0])
        tracer = SpanTracer(virtual_now=lambda: next(clock), shard=3)
        with tracer.span("phase1"):
            pass
        (span,) = tracer.spans
        assert span.name == "phase1"
        assert span.shard == 3
        assert span.wall_seconds >= 0
        assert (span.virtual_start, span.virtual_end) == (100.0, 250.0)
        assert span.virtual_seconds == 150.0

    def test_span_recorded_even_on_error(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("stage failed")
        assert [span.name for span in tracer.spans] == ["boom"]

    def test_merge_order_is_input_independent(self):
        def spans(shard):
            return [Span("phase1", 0.1, 0, 1, shard=shard),
                    Span("phase2", 0.2, 1, 2, shard=shard)]
        forward = merge_spans([spans(0), spans(1)])
        backward = merge_spans([spans(1), spans(0)])
        assert forward == backward
        assert [(s.name, s.shard) for s in forward] == [
            ("phase1", 0), ("phase1", 1), ("phase2", 0), ("phase2", 1)]

    def test_timings_from_spans_filters_and_accumulates(self):
        spans = [
            Span("phase1", 1.0, 0, 1, shard=PARENT_SHARD),
            Span("phase1", 0.5, 1, 2, shard=PARENT_SHARD),
            Span("phase1", 9.0, 0, 1, shard=0),
        ]
        assert timings_from_spans(spans) == {"phase1": 1.5}
        assert timings_from_spans(spans, shard=0) == {"phase1": 9.0}

    def test_span_dict_roundtrip(self):
        span = Span("build", 0.25, 10.0, 20.0, shard=2)
        assert Span.from_dict(span.to_dict()) == span


# -- end-to-end: the merge acceptance property ----------------------------


def _run(workers: int, telemetry: bool = True):
    config = ExperimentConfig.tiny(seed=SEED)
    config.workers = workers
    config.telemetry = telemetry
    return Experiment(config).run()


@pytest.fixture(scope="module")
def serial():
    return _run(1)


@pytest.fixture(scope="module")
def sharded():
    return _run(4)


class TestTelemetryMergeEqualsSerial:
    def test_counters_identical(self, serial, sharded):
        ours = serial.telemetry.metrics.snapshot()["counters"]
        theirs = sharded.telemetry.metrics.snapshot()["counters"]
        assert ours and ours == theirs

    def test_histograms_identical(self, serial, sharded):
        ours = serial.telemetry.metrics.snapshot()["histograms"]
        theirs = sharded.telemetry.metrics.snapshot()["histograms"]
        assert ours and ours == theirs

    def test_telemetry_does_not_perturb_the_run(self, serial):
        plain = _run(1, telemetry=False)
        assert result_digest(plain) == result_digest(serial)
        # The disabled run still carries spans (they are free), but no
        # metrics.
        assert plain.telemetry.metrics is NULL_REGISTRY
        assert not plain.telemetry.enabled

    def test_counters_cover_every_layer(self, serial):
        counters = serial.telemetry.metrics.counter_values()
        for prefix in ("campaign.decoys_sent", "sim.events.scheduled",
                       "honeypot.requests", "observer.observed",
                       "emitter.emitted", "vetting.kept"):
            assert any(name.startswith(prefix) for name in counters), prefix

    def test_vetting_probe_counters(self, serial):
        two_workers = _run(2).telemetry.metrics.counter_values()
        counters = serial.telemetry.metrics.counter_values()
        probes = counters["vetting.pair_probes"]
        built = counters["vetting.probe_paths_built"]
        assert 0 < built <= probes
        assert two_workers["vetting.pair_probes"] == probes
        assert two_workers["vetting.probe_paths_built"] == built

    def test_consistency_across_layers(self, serial):
        counters = serial.telemetry.metrics.counter_values()
        sent = sum(value for name, value in counters.items()
                   if name.startswith("campaign.decoys_sent["))
        assert sent == len(serial.ledger)
        requests = sum(value for name, value in counters.items()
                       if name.startswith("honeypot.requests["))
        assert requests == len(serial.log)

    def test_spans_cover_the_pipeline(self, serial, sharded):
        assert {s.name for s in serial.telemetry.spans} == {
            "build", "phase1", "phase2", "correlate"}
        names = {(s.name, s.shard) for s in sharded.telemetry.spans}
        for shard in (PARENT_SHARD, 0, 1, 2, 3):
            assert ("phase1", shard) in names
        assert ("merge_final", PARENT_SHARD) in names

    def test_timings_derive_from_spans(self, serial):
        derived = timings_from_spans(serial.telemetry.spans)
        for name, seconds in derived.items():
            assert serial.timings[name] == seconds

    def test_meta_records_run_identity(self, sharded):
        assert sharded.telemetry.meta["seed"] == SEED
        assert sharded.telemetry.meta["workers"] == 4


# -- export + render + CLI ------------------------------------------------


class TestExportAndRender:
    def test_write_load_roundtrip(self, serial, tmp_path):
        capture = write_telemetry(serial.telemetry, tmp_path / "tel")
        loaded = load_telemetry(capture)
        assert (loaded.metrics.snapshot()
                == serial.telemetry.metrics.snapshot())
        assert loaded.spans == serial.telemetry.spans
        assert loaded.meta["seed"] == SEED

    def test_load_accepts_directory_and_spans_file(self, serial, tmp_path):
        write_telemetry(serial.telemetry, tmp_path)
        from_dir = load_telemetry(tmp_path)
        assert from_dir.spans == serial.telemetry.spans
        spans_only = load_telemetry(tmp_path / "spans.jsonl")
        assert spans_only.spans == serial.telemetry.spans

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_telemetry(tmp_path / "nope")

    def test_render_mentions_every_section(self, serial):
        text = render_telemetry(serial.telemetry)
        for needle in ("Counters", "Gauges", "Histograms", "Stage spans",
                       "campaign.sends_planned", "sim.heap.max_depth"):
            assert needle in text

    def test_render_empty_capture(self):
        text = render_telemetry(RunTelemetry())
        assert "empty" in text


class TestCli:
    def test_run_and_render(self, tmp_path, capsys):
        from repro.cli import main
        capture = tmp_path / "tel"
        code = main(["run", "--tiny", "--seed", str(SEED),
                     "--telemetry", str(capture),
                     "--output", str(tmp_path / "report.txt")])
        assert code == 0
        assert (capture / "telemetry.json").exists()
        assert (capture / "spans.jsonl").exists()
        capsys.readouterr()
        assert main(["telemetry", str(capture)]) == 0
        out = capsys.readouterr().out
        assert "campaign.sends_planned" in out

    def test_missing_capture_fails_cleanly(self, tmp_path):
        from repro.cli import main
        assert main(["telemetry", str(tmp_path / "absent")]) == 2

    @pytest.mark.parametrize("name, where", [
        ("telemetry.json", ": "), ("spans.jsonl", " line 1: ")])
    def test_unreadable_capture_exits_2(self, serial, tmp_path, capsys,
                                        name, where):
        from repro.cli import main
        write_telemetry(serial.telemetry, tmp_path)
        capture = tmp_path / name
        capture.write_bytes(capture.read_bytes()[:50])
        assert main(["telemetry", str(capture)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {capture}: {capture}{where}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, content, where", [
        ("telemetry.json", "[1]", ": "),
        ("telemetry.json", '"x"', ": "),
        ("telemetry.json", '{"metrics": [1]}', ": "),
        ("telemetry.json", '{"metrics": {"counters": {"x": 5}}}', ": "),
        ("telemetry.json", '{"spans": [1]}', ": "),
        ("telemetry.json", '{"meta": [1]}', ": "),
        ("telemetry.json", '{"meta": [[1, 2]], "metrics": {}, "spans": []}',
         ": "),
        ("telemetry.json", '{"enabled": "no", "metrics": {}, "spans": []}',
         ": "),
        ("telemetry.json", '{"enabled": 1}', ": "),
        ("spans.jsonl", "[1]\n", " line 1: "),
    ])
    def test_wrong_shape_capture_exits_2(self, tmp_path, capsys, name,
                                         content, where):
        """JSON of the wrong shape is a ValueError naming the file, which
        the command reports in one line."""
        from repro.cli import main
        capture = tmp_path / name
        capture.write_text(content)
        with pytest.raises(ValueError) as caught:
            load_telemetry(capture)
        assert str(caught.value).startswith(f"{capture}{where}")
        assert main(["telemetry", str(capture)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {capture}: {capture}{where}")
        assert err.count("\n") == 1
