"""Tests for result persistence, the full report, and the CLI."""

import contextlib
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.paperreport import full_report
from repro.cli import main
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.persist import (
    AnalysisBundle,
    export_result,
    load_analysis_state,
    load_bundle,
)
from tests.make_pins import bundle_pin, check


@pytest.fixture(scope="module")
def result():
    return Experiment(ExperimentConfig.tiny(seed=20240301)).run()


@pytest.fixture(scope="module")
def bundle_dir(result, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bundle")
    export_result(result, directory)
    return directory


ROW_DAMAGE = {
    # damage: (file, line, the row written there instead, what the
    # loader's message must say)
    "ledger-field-missing": (
        "ledger.jsonl", 2,
        lambda row: {k: v for k, v in row.items() if k != "protocol"},
        "'protocol'"),
    "ledger-identity-missing": (
        "ledger.jsonl", 1,
        lambda row: {k: v for k, v in row.items() if k != "identity"},
        "'identity'"),
    "log-field-unknown": (
        "honeypot_log.jsonl", 3, lambda row: {**row, "bogus": 1}, "'bogus'"),
    "locations-not-object": (
        "locations.jsonl", 1, lambda row: list(row), "not a JSON object"),
    "directory-field-unknown": (
        "ip_directory.jsonl", 2, lambda row: {**row, "bogus": 1}, "'bogus'"),
    # A value of the wrong type, which the record would take as it is.
    "ledger-type": (
        "ledger.jsonl", 2, lambda row: {**row, "path_length": "x"},
        "path_length must be int, got 'x'"),
    "identity-type": (
        "ledger.jsonl", 1,
        lambda row: {**row, "identity": {**row["identity"], "ttl": 9.5}},
        "identity.ttl must be int, got 9.5"),
    "log-type": (
        "honeypot_log.jsonl", 3, lambda row: {**row, "time": "x"},
        "time must be float or int, got 'x'"),
    "location-type": (
        "locations.jsonl", 1, lambda row: {**row, "trigger_ttl": "x"},
        "trigger_ttl must be int or null, got 'x'"),
}
SHAPE_DAMAGE = {
    # damage: (file, the JSON written there instead of its old content).
    # Each meta.json damage also removes analysis.json, which a report
    # would otherwise read instead of meta.json.
    "analysis-list": ("analysis.json", lambda old: [1, 2]),
    "analysis-string": ("analysis.json", lambda old: "x"),
    "analysis-no-state": ("analysis.json", lambda old: {"digest": "x"}),
    "meta-list": ("meta.json", lambda old: [1]),
    "meta-no-config": (
        "meta.json",
        lambda old: {k: v for k, v in old.items() if k != "config"}),
    "meta-zone-int": (
        "meta.json", lambda old: {**old, "config": {**old["config"], "zone": 5}}),
}
BUNDLE_DAMAGE = ["missing", "analysis-cut", "analysis-digest", "ledger-cut",
                 *ROW_DAMAGE, *SHAPE_DAMAGE]


def damaged_bundle(bundle_dir, tmp_path, damage):
    """A copy of ``bundle_dir`` with one kind of damage, and the file the
    loader must name for it."""
    if damage == "missing":
        return tmp_path / "absent", "meta.json"
    copy = tmp_path / "damaged"
    copy.mkdir()
    for path in bundle_dir.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    analysis = copy / "analysis.json"
    if damage in SHAPE_DAMAGE:
        name, rewrite = SHAPE_DAMAGE[damage]
        if name != "analysis.json":
            analysis.unlink()
        path = copy / name
        path.write_text(json.dumps(rewrite(json.loads(path.read_text()))))
        return copy, name
    if damage == "analysis-cut":
        analysis.write_bytes(analysis.read_bytes()[:100])
        return copy, "analysis.json"
    if damage == "analysis-digest":
        payload = json.loads(analysis.read_text())
        payload["digest"] = "0" * 64
        analysis.write_text(json.dumps(payload))
        return copy, "analysis.json"
    analysis.unlink()
    if damage in ROW_DAMAGE:
        name, number, rewrite, _ = ROW_DAMAGE[damage]
        lines = (copy / name).read_text().splitlines(keepends=True)
        row = rewrite(json.loads(lines[number - 1]))
        lines[number - 1] = json.dumps(row) + "\n"
        (copy / name).write_text("".join(lines))
        return copy, f"{name} line {number}"
    ledger = copy / "ledger.jsonl"
    ledger.write_bytes(ledger.read_bytes()[:300])
    return copy, "ledger.jsonl line 1"


@contextlib.contextmanager
def feed_server():
    """An in-process daemon feed: yields (service, port)."""
    from repro.serve.feed import FeedServer
    from repro.serve.service import MeasurementService

    service = MeasurementService()
    server = FeedServer(service)
    server.start()
    try:
        yield service, server.port
    finally:
        server.stop()


class TestExport:
    def test_all_files_written(self, bundle_dir):
        names = {path.name for path in bundle_dir.iterdir()}
        assert names == {
            "meta.json", "ledger.jsonl", "honeypot_log.jsonl",
            "events.jsonl", "locations.jsonl", "ip_directory.jsonl",
            "blocklist.txt", "analysis.json",
        }

    def test_meta_counts(self, result, bundle_dir):
        meta = json.loads((bundle_dir / "meta.json").read_text())
        assert meta["decoys"] == len(result.ledger)
        assert meta["log_entries"] == len(result.log)
        assert meta["config"]["seed"] == 20240301

    def test_jsonl_lines_match_counts(self, result, bundle_dir):
        ledger_lines = (bundle_dir / "ledger.jsonl").read_text().splitlines()
        assert len(ledger_lines) == len(result.ledger)
        log_lines = (bundle_dir / "honeypot_log.jsonl").read_text().splitlines()
        assert len(log_lines) == len(result.log)


class TestBundleBytes:
    """Every byte of an exported bundle is part of the results contract."""

    def test_serial_bundle_pinned(self, bundle_dir):
        check("bundle-tiny-20240301", bundle_pin(bundle_dir))

    def test_two_worker_bundle_equals_serial(self, bundle_dir, tmp_path):
        """Only meta.json may differ: it records the config's workers."""
        config = ExperimentConfig.tiny(seed=20240301)
        config.workers = 2
        sharded = export_result(Experiment(config).run(), tmp_path / "w2")
        names = sorted(path.name for path in bundle_dir.iterdir())
        assert sorted(path.name for path in sharded.iterdir()) == names
        for name in names:
            if name != "meta.json":
                assert (sharded / name).read_bytes() == \
                    (bundle_dir / name).read_bytes(), name

    @pytest.mark.parametrize("name,fields", [
        ("ledger.jsonl", ["vp_province"]),
        ("honeypot_log.jsonl", ["path", "qtype", "user_agent"]),
        ("locations.jsonl", ["observer_address", "observer_asn",
                             "observer_country", "trigger_ttl"]),
    ])
    def test_optional_fields_both_null_and_set(self, bundle_dir, name,
                                               fields):
        """The pin covers how the exporter writes both a null and a value
        of every optional field."""
        rows = [json.loads(line)
                for line in (bundle_dir / name).read_text().splitlines()]
        for field in fields:
            nulls = sum(row[field] is None for row in rows)
            assert 0 < nulls < len(rows), field


class TestLoad:
    def test_roundtrip_counts(self, result, bundle_dir):
        bundle = load_bundle(bundle_dir)
        assert len(bundle.ledger) == len(result.ledger)
        assert len(bundle.log) == len(result.log)
        assert len(bundle.locations) == len(result.locations)
        assert len(bundle.phase1.events) == len(result.phase1.events)
        assert len(bundle.phase2.events) == len(result.phase2.events)

    def test_roundtrip_event_combos(self, result, bundle_dir):
        bundle = load_bundle(bundle_dir)
        original = sorted(event.combo for event in result.phase1.events)
        reloaded = sorted(event.combo for event in bundle.phase1.events)
        assert original == reloaded

    def test_blocklist_membership_preserved(self, result, bundle_dir):
        bundle = load_bundle(bundle_dir)
        for event in result.phase1.events[:50]:
            assert (event.origin_address in bundle.blocklist) == \
                (event.origin_address in result.eco.blocklist)

    def test_directory_preserved(self, result, bundle_dir):
        bundle = load_bundle(bundle_dir)
        for event in result.phase1.events[:50]:
            assert bundle.directory.asn_of(event.origin_address) == \
                result.eco.directory.asn_of(event.origin_address)

    def test_rejects_unknown_format(self, bundle_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in bundle_dir.iterdir():
            (broken / path.name).write_text(path.read_text())
        meta = json.loads((broken / "meta.json").read_text())
        meta["format_version"] = 999
        (broken / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_bundle(broken)

    @pytest.mark.parametrize("damage", list(ROW_DAMAGE))
    def test_rejects_malformed_row_naming_line(self, bundle_dir, tmp_path,
                                               damage):
        bundle, named = damaged_bundle(bundle_dir, tmp_path, damage)
        with pytest.raises(ValueError) as caught:
            load_bundle(bundle)
        message = str(caught.value)
        assert named in message
        assert ROW_DAMAGE[damage][3] in message

    @pytest.mark.parametrize("damage", list(SHAPE_DAMAGE))
    def test_rejects_wrong_shape_naming_file(self, bundle_dir, tmp_path,
                                             damage):
        """JSON of the wrong shape is a ValueError naming its file, from
        both loaders.  A bundle without analysis.json has no stored state
        to refuse: load_analysis_state reads nothing else."""
        bundle, named = damaged_bundle(bundle_dir, tmp_path, damage)
        with pytest.raises(ValueError, match=named):
            load_bundle(bundle)
        if named == "analysis.json":
            with pytest.raises(ValueError, match=named):
                load_analysis_state(bundle)
        else:
            assert load_analysis_state(bundle) is None

    def test_detects_tampered_log(self, bundle_dir, tmp_path):
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for path in bundle_dir.iterdir():
            (tampered / path.name).write_text(path.read_text())
        log_path = tampered / "honeypot_log.jsonl"
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(ValueError):
            load_bundle(tampered)


class TestFullReport:
    def test_report_from_result(self, result):
        report = full_report(result)
        for marker in ("Figure 3", "Table 2", "Table 3", "Figure 4",
                       "Figure 5", "Figure 6", "Figure 7", "Section 5.2"):
            assert marker in report

    def test_report_from_bundle_matches_result(self, result, bundle_dir):
        from_result = full_report(result)
        from_bundle = full_report(load_bundle(bundle_dir))
        assert from_result == from_bundle


class TestCli:
    def test_platform_command(self, capsys):
        assert main(["platform", "--vp-scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Total" in out

    def test_run_tiny_with_export_and_report(self, tmp_path, capsys):
        bundle = tmp_path / "cli-bundle"
        report_file = tmp_path / "report.txt"
        assert main(["run", "--tiny", "--seed", "7",
                     "--export", str(bundle),
                     "--output", str(report_file)]) == 0
        assert bundle.is_dir()
        assert "Figure 4" in report_file.read_text()
        capsys.readouterr()
        assert main(["report", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "reloaded" in out

    def test_report_same_bytes_without_analysis_json(self, result,
                                                     bundle_dir, tmp_path):
        """Without analysis.json the bundle's state is rebuilt from its
        records; the rebuilt state and the rendered bytes are the run's."""
        copy = tmp_path / "bundle"
        copy.mkdir()
        for path in bundle_dir.iterdir():
            (copy / path.name).write_text(path.read_text())
        with_state = tmp_path / "with-state.txt"
        rebuilt = tmp_path / "rebuilt.txt"
        assert main(["report", str(copy), "--output", str(with_state)]) == 0
        (copy / "analysis.json").unlink()
        assert load_bundle(copy).analysis.digest() == result.analysis.digest()
        assert main(["report", str(copy), "--output", str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == with_state.read_bytes()

    def test_report_from_analysis_json_rebuilds_nothing(self, bundle_dir,
                                                        tmp_path,
                                                        monkeypatch):
        """With analysis.json present, the report neither reloads the
        bundle's records nor re-correlates its log: that is why the stored
        path is the fast one.  The test above shows both paths write the
        same bytes."""
        import repro.cli
        import repro.core.persist
        from repro.core.correlate import Correlator

        def rebuild(*args, **kwargs):
            raise AssertionError("the stored-state report rebuilt the state")

        monkeypatch.setattr(repro.cli, "load_bundle", rebuild)
        monkeypatch.setattr(repro.core.persist, "load_bundle", rebuild)
        monkeypatch.setattr(Correlator, "correlate", rebuild)
        report = tmp_path / "report.txt"
        assert main(["report", str(bundle_dir), "--output", str(report)]) == 0
        assert "Figure 4" in report.read_text()

    @pytest.mark.parametrize("damage", BUNDLE_DAMAGE)
    def test_report_unreadable_bundle_exits_2(self, bundle_dir, tmp_path,
                                              capsys, damage):
        bundle, named = damaged_bundle(bundle_dir, tmp_path, damage)
        assert main(["report", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {bundle}: ")
        assert named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", BUNDLE_DAMAGE)
    def test_feed_unreadable_bundle_exits_2_and_sends_nothing(
            self, bundle_dir, tmp_path, capsys, damage):
        bundle, named = damaged_bundle(bundle_dir, tmp_path, damage)
        with feed_server() as (service, port):
            assert main(["feed", str(bundle), "--port", str(port)]) == 2
            assert service.campaign_ids() == []
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {bundle}: ")
        assert named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("batch_size", ["0", "-5"])
    def test_feed_bad_batch_size_exits_2_and_sends_nothing(
            self, bundle_dir, capsys, batch_size):
        with feed_server() as (service, port):
            assert main(["feed", str(bundle_dir), "--port", str(port),
                         "--batch-size", batch_size]) == 2
            assert service.campaign_ids() == []
        assert capsys.readouterr().err == "--batch-size must be >= 1\n"

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_feed_sources_reject_bad_batch_size(self, result, bundle_dir,
                                                batch_size):
        from repro.serve.feed import (
            feed_batches_from_bundle,
            feed_batches_from_result,
        )
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            feed_batches_from_result(result, "c", batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            feed_batches_from_bundle(bundle_dir, "c", batch_size=batch_size)

    @pytest.mark.parametrize("command,option,kind", [
        ("run", "--export", "file"),
        ("run", "--telemetry", "file"),
        ("run", "--digest", "directory"),
        ("run", "--output", "directory"),
        ("scenario-run", "--export", "file"),
        ("scenario-run", "--digest", "directory"),
        ("scenario-run", "--output", "directory"),
    ])
    def test_unwritable_destination_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, command, option, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(Experiment, "run", refuse)
        target = tmp_path / kind
        if kind == "file":
            target.write_text("")
            reason = "exists and is not a directory"
        else:
            target.mkdir()
            reason = "is a directory"
        argv = {"run": ["run", "--tiny", "--seed", "7"],
                "scenario-run": ["scenario", "run", "minimal-smoke"]}[command]
        assert main([*argv, option, str(target)]) == 2
        assert capsys.readouterr().err == f"cannot write {target}: {reason}\n"

    def test_closed_stdout_ends_quietly(self):
        """``repro scenario list | head -1``: when the reader of stdout is
        gone, the command ends without a traceback or anything on
        stderr.  The pipe's read end is closed before the command starts,
        so its first write fails."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
        try:
            finished = subprocess.run(
                [sys.executable, "-m", "repro", "scenario", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert finished.stderr == b""
        assert finished.returncode == 1

    def test_platform_bad_vp_scale_exits_2(self, capsys):
        assert main(["platform", "--vp-scale", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: vp_scale must be "
                              "positive")

    @pytest.mark.parametrize("scale", [["--tiny"], []],
                             ids=["tiny", "default"])
    def test_sharding_without_fork_exits_2(self, monkeypatch, capsys, scale):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert main(["run", *scale, "--workers", "2",
                     "--output", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: workers:")

    @pytest.mark.parametrize("flag, value, field", [
        ("--fault-loss", "2", "link_loss_rate"),
        ("--fault-outages", "-1", "honeypot_outages_per_site"),
    ])
    def test_bad_fault_flag_exits_2(self, monkeypatch, capsys, flag, value,
                                    field):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(Experiment, "run", refuse)
        assert main(["run", "--tiny", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: faults: {field} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("unreadable", ["old-format", "previous-format",
                                            "run-kind", "corrupt-journal",
                                            "not-an-object", "corrupt-json"])
    def test_serve_unreadable_checkpoint_exits_2(self, tmp_path, capsys,
                                                 monkeypatch, unreadable):
        from repro.core.checkpoint import CHECKPOINT_FORMAT
        from repro.serve.daemon import ServeDaemon

        meta = {"format": CHECKPOINT_FORMAT, "kind": "serve"}
        if unreadable == "old-format":
            meta["format"] = 4
        elif unreadable == "previous-format":  # journals of wire v4 blobs
            meta["format"] = CHECKPOINT_FORMAT - 1
        elif unreadable == "run-kind":
            meta["kind"] = "run"
        elif unreadable == "corrupt-journal":
            # One whole frame whose blob is not a feed batch.
            (tmp_path / "campaign-x.journal.bin").write_bytes(
                b"\x00\x00\x00\x0cnot-a-batch!")
        text = json.dumps(meta)
        if unreadable == "not-an-object":
            text = json.dumps(list(meta.items()))
        elif unreadable == "corrupt-json":  # cut short mid-write
            text = text[:12]
        (tmp_path / "meta.json").write_text(text)
        monkeypatch.setattr(ServeDaemon, "run_forever", lambda self: None)
        assert main(["serve", "--checkpoint", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot restore: ")
        assert "fresh checkpoint directory" in err
        assert "re-run the campaign" not in err
