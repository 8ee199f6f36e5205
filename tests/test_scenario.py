"""Scenario layer contract tests.

Pins the three guarantees the scenario subsystem makes:

* **Spec round-trip** — ``parse(serialize(spec)) == spec`` for every
  library scenario and for a seeded population of generated specs, and
  every malformed document fails with a structured
  :class:`ScenarioError` naming the offending field — never a bare
  ``KeyError``/``TypeError``.
* **Compiler closure** — the mapping table covers every
  ``ExperimentConfig`` field with provenance, ``paper-faithful`` lowers
  to exactly the default config, and invalid compiled configs surface
  as :class:`ScenarioError`.
* **Fuzzer determinism and shrinking** — the generated population is a
  pure function of the fuzz seed, and a failing spec shrinks to its
  minimal failing field set by field reset.
"""

import dataclasses
import json
import multiprocessing
import time

import pytest

from repro.core.config import ConfigError, ExperimentConfig
from repro.scenario import (
    Scenario,
    ScenarioError,
    UnknownScenarioError,
    compile_scenario,
    compile_with_trace,
    generate_scenario,
    load_library,
    load_named,
    loads_scenario,
    parse_scenario,
    resolve_scenario,
    scenario_names,
    serialize_scenario,
    shrink,
)
from repro.scenario.spec import flat_fields, get_field, with_field
from repro.simkit.units import DAY

LIBRARY_NAMES = ("cn-interception-heavy", "doh-fingerprinted",
                 "ech-everywhere", "ech-everywhere-watched", "hostile-churn",
                 "minimal-smoke", "paper-faithful", "resolver-centralized")


class TestRoundTrip:
    @pytest.mark.parametrize("name", LIBRARY_NAMES)
    def test_library_scenarios_round_trip(self, name):
        spec = load_named(name)
        assert loads_scenario(serialize_scenario(spec)) == spec
        assert parse_scenario(spec.to_dict()) == spec
        assert loads_scenario(serialize_scenario(spec)).digest() == \
            spec.digest()

    @pytest.mark.parametrize("seed", (0, 7, 20240301))
    def test_generated_population_round_trips(self, seed):
        """Property: every generated spec survives dict and JSON forms."""
        for index in range(25):
            spec = generate_scenario(seed, index)
            assert parse_scenario(spec.to_dict()) == spec
            assert loads_scenario(serialize_scenario(spec)) == spec

    def test_serialization_is_canonical(self):
        spec = load_named("minimal-smoke")
        assert serialize_scenario(spec) == serialize_scenario(
            parse_scenario(spec.to_dict()))
        assert serialize_scenario(spec).endswith("\n")

    def test_omitted_sections_mean_defaults(self):
        spec = parse_scenario({"name": "bare"})
        assert spec == Scenario(name="bare")

    def test_digest_moves_with_any_field(self):
        base = Scenario(name="x")
        for path in flat_fields():
            value = get_field(base, path)
            if isinstance(value, bool):
                moved = with_field(base, path, not value)
            elif value is None:
                moved = with_field(base, path, 17)
            elif isinstance(value, str):
                moved = with_field(base, path, value + ".moved")
            else:
                moved = with_field(base, path, value + 1)
            assert moved.digest() != base.digest(), path


class TestStructuredErrors:
    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="bogus: unknown field"):
            parse_scenario({"name": "x", "bogus": 1})

    def test_unknown_section_field(self):
        with pytest.raises(ScenarioError,
                           match=r"observers\.sniffers: unknown field"):
            parse_scenario({"name": "x", "observers": {"sniffers": 3}})

    def test_missing_name(self):
        with pytest.raises(ScenarioError, match="name: required field"):
            parse_scenario({})

    def test_wrong_types_are_named_not_raised_raw(self):
        document = {
            "name": "x",
            "seed": "not-a-seed",
            "fleet": {"vp_scale": "huge"},
            "topology": {"web_site_count": 1.5},
            "engine": {"workers": True},
        }
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(document)
        problems = "\n".join(excinfo.value.problems)
        assert "seed: expected integer" in problems
        assert "fleet.vp_scale: expected number" in problems
        assert "topology.web_site_count: expected integer" in problems
        assert "engine.workers: expected integer" in problems

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario({"name": "", "bogus": 1,
                            "retention": {"onpath_capacity": "many"}})
        assert len(excinfo.value.problems) == 3

    def test_unsupported_format_version(self):
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            parse_scenario({"name": "x", "format": 99})

    def test_non_object_inputs(self):
        with pytest.raises(ScenarioError, match="top level"):
            parse_scenario([1, 2, 3])
        with pytest.raises(ScenarioError, match="expected an object"):
            parse_scenario({"name": "x", "fleet": 7})

    def test_malformed_json_text(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            loads_scenario("{nope")

    def test_fuzzed_corruption_never_leaks_raw_errors(self):
        """Mangling any single field of a valid document either parses
        or raises ScenarioError — never KeyError/TypeError."""
        base = load_named("hostile-churn").to_dict()
        for key in list(base):
            for poison in (object(), [1], {"deep": 1}, "x", 1.5, None):
                mangled = dict(base)
                mangled[key] = poison
                try:
                    parse_scenario(mangled)
                except ScenarioError:
                    pass


class TestCompiler:
    def test_mapping_covers_every_config_field(self):
        _, trace = compile_with_trace(Scenario(name="x"))
        assert set(trace) == {f.name for f in
                              dataclasses.fields(ExperimentConfig)}
        assert trace["vp_scale"] == "fleet.vp_scale"
        assert trace["capture_pcap"].startswith("default:")

    def test_paper_faithful_compiles_to_default_config(self):
        assert compile_scenario(load_named("paper-faithful")) == \
            ExperimentConfig()

    def test_day_fields_lower_exactly(self):
        spec = with_field(Scenario(name="x"),
                          "timing.observation_window_days", 16.0)
        assert compile_scenario(spec).observation_window == 16.0 * DAY

    def test_fair_weather_compiles_no_fault_plan(self):
        assert compile_scenario(Scenario(name="x")).faults is None
        stormy = with_field(Scenario(name="x"), "faults.link_loss_rate", 0.02)
        assert compile_scenario(stormy).faults is not None

    def test_compile_is_deterministic(self):
        spec = load_named("cn-interception-heavy")
        assert compile_scenario(spec) == compile_scenario(spec)

    def test_invalid_compiled_config_is_scenario_error(self):
        spec = with_field(Scenario(name="x"), "fleet.vp_scale", -0.5)
        with pytest.raises(ScenarioError, match="compiled config rejected"):
            compile_scenario(spec)

    def test_retention_with_workers_is_rejected_at_compile(self):
        spec = with_field(Scenario(name="x"), "retention.onpath_capacity", 8)
        spec = with_field(spec, "engine.workers", 2)
        with pytest.raises(ScenarioError, match="require workers == 1"):
            compile_scenario(spec)


class TestConfigValidation:
    def test_collects_every_problem(self):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(vp_scale=0.0, send_spacing=-1.0,
                             phase2_max_ttl=0)
        problems = excinfo.value.problems
        assert len(problems) == 3
        assert any(p.startswith("vp_scale:") for p in problems)

    def test_default_config_is_valid(self):
        ExperimentConfig().validate()

    def test_mutated_config_revalidates(self):
        config = ExperimentConfig()
        config.workers = 0
        with pytest.raises(ConfigError, match="workers:"):
            config.validate()

    def test_sharding_needs_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(workers=2)
        assert [p for p in excinfo.value.problems
                if p.startswith("workers:") and "'fork'" in p]
        ExperimentConfig(workers=1).validate()

    # <29-char identifier>.<zone> fills the 255 wire bytes exactly.
    LONGEST_ZONE = ".".join(["z" * 63] * 3 + ["w" * 31])

    def test_zone_must_fit_decoy_names(self):
        assert len(self.LONGEST_ZONE) == 223
        ExperimentConfig(zone=self.LONGEST_ZONE).validate()
        # A zone of only dots names the root, under which no logged name
        # decodes: the campaign would send its decoys and find nothing.
        for zone in (self.LONGEST_ZONE + "w", "a..example", "x" * 64 + ".example",
                     "bücher.example", "", ".", "..."):
            with pytest.raises(ConfigError) as excinfo:
                ExperimentConfig(zone=zone)
            assert [p for p in excinfo.value.problems if p.startswith("zone:")]

    @pytest.mark.parametrize("zone", [5, None, b"www.experiment.domain"])
    def test_zone_must_be_a_string(self, zone):
        # Each formats into a valid decoy name, but the campaign would die
        # mid-run normalizing it.
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(zone=zone)
        assert [p for p in excinfo.value.problems
                if p.startswith("zone:")] == [
            f"zone: must be a str, a DNS name such as "
            f"'www.experiment.domain' (got {zone!r})"]
        config = ExperimentConfig.tiny(seed=7)
        config.zone = zone
        with pytest.raises(ConfigError, match="zone:"):
            config.validate()

    def test_longest_zone_runs(self):
        from repro.core.experiment import Experiment

        config = ExperimentConfig.tiny(seed=7)
        config.zone = self.LONGEST_ZONE
        result = Experiment(config).run()
        assert result.phase1.events
        assert all(record.domain.endswith("." + self.LONGEST_ZONE)
                   for record in result.ledger.records())

    def test_scenario_run_rejects_overlong_zone_before_running(self, tmp_path,
                                                              capsys):
        from repro.cli import main

        zone = self.LONGEST_ZONE + "wwwwww"
        assert len(zone) == 229
        path = tmp_path / "long-zone.json"
        path.write_text(serialize_scenario(Scenario(name="long-zone",
                                                    zone=zone)))
        report = tmp_path / "report.txt"
        assert main(["scenario", "run", str(path),
                     "--output", str(report)]) == 2
        assert "zone:" in capsys.readouterr().err
        assert not report.exists()


class TestLibrary:
    def test_expected_names_present(self):
        assert set(LIBRARY_NAMES) <= set(scenario_names())

    def test_every_library_scenario_compiles(self):
        for name, spec in load_library().items():
            config, trace = compile_with_trace(spec)
            assert config.seed == spec.seed, name
            assert set(trace) == {f.name for f in
                                  dataclasses.fields(ExperimentConfig)}

    def test_library_compiles_in_under_10ms_per_spec(self):
        """Launch overhead stays invisible next to a multi-second
        campaign (tens of microseconds per spec, far under the bound)."""
        library = list(load_library().values())
        passes = 20
        started = time.perf_counter()
        for _ in range(passes):
            for spec in library:
                compile_with_trace(spec)
        mean = (time.perf_counter() - started) / (passes * len(library))
        assert mean < 0.01, f"mean compile {mean * 1e3:.2f} ms"

    def test_encrypted_transport_pack_lowers_ciphertext_knobs(self):
        """The two ciphertext-observer scenarios drive the new config
        surface: full mitigation adoption plus metadata observers."""
        watched = compile_scenario(load_named("ech-everywhere-watched"))
        assert watched.ech_adoption == 1.0
        assert watched.ciphertext_observer_share == 0.5
        assert watched.ciphertext_fpr == 0.01
        fingerprinted = compile_scenario(load_named("doh-fingerprinted"))
        assert fingerprinted.doh_adoption == 1.0
        assert fingerprinted.ciphertext_observer_share == 0.5
        assert fingerprinted.nod_noise_rate == 0.1

    def test_unknown_name_lists_library(self):
        with pytest.raises(UnknownScenarioError, match="paper-faithful"):
            load_named("ghost")

    def test_stem_must_match_declared_name(self, tmp_path):
        path = tmp_path / "alias.json"
        path.write_text(serialize_scenario(Scenario(name="other")))
        with pytest.raises(ScenarioError, match="declares name"):
            import repro.scenario.library as library
            original = library.SCENARIO_DATA_DIR
            library.SCENARIO_DATA_DIR = tmp_path
            try:
                load_named("alias")
            finally:
                library.SCENARIO_DATA_DIR = original

    def test_resolve_dispatches_name_or_path(self, tmp_path):
        assert resolve_scenario("minimal-smoke").name == "minimal-smoke"
        path = tmp_path / "custom.json"
        path.write_text(serialize_scenario(Scenario(name="custom-world")))
        assert resolve_scenario(path).name == "custom-world"
        assert resolve_scenario(str(path)).name == "custom-world"


class TestFuzzer:
    def test_generation_is_pure_in_seed_and_index(self):
        for index in range(10):
            assert generate_scenario(7, index) == generate_scenario(7, index)
        assert generate_scenario(7, 0) != generate_scenario(8, 0)
        assert generate_scenario(7, 0) != generate_scenario(7, 1)

    def test_500_generated_specs_are_distinct(self):
        digests = {generate_scenario(7, index).digest()
                   for index in range(500)}
        assert len(digests) == 500

    def test_generated_specs_compile_and_respect_retention_rule(self):
        saw_retention = False
        for index in range(40):
            spec = generate_scenario(11, index)
            config = compile_scenario(spec)
            if any(capacity is not None for capacity in
                   (config.onpath_retention_capacity,
                    config.resolver_retention_capacity,
                    config.destination_retention_capacity)):
                saw_retention = True
                assert config.workers == 1
        assert saw_retention, "population never exercised bounded retention"

    def test_shrink_finds_minimal_failing_field_set(self):
        """A spec broken in exactly one field, buried under unrelated
        non-default noise, shrinks back to just that field."""
        spec = Scenario(name="broken")
        spec = with_field(spec, "fleet.vp_scale", -0.5)       # the bug
        spec = with_field(spec, "seed", 999)                  # noise
        spec = with_field(spec, "topology.web_site_count", 77)
        spec = with_field(spec, "observers.ech_adoption", 0.5)
        spec = with_field(spec, "faults.link_loss_rate", 0.01)

        def fails(candidate):
            try:
                compile_scenario(candidate)
            except ScenarioError:
                return True
            return False

        shrunk, minimal = shrink(spec, fails)
        assert minimal == ["fleet.vp_scale"]
        assert get_field(shrunk, "fleet.vp_scale") == -0.5
        assert get_field(shrunk, "seed") == Scenario(name="x").seed

    def test_shrink_keeps_conjoined_failing_fields(self):
        """A failure needing two fields (retention + workers) keeps
        exactly those two after shrinking."""
        spec = Scenario(name="broken")
        spec = with_field(spec, "retention.onpath_capacity", 8)
        spec = with_field(spec, "engine.workers", 2)
        spec = with_field(spec, "timing.phase2_max_ttl", 48)  # noise

        def fails(candidate):
            try:
                compile_scenario(candidate)
            except ScenarioError:
                return True
            return False

        _, minimal = shrink(spec, fails)
        assert minimal == ["retention.onpath_capacity", "engine.workers"]

    def test_shrink_rejects_passing_specs(self):
        with pytest.raises(ValueError, match="currently fails"):
            shrink(Scenario(name="fine"), lambda candidate: False)

    def test_fuzz_report_payload_shape(self):
        from repro.scenario.fuzz import FuzzReport, FuzzSample
        report = FuzzReport(seed=7, workers=2, samples=[FuzzSample(
            index=0, spec_digest="a" * 64, serial_digest="b" * 64,
            checks={"compile-validate": "ok"}, ok=True,
            scenario=Scenario(name="s"))])
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["run_digest"] == report.run_digest()
        assert payload["samples"][0]["spec_digest"] == "a" * 64
        assert "scenario" not in payload["samples"][0]
