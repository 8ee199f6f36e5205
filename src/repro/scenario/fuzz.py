"""Seeded scenario fuzzer: generated ecosystems, checked invariants.

The pipeline's hard-won guarantees — serial == sharded digests,
streaming == batch artifacts, correlation soundness — were each pinned
against hand-written configs.  This module turns them into properties
over *generated* ecosystems: every sample is a random valid
:class:`Scenario` drawn from keyed RNG substreams (pure function of
``(fuzz seed, sample index)``, so two fuzz runs of the same seed
produce byte-identical sample populations on any machine), and every
sample must uphold each applicable invariant end to end.

When a sample fails, :func:`shrink` reduces it by *field reset*: one
spec field at a time is reset to the all-defaults baseline, keeping any
reset that still fails, until no single reset preserves the failure.
The result is a minimal failing spec plus the (usually tiny) set of
fields that actually provoke the bug.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.scenario.compiler import compile_scenario
from repro.scenario.spec import (
    Scenario,
    ScenarioError,
    flat_fields,
    get_field,
    with_field,
)
from repro.simkit.rng import SubstreamFactory

FUZZ_SCENARIO_PREFIX = "fuzz"

# Invariant identifiers, in evaluation order.
INVARIANT_COMPILE = "compile-validate"
INVARIANT_SOUNDNESS = "correlation-soundness"
INVARIANT_STREAMING = "streaming-equals-batch"
INVARIANT_SHARDED = "serial-equals-sharded"
INVARIANT_REPLAY = "serial-replay-determinism"

ALL_INVARIANTS = (INVARIANT_COMPILE, INVARIANT_SOUNDNESS,
                  INVARIANT_STREAMING, INVARIANT_SHARDED, INVARIANT_REPLAY)


# -- generation -------------------------------------------------------------

def generate_scenario(seed: int, index: int) -> Scenario:
    """Sample ``index`` of the fuzz population for ``seed``.

    Scales are kept well under the laptop default so a sample's full
    invariant check (two complete pipeline runs) stays in low single-
    digit seconds; the *shape* space — observer mixes, retention
    pressure, fault weather, ECH adoption, topology skew — is what the
    fuzzer explores.
    """
    draw = SubstreamFactory(seed, "scenario.fuzz").derive(index)
    retention_bound = draw.random() < 0.3
    spec = Scenario(
        name=f"{FUZZ_SCENARIO_PREFIX}-{seed}-{index}",
        description=f"generated sample {index} of fuzz seed {seed}",
        seed=draw.randrange(1, 1_000_000),
    )
    spec = with_field(spec, "fleet.vp_scale",
                      round(draw.uniform(0.003, 0.007), 5))
    spec = with_field(spec, "fleet.exclude_ttl_reset_providers",
                      draw.random() < 0.85)
    spec = with_field(spec, "fleet.pair_resolver_filter",
                      draw.random() < 0.85)
    spec = with_field(spec, "topology.web_site_count", draw.randrange(24, 49))
    spec = with_field(spec, "topology.web_destination_count",
                      draw.randrange(8, 17))
    spec = with_field(spec, "topology.web_vps_per_destination",
                      draw.randrange(3, 7))
    spec = with_field(spec, "topology.dns_vps_per_destination",
                      None if draw.random() < 0.5 else draw.randrange(2, 6))
    spec = with_field(spec, "observers.interceptors_enabled",
                      draw.random() < 0.7)
    spec = with_field(spec, "observers.interceptor_asn_fraction",
                      round(draw.uniform(0.0, 0.15), 4))
    spec = with_field(spec, "observers.sniffer_density_scale",
                      round(draw.uniform(0.25, 1.75), 4))
    spec = with_field(spec, "observers.ech_adoption",
                      draw.choice((0.0, 0.0, 0.5, 1.0)))
    spec = with_field(spec, "observers.cache_refreshing_resolvers",
                      draw.random() < 0.2)
    if retention_bound:
        for class_field in ("retention.onpath_capacity",
                            "retention.resolver_capacity",
                            "retention.destination_capacity"):
            if draw.random() < 0.7:
                spec = with_field(spec, class_field, draw.randrange(4, 65))
    spec = with_field(spec, "timing.send_spacing",
                      round(draw.uniform(0.25, 1.0), 3))
    spec = with_field(spec, "timing.round_interval_days",
                      round(draw.uniform(1.0, 2.0), 3))
    spec = with_field(spec, "timing.observation_window_days",
                      round(draw.uniform(10.0, 16.0), 3))
    spec = with_field(spec, "timing.phase2_observation_window_days",
                      round(draw.uniform(4.0, 8.0), 3))
    spec = with_field(spec, "timing.phase2_max_ttl", draw.randrange(48, 65))
    spec = with_field(spec, "timing.phase2_paths_per_destination",
                      draw.randrange(3, 7))
    spec = with_field(spec, "timing.wildcard_record_ttl",
                      draw.randrange(1800, 7201))
    if draw.random() < 0.4:
        spec = with_field(spec, "faults.seed", draw.randrange(1, 1_000_000))
        spec = with_field(spec, "faults.link_loss_rate",
                          round(draw.uniform(0.0, 0.05), 4))
        spec = with_field(spec, "faults.vp_churn_rate",
                          round(draw.uniform(0.0, 0.2), 4))
        spec = with_field(spec, "faults.honeypot_outages_per_site",
                          draw.randrange(0, 3))
        spec = with_field(spec, "faults.log_delay_rate",
                          round(draw.uniform(0.0, 0.1), 4))
        spec = with_field(spec, "faults.log_duplicate_rate",
                          round(draw.uniform(0.0, 0.05), 4))
    # Encrypted-transport knobs (appended after the original draw
    # sequence so every pre-existing sample keeps its exact shape).
    if draw.random() < 0.35:
        spec = with_field(spec, "observers.doh_adoption",
                          draw.choice((0.3, 0.7, 1.0)))
    if draw.random() < 0.35:
        spec = with_field(spec, "observers.ciphertext_observer_share",
                          round(draw.uniform(0.2, 0.8), 4))
        spec = with_field(spec, "observers.ciphertext_threshold",
                          draw.choice((0.4, 0.6, 0.8)))
        spec = with_field(spec, "observers.ciphertext_fpr",
                          round(draw.uniform(0.0, 0.05), 4))
        spec = with_field(spec, "observers.ciphertext_link_threshold",
                          draw.randrange(2, 5))
    if draw.random() < 0.25:
        spec = with_field(spec, "observers.nod_noise_rate",
                          round(draw.uniform(0.02, 0.2), 4))
    return spec


# -- invariants -------------------------------------------------------------

@dataclass
class InvariantOutcome:
    """One sample's verdict across every invariant."""

    scenario: Scenario
    checks: Dict[str, str] = field(default_factory=dict)
    """invariant name -> "ok" | "skipped: why" | "FAIL: what"."""
    serial_digest: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> List[str]:
        return [f"{name}: {verdict}" for name, verdict in self.checks.items()
                if verdict.startswith("FAIL")]


def _soundness_problems(result) -> List[str]:
    """Correlation soundness over one finished run.

    Every classified event must trace to a registered decoy of the
    right phase, must not precede its decoy's send time, and the
    streaming accumulators must agree with the correlation output on
    the campaign's headline counts.
    """
    problems = []
    registered = {record.domain: record for record in result.ledger.records()}
    for phase_name, correlation, expected_phase in (
            ("phase1", result.phase1, 1), ("phase2", result.phase2, 2)):
        for event in correlation.events:
            record = registered.get(event.decoy.domain)
            if record is None:
                problems.append(
                    f"{phase_name} event for {event.decoy.domain} has no "
                    "ledger record")
                continue
            if event.decoy.phase != expected_phase:
                problems.append(
                    f"{phase_name} event {event.decoy.domain} classified "
                    f"with phase {event.decoy.phase}")
            if event.request.time < record.sent_at:
                problems.append(
                    f"{phase_name} event {event.decoy.domain} at "
                    f"{event.request.time} precedes its decoy send "
                    f"{record.sent_at}")
    analysis = result.analysis
    if analysis is not None:
        if analysis.event_count != len(result.phase1.events):
            problems.append(
                f"analysis saw {analysis.event_count} events, correlation "
                f"produced {len(result.phase1.events)}")
        if analysis.log_entries != len(result.log):
            problems.append(
                f"analysis counted {analysis.log_entries} log entries, "
                f"store holds {len(result.log)}")
        if analysis.matrix.enabled:
            # Matrix soundness: an observer class can only classify
            # domains the campaign actually sent under that mitigation —
            # NOD noise or misattribution would surface as strays here.
            snap = analysis.matrix.snapshot()
            sent = {mitigation: set(domains)
                    for mitigation, domains in snap["sent"]}
            for key, domains in snap["classified"]:
                observer, mitigation = key
                stray = set(domains) - sent.get(mitigation, set())
                if stray:
                    problems.append(
                        f"matrix {observer}/{mitigation} classified "
                        f"{len(stray)} domains never sent with that "
                        "mitigation")
    return problems[:5]


def check_invariants(spec: Scenario, *, workers: int = 2) -> InvariantOutcome:
    """Run the full pipeline for one spec and judge every invariant.

    The serial-vs-sharded digest invariant applies only to shardable
    specs (bounded retention is order-dependent by design and pinned to
    ``workers == 1`` by config validation); unshardable specs run the
    serial pipeline twice and must reproduce their own digest exactly.
    """
    from repro.analysis.paperreport import (
        batch_artifacts,
        full_report,
        streaming_artifacts,
    )
    from repro.core.experiment import Experiment
    from repro.core.shard import result_digest

    outcome = InvariantOutcome(scenario=spec)
    checks = outcome.checks
    try:
        config = compile_scenario(spec)
    except ScenarioError as exc:
        checks[INVARIANT_COMPILE] = f"FAIL: {'; '.join(exc.problems)}"
        for name in ALL_INVARIANTS[1:]:
            checks[name] = "skipped: spec did not compile"
        return outcome
    checks[INVARIANT_COMPILE] = "ok"

    serial = Experiment(config).run()
    outcome.serial_digest = result_digest(serial)

    problems = _soundness_problems(serial)
    checks[INVARIANT_SOUNDNESS] = (
        "ok" if not problems else "FAIL: " + "; ".join(problems))

    batch = batch_artifacts(serial)
    streaming = streaming_artifacts(serial.analysis)
    differing = sorted(key for key in batch
                       if batch[key] != streaming[key])
    checks[INVARIANT_STREAMING] = (
        "ok" if not differing else
        "FAIL: streaming artifacts diverge from batch: "
        + ", ".join(differing))

    shardable = workers > 1 and not any(
        getattr(config, name) is not None
        for name in ("onpath_retention_capacity", "resolver_retention_capacity",
                     "destination_retention_capacity"))
    if shardable:
        sharded_config = dataclasses.replace(config, workers=workers)
        sharded = Experiment(sharded_config).run()
        sharded_digest = result_digest(sharded)
        if sharded_digest != outcome.serial_digest:
            checks[INVARIANT_SHARDED] = (
                f"FAIL: serial {outcome.serial_digest[:12]} != "
                f"{workers}-worker {sharded_digest[:12]}")
        elif full_report(sharded) != full_report(serial):
            checks[INVARIANT_SHARDED] = (
                "FAIL: digests match but sharded report text differs")
        else:
            checks[INVARIANT_SHARDED] = "ok"
        checks[INVARIANT_REPLAY] = "skipped: covered by sharded leg"
    else:
        checks[INVARIANT_SHARDED] = (
            "skipped: bounded retention requires workers == 1"
            if workers > 1 else "skipped: fuzz invoked with workers == 1")
        replay_digest = result_digest(Experiment(config).run())
        checks[INVARIANT_REPLAY] = (
            "ok" if replay_digest == outcome.serial_digest else
            f"FAIL: serial replay {replay_digest[:12]} != first run "
            f"{outcome.serial_digest[:12]}")
    return outcome


# -- fuzz campaign ----------------------------------------------------------

@dataclass
class FuzzSample:
    index: int
    spec_digest: str
    serial_digest: Optional[str]
    checks: Dict[str, str]
    ok: bool
    scenario: Scenario

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "spec_digest": self.spec_digest,
            "serial_digest": self.serial_digest,
            "checks": dict(sorted(self.checks.items())),
            "ok": self.ok,
        }


@dataclass
class FuzzReport:
    seed: int
    workers: int
    samples: List[FuzzSample]

    @property
    def ok(self) -> bool:
        return all(sample.ok for sample in self.samples)

    def run_digest(self) -> str:
        """One hash over every sample's spec and result digests; equal
        across two fuzz runs iff generation AND outcomes reproduced."""
        hasher = hashlib.sha256()
        for sample in self.samples:
            hasher.update(sample.spec_digest.encode())
            hasher.update((sample.serial_digest or "-").encode())
        return hasher.hexdigest()

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "workers": self.workers,
            "ok": self.ok,
            "run_digest": self.run_digest(),
            "samples": [sample.to_payload() for sample in self.samples],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"


def run_fuzz(samples: int, seed: int, *, workers: int = 2,
             progress: Optional[Callable[[FuzzSample], None]] = None,
             stop_on_failure: bool = False) -> FuzzReport:
    """Generate and invariant-check ``samples`` scenarios."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    report = FuzzReport(seed=seed, workers=workers, samples=[])
    for index in range(samples):
        spec = generate_scenario(seed, index)
        outcome = check_invariants(spec, workers=workers)
        sample = FuzzSample(
            index=index,
            spec_digest=spec.digest(),
            serial_digest=outcome.serial_digest,
            checks=outcome.checks,
            ok=outcome.ok,
            scenario=spec,
        )
        report.samples.append(sample)
        if progress is not None:
            progress(sample)
        if stop_on_failure and not sample.ok:
            break
    return report


# -- shrinking --------------------------------------------------------------

def shrink(spec: Scenario, still_fails: Callable[[Scenario], bool],
           baseline: Optional[Scenario] = None,
           ) -> Tuple[Scenario, List[str]]:
    """Reduce a failing spec to a minimal failing field set.

    ``still_fails(candidate)`` must return True while the failure
    reproduces.  Each pass resets one differing field to the baseline
    (all-defaults spec of the same name/seed) and keeps the reset when
    the failure survives; passes repeat until a fixpoint.  Returns the
    shrunk spec and the dotted paths still differing from baseline —
    the minimal failing field set.
    """
    if not still_fails(spec):
        raise ValueError("shrink() needs a spec that currently fails")
    if baseline is None:
        baseline = Scenario(name=spec.name, description=spec.description)
    current = spec
    changed = True
    while changed:
        changed = False
        for path in flat_fields():
            baseline_value = get_field(baseline, path)
            if get_field(current, path) == baseline_value:
                continue
            candidate = with_field(current, path, baseline_value)
            if still_fails(candidate):
                current = candidate
                changed = True
    minimal_fields = [
        path for path in flat_fields()
        if get_field(current, path) != get_field(baseline, path)
    ]
    return current, minimal_fields
