"""End-to-end experiment orchestration.

``Experiment(config).run()`` executes the whole paper pipeline:

1. build the simulated world (:mod:`repro.core.ecosystem`),
2. vet the VPN platform and run Phase I (:mod:`repro.core.campaign`),
3. correlate honeypot logs and classify unsolicited requests,
4. sample problematic paths and run Phase II tracerouting,
5. locate observers from minimal trigger TTLs and ICMP reporters.

With ``config.workers > 1`` the run is dispatched to the sharded
executor (:mod:`repro.core.shard`), which partitions the campaign across
worker processes and deterministically merges their outputs into the
same result the serial path produces.

The returned :class:`ExperimentResult` is the single input every analysis
and benchmark consumes.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.campaign import Campaign, PathInfo
from repro.core.config import ExperimentConfig
from repro.core.correlate import (
    CorrelationResult,
    Correlator,
    DecoyLedger,
    split_correlation,
)
from repro.core.ecosystem import Ecosystem, build_ecosystem
from repro.core.phase2 import HopByHopTracer, ObserverLocation
from repro.honeypot.logstore import LogStore
from repro.records import frozen
from repro.telemetry.export import RunTelemetry
from repro.telemetry.spans import SpanTracer, timings_from_spans
from repro.vpn.vetting import VettingReport


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    config: ExperimentConfig
    eco: Ecosystem
    campaign: Campaign
    phase1: CorrelationResult
    phase2: CorrelationResult
    locations: List[ObserverLocation]
    vetting: VettingReport
    timings: Dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per stage ("phase1", "phase2", "correlate") and
    the virtual campaign span ("virtual_span").  Derived from
    ``telemetry.spans`` — kept as a plain dict so analysis and bench
    consumers predating the telemetry subsystem keep working."""
    telemetry: Optional[RunTelemetry] = None
    """Stage spans always; merged counters/gauges/histograms when
    ``config.telemetry`` is on (see docs/OBSERVABILITY.md)."""
    analysis: Optional[object] = None
    """Merged :class:`~repro.analysis.streaming.AnalysisState` — the
    streaming mirror of every paper artifact, fed as the run progressed
    (see docs/STREAMING.md).  Persisted bundles export it so ``repro
    report`` can render without re-correlating."""

    @property
    def ledger(self) -> DecoyLedger:
        return self.campaign.ledger

    @property
    def log(self) -> LogStore:
        return self.eco.deployment.log

    def problematic_path_keys(self) -> List[Tuple[str, str, str]]:
        """Distinct (vp_id, destination address, decoy protocol) triples
        whose Phase I decoys triggered unsolicited requests."""
        seen = set()
        ordered = []
        for event in self.phase1.events:
            key = (event.decoy.vp_id, event.decoy.destination_address,
                   event.decoy.protocol)
            if key not in seen:
                seen.add(key)
                ordered.append(key)
        return ordered


@frozen
class Phase2PlanEntry:
    """One problematic path selected for Phase II tracerouting.

    Selection runs once over the merged Phase I correlation (quotas are
    global, so no shard could compute them alone); entries are then
    dispatched to whichever shard owns the (VP, destination) pair.
    """

    index: int
    vp_id: str
    vp_address: str
    destination_address: str
    destination_country: str
    destination_name: str
    protocol: str


def plan_phase2(eco: Ecosystem, phase1: CorrelationResult,
                config: ExperimentConfig) -> List[Phase2PlanEntry]:
    """Sample problematic paths per destination, in correlation order.

    Pure selection — no paths are materialized and no events queued — so
    the serial runner and the sharded executor share one plan and their
    Phase II probe sets match entry for entry.
    """
    known_destinations = {d.address for d in eco.dns_destinations}
    known_destinations.update(d.address for d in eco.web_destinations)
    known_vps = {vp.vp_id for vp in eco.platform.vantage_points}

    entries: List[Phase2PlanEntry] = []
    per_destination: Dict[Tuple[str, str], int] = {}
    selected = set()
    for event in phase1.events:
        decoy = event.decoy
        key = (decoy.vp_id, decoy.destination_address, decoy.protocol)
        if key in selected:
            continue
        quota_key = (decoy.destination_address, decoy.protocol)
        count = per_destination.get(quota_key, 0)
        if count >= config.phase2_paths_per_destination:
            continue
        if decoy.destination_address not in known_destinations:
            continue
        if decoy.vp_id not in known_vps:
            continue
        entries.append(Phase2PlanEntry(
            index=len(entries),
            vp_id=decoy.vp_id,
            vp_address=decoy.identity.vp_address,
            destination_address=decoy.destination_address,
            destination_country=decoy.destination_country,
            destination_name=decoy.destination_name,
            protocol=decoy.protocol,
        ))
        selected.add(key)
        per_destination[quota_key] = count + 1
    return entries


def schedule_phase2_entries(campaign: Campaign, tracer: HopByHopTracer,
                            entries: Iterable[Phase2PlanEntry]) -> int:
    """Queue traceroutes for the given plan entries; returns the count."""
    eco = campaign.eco
    destinations_by_address: Dict[str, object] = {
        destination.address: destination
        for destination in eco.dns_destinations
    }
    for destination in eco.web_destinations:
        destinations_by_address[destination.address] = destination
    vps_by_id = {vp.vp_id: vp for vp in eco.platform.vantage_points}

    scheduled = 0
    for entry in entries:
        destination = destinations_by_address[entry.destination_address]
        vp = vps_by_id[entry.vp_id]
        info = campaign.path_info(
            vp, entry.destination_address,
            destination_asn=eco.directory.asn_of(entry.destination_address) or 0,
            destination_country=entry.destination_country,
            service_name=entry.destination_name,
        )
        tracer.schedule_traceroute(info, entry.protocol, destination,
                                   plan_index=entry.index)
        scheduled += 1
    return scheduled


def correlate_and_locate(
    campaign: Campaign, tracer: HopByHopTracer,
) -> Tuple[CorrelationResult, CorrelationResult, List[ObserverLocation]]:
    """The run's tail, shared by serial runs and shard workers.

    Exhibitors schedule unsolicited requests days out, so Phase I decoys
    keep drawing traffic during the Phase II window; one correlation pass
    covers the complete log, as the paper's offline analysis does, and is
    split into both phases.  Phase II verdicts are located from it, and
    the streaming analysis state (decoys were observed at send time) is
    fed the Phase I events, the locations and the log length.
    """
    eco = campaign.eco
    full = Correlator(campaign.ledger, zone=eco.config.zone).correlate(
        eco.deployment.log)
    phase1 = split_correlation(full, campaign.ledger, 1)
    phase2 = split_correlation(full, campaign.ledger, 2)
    locations = tracer.locate(phase2)
    campaign.analysis.observe_events(phase1.events)
    campaign.analysis.observe_locations(locations)
    campaign.analysis.set_log_entries(len(eco.deployment.log))
    return phase1, phase2, locations


class Experiment:
    """Orchestrates one full run."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config if config is not None else ExperimentConfig()

    def run(self) -> ExperimentResult:
        """Execute the experiment: sharded when ``config.workers > 1``."""
        if self.config.workers > 1:
            from repro.core.shard import run_sharded
            return run_sharded(self.config)
        return self._run_serial()

    def _run_serial(self) -> ExperimentResult:
        import time as _time

        started = _time.perf_counter()
        spans = SpanTracer()
        with spans.span("build"):
            eco = build_ecosystem(self.config)
        spans.virtual_now = eco.sim.now

        campaign = Campaign(eco)
        with campaign:
            with spans.span("phase1"):
                campaign.run_phase1()

            correlator = Correlator(campaign.ledger, zone=self.config.zone)
            phase1 = correlator.correlate(eco.deployment.log, phase=1)

            with spans.span("phase2"):
                tracer = HopByHopTracer(campaign)
                entries = plan_phase2(eco, phase1, self.config)
                schedule_phase2_entries(campaign, tracer, entries)
                eco.sim.run(
                    until=eco.sim.now() + self.config.phase2_observation_window)

            with spans.span("correlate"):
                phase1, phase2, locations = correlate_and_locate(
                    campaign, tracer)

        timings = timings_from_spans(spans.spans)
        timings["total"] = _time.perf_counter() - started
        timings["virtual_span"] = eco.sim.now()
        return ExperimentResult(
            config=self.config,
            eco=eco,
            campaign=campaign,
            phase1=phase1,
            phase2=phase2,
            locations=locations,
            vetting=campaign.vetting,
            analysis=campaign.analysis,
            timings=timings,
            telemetry=RunTelemetry(
                metrics=eco.telemetry,
                spans=spans.spans,
                enabled=self.config.telemetry,
                meta={"seed": self.config.seed, "workers": 1,
                      "virtual_span": eco.sim.now()},
            ),
        )
