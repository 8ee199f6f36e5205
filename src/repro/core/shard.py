"""Sharded parallel campaign execution with deterministic merge.

The serial pipeline simulates every (vantage point, destination) pair in
one process; paper-scale campaigns (46.6M DNS + 3.4B HTTP/TLS decoys) are
then bounded by a single Python core.  This module partitions the pair
space into N shards by stable content hash (:func:`~repro.core.campaign.
pair_shard`), runs each shard's Phase I and Phase II simulation in its own
worker process with an independent ``Simulator``/``VirtualClock``, and
deterministically merges the shard outputs into a single
:class:`~repro.core.experiment.ExperimentResult` equal to the serial run.

Why the merge can be exact:

* **Keyed randomness.**  Every observable random decision (shadow/leverage
  choices, emission delays, origin picks, sniffer/interceptor placement)
  draws from ``SubstreamFactory`` substreams keyed by stable identifiers
  (domain, hop address, destination) — pure functions of the experiment
  seed, independent of arrival order and therefore of the shard layout.
* **Full-plan replay.**  Each shard replays the complete Phase I schedule
  (rate-limiter state included) but only enqueues sends for pairs it
  owns, so per-send virtual times match the serial schedule exactly.
* **Order keys.**  Every ledger record carries a (sent_at, phase, plan
  major, plan minor) key and log entries merge by (time, shard, local
  index), reproducing the serial registration/arrival order.

Data plane
----------

Workers stay alive across a two-round protocol and everything that
crosses the pipe is a compact wire-format blob (:mod:`repro.core.wire`)
carrying what the worker simulated, never what the parent can derive.
Phase I payloads (ledger records, log entries, counters) flow to the
parent in arrival order.  Once all have arrived, the parent registers
the records in key order, correlates the merged Phase I log exactly as
the serial run does, computes the global Phase II plan (per-destination
quotas need the *merged* correlation) and dispatches each shard its
slice.  Each worker then runs Phase II and the serial run's tail on its
own log (:func:`~repro.core.experiment.correlate_and_locate`) and ships
its ledger and log tails, locations, counters and full telemetry and
analysis snapshots.  The parent folds the analyses pairwise as they
arrive (:class:`PairwiseMerger`), merges everything else by content
keys, and makes one correlation pass over the merged log.  Nothing in
the protocol depends on arrival order.

Analysis stays worker-fed.  Each worker's locate and analysis are exact
because every log entry bearing a decoy's identifier reaches the worker
that owns the decoy's (VP, destination) pair.  The parent must not
observe events itself: with ``pair_resolver_filter`` off, its IP
directory lacks interceptor rows that only workers register (see
docs/PERFORMANCE.md, "Alt-resolver directory rows").

Workers
-------

Workers are forked (never spawned) from the parent right after it built
the ecosystem and vetted the platform, so each one starts from the
parent's vetted world at Phase I scheduling; no worker builds or vets.
A worker that exits early or reports an error fails the run at once,
naming its shard and its exit code or traceback, and the run is re-run
like a failed serial one: a run is a pure function of its seed and
config, so there is nothing of it worth checkpointing.  The record that
collection must not lose is the feed log ``repro serve`` journals
(docs/SERVICE.md).
"""

import multiprocessing
import time
import traceback
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.campaign import Campaign, pair_shard
from repro.core.config import ExperimentConfig
from repro.core.correlate import Correlator, DecoyRecord, split_correlation
from repro.core.ecosystem import Ecosystem, build_ecosystem
from repro.core.experiment import (
    ExperimentResult,
    correlate_and_locate,
    plan_phase2,
    schedule_phase2_entries,
)
from repro.core.phase2 import HopByHopTracer
from repro.core.wire import (
    LedgerKey,
    ShardFinalPayload,
    ShardPhase1Payload,
    decode_final_payload,
    decode_phase1_payload,
    decode_plan_slice,
    encode_final_payload,
    encode_phase1_payload,
    encode_plan_slice,
)
from repro.honeypot.logstore import LogStore
from repro.telemetry.export import RunTelemetry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanTracer, merge_spans, timings_from_spans
from repro.vpn.vetting import VettingReport

__all__ = [
    "ShardPhase1Payload",
    "ShardFinalPayload",
    "PairwiseMerger",
    "run_sharded",
    "ledger_digest",
    "log_digest",
    "events_digest",
    "result_digest",
]


class PairwiseMerger:
    """Tree-structured reduction of an associative, commutative merge.

    ``push`` folds equal-rank partials together like binary addition
    (the classic binary-counter trick), so after n pushes at most
    O(log n) partials are alive and each element has participated in
    O(log n) merges — instead of the n merges a left fold performs on
    its accumulator.  For accumulators whose merge cost grows with the
    accumulated state (analysis states) this turns the supervisor's
    fan-in from a 1×N barrier pass into balanced pairwise work that
    happens as payloads arrive.

    The fold order is arrival order, so the merge operation must be
    order-independent; ``AnalysisState.merge`` is (its tests pin
    associativity/commutativity).
    """

    __slots__ = ("_merge", "_stack")

    def __init__(self, merge: Callable):
        self._merge = merge
        self._stack: List[Tuple[int, object]] = []

    def push(self, value) -> None:
        rank = 0
        stack = self._stack
        while stack and stack[-1][0] == rank:
            _, previous = stack.pop()
            value = self._merge(previous, value)
            rank += 1
        stack.append((rank, value))

    def __len__(self) -> int:
        return len(self._stack)

    def result(self):
        """Fold the surviving partials; None if nothing was pushed."""
        if not self._stack:
            return None
        partials = [value for _, value in self._stack]
        merged = partials[0]
        for value in partials[1:]:
            merged = self._merge(merged, value)
        self._stack = [(len(partials), merged)]
        return merged


def _ledger_snapshot(campaign: Campaign,
                     skip: int) -> List[Tuple[LedgerKey, DecoyRecord]]:
    return [
        (campaign.ledger_key(record.domain), record)
        for record in campaign.ledger.records_from(skip)
    ]


def _shard_worker(conn, eco: Ecosystem, vetting: VettingReport,
                  shard_index: int, shard_count: int) -> None:
    """Worker process body: Phase I, then (on request) Phase II.

    ``eco`` and ``vetting`` are the parent's built and vetted world,
    inherited through fork: the worker starts at Phase I scheduling.
    Payloads cross the pipe as wire blobs.  The final blob ships only the
    ledger and log tails Phase II appended, plus full snapshots.
    """
    try:
        started = time.perf_counter()
        tracer_spans = SpanTracer(shard=shard_index)
        tracer_spans.virtual_now = eco.sim.now
        campaign = Campaign(eco, shard_index=shard_index, shard_count=shard_count)
        campaign.vetting = vetting
        with campaign:
            with tracer_spans.span("phase1"):
                campaign.simulate_phase1()
            phase1_records = len(campaign.ledger)
            phase1_entries, phase1_log_len = eco.deployment.log.tail(0)
            phase1_payload = ShardPhase1Payload(
                shard_index=shard_index,
                records=_ledger_snapshot(campaign, 0),
                log_entries=phase1_entries,
                sends_planned=campaign.sends_planned,
                sends_scheduled=campaign.sends_scheduled,
                last_send_time=campaign.last_send_time,
                virtual_now=eco.sim.now(),
                wall_seconds=time.perf_counter() - started,
            )
            conn.send(("phase1", encode_phase1_payload(phase1_payload)))
            # Nothing reads the Phase I payload again; let its rows go.
            del phase1_payload, phase1_entries

            command, blob = conn.recv()
            if command != "phase2":
                return
            entries = decode_plan_slice(blob)
            stage = time.perf_counter()
            tracer = HopByHopTracer(campaign)
            with tracer_spans.span("phase2"):
                schedule_phase2_entries(campaign, tracer, entries)
                eco.sim.run(until=eco.sim.now()
                            + eco.config.phase2_observation_window)
            _, _, locations = correlate_and_locate(campaign, tracer)
            final_payload = ShardFinalPayload(
                shard_index=shard_index,
                records=_ledger_snapshot(campaign, phase1_records),
                log_entries=eco.deployment.log.tail(phase1_log_len)[0],
                locations=[
                    (probe_set.plan_index, location)
                    for probe_set, location in zip(tracer.probe_sets, locations)
                ],
                ground_truth=[
                    (obs.observed_at, obs)
                    for obs in eco.ground_truth.observations
                ],
                label_counts=dict(eco.sim.label_counts),
                processed=eco.sim.processed,
                exhibitor_counts={
                    name: (exhibitor.observed_count, exhibitor.leveraged_count)
                    for name, exhibitor in eco.exhibitors.items()
                },
                resolver_received={
                    address: model.decoys_received
                    for address, model in eco.resolver_models.items()
                },
                emitter_emitted=eco.emitter.emitted,
                virtual_now=eco.sim.now(),
                wall_seconds=time.perf_counter() - stage,
                telemetry=eco.telemetry.snapshot(),
                spans=list(tracer_spans.spans),
                analysis=campaign.analysis.snapshot(),
            )
            conn.send(("final", encode_final_payload(final_payload)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()


class _ShardSupervisor:
    """Forks the shard worker fleet and collects its payloads.

    All protocol receives go through :meth:`next_payload`, which waits on
    *every* worker the caller is still expecting a payload from and
    returns blobs in arrival order — no per-shard fan-in barrier.  A
    worker that reports an error, or whose pipe reaches EOF because it
    exited, fails the run with a :class:`RuntimeError` naming its shard.
    """

    def __init__(self, eco: Ecosystem, vetting: VettingReport,
                 shard_count: int):
        # Fork, whatever the platform default: the workers inherit the
        # vetted world instead of pickling or rebuilding it.
        self._mp = multiprocessing.get_context("fork")
        self._eco = eco
        self._vetting = vetting
        self._shard_count = shard_count
        self._workers: Dict[int, tuple] = {}
        """Shard index -> (worker process, parent end of its pipe)."""

    def spawn(self, shard_index: int) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_shard_worker,
            args=(child_conn, self._eco, self._vetting, shard_index,
                  self._shard_count),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[shard_index] = (process, parent_conn)

    def _exited(self, shard_index: int, expected: str) -> RuntimeError:
        process = self._workers[shard_index][0]
        process.join()
        return RuntimeError(
            f"shard {shard_index} worker exited with code "
            f"{process.exitcode} before sending its {expected!r} payload"
        )

    def next_payload(self, waiting: Dict[int, str]) -> Tuple[int, bytes]:
        """Block until any waiting worker delivers its expected payload.

        ``waiting`` maps shard index -> expected tag ("phase1"/"final").
        Returns ``(shard_index, blob)`` for the first arrival.
        """
        by_conn = {self._workers[index][1]: index for index in waiting}
        conn = _connection_wait(list(by_conn))[0]
        shard_index = by_conn[conn]
        expected = waiting[shard_index]
        try:
            tag, payload = conn.recv()
        except (EOFError, OSError):
            raise self._exited(shard_index, expected) from None
        if tag == "error":
            raise RuntimeError(
                f"shard {shard_index} worker failed:\n{payload}"
            )
        if tag != expected:
            raise RuntimeError(
                f"shard {shard_index} protocol error: "
                f"expected {expected!r}, got {tag!r}"
            )
        return shard_index, payload

    def dispatch_phase2(self, shard_index: int, blob: bytes) -> None:
        """Send a shard its encoded Phase II slice."""
        try:
            self._workers[shard_index][1].send(("phase2", blob))
        except OSError:
            raise self._exited(shard_index, "final") from None

    def shutdown(self) -> None:
        """Close every pipe, then stop and reap every worker.

        By now each worker has delivered its final payload or the run is
        failing, so a worker still running is terminated.  Closing its
        pipe would not stop it: it holds its own copy of the parent's
        end, inherited when it was forked, so it never reads EOF there.
        """
        for process, conn in self._workers.values():
            conn.close()
            process.terminate()
        for process, _ in self._workers.values():
            process.join()


def _check_consistent(payloads: Sequence[ShardPhase1Payload]) -> None:
    """Every shard replays the same plan; any divergence is a bug."""
    reference = payloads[0]
    for payload in payloads[1:]:
        for attribute in ("sends_planned", "last_send_time", "virtual_now"):
            if getattr(payload, attribute) != getattr(reference, attribute):
                raise RuntimeError(
                    f"shard {payload.shard_index} disagrees with shard "
                    f"{reference.shard_index} on {attribute}: "
                    f"{getattr(payload, attribute)!r} != "
                    f"{getattr(reference, attribute)!r}"
                )
    total_scheduled = sum(payload.sends_scheduled for payload in payloads)
    if total_scheduled != reference.sends_planned:
        raise RuntimeError(
            f"shards scheduled {total_scheduled} sends but the plan has "
            f"{reference.sends_planned}"
        )


def run_sharded(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment across ``config.workers`` shard processes.

    The returned result is deterministically equal to the serial run of
    the same config and seed (see module docstring and
    :func:`result_digest`).  A worker that exits early or reports an
    error raises :class:`RuntimeError` naming its shard.
    """
    from repro.analysis.streaming import AnalysisState

    if config.workers < 2:
        raise ValueError(
            f"run_sharded needs workers >= 2, got {config.workers}"
        )
    shard_count = config.workers
    started = time.perf_counter()
    spans = SpanTracer()

    with spans.span("build"):
        eco = build_ecosystem(config)
        campaign = Campaign(eco)
        campaign.vet_platform()
    spans.virtual_now = eco.sim.now
    correlator = Correlator(campaign.ledger, zone=config.zone)

    supervisor = _ShardSupervisor(eco, campaign.vetting, shard_count)
    wire_bytes = {"phase1": 0, "dispatch": 0, "final": 0}

    # Final analyses fold pairwise on arrival; the merge is
    # order-independent, so arrival order (which varies run to run)
    # cannot leak into results.
    final_analyses = PairwiseMerger(lambda a, b: a.merge(b))

    try:
        with spans.span("phase1"):
            # Every worker forks from this vetted world.
            waiting: Dict[int, str] = {}
            for shard_index in range(shard_count):
                supervisor.spawn(shard_index)
                waiting[shard_index] = "phase1"
            phase1_by_shard: Dict[int, ShardPhase1Payload] = {}
            while waiting:
                shard_index, blob = supervisor.next_payload(waiting)
                wire_bytes["phase1"] += len(blob)
                phase1_by_shard[shard_index] = decode_phase1_payload(blob)
                del waiting[shard_index]
            phase1_payloads = [phase1_by_shard[index]
                               for index in range(shard_count)]
            _check_consistent(phase1_payloads)

        # Phase I registration and planning, exactly as the serial run
        # plans: one correlation pass over the merged Phase I log.
        with spans.span("merge_interim"):
            for key, record in sorted(
                (pair for payload in phase1_payloads
                 for pair in payload.records),
                key=lambda pair: pair[0],
            ):
                campaign.ledger.register(record)
                campaign.ledger.set_key(record.domain, key)
            phase1_log = LogStore.merged(
                [payload.log_entries for payload in phase1_payloads])
            phase1 = correlator.correlate(phase1_log, phase=1)
            slices = [[] for _ in range(shard_count)]
            for entry in plan_phase2(eco, phase1, config):
                owner = pair_shard(entry.vp_address,
                                   entry.destination_address, shard_count)
                slices[owner].append(entry)
            slice_blobs = [encode_plan_slice(plan_slice)
                           for plan_slice in slices]

        with spans.span("phase2"):
            for shard_index, slice_blob in enumerate(slice_blobs):
                wire_bytes["dispatch"] += len(slice_blob)
                supervisor.dispatch_phase2(shard_index, slice_blob)
                waiting[shard_index] = "final"
            final_by_shard: Dict[int, ShardFinalPayload] = {}
            while waiting:
                shard_index, blob = supervisor.next_payload(waiting)
                wire_bytes["final"] += len(blob)
                payload = decode_final_payload(blob)
                final_by_shard[shard_index] = payload
                final_analyses.push(
                    AnalysisState.from_snapshot(payload.analysis))
                del waiting[shard_index]
            final_payloads = [final_by_shard[index]
                              for index in range(shard_count)]
    finally:
        supervisor.shutdown()

    # -- final deterministic merge ----------------------------------------
    with spans.span("merge_final"):
        reference = final_payloads[0]
        for payload in final_payloads[1:]:
            if payload.virtual_now != reference.virtual_now:
                raise RuntimeError(
                    f"shard {payload.shard_index} ended at virtual time "
                    f"{payload.virtual_now}, expected {reference.virtual_now}"
                )

        for key, record in sorted(
            (pair for payload in final_payloads for pair in payload.records),
            key=lambda pair: pair[0],
        ):
            campaign.ledger.register(record)
            campaign.ledger.set_key(record.domain, key)

        merged_log = LogStore.merged([
            phase1.log_entries + final.log_entries
            for phase1, final in zip(phase1_payloads, final_payloads)
        ])
        eco.deployment.log = merged_log

        # Ground-truth observations fire at send-event times, which sit on
        # the scheduling grid — cross-shard ties are common.  Serial order
        # breaks those ties by plan order (heap sequence), which the
        # observed decoy's ledger key reproduces; the within-shard index
        # keeps same-send observations (e.g. several sniffers on one path)
        # in transit order.
        far_future = (float("inf"), 0, -1, -1)
        merged_truth = sorted(
            ((stamp, campaign.ledger.key_of(obs.domain) or far_future,
              payload.shard_index, index), obs)
            for payload in final_payloads
            for index, (stamp, obs) in enumerate(payload.ground_truth)
        )
        eco.ground_truth.observations = [obs for _, obs in merged_truth]

        label_counts: Dict[str, int] = {}
        processed = 0
        for payload in final_payloads:
            processed += payload.processed
            for label, count in payload.label_counts.items():
                label_counts[label] = label_counts.get(label, 0) + count
            for name, (observed, leveraged) in payload.exhibitor_counts.items():
                exhibitor = eco.exhibitors[name]
                exhibitor.observed_count += observed
                exhibitor.leveraged_count += leveraged
            for address, received in payload.resolver_received.items():
                eco.resolver_models[address].decoys_received += received
            eco.emitter.emitted += payload.emitter_emitted
        eco.sim.label_counts = label_counts
        eco.sim._processed = processed
        eco.sim.clock.advance_to(reference.virtual_now)

        shard_phase1 = phase1_payloads[0]
        campaign.sends_planned = shard_phase1.sends_planned
        campaign.sends_scheduled = sum(
            payload.sends_scheduled for payload in phase1_payloads
        )
        campaign.last_send_time = shard_phase1.last_send_time

        locations = [
            location for _, location in sorted(
                (pair for payload in final_payloads
                 for pair in payload.locations),
                key=lambda pair: pair[0],
            )
        ]

        # Telemetry merge: the parent registry holds the ("same"-policy)
        # vetting counters plus zeros on everything the workers executed;
        # each worker inherited that registry through fork, and its
        # snapshot adds its shard's slice of the partitioned work.
        # Counter sums and bucket-wise histogram adds therefore reproduce
        # the serial totals exactly.  Folded in shard order (cheap —
        # snapshots are small) so the merged registry never depends on
        # payload arrival order.
        if config.telemetry:
            merged_metrics = MetricsRegistry()
            merged_metrics.merge_from(eco.telemetry)
            for payload in final_payloads:
                merged_metrics.merge_from(
                    MetricsRegistry.from_snapshot(payload.telemetry))
            eco.telemetry = merged_metrics

    with spans.span("correlate"):
        # The serial run's final pass, over the merged log.
        full = correlator.correlate(merged_log)
        phase1 = split_correlation(full, campaign.ledger, 1)
        phase2 = split_correlation(full, campaign.ledger, 2)

    merged_spans = merge_spans(
        [spans.spans] + [payload.spans for payload in final_payloads])
    timings = timings_from_spans(spans.spans)
    timings["total"] = time.perf_counter() - started
    timings["virtual_span"] = eco.sim.now()
    timings["workers"] = float(shard_count)
    timings["shard_phase1_wall_max"] = max(
        payload.wall_seconds for payload in phase1_payloads
    )
    timings["shard_phase2_wall_max"] = max(
        payload.wall_seconds for payload in final_payloads
    )
    timings["wire_phase1_bytes"] = float(wire_bytes["phase1"])
    timings["wire_dispatch_bytes"] = float(wire_bytes["dispatch"])
    timings["wire_final_bytes"] = float(wire_bytes["final"])

    return ExperimentResult(
        config=config,
        eco=eco,
        campaign=campaign,
        phase1=phase1,
        phase2=phase2,
        locations=locations,
        vetting=campaign.vetting,
        analysis=final_analyses.result(),
        timings=timings,
        telemetry=RunTelemetry(
            metrics=eco.telemetry,
            spans=merged_spans,
            enabled=config.telemetry,
            meta={"seed": config.seed, "workers": shard_count,
                  "virtual_span": eco.sim.now()},
        ),
    )


# -- digests ---------------------------------------------------------------
#
# Content-canonical digests of the quantities the acceptance criterion
# compares: serial and sharded runs of the same config and seed must hash
# identically.  Sorting by content (not list position) keeps the digests
# robust to representation-level tie ordering.


def ledger_digest(ledger) -> str:
    import hashlib

    hasher = hashlib.sha256()
    for record in sorted(
        ledger.records(),
        key=lambda r: (r.sent_at, r.phase, r.domain),
    ):
        hasher.update(repr((
            record.domain, record.protocol, record.vp_id,
            record.destination_address, record.identity.ttl,
            record.identity.sequence, record.sent_at, record.phase,
            record.round_index, record.path_length, record.instance_country,
        )).encode())
    return hasher.hexdigest()


def log_digest(log) -> str:
    import hashlib

    hasher = hashlib.sha256()
    for entry in sorted(
        log,
        key=lambda e: (e.time, e.protocol, e.site, e.src_address, e.domain,
                       e.path or "", e.qtype or -1, e.user_agent or ""),
    ):
        hasher.update(repr((
            entry.time, entry.site, entry.protocol, entry.src_address,
            entry.domain, entry.path, entry.qtype, entry.user_agent,
        )).encode())
    return hasher.hexdigest()


def events_digest(events) -> str:
    import hashlib

    hasher = hashlib.sha256()
    for event in sorted(
        events,
        key=lambda e: (e.request.time, e.decoy.domain, e.request.protocol,
                       e.request.src_address),
    ):
        hasher.update(repr((
            event.decoy.domain, event.request.time, event.request.protocol,
            event.request.src_address, event.combo, event.origin_address,
            event.decoy.phase,
        )).encode())
    return hasher.hexdigest()


def result_digest(result: ExperimentResult) -> str:
    """One digest covering ledger, log, events, labels, and locations."""
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(ledger_digest(result.ledger).encode())
    hasher.update(log_digest(result.log).encode())
    hasher.update(events_digest(result.phase1.events).encode())
    hasher.update(events_digest(result.phase2.events).encode())
    hasher.update(repr(sorted(result.eco.sim.label_counts.items())).encode())
    for location in sorted(
        result.locations,
        key=lambda l: (l.vp_id, l.destination_address, l.protocol),
    ):
        hasher.update(repr((
            location.vp_id, location.destination_address, location.protocol,
            location.trigger_ttl, location.observer_address,
            location.observer_asn, location.observer_country,
            location.path_length,
        )).encode())
    return hasher.hexdigest()
