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

Crash tolerance
---------------

Workers are forked (never spawned) from the parent right after it built
the ecosystem and vetted the platform, so each one starts from the
parent's vetted world at Phase I scheduling; no worker builds or vets.
They are supervised (:class:`SupervisorPolicy`): each one sends
heartbeats from a background thread, and the parent treats a dead process
*or* a stale heartbeat as a worker death.  Because every shard's
simulation is a pure function of (vetted world, shard index, shard
count), a dead worker is simply respawned and replays its partition from
the start of the current phase: the respawn re-forks from the same
vetted world and replays Phase I, the parent verifies the replayed
Phase I payload is content-identical to the original (any divergence is
a determinism bug, not a recoverable fault), and then re-dispatches the
same Phase II slice.  A fault-free N-worker run, a
worker-killed-and-respawned run, and the serial run therefore produce
identical result digests.

With a checkpoint directory, each payload's wire blob is flushed to disk
verbatim as it arrives (:mod:`repro.core.checkpoint`), and
``run_sharded(resume_dir=…)`` skips shards whose final payload survived a
previous (killed) run.
"""

import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.checkpoint import CheckpointError, CheckpointStore

from repro.core.campaign import Campaign, pair_shard
from repro.core.config import ExperimentConfig
from repro.core.correlate import Correlator, DecoyRecord, split_correlation
from repro.core.ecosystem import Ecosystem, build_ecosystem
from repro.core.experiment import (
    ExperimentResult,
    Phase2PlanEntry,
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
    "SupervisorPolicy",
    "ShardPhase1Payload",
    "ShardFinalPayload",
    "PairwiseMerger",
    "run_sharded",
    "ledger_digest",
    "log_digest",
    "events_digest",
    "result_digest",
]


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the parent watches, times out, and respawns shard workers."""

    heartbeat_interval: float = 0.5
    """Seconds between worker heartbeats (wall clock)."""
    worker_timeout: float = 120.0
    """Seconds of silence (no heartbeat, no payload) before the parent
    declares a worker dead and respawns it.  Generous by default: a busy
    worker heartbeats from a background thread, so only a genuinely hung
    or killed process goes silent."""
    max_respawns: int = 2
    """Respawn budget per shard; exceeding it fails the run (a shard that
    keeps dying is a real bug, not a transient fault)."""
    kill_after_phase1: Optional[int] = None
    """Test hook: SIGKILL this shard's worker right after its Phase I
    payload is received, forcing the respawn-and-replay path during
    Phase II dispatch.  None disables the hook."""

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.worker_timeout <= self.heartbeat_interval:
            raise ValueError("worker_timeout must exceed heartbeat_interval")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


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


class _HeartbeatSender:
    """Background thread that keeps the parent's liveness clock fresh.

    The worker's main thread spends minutes inside the simulator without
    touching the pipe; this thread sends a tagged heartbeat every
    interval so the parent can tell "busy" from "hung or dead".  All pipe
    sends (heartbeats and payloads) share one lock, since Connection
    objects are not thread-safe.
    """

    def __init__(self, conn, lock: threading.Lock, interval: float):
        self._conn = conn
        self._lock = lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self):
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    self._conn.send(("heartbeat", None))
            except (BrokenPipeError, OSError):
                return


def _shard_worker(conn, eco: Ecosystem, vetting: VettingReport,
                  shard_index: int, shard_count: int,
                  heartbeat_interval: float = 0.5) -> None:
    """Worker process body: Phase I, then (on request) Phase II.

    ``eco`` and ``vetting`` are the parent's built and vetted world,
    inherited through fork: the worker starts at Phase I scheduling.
    Payloads cross the pipe as wire blobs.  The final blob ships only the
    ledger and log tails Phase II appended, plus full snapshots.
    """
    send_lock = threading.Lock()

    def send(message):
        with send_lock:
            conn.send(message)

    heartbeat = _HeartbeatSender(conn, send_lock, heartbeat_interval)
    heartbeat.__enter__()
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
            send(("phase1", encode_phase1_payload(phase1_payload)))
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
            send(("final", encode_final_payload(final_payload)))
    except BaseException:
        try:
            send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        heartbeat.__exit__()
        conn.close()


class _WorkerDied(Exception):
    """A shard worker stopped responding — recoverable by respawn."""

    def __init__(self, shard_index: int, reason: str):
        super().__init__(reason)
        self.shard_index = shard_index


def _phase1_fingerprint(payload: ShardPhase1Payload) -> str:
    """Content hash of a Phase I payload, for replay verification.

    A respawned worker re-forks from the parent's vetted world and
    re-derives its Phase I payload from there; any difference from the
    original means the simulation is not the pure function of (vetted
    world, shard index, shard count) the whole merge depends on — for
    instance because the parent touched the world after the first spawn
    — so the supervisor refuses to continue.
    """
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(repr((
        payload.shard_index, payload.sends_planned, payload.sends_scheduled,
        payload.last_send_time, payload.virtual_now,
    )).encode())
    for key, record in payload.records:
        hasher.update(repr((key, record.domain, record.protocol,
                            record.vp_id, record.sent_at)).encode())
    for entry in payload.log_entries:
        hasher.update(repr((entry.time, entry.site, entry.protocol,
                            entry.src_address, entry.domain)).encode())
    return hasher.hexdigest()


@dataclass
class _WorkerHandle:
    """Parent-side state for one live shard worker."""

    shard_index: int
    process: multiprocessing.process.BaseProcess
    conn: object
    deadline: float = 0.0
    """Monotonic liveness deadline, refreshed by every heartbeat and
    payload; a silent worker past it is declared dead."""


class _ShardSupervisor:
    """Spawns, watches, and respawns the shard worker fleet.

    All protocol receives go through :meth:`next_payload`, which waits on
    *every* worker the caller is still expecting a payload from and
    returns blobs in arrival order — no per-shard fan-in barrier.  It
    drains heartbeats, refreshes per-worker liveness deadlines, and
    converts both a dead process and a stale heartbeat into
    :class:`_WorkerDied` — callers respond by replaying the shard in a
    fresh process (bounded by ``policy.max_respawns``).
    """

    def __init__(self, eco: Ecosystem, vetting: VettingReport,
                 shard_count: int, policy: SupervisorPolicy):
        # Fork, whatever the platform default: the workers inherit the
        # vetted world instead of pickling or rebuilding it.
        self._mp = multiprocessing.get_context("fork")
        self._eco = eco
        self._vetting = vetting
        self._shard_count = shard_count
        self._policy = policy
        self._handles: Dict[int, _WorkerHandle] = {}
        self._respawns: Dict[int, int] = {}

    def spawn(self, shard_index: int) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_shard_worker,
            args=(child_conn, self._eco, self._vetting, shard_index,
                  self._shard_count, self._policy.heartbeat_interval),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._handles[shard_index] = _WorkerHandle(
            shard_index=shard_index, process=process, conn=parent_conn,
            deadline=time.monotonic() + self._policy.worker_timeout,
        )

    def kill(self, shard_index: int) -> None:
        """SIGKILL a worker (fault injection and respawn cleanup)."""
        handle = self._handles[shard_index]
        handle.process.kill()
        handle.process.join()

    def respawn(self, shard_index: int) -> None:
        used = self._respawns.get(shard_index, 0)
        if used >= self._policy.max_respawns:
            raise RuntimeError(
                f"shard {shard_index} died {used + 1} times; respawn "
                f"budget is {self._policy.max_respawns} — a shard that "
                "keeps dying is a bug, not a transient fault"
            )
        self._respawns[shard_index] = used + 1
        handle = self._handles[shard_index]
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()
        handle.conn.close()
        self.spawn(shard_index)

    @property
    def respawn_count(self) -> int:
        return sum(self._respawns.values())

    def next_payload(self, waiting: Dict[int, str]) -> Tuple[int, bytes]:
        """Block until any waiting worker delivers its expected payload.

        ``waiting`` maps shard index -> expected tag ("phase1"/"final").
        Returns ``(shard_index, blob)`` for the first arrival; buffered
        payloads from a since-dead worker are still drained (a worker
        that finished its send and exited did its job).
        """
        timeout = self._policy.worker_timeout
        while True:
            handles = [self._handles[index] for index in waiting]
            by_conn = {handle.conn: handle for handle in handles}
            try:
                ready = _connection_wait(list(by_conn), timeout=0.25)
            except OSError:
                ready = []
            for conn in ready:
                handle = by_conn[conn]
                expected = waiting[handle.shard_index]
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):
                    raise _WorkerDied(
                        handle.shard_index,
                        f"shard {handle.shard_index} pipe closed before "
                        f"{expected!r}",
                    )
                if tag == "heartbeat":
                    handle.deadline = time.monotonic() + timeout
                    continue
                if tag == "error":
                    raise RuntimeError(
                        f"shard {handle.shard_index} worker failed:\n{payload}"
                    )
                if tag != expected:
                    raise RuntimeError(
                        f"shard {handle.shard_index} protocol error: "
                        f"expected {expected!r}, got {tag!r}"
                    )
                handle.deadline = time.monotonic() + timeout
                return handle.shard_index, payload
            now = time.monotonic()
            for handle in handles:
                try:
                    buffered = handle.conn.poll()
                except (BrokenPipeError, OSError):
                    buffered = False
                if not handle.process.is_alive() and not buffered:
                    raise _WorkerDied(
                        handle.shard_index,
                        f"shard {handle.shard_index} worker died with exit "
                        f"code {handle.process.exitcode} before "
                        f"{waiting[handle.shard_index]!r}",
                    )
                if now > handle.deadline:
                    handle.process.kill()
                    handle.process.join()
                    raise _WorkerDied(
                        handle.shard_index,
                        f"shard {handle.shard_index} heartbeat stale for "
                        f"{self._policy.worker_timeout:.0f}s",
                    )

    def dispatch_phase2(self, shard_index: int, blob: bytes) -> bool:
        """Send a shard its encoded Phase II slice without blocking.

        Returns False when the worker is already dead (pipe closed) —
        the caller respawns it and replays Phase I first.
        """
        handle = self._handles[shard_index]
        try:
            handle.conn.send(("phase2", blob))
        except (BrokenPipeError, OSError):
            return False
        handle.deadline = time.monotonic() + self._policy.worker_timeout
        return True

    def shutdown(self) -> None:
        for handle in self._handles.values():
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.process.join(timeout=10.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join()


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


def run_sharded(config: Optional[ExperimentConfig] = None, *,
                checkpoint_dir=None, resume_dir=None,
                supervision: Optional[SupervisorPolicy] = None,
                ) -> ExperimentResult:
    """Run one experiment across ``config.workers`` shard processes.

    The returned result is deterministically equal to the serial run of
    the same config and seed (see module docstring and
    :func:`result_digest`) — including runs where workers died and were
    respawned mid-protocol, and runs resumed from a checkpoint.

    ``checkpoint_dir`` flushes each shard payload's wire blob to disk as
    it arrives; ``resume_dir`` reopens such a directory, loads the config
    (when ``config`` is None) and every completed shard's payloads, and
    only simulates the shards that never finished.  ``supervision`` tunes
    heartbeat/timeout/respawn behaviour (defaults are production-safe).
    """
    from repro.analysis.streaming import AnalysisState

    supervision = supervision if supervision is not None else SupervisorPolicy()
    checkpoints: Optional[CheckpointStore] = None
    cached_phase1: Dict[int, ShardPhase1Payload] = {}
    cached_final: Dict[int, ShardFinalPayload] = {}
    cached_slices: Optional[List[List[Phase2PlanEntry]]] = None
    if resume_dir is not None:
        checkpoints = CheckpointStore(resume_dir)
        meta = checkpoints.load_meta()
        if config is None:
            config = checkpoints.load_config()
        elif (config.seed != meta["seed"]
              or config.workers != meta["shard_count"]):
            raise CheckpointError(
                f"checkpoint at {resume_dir} was written by seed "
                f"{meta['seed']} with {meta['shard_count']} workers; "
                f"cannot resume it with seed {config.seed} and "
                f"{config.workers} workers"
            )
    if config is None:
        raise ValueError("run_sharded needs a config or a resume_dir")
    if config.workers < 2:
        raise ValueError(
            f"run_sharded needs workers >= 2, got {config.workers}"
        )
    shard_count = config.workers
    if checkpoints is None and checkpoint_dir is not None:
        checkpoints = CheckpointStore(checkpoint_dir)
    if checkpoints is not None:
        if resume_dir is not None:
            for index in checkpoints.completed_shards(shard_count):
                if not checkpoints.has_phase1(index):
                    raise CheckpointError(
                        f"shard {index} has a final checkpoint but no "
                        "Phase I checkpoint; the directory is corrupt"
                    )
                cached_phase1[index] = checkpoints.load_phase1(index)
                cached_final[index] = checkpoints.load_final(index)
            cached_slices = checkpoints.load_phase2_plan()
        checkpoints.save_run(config, shard_count)
    started = time.perf_counter()
    spans = SpanTracer()

    with spans.span("build"):
        eco = build_ecosystem(config)
        campaign = Campaign(eco)
        campaign.vet_platform()
    spans.virtual_now = eco.sim.now
    correlator = Correlator(campaign.ledger, zone=config.zone)

    supervisor = _ShardSupervisor(eco, campaign.vetting, shard_count,
                                  supervision)
    live = [index for index in range(shard_count)
            if index not in cached_final]
    phase1_by_shard: Dict[int, ShardPhase1Payload] = dict(cached_phase1)
    wire_bytes = {"phase1": 0, "dispatch": 0, "final": 0}

    # Final analyses fold pairwise on arrival (including from cache);
    # the merge is order-independent, so arrival order (which varies run
    # to run) cannot leak into results.
    final_analyses = PairwiseMerger(lambda a, b: a.merge(b))
    for payload in cached_final.values():
        final_analyses.push(AnalysisState.from_snapshot(payload.analysis))

    try:
        with spans.span("phase1"):
            waiting: Dict[int, str] = {}
            # Every worker, respawns included, forks from this vetted
            # world.  From the first spawn until supervisor.shutdown() the
            # parent must neither mutate ``eco`` nor draw from its
            # ``router`` streams, or a respawn would replay a different
            # world than the first spawn did.
            for shard_index in live:
                supervisor.spawn(shard_index)
                waiting[shard_index] = "phase1"
            while waiting:
                try:
                    shard_index, blob = supervisor.next_payload(waiting)
                except _WorkerDied as death:
                    supervisor.respawn(death.shard_index)
                    continue
                wire_bytes["phase1"] += len(blob)
                phase1_by_shard[shard_index] = decode_phase1_payload(blob)
                if checkpoints is not None:
                    checkpoints.save_phase1_blob(shard_index, blob)
                del waiting[shard_index]
            phase1_payloads = [phase1_by_shard[index]
                               for index in range(shard_count)]
            _check_consistent(phase1_payloads)
        phase1_prints = {index: _phase1_fingerprint(phase1_by_shard[index])
                         for index in live}

        if (supervision.kill_after_phase1 is not None
                and supervision.kill_after_phase1 in live):
            # Fault injection: this worker is dead before Phase II
            # dispatch, so the final-collection loop must respawn it and
            # replay its partition — the path a real mid-run crash
            # exercises.
            supervisor.kill(supervision.kill_after_phase1)

        # Phase I registration and planning, exactly as the serial run
        # plans: one correlation pass over the merged Phase I log.  A
        # resume that loads a stored plan skips the pass.
        with spans.span("merge_interim"):
            for key, record in sorted(
                (pair for payload in phase1_payloads
                 for pair in payload.records),
                key=lambda pair: pair[0],
            ):
                campaign.ledger.register(record)
                campaign.ledger.set_key(record.domain, key)
            if cached_slices is not None:
                slices = cached_slices
            else:
                phase1_log = LogStore.merged(
                    [payload.log_entries for payload in phase1_payloads])
                phase1 = correlator.correlate(phase1_log, phase=1)
                slices = [[] for _ in range(shard_count)]
                for entry in plan_phase2(eco, phase1, config):
                    owner = pair_shard(entry.vp_address,
                                       entry.destination_address, shard_count)
                    slices[owner].append(entry)
                if checkpoints is not None:
                    checkpoints.save_phase2_plan(slices)
            slice_blobs = [encode_plan_slice(plan_slice)
                           for plan_slice in slices]

        with spans.span("phase2"):
            final_by_shard: Dict[int, ShardFinalPayload] = dict(cached_final)
            for shard_index in live:
                wire_bytes["dispatch"] += len(slice_blobs[shard_index])
                if supervisor.dispatch_phase2(shard_index,
                                              slice_blobs[shard_index]):
                    waiting[shard_index] = "final"
                else:
                    supervisor.respawn(shard_index)
                    waiting[shard_index] = "phase1"
            while waiting:
                try:
                    shard_index, blob = supervisor.next_payload(waiting)
                except _WorkerDied as death:
                    supervisor.respawn(death.shard_index)
                    waiting[death.shard_index] = "phase1"
                    continue
                if waiting[shard_index] == "phase1":
                    # Respawn replay: verify the fresh Phase I payload is
                    # content-identical, then re-dispatch the same slice.
                    wire_bytes["phase1"] += len(blob)
                    payload = decode_phase1_payload(blob)
                    if _phase1_fingerprint(payload) != phase1_prints[shard_index]:
                        raise RuntimeError(
                            f"shard {shard_index} replay diverged from its "
                            "original Phase I payload — the shard simulation "
                            "is not deterministic"
                        )
                    wire_bytes["dispatch"] += len(slice_blobs[shard_index])
                    if supervisor.dispatch_phase2(shard_index,
                                                  slice_blobs[shard_index]):
                        waiting[shard_index] = "final"
                    else:
                        supervisor.respawn(shard_index)
                        waiting[shard_index] = "phase1"
                    continue
                wire_bytes["final"] += len(blob)
                payload = decode_final_payload(blob)
                final_by_shard[shard_index] = payload
                final_analyses.push(
                    AnalysisState.from_snapshot(payload.analysis))
                if checkpoints is not None:
                    checkpoints.save_final_blob(shard_index, blob)
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
            if supervisor.respawn_count:
                # Counted here, once: a respawn forks from the parent's
                # registry, so a count kept there would ship back in the
                # respawned worker's snapshot and be summed twice.  Created
                # only when non-zero so a respawn-free sharded snapshot
                # stays key-identical to the serial run's.
                merged_metrics.counter("shard.respawns").inc(
                    supervisor.respawn_count)
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
    timings["shard_respawns"] = float(supervisor.respawn_count)
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
