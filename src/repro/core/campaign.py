"""Phase I: spreading decoys and finding problematic paths.

The campaign vets the platform (Appendices C/E), builds one path per
(vantage point, destination) pair — attaching on-path sniffers and
interceptors as the topology materializes — then schedules decoy sends
round-robin over virtual time and lets the simulator run through the
observation window.
"""

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import ExperimentConfig
from repro.core.correlate import DecoyLedger, DecoyRecord
from repro.core.decoy import DecoyFactory
from repro.core.ecosystem import Ecosystem, _resolver_asn
from repro.core.identifier import DecoyIdentity
from repro.datasets.resolvers import DnsDestination, PUBLIC_RESOLVERS
from repro.datasets.tranco import WebDestination
from repro.net.path import Path, TransitOutcome, TransitResult
from repro.net.tcpconn import TcpClient
from repro.telemetry.registry import MERGE_SAME, NULL_REGISTRY, labeled
from repro.topology.model import Endpoint
from repro.vpn.vantage import VantagePoint
from repro.vpn.vetting import VettingReport, full_vetting


_PATH_CACHE_LIMIT = 8192
"""Materialized :class:`PathInfo` entries kept per campaign (LRU), the
one path cache.  Paths rebuild deterministically from keyed substreams,
so eviction only costs the rebuild.  A queued Phase I send holds its
own entry, which outlives eviction until the send fires."""

def pair_shard(vp_address: str, destination_address: str, shard_count: int) -> int:
    """Deterministic shard assignment of one (VP, destination) pair.

    A stable content hash (not Python's salted ``hash``) keeps the
    partition identical across processes and runs, so every send — Phase I
    decoys and Phase II probes alike — for a given pair lands in the same
    shard regardless of worker count or scheduling order.
    """
    if shard_count <= 1:
        return 0
    digest = hashlib.sha256(
        f"{vp_address}|{destination_address}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big") % shard_count


@dataclass
class PathInfo:
    """One materialized client-server path with its decorations."""

    path: Path
    vp: VantagePoint
    destination_address: str
    instance_country: str
    has_interceptor: bool


@dataclass
class SendOutcome:
    """What one decoy send produced at the network layer."""

    record: DecoyRecord
    transit: TransitResult


class Campaign:
    """Phase I executor bound to one ecosystem.

    ``shard_index``/``shard_count`` partition the (VP, destination) pair
    space: a sharded campaign replays the *full* deterministic Phase I
    plan (so rate-limiter state and send times match the serial schedule
    exactly) but materializes paths and enqueues simulator events only
    for pairs it owns.  The default (0, 1) owns everything — the serial
    campaign is just the one-shard special case.
    """

    def __init__(self, eco: Ecosystem, shard_index: int = 0, shard_count: int = 1):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard_index must be in [0, {shard_count}), got {shard_index}"
            )
        self.eco = eco
        self.config = eco.config
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.ledger = DecoyLedger()
        # Streaming analysis state, fed at send time (decoys) and at phase
        # boundaries (correlated events / Phase II verdicts); shards ship
        # it over the worker pipe and the supervisor merges exactly.
        from repro.analysis.streaming import AnalysisState
        matrix_enabled = (eco.config.ciphertext_observer_share > 0.0
                          or eco.config.doh_adoption > 0.0)
        self.analysis = AnalysisState(
            directory=eco.directory, blocklist=eco.blocklist,
            matrix_enabled=matrix_enabled,
            matrix_link_threshold=eco.config.ciphertext_link_threshold)
        self.factory = DecoyFactory(
            zone=eco.config.zone, rng=eco.router.stream("decoy.factory"),
            ech_adoption=eco.config.ech_adoption,
            ech_streams=(eco.router.substreams("decoy.ech")
                         if eco.config.ech_adoption > 0.0 else None),
            doh_adoption=eco.config.doh_adoption,
            doh_streams=(eco.router.substreams("decoy.doh")
                         if eco.config.doh_adoption > 0.0 else None),
        )
        self._flow_context: Optional[Tuple[str, str, int]] = None
        """(domain, mitigation, phase) of the decoy currently on the wire.
        Path taps fire synchronously inside the transit call, so observer
        flow reports attribute their capture to this context; cleared the
        moment the attempt returns."""
        if matrix_enabled:
            # The matrix needs per-observer-class attribution, which the
            # exhibitor pipeline deliberately erases; both deployments
            # forward their captures here instead.
            eco.observer_deployment.flow_sink = self._sni_flow_report
            if eco.ciphertext_deployment is not None:
                eco.ciphertext_deployment.flow_sink = self._ciphertext_flow_report
        self._nod_streams = (eco.router.substreams("noise.nod")
                             if eco.config.nod_noise_rate > 0.0 else None)
        self._paths: "OrderedDict[Tuple[str, str], PathInfo]" = OrderedDict()
        self._sequences: Dict[Tuple[str, str], int] = {}
        self.vetting: Optional[VettingReport] = None
        self._probe_context: Optional[Tuple[VantagePoint, Endpoint, bool]] = None
        """(VP, its endpoint, its verdict) of the VP vetting last probed."""
        self._pair_endpoints: Dict[str, Endpoint] = {}
        """Vetting's pair-resolver endpoints, by address."""
        self.sends_planned = 0
        self.sends_scheduled = 0
        self.last_send_time = 0.0
        metrics = eco.telemetry if eco.telemetry is not None else NULL_REGISTRY
        self._metrics = metrics
        # Per-(protocol, phase) send counters, resolved once so the
        # per-send cost is a dict lookup plus one (possibly no-op) inc.
        self._m_sent = {
            (protocol, phase): metrics.counter(
                labeled("campaign.decoys_sent", protocol=protocol, phase=phase))
            for protocol in ("dns", "http", "tls")
            for phase in (1, 2)
        }
        self._m_path_length = metrics.histogram(
            "campaign.path_length", (4, 6, 8, 10, 12))
        # Fault/robustness instrumentation (see docs/ROBUSTNESS.md): every
        # injected fault and every recovery action is a counted event.
        self._m_packets_lost = metrics.counter("faults.packets_lost")
        self._m_retries = metrics.counter("campaign.send_retries")
        self._m_retry_backoff = metrics.histogram(
            "campaign.retry_backoff_virtual", (2, 8, 32, 128))
        self._m_abandoned = metrics.counter("faults.sends_abandoned")
        # Vetting runs before shard workers fork, so they inherit these
        # (merge="same", like VettingReport.record's counters).
        self._m_pair_probes = metrics.counter(
            "vetting.pair_probes", merge=MERGE_SAME)
        self._m_probe_paths_built = metrics.counter(
            "vetting.probe_paths_built", merge=MERGE_SAME)
        self._pcap = None
        self._pcap_stream = None
        if eco.config.capture_pcap:
            from repro.net.pcap import PcapWriter
            pcap_path = eco.config.capture_pcap
            if shard_count > 1:
                # Each worker writes its own capture next to the requested
                # one; merging pcaps across shards is an offline concern.
                pcap_path = f"{pcap_path}.shard{shard_index:02d}"
            self._pcap_stream = open(pcap_path, "wb")
            self._pcap = PcapWriter(self._pcap_stream)

    def close_capture(self) -> None:
        """Flush and close the decoy pcap, if one was requested."""
        if self._pcap_stream is not None:
            self._pcap_stream.close()
            self._pcap_stream = None
            self._pcap = None

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close_capture()
        return False

    def owns_pair(self, vp_address: str, destination_address: str) -> bool:
        """Does this shard simulate sends for the given pair?"""
        return pair_shard(
            vp_address, destination_address, self.shard_count
        ) == self.shard_index

    def ledger_key(self, domain: str) -> Tuple[float, int, int, int]:
        """The deterministic merge-order key of one registered decoy.

        ``(sent_at, phase, plan major, plan minor)`` — sorting any union
        of shard ledgers by this key reproduces the serial registration
        order.  The key columns live in the ledger itself.
        """
        key = self.ledger.key_of(domain)
        if key is None:
            raise KeyError(domain)
        return key

    # -- path management -------------------------------------------------

    def path_info(self, vp: VantagePoint, destination_address: str,
                  destination_asn: int, destination_country: str,
                  service_name: str = "") -> PathInfo:
        """Materialize (or fetch) the path from ``vp`` to a destination."""
        key = (vp.address, destination_address)
        info = self._paths.get(key)
        if info is not None:
            self._paths.move_to_end(key)
            return info
        topology = self.eco.topology
        instance_country = topology.anycast_instance(
            service_name, destination_country, vp.country
        )
        override = instance_country if instance_country != destination_country else None
        path = topology.build_path(
            vp.endpoint(),
            Endpoint(address=destination_address, asn=destination_asn,
                     country=destination_country),
            destination_country_override=override,
        )
        ciphertext = self.eco.ciphertext_deployment
        for position in range(1, path.length):  # destination excluded
            hop = path.hop_at(position)
            sniffer = self.eco.observer_deployment.sniffer_for(hop)
            if sniffer is not None:
                path.add_tap(position, sniffer.tap)
            if ciphertext is not None:
                observer = ciphertext.observer_for(hop)
                if observer is not None:
                    path.add_tap(position, observer.tap)
        first_hop = path.hop_at(1)
        info = PathInfo(
            path=path,
            vp=vp,
            destination_address=destination_address,
            instance_country=instance_country,
            has_interceptor=self.eco.interceptor_at(first_hop.address) is not None,
        )
        self._paths[key] = info
        if len(self._paths) > _PATH_CACHE_LIMIT:
            # Bounded LRU.  An evicted pair is rebuilt from its keyed
            # per-pair stream, which gives the same hops and creates no
            # router, on a new Path that gets its taps above, so
            # eviction never changes behavior — only costs the rebuild.
            self._paths.popitem(last=False)
        return info

    def known_paths(self) -> List[PathInfo]:
        return list(self._paths.values())

    # -- vetting ------------------------------------------------------------

    def vet_platform(self) -> VettingReport:
        """Appendix C/E: drop TTL-resetting providers and intercepted VPs."""
        report = full_vetting(
            self.eco.platform.vantage_points, PUBLIC_RESOLVERS, self._pair_probe,
            exclude_ttl_reset=self.config.exclude_ttl_reset_providers,
            pair_filter=self.config.pair_resolver_filter)
        report.record(self._metrics)
        self.eco.platform.replace_vps(report.kept)
        self.vetting = report
        return report

    def _pair_probe(self, vp: VantagePoint, pair_address: str) -> bool:
        """Does a DNS query from ``vp`` to ``pair_address`` draw a response?

        Pair resolvers run no DNS service, so the only possible responder
        is an interceptor, and interceptors sit at access routers and
        answer any address.  Every path out of a VP leaves through its
        pinned first hop, so the answer is whether that router intercepts;
        no packet is sent.

        The routers the path to the pair address would create are still
        created (:meth:`TopologyModel.add_routers`).  Until the router
        fabric is order-free, a router's address and country depend on
        the order routers are created in, so skipping them would move
        later routers.  The path itself is never built: nothing uses it.

        A VP's probes share its endpoint and verdict, computed once,
        after its first probe's routers.  Looking the first hop up before
        them creates the same routers in the same order, but can fill the
        access pool first and so change ``vetting.probe_paths_built``.
        """
        topology = self.eco.topology
        self._m_pair_probes.inc()
        context = self._probe_context
        known = context is not None and context[0] is vp
        source = context[1] if known else vp.endpoint()
        pair = self._pair_endpoints.get(pair_address)
        if pair is None:
            pair = Endpoint(address=pair_address,
                            asn=topology.backbone_asn("US", 0), country="US")
            self._pair_endpoints[pair_address] = pair
        if topology.add_routers(source, pair):
            self._m_probe_paths_built.inc()
        if known:
            return context[2]
        interceptor = self.eco.interceptor_at(topology.first_hop(source).address)
        verdict = interceptor is not None and interceptor.answers_pair_probe()
        self._probe_context = (vp, source, verdict)
        return verdict

    # -- decoy emission -------------------------------------------------------

    def next_sequence(self, vp: VantagePoint, destination_address: str) -> int:
        key = (vp.address, destination_address)
        value = self._sequences.get(key, 0)
        self._sequences[key] = (value + 1) % 10000
        return value

    def send_decoy(self, info: PathInfo, protocol: str, ttl: int,
                   phase: int, destination: object,
                   round_index: int = 0,
                   plan_key: Tuple[int, int] = (-1, -1)) -> SendOutcome:
        """Build, record, and transit one decoy right now (virtual time).

        ``destination`` is either a :class:`DnsDestination` or a
        :class:`WebDestination`; delivery semantics dispatch on it.
        ``plan_key`` is the (major, minor) position of this send in the
        deterministic campaign plan — Phase I uses (plan index, 0), Phase
        II traceroutes (plan entry, ttl) — and orders cross-shard merges.
        """
        vp = info.vp
        now = self.eco.sim.now()
        identity = DecoyIdentity(
            sent_at=int(now),
            vp_address=vp.address,
            dst_address=info.destination_address,
            ttl=ttl,
            sequence=self.next_sequence(vp, info.destination_address),
        )
        decoy = self.factory.build(identity, protocol)
        packet = decoy.packet
        if vp.resets_ttl:
            # Unvetted TTL-resetting providers rewrite the IP TTL of every
            # outgoing packet (Appendix E); the identifier still encodes
            # the intended TTL, which is exactly why such VPs poison
            # Phase II localization when not excluded.
            packet = packet.with_ttl(64)
        is_dns_dest = isinstance(destination, DnsDestination)
        record = DecoyRecord(
            identity=identity,
            domain=decoy.domain,
            protocol=protocol,
            vp_id=vp.vp_id,
            vp_country=vp.country,
            vp_province=vp.province,
            destination_address=info.destination_address,
            destination_name=(
                destination.name if is_dns_dest else destination.site
            ),
            destination_kind="dns" if is_dns_dest else "web",
            destination_country=(
                destination.country if is_dns_dest else destination.country
            ),
            instance_country=info.instance_country,
            path_length=info.path.length,
            sent_at=now,
            phase=phase,
            round_index=round_index,
            mitigation=decoy.mitigation,
        )
        self.ledger.register(record)
        self.analysis.observe_decoy(record)
        self.ledger.set_key(record.domain, (now, phase, plan_key[0], plan_key[1]))
        self._m_sent[(protocol, phase)].inc()
        self._m_path_length.observe(info.path.length)
        if self._pcap is not None:
            self._pcap.write(packet, now)
        if phase == 1 and self._nod_streams is not None:
            self._schedule_nod_noise(decoy.domain)
        transit = self._attempt_transit(info, protocol, packet, phase,
                                        decoy.domain, destination, attempt=0,
                                        mitigation=decoy.mitigation)
        return SendOutcome(record=record, transit=transit)

    def _schedule_nod_noise(self, domain: str) -> None:
        """Tatang et al.-style NOD churn (opt-in realism stressor).

        With probability ``nod_noise_rate`` per Phase I decoy, one
        unrelated newly-observed domain under the experiment zone gets
        queried at the authoritative later — the background of scanners
        chasing fresh registrations that a real measurement wades
        through.  The noise label never decodes (the identifier CRC
        rejects it) and never matches a ledger entry, so the correlator
        files it under unknown domains instead of aliasing a decoy.
        """
        draw = self._nod_streams.derive(domain)
        if draw.random() >= self.config.nod_noise_rate:
            return
        from repro.core.ecosystem import AS_NOD_NOISE
        noise_name = f"nod-{draw.randrange(16 ** 12):012x}.{self.config.zone}"
        origin = self.eco.allocator.allocate(f"nod:{noise_name}")
        self.eco.directory.register(origin, AS_NOD_NOISE, "??", role="nod-scanner")
        delay = draw.uniform(60.0, 3600.0)
        self.eco.sim.schedule_in(
            delay,
            lambda noise_name=noise_name, origin=origin:
                self.eco.emitter.emit("dns", noise_name, origin),
            label="noise:nod",
        )

    # -- observer flow reports (mitigation-vs-observer matrix feed) --------

    def _sni_flow_report(self, domain: str, hop_address: str) -> None:
        """A clear-text sniffer captured ``domain`` mid-transit."""
        context = self._flow_context
        if context is None:
            return
        flow_domain, mitigation, phase = context
        if phase != 1 or domain != flow_domain:
            return
        self.analysis.observe_flow_classified("sni-dpi", mitigation, domain)

    def _ciphertext_flow_report(self, hop_address: str, src: str, dst: str,
                                classified: bool) -> None:
        """A ciphertext observer inspected the in-transit flow's metadata."""
        context = self._flow_context
        if context is None:
            return
        domain, mitigation, phase = context
        if phase != 1:
            return
        if classified:
            self.analysis.observe_flow_classified(
                "traffic-analysis", mitigation, domain)
        self.analysis.observe_flow(mitigation, domain, dst)

    def _attempt_transit(self, info: PathInfo, protocol: str, packet,
                         phase: int, domain: str, destination: object,
                         attempt: int, mitigation: str = "none") -> TransitResult:
        """One transmission attempt, with fault-aware recovery.

        When the fault plan loses the packet on a link, a Phase I decoy is
        retransmitted after exponential backoff (fresh keyed loss draws
        per attempt); exhausted retries are skipped-and-recorded — the
        ledger entry stands, the gap is a counted telemetry event, and the
        campaign carries on.  Phase II probes are never retried: a lost
        probe is just a silent TTL step, exactly like an ICMP-silent hop.
        """
        faults = self.eco.faults
        loss_at = None
        if faults is not None:
            loss_at = faults.loss_link(domain, attempt, info.path.length,
                                       packet.ip.ttl)
        self._flow_context = (domain, mitigation, phase)
        try:
            transit = self._transmit(info, protocol, packet, phase,
                                     loss_at=loss_at)
        finally:
            self._flow_context = None

        # Interception happens at the first (access) hop, so it applies to
        # any attempt the access link carried — even one lost further on.
        # DoH decoys are immune: what transits the access link is a TLS
        # session to the resolver frontend, nothing a DNS-rewriting box
        # can answer in place of the resolver.
        intercepted = False
        if (protocol == "dns" and mitigation != "doh"
                and info.has_interceptor and transit.final_position >= 1):
            first_hop = info.path.hop_at(1)
            interceptor = self.eco.interceptor_at(first_hop.address)
            if interceptor is not None:
                interceptor.on_query(domain)
                intercepted = True

        if transit.outcome is TransitOutcome.LOST:
            self._m_packets_lost.inc()
            if intercepted:
                return transit  # the interceptor already answered the VP
            if phase == 1 and attempt < faults.spec.max_retries:
                backoff = faults.retry_backoff(attempt)
                self._m_retries.inc()
                self._m_retry_backoff.observe(backoff)
                self.eco.sim.schedule_in(
                    backoff,
                    lambda info=info, protocol=protocol, packet=packet,
                           phase=phase, domain=domain,
                           destination=destination, attempt=attempt + 1,
                           mitigation=mitigation:
                        self._attempt_transit(info, protocol, packet, phase,
                                              domain, destination, attempt,
                                              mitigation=mitigation),
                    label=f"retry:{protocol}",
                )
            elif phase == 1:
                self._m_abandoned.inc()
            return transit

        if transit.delivered and not intercepted:
            self._deliver(domain, protocol, info, destination)
        return transit

    def _transmit(self, info: PathInfo, protocol: str, packet, phase: int,
                  loss_at: Optional[int] = None):
        """Put one decoy on the wire.

        Phase I HTTP/TLS decoys are sent *after a successful TCP
        handshake* with the destination (Section 3); Phase II skips the
        handshake so low-TTL probes never hold server connections open.
        DNS rides UDP either way.
        """
        if protocol in ("http", "tls") and phase == 1:
            client = TcpClient(
                path=info.path,
                src=packet.ip.src,
                src_port=packet.transport.src_port,
                dst_port=packet.transport.dst_port,
                rng=self.eco.router.stream("campaign.tcp"),
                ttl=packet.ip.ttl,
            )
            handshake = client.connect()
            if not handshake.established:
                # Live public destinations always answer, so this only
                # happens when the SYN itself expired: no decoy data was
                # exposed at all, and the send is reported as expired at
                # the SYN's expiry hop without retransmitting the payload.
                return TransitResult(
                    outcome=TransitOutcome.EXPIRED,
                    final_position=min(packet.ip.ttl, info.path.length),
                    icmp=None,
                )
            transit = client.send(packet.payload, loss_at=loss_at)
            client.close()
            return transit
        return info.path.transit(packet, loss_at=loss_at)

    def _deliver(self, domain: str, protocol: str, info: PathInfo,
                 destination: object) -> None:
        if isinstance(destination, DnsDestination):
            model = self.eco.resolver_models.get(destination.address)
            if model is not None:
                model.receive_decoy(domain, info.instance_country)
        elif isinstance(destination, WebDestination):
            self.eco.web_model.receive_decoy(destination, protocol, domain)
        else:
            raise TypeError(f"unknown destination type {type(destination)!r}")

    # -- Phase I scheduling ------------------------------------------------

    def _phase1_plan(self, start: float, vps: List[VantagePoint],
                     dns_vps: List[VantagePoint]) -> Iterator[tuple]:
        """The deterministic Phase I plan, in plan order.

        Yields ``(send_time, vp, destination, protocol, address, asn,
        country, service, round_index)`` tuples, ``send_spacing`` apart:
        each DNS destination from every VP of ``dns_vps``, then each web
        destination over HTTP and TLS from its sampled VPs, and the whole
        pass again every ``round_interval``.  The web VP samples are drawn
        from the ``campaign.web.vps`` stream in pool order before the
        first round, and every round reuses them.
        """
        config = self.config
        spacing = config.send_spacing
        sampler = self.eco.router.stream("campaign.web.vps")
        web_vps = [
            sampler.sample(vps, min(config.web_vps_per_destination, len(vps)))
            for _ in self.eco.web_destinations
        ]
        for round_index in range(max(1, config.phase1_rounds)):
            send_time = start + round_index * config.round_interval
            for destination in self.eco.dns_destinations:
                address = destination.address
                asn = _resolver_asn(destination)
                country = destination.country
                service = destination.name
                for vp in dns_vps:
                    yield (send_time, vp, destination, "dns", address, asn,
                           country, service, round_index)
                    send_time += spacing
            for destination, sampled in zip(self.eco.web_destinations,
                                            web_vps):
                for vp in sampled:
                    for protocol in ("http", "tls"):
                        yield (send_time, vp, destination, protocol,
                               destination.address, destination.asn,
                               destination.country, destination.site,
                               round_index)
                        send_time += spacing

    def schedule_phase1(self) -> int:
        """Queue every Phase I decoy send; returns the count scheduled.

        Sends round-robin across VPs with a per-destination rate limit
        (the ethics appendix caps traffic at 2 decoys/second/target, which
        the :class:`RoundRobinScheduler` enforces on top of the global
        spacing).  ``phase1_rounds`` repeats the whole pass, as the
        paper's two-month continuous rotation does.

        One pass over the plan queues every owned send before the clock
        starts.  Paths are built and sends queued in plan order, so
        router creation and sequence numbers follow the plan, and every
        Phase I send holds a lower sequence number than any event a
        handler schedules: a follow-up that lands on the same instant as
        a planned send fires after it.
        """
        from repro.vpn.scheduler import RoundRobinScheduler

        sim = self.eco.sim
        vps = self.eco.platform.vantage_points
        if not vps:
            raise RuntimeError("no vantage points left after vetting")
        dns_vps = vps
        if self.config.dns_vps_per_destination is not None:
            dns_vps = vps[: self.config.dns_vps_per_destination]
        start = sim.now()
        owns = self.owns_pair
        limiter = RoundRobinScheduler(per_target_interval=0.5,
                                      faults=self.eco.faults)
        planned = 0
        scheduled = 0
        last_time = start
        for (send_time, vp, destination, protocol, address, asn, country,
             service, round_index) in self._phase1_plan(start, vps, dns_vps):
            actual = limiter.earliest_send_time(address, send_time,
                                                vp_address=vp.address)
            plan_index = planned
            planned += 1
            if actual > last_time:
                last_time = actual
            if not owns(vp.address, address):
                continue
            scheduled += 1
            info = self.path_info(vp, address, asn, country,
                                  service_name=service)
            sim.schedule_at(
                actual,
                lambda info=info, protocol=protocol, destination=destination,
                       round_index=round_index, plan_index=plan_index:
                    self.send_decoy(info, protocol, ttl=64, phase=1,
                                    destination=destination,
                                    round_index=round_index,
                                    plan_key=(plan_index, 0)),
                label=f"send:{protocol}",
            )
        self.sends_planned += planned
        self.sends_scheduled += scheduled
        self.last_send_time = last_time
        # Every shard walks the identical plan (merge="same"); the
        # scheduled subset is partitioned work and sums back to the plan.
        self._metrics.counter(
            "campaign.sends_planned", merge=MERGE_SAME).inc(planned)
        self._metrics.counter("campaign.sends_scheduled").inc(scheduled)
        # Churn deferrals happen inside the walked plan, so every shard
        # counts the identical total (merge="same", like sends_planned).
        self._metrics.counter(
            "faults.vp_churn_deferrals", merge=MERGE_SAME,
        ).inc(limiter.deferred_by_churn)
        return scheduled

    def run_phase1(self) -> None:
        """Vet, schedule, and simulate through the observation window."""
        self.vet_platform()
        self.simulate_phase1()

    def simulate_phase1(self) -> None:
        """Schedule Phase I on the vetted platform and simulate through
        the observation window.

        A shard worker starts here: it forks from a parent that already
        vetted the platform (see :mod:`repro.core.shard`).
        """
        self.schedule_phase1()
        self.eco.sim.run(until=self.last_send_time + self.config.observation_window)
