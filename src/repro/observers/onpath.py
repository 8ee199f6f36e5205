"""On-path wire sniffers.

A sniffer sits on a router hop, parses transiting packets' clear-text
fields (DNS QNAME, HTTP Host, TLS SNI), and feeds experiment-zone domains
into its shadow exhibitor.  Deployment decides — deterministically per
router — which devices carry DPI, mirroring how a Chinanet backbone box
observes many client-server paths at once.
"""

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.errors import PacketDecodeError
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.net.path import Hop
from repro.observers.exhibitor import ShadowExhibitor
from repro.protocols.dns import DnsMessage, is_subdomain_of, read_query
from repro.protocols.http import HttpRequest
from repro.protocols.tls import TlsPlaintext
from repro.protocols.tls.clienthello import ClientHello
from repro.protocols.tls.record import CONTENT_TYPE_HANDSHAKE
from repro.records import frozen
from repro.simkit.rng import SubstreamFactory
from repro.telemetry.registry import NULL_REGISTRY, labeled


def extract_domain(packet: Packet) -> Optional[Tuple[str, str]]:
    """Parse a packet's clear-text domain field.

    Returns ``(protocol, domain)`` where protocol is the *decoy* protocol
    ("dns" / "http" / "tls"), or None when no parseable domain rides the
    payload.  Dispatch is by destination port, as DPI devices do.
    """
    payload = packet.payload
    if not payload:
        return None
    port = packet.transport.dst_port
    try:
        if packet.ip.protocol == PROTO_UDP and port == 53:
            query = read_query(payload)
            qname = (query[2] if query is not None
                     else DnsMessage.decode(payload).qname)
            if qname:
                return ("dns", qname)
        elif packet.ip.protocol == PROTO_TCP and port == 80:
            request = HttpRequest.decode(payload)
            if request.host:
                return ("http", request.host.lower().rstrip("."))
        elif packet.ip.protocol == PROTO_TCP and port == 443:
            record = TlsPlaintext.decode(payload)
            if record.content_type == CONTENT_TYPE_HANDSHAKE:
                hello = ClientHello.decode(record.fragment)
                if hello.server_name:
                    return ("tls", hello.server_name.lower().rstrip("."))
    except (ValueError, PacketDecodeError):
        return None
    return None


class WireSniffer:
    """DPI at one router, bound to a shadow exhibitor."""

    def __init__(self, hop: Hop, protocols: Sequence[str],
                 exhibitor: ShadowExhibitor, zone: str, metrics=None,
                 report=None):
        self.hop = hop
        self.protocols = tuple(protocols)
        self.exhibitor = exhibitor
        self.zone = zone
        self._report = report
        """Optional ``(domain, hop_address)`` callback fired per capture —
        the deployment forwards it to the campaign's matrix feed."""
        self.packets_seen = 0
        self.domains_captured = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_packets = metrics.counter("onpath.packets_inspected")
        self._m_captured = {
            protocol: metrics.counter(
                labeled("onpath.domains_captured", protocol=protocol))
            for protocol in ("dns", "http", "tls")
        }

    def tap(self, position: int, hop: Hop, packet: Packet) -> None:
        """Path-tap callback: inspect one transiting packet."""
        self.packets_seen += 1
        self._m_packets.inc()
        extracted = extract_domain(packet)
        if extracted is None:
            return
        protocol, domain = extracted
        if protocol not in self.protocols:
            return
        if not is_subdomain_of(domain, self.zone):
            return
        self.domains_captured += 1
        self._m_captured[protocol].inc()
        self.exhibitor.observe(domain, observed_from=self.hop.address)
        if self._report is not None:
            self._report(domain, self.hop.address)


@frozen
class SnifferSpec:
    """Deployment rule: which routers of an AS carry which DPI."""

    asn: int
    router_fraction: float
    protocols: Tuple[str, ...]
    policy_name: str
    """Key into the deployment's policy table."""

    def __post_init__(self):
        if not 0.0 <= self.router_fraction <= 1.0:
            raise ValueError(
                f"router_fraction must be in [0, 1], got {self.router_fraction}"
            )


class ObserverDeployment:
    """Assigns sniffers to routers, deterministically per address.

    One router gets at most one sniffer; the decision and the exhibitor
    binding are cached so that every path crossing the router shares the
    same observer — the property Table 3 aggregates on.
    """

    def __init__(self, specs: Sequence[SnifferSpec],
                 exhibitors: Dict[str, ShadowExhibitor],
                 zone: str, rng: random.Random,
                 streams: Optional[SubstreamFactory] = None,
                 metrics=None):
        self._specs_by_asn: Dict[int, List[SnifferSpec]] = {}
        for spec in specs:
            if spec.policy_name not in exhibitors:
                raise ValueError(f"no exhibitor registered for {spec.policy_name!r}")
            self._specs_by_asn.setdefault(spec.asn, []).append(spec)
        self._exhibitors = exhibitors
        self._zone = zone
        self._rng = rng
        self._streams = streams
        """When set, the per-router deployment decision is keyed by the hop
        address instead of first-sight order on the shared ``rng`` — so a
        router carries the same DPI regardless of which path (or shard)
        materializes it first."""
        self._metrics = metrics
        self._decisions: Dict[str, Optional[WireSniffer]] = {}
        self.flow_sink = None
        """Optional ``(domain, hop_address)`` callback, fired for every
        clear-text capture by any deployed sniffer.  Forwarding lives on
        the deployment (not the sniffers) so the sink can be installed
        after routers have already materialized sniffers."""

    def _forward_flow(self, domain: str, hop_address: str) -> None:
        if self.flow_sink is not None:
            self.flow_sink(domain, hop_address)

    def sniffer_for(self, hop: Hop) -> Optional[WireSniffer]:
        """The sniffer at this router, if deployment placed one there."""
        if hop.address in self._decisions:
            return self._decisions[hop.address]
        specs = self._specs_by_asn.get(hop.asn, ())
        # Only a spec draws, so a hop in an AS without one derives nothing.
        rng = (self._streams.derive(hop.address)
               if self._streams is not None and specs else self._rng)
        sniffer: Optional[WireSniffer] = None
        for spec in specs:
            if rng.random() < spec.router_fraction:
                sniffer = WireSniffer(
                    hop=hop,
                    protocols=spec.protocols,
                    exhibitor=self._exhibitors[spec.policy_name],
                    zone=self._zone,
                    metrics=self._metrics,
                    report=self._forward_flow,
                )
                break
        self._decisions[hop.address] = sniffer
        return sniffer
