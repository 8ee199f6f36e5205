"""Router-granular canary sweeps for network operators.

The measurement paper locates observers from the *outside*, hop by hop.
An operator has a better vantage: it can steer traffic through one owned
router at a time.  The detector builds a minimal path through each
candidate router, sends canary messages (unique names under a canary
zone, exactly like the paper's decoys), and waits.  Any canary that
re-appears at the operator's honeypot convicts the specific router it was
steered through.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.identifier import DecoyIdentity, IdentifierCodec
from repro.honeypot.deployment import HoneypotDeployment
from repro.net.packet import Packet
from repro.net.path import Hop, Path
from repro.observers.onpath import ObserverDeployment
from repro.protocols.http import make_get
from repro.protocols.tls import ClientHello, wrap_handshake
from repro.records import frozen
from repro.simkit.events import Simulator


@frozen
class CanaryVerdict:
    """One router's sweep outcome."""

    router_address: str
    asn: int
    canaries_sent: int
    canaries_leaked: int
    leaked_protocols: Tuple[str, ...]

    @property
    def hosts_shadowing_device(self) -> bool:
        return self.canaries_leaked > 0


@dataclass
class CanaryReport:
    """Full sweep over one network."""

    asn: int
    verdicts: List[CanaryVerdict] = field(default_factory=list)

    @property
    def flagged(self) -> List[CanaryVerdict]:
        return [verdict for verdict in self.verdicts
                if verdict.hosts_shadowing_device]

    @property
    def clean(self) -> List[CanaryVerdict]:
        return [verdict for verdict in self.verdicts
                if not verdict.hosts_shadowing_device]


class IspCanaryDetector:
    """Sweeps an operator's routers for shadowing devices.

    The operator controls routing, so each canary's path is exactly
    ``[candidate router] -> [operator sink]`` — a leak can only come from
    the candidate.  Canary domains live under the operator's own canary
    zone, which resolves to the operator's honeypot (modelled by the
    shared :class:`HoneypotDeployment` here).
    """

    def __init__(
        self,
        sim: Simulator,
        deployment: HoneypotDeployment,
        observer_deployment: ObserverDeployment,
        source_address: str,
        rng: random.Random,
        protocols: Sequence[str] = ("dns", "http", "tls"),
        canaries_per_router: int = 2,
    ):
        if canaries_per_router < 1:
            raise ValueError("need at least one canary per router")
        self._sim = sim
        self._deployment = deployment
        self._observers = observer_deployment
        self._source = source_address
        self._rng = rng
        self.protocols = tuple(protocols)
        self.canaries_per_router = canaries_per_router
        self._codec = IdentifierCodec()
        self._sent: Dict[str, Tuple[str, str]] = {}
        """canary domain -> (router address, protocol)."""
        self._sequence = 0

    def sweep(self, routers: Sequence[Hop]) -> None:
        """Send canaries through every candidate router (virtual-time now)."""
        from repro.core.decoy import DecoyFactory
        factory = DecoyFactory(self._deployment.zone, self._rng,
                               codec=self._codec)
        sink = Hop(address="203.0.113.250", asn=0, country="US",
                   is_destination=True)
        for router in routers:
            path = Path([router, sink])
            sniffer = self._observers.sniffer_for(router)
            if sniffer is not None:
                path.add_tap(1, sniffer.tap)
            for protocol in self.protocols:
                for _ in range(self.canaries_per_router):
                    identity = DecoyIdentity(
                        sent_at=int(self._sim.now()),
                        vp_address=self._source,
                        dst_address=sink.address,
                        ttl=8,
                        sequence=self._sequence,
                    )
                    self._sequence = (self._sequence + 1) % 10000
                    decoy = factory.build(identity, protocol)
                    self._sent[decoy.domain] = (router.address, protocol)
                    path.transit(decoy.packet)

    def report(self, asn: int, routers: Sequence[Hop]) -> CanaryReport:
        """Judge each router from the canary-zone honeypot log.

        Call after the simulator has run through the listening window.
        """
        leaked_by_router: Dict[str, List[str]] = {}
        logged_domains = set(self._deployment.log.domains())
        for domain, (router_address, protocol) in self._sent.items():
            if domain in logged_domains:
                leaked_by_router.setdefault(router_address, []).append(protocol)
        report = CanaryReport(asn=asn)
        per_router = self.canaries_per_router * len(self.protocols)
        for router in routers:
            leaks = leaked_by_router.get(router.address, [])
            report.verdicts.append(CanaryVerdict(
                router_address=router.address,
                asn=router.asn,
                canaries_sent=per_router,
                canaries_leaked=len(leaks),
                leaked_protocols=tuple(sorted(set(leaks))),
            ))
        return report
