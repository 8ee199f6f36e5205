"""Destination DNS resolver behaviour.

Section 4 locates 99.7% of DNS shadowing at destination resolvers, so
resolver modelling carries most of the DNS findings:

* **Recursion** — a public resolver receiving the decoy query recurses to
  the experiment zone's authoritative server (the honeypot); this is the
  "initial decoy" appearance that classification rule (iii) keys on.
* **Benign retries** — some resolvers re-query within a minute (the
  sub-minute DNS-DNS mass of Figure 4).
* **Shadowing** — Resolver_h members hand observed names to a shadow
  exhibitor; for anycast services only instances in configured countries
  do (the 114DNS CN/US split of Case Study II).
* **Non-recursive destinations** (roots, TLDs) answer with referrals and
  never contact the honeypot, matching the paper's null result there.
"""

import random
from typing import Dict, Optional, Tuple

from repro.datasets.resolvers import DnsDestination
from repro.honeypot.deployment import HoneypotDeployment
from repro.observers.exhibitor import ShadowExhibitor
from repro.protocols.dns import encode_query
from repro.records import frozen
from repro.simkit.events import Simulator
from repro.simkit.rng import SubstreamFactory, randrange
from repro.telemetry.registry import NULL_REGISTRY, labeled


@frozen
class ResolverProfile:
    """Static behaviour description of one DNS destination."""

    destination: DnsDestination
    asn: int
    recursive: bool
    retry_probability: float = 0.0
    retry_count: Tuple[int, int] = (1, 2)
    retry_window: float = 50.0
    """Retries land uniformly within this many seconds of the decoy."""
    shadow_exhibitor: Optional[str] = None
    """Policy name of the exhibitor this resolver feeds, if any."""
    shadow_countries: Tuple[str, ...] = ()
    """Anycast: instance countries that shadow. Empty = all instances."""
    cache_refresh_probability: float = 0.0
    """Fraction of names this resolver's cache actively refreshes on TTL
    expiry (ICANN ITHI M5 behaviour).  Zero by default: the paper rules
    this mechanism out for the measured resolvers, and the wildcard-TTL
    ablation turns it on to show the spike it would create."""
    cache_refresh_ttl: float = 3600.0
    """Record TTL the refresher honours (the experiment wildcard's TTL)."""
    cache_refresh_count: int = 2
    """How many consecutive refreshes keep the name warm."""

    def shadows_at(self, instance_country: str) -> bool:
        if self.shadow_exhibitor is None:
            return False
        if not self.shadow_countries:
            return True
        return instance_country in self.shadow_countries


class ResolverModel:
    """Runtime behaviour of one DNS destination."""

    def __init__(
        self,
        profile: ResolverProfile,
        sim: Simulator,
        deployment: HoneypotDeployment,
        exhibitor: Optional[ShadowExhibitor],
        egress_address: str,
        rng: random.Random,
        streams: Optional[SubstreamFactory] = None,
        metrics=None,
    ):
        if profile.shadow_exhibitor is not None and exhibitor is None:
            raise ValueError(
                f"profile {profile.destination.name} names an exhibitor but none was bound"
            )
        self.profile = profile
        self._sim = sim
        self._deployment = deployment
        self._exhibitor = exhibitor
        self.egress_address = egress_address
        self._rng = rng
        self._streams = streams
        """When set, per-decoy behaviour draws come from a substream keyed
        by the decoy domain instead of the shared sequential ``rng`` —
        making the outcome independent of arrival order across shards
        (``rng`` then only feeds unobservable wire fields like txids)."""
        self._arrivals: Dict[str, int] = {}
        self.decoys_received = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        name = profile.destination.name
        self._m_received = metrics.counter(
            labeled("resolver.decoys_received", destination=name))
        self._m_shadowed = metrics.counter(
            labeled("resolver.shadow_observations", destination=name))

    @property
    def name(self) -> str:
        return self.profile.destination.name

    def receive_decoy(self, domain: str, instance_country: str) -> None:
        """Handle one delivered decoy query for ``domain``."""
        self.decoys_received += 1
        self._m_received.inc()
        if self._streams is not None:
            arrival = self._arrivals.get(domain, 0)
            self._arrivals[domain] = arrival + 1
        if self.profile.recursive:
            # Only a recursive resolver draws, so only it derives a stream.
            rng = (self._streams.derive(self.name, domain, arrival)
                   if self._streams is not None else self._rng)
            # Recursive lookup toward the honeypot authoritative server —
            # the decoy's first (solicited) appearance in the logs.
            self._sim.schedule_in(
                rng.uniform(0.02, 0.4),
                lambda domain=domain: self._query_authoritative(domain),
                label=f"recursion:{self.name}",
            )
            if rng.random() < self.profile.retry_probability:
                low, high = self.profile.retry_count
                for _ in range(rng.randint(low, high)):
                    self._sim.schedule_in(
                        rng.uniform(1.0, self.profile.retry_window),
                        lambda domain=domain: self._query_authoritative(domain),
                        label=f"retry:{self.name}",
                    )
            if (self.profile.cache_refresh_probability > 0
                    and rng.random() < self.profile.cache_refresh_probability):
                for generation in range(1, self.profile.cache_refresh_count + 1):
                    self._sim.schedule_in(
                        generation * self.profile.cache_refresh_ttl
                        + rng.uniform(0.0, 2.0),
                        lambda domain=domain: self._query_authoritative(domain),
                        label=f"cache-refresh:{self.name}",
                    )
        if self.profile.shadows_at(instance_country) and self._exhibitor is not None:
            self._m_shadowed.inc()
            self._exhibitor.observe(
                domain, observed_from=self.profile.destination.address
            )

    def _query_authoritative(self, domain: str) -> None:
        wire = encode_query(domain, txid=randrange(self._rng, 0x10000))
        server = self._deployment.authoritative_for(self.egress_address)
        server.handle_query(wire, self.egress_address, self._sim.now())
