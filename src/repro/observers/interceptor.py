"""On-path DNS interception — the noise source of Appendix E.

Interceptors redirect DNS queries to alternative resolvers and answer
with responses spoofed from the intended destination's address.  They are
*not* traffic shadowing (the client is still waiting when the alternative
resolver acts), but uncorrected they pollute observer localization; the
pair-resolver filter exists to remove affected VPs.

The model supports both sides of that story:

* :meth:`DnsInterceptor.answers_pair_probe` — interceptors respond to
  queries aimed at non-DNS addresses, which is exactly how the vetting
  probe detects them;
* :meth:`DnsInterceptor.on_query` — the alternative resolver recurses
  (and aggressively retries) toward the honeypot authoritative server,
  which is the mid-path noise the ablation benchmark quantifies.
"""

import random
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.honeypot.deployment import HoneypotDeployment
from repro.protocols.dns import encode_query
from repro.simkit.events import Simulator
from repro.simkit.rng import SubstreamFactory, randrange
from repro.telemetry.registry import NULL_REGISTRY


class DnsInterceptor:
    """One interception device at a router hop."""

    def __init__(
        self,
        hop_address: str,
        alt_resolver_address: str,
        sim: Simulator,
        deployment: HoneypotDeployment,
        rng: random.Random,
        retry_count: int = 2,
        retry_window: float = 45.0,
        streams: Optional[SubstreamFactory] = None,
        metrics=None,
    ):
        self.hop_address = hop_address
        self.alt_resolver_address = alt_resolver_address
        self._sim = sim
        self._deployment = deployment
        self._rng = rng
        self._streams = streams
        """When set, recursion/retry delays for a query are keyed by the
        intercepted domain rather than drawn in arrival order — a shared
        first-hop interceptor then behaves identically whether the VPs
        behind it run in one simulator or across shards."""
        self._arrivals: Dict[str, int] = {}
        self.retry_count = retry_count
        self.retry_window = retry_window
        self.intercepted = 0
        # One shared counter across every interceptor instance: the name
        # carries no hop label, so the handle is the same Counter object
        # registry-wide and per-campaign totals come for free.
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_intercepted = metrics.counter("interceptor.queries_intercepted")

    def answers_pair_probe(self) -> bool:
        """Interceptors answer DNS queries regardless of destination."""
        return True

    def on_query(self, domain: str) -> None:
        """Redirect one intercepted query to the alternative resolver.

        The alternative resolver recurses immediately and then re-queries
        the name a few times — the classic aggressive-retry fingerprint
        the APNIC "DNS zombies" post attributes to problematic resolver
        implementations.
        """
        self.intercepted += 1
        self._m_intercepted.inc()
        if self._streams is not None:
            arrival = self._arrivals.get(domain, 0)
            self._arrivals[domain] = arrival + 1
            rng = self._streams.derive(self.hop_address, domain, arrival)
        else:
            rng = self._rng
        self._sim.schedule_in(
            rng.uniform(0.02, 0.3),
            lambda domain=domain: self._query_authoritative(domain),
            label="interceptor:recursion",
        )
        for _ in range(self.retry_count):
            self._sim.schedule_in(
                rng.uniform(1.0, self.retry_window),
                lambda domain=domain: self._query_authoritative(domain),
                label="interceptor:retry",
            )

    def _query_authoritative(self, domain: str) -> None:
        wire = encode_query(domain, txid=randrange(self._rng, 0x10000))
        server = self._deployment.authoritative_for(self.alt_resolver_address)
        server.handle_query(wire, self.alt_resolver_address, self._sim.now())
