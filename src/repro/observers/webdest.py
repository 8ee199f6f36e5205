"""Shadowing behaviour of HTTP/TLS destination servers.

Table 2 locates 65% of TLS observers and a small share of HTTP observers
*at the destination* — web endpoints (CDNs, security services) that log
SNI / Host values and probe them later.  Whether a given destination
shadows is decided deterministically per address from country-level
rates.
"""

import random
from typing import Dict, Optional

from repro.datasets.tranco import WebDestination
from repro.observers.exhibitor import ShadowExhibitor
from repro.records import frozen
from repro.simkit.rng import SubstreamFactory
from repro.telemetry.registry import NULL_REGISTRY, labeled


@frozen
class WebDestinationBehavior:
    """Per-country shadowing rates for destination web servers."""

    tls_shadow_rate_by_country: Dict[str, float]
    http_shadow_rate_by_country: Dict[str, float]
    default_tls_rate: float = 0.0
    default_http_rate: float = 0.0

    def tls_rate(self, country: str) -> float:
        return self.tls_shadow_rate_by_country.get(country, self.default_tls_rate)

    def http_rate(self, country: str) -> float:
        return self.http_shadow_rate_by_country.get(country, self.default_http_rate)


class WebDestinationModel:
    """Runtime shadow decisions for the synthetic Tranco pool."""

    def __init__(
        self,
        behavior: WebDestinationBehavior,
        exhibitors_by_country: Dict[str, ShadowExhibitor],
        default_exhibitor: Optional[ShadowExhibitor],
        rng: random.Random,
        streams: Optional[SubstreamFactory] = None,
        metrics=None,
    ):
        self.behavior = behavior
        self._exhibitors = exhibitors_by_country
        self._default = default_exhibitor
        self._rng = rng
        self._streams = streams
        """When set, the per-(address, protocol) shadow decision comes from
        a substream keyed by that pair rather than first-sight order on the
        shared ``rng`` — so the decision is identical no matter which shard
        (or arrival) asks first."""
        self._decisions: Dict[tuple, bool] = {}
        # Per-decoy tallies only: the cached per-destination *decision*
        # is made by whichever shard asks first, so counting decisions
        # would diverge from serial — counting decoys partitions cleanly.
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_decoys = {
            protocol: metrics.counter(
                labeled("webdest.decoys_received", protocol=protocol))
            for protocol in ("http", "tls")
        }
        self._m_shadowed = {
            protocol: metrics.counter(
                labeled("webdest.shadow_observations", protocol=protocol))
            for protocol in ("http", "tls")
        }

    def _shadows(self, destination: WebDestination, protocol: str) -> bool:
        key = (destination.address, protocol)
        if key not in self._decisions:
            rate = (
                self.behavior.tls_rate(destination.country)
                if protocol == "tls"
                else self.behavior.http_rate(destination.country)
            )
            if self._streams is not None:
                draw = self._streams.derive(destination.address, protocol).random()
            else:
                draw = self._rng.random()
            self._decisions[key] = draw < rate
        return self._decisions[key]

    def receive_decoy(self, destination: WebDestination, protocol: str,
                      domain: str) -> bool:
        """Handle one delivered HTTP/TLS decoy; returns True if shadowed.

        Real destinations would also answer the request; responses do not
        reach the honeypot so the pipeline never consumes them.
        """
        if protocol not in ("http", "tls"):
            raise ValueError(f"web destinations only take http/tls decoys, got {protocol!r}")
        self._m_decoys[protocol].inc()
        if not self._shadows(destination, protocol):
            return False
        exhibitor = self._exhibitors.get(destination.country, self._default)
        if exhibitor is None:
            return False
        self._m_shadowed[protocol].inc()
        exhibitor.observe(domain, observed_from=destination.address)
        return True
