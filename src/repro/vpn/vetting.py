"""Platform vetting (Appendices C and E).

Two filters run before any decoys are sent:

1. **TTL-reset exclusion** — providers that rewrite the TTL of outgoing
   packets break hop-by-hop tracerouting; such providers are detected by
   sending probes to a controlled server and comparing received TTLs, and
   every VP of an offending provider is dropped.
2. **Pair-resolver interception filter** — for each DNS destination, a
   *pair resolver* is an address in the same /24 that runs no DNS service.
   A VP whose query to any pair resolver nonetheless draws a response sits
   behind an on-path DNS interceptor, which would corrupt observer
   localization; the VP is removed.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from repro.datasets.resolvers import DnsDestination
from repro.telemetry.registry import MERGE_SAME
from repro.vpn.vantage import VantagePoint

# Signature: does a DNS query from this VP to this address draw a response?
PairProbe = Callable[[VantagePoint, str], bool]


@dataclass
class VettingReport:
    """Outcome of a vetting pass."""

    kept: List[VantagePoint] = field(default_factory=list)
    removed_ttl_reset: List[VantagePoint] = field(default_factory=list)
    removed_intercepted: List[VantagePoint] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return len(self.removed_ttl_reset) + len(self.removed_intercepted)

    def record(self, metrics) -> None:
        """Publish the outcome as ``merge="same"`` counters.

        Vetting runs once, in the serial run or the sharded parent; shard
        workers fork after it and inherit these counters, so every
        worker's snapshot carries them again and a summing merge would
        multiply the tally by the worker count.  The "same" policy
        instead asserts agreement and keeps the one true value.
        """
        metrics.counter("vetting.kept", merge=MERGE_SAME).inc(len(self.kept))
        metrics.counter("vetting.removed_ttl_reset", merge=MERGE_SAME).inc(
            len(self.removed_ttl_reset))
        metrics.counter("vetting.removed_intercepted", merge=MERGE_SAME).inc(
            len(self.removed_intercepted))


def vet_providers(vps: Sequence[VantagePoint]) -> VettingReport:
    """Drop every VP whose provider resets outgoing TTLs."""
    report = VettingReport()
    for vp in vps:
        if vp.resets_ttl:
            report.removed_ttl_reset.append(vp)
        else:
            report.kept.append(vp)
    return report


def pair_resolver_filter(
    vps: Sequence[VantagePoint],
    destinations: Sequence[DnsDestination],
    probe: PairProbe,
) -> VettingReport:
    """Remove VPs behind DNS interceptors.

    ``probe(vp, address)`` reports whether a DNS query from the VP to
    ``address`` would draw a response.  Pair resolvers offer no DNS
    service, so any response implies interception on the path
    (Appendix E), and the VP is discarded.  The campaign's probe
    (``Campaign._pair_probe``) sends no packet: it asks whether the VP's
    pinned first hop intercepts, the hop every path out of the VP shares.
    """
    report = VettingReport()
    pair_addresses: List[Tuple[str, str]] = [
        (destination.name, destination.pair_address) for destination in destinations
    ]
    for vp in vps:
        intercepted = any(probe(vp, address) for _, address in pair_addresses)
        if intercepted:
            report.removed_intercepted.append(vp)
        else:
            report.kept.append(vp)
    return report


def full_vetting(
    vps: Sequence[VantagePoint],
    destinations: Sequence[DnsDestination],
    probe: PairProbe,
    exclude_ttl_reset: bool = True,
    pair_filter: bool = True,
) -> VettingReport:
    """TTL-reset exclusion, then the pair-resolver filter on what remains.

    Each filter runs only when its flag is on.
    """
    report = (vet_providers(vps) if exclude_ttl_reset
              else VettingReport(kept=list(vps)))
    if pair_filter:
        second = pair_resolver_filter(report.kept, destinations, probe)
        report.kept = second.kept
        report.removed_intercepted = second.removed_intercepted
    return report
