"""Temporal analyses: retention CDFs (Figures 4/7) and multi-use stats.

The time between a decoy's emission and an unsolicited request bearing its
data is the paper's proxy for how long observers retain user data.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.correlate import CorrelationResult, ShadowingEvent
from repro.datasets.resolvers import RESOLVER_H_NAMES
from repro.records import frozen
from repro.simkit.units import DAY, HOUR, MINUTE


@frozen
class Cdf:
    """Empirical CDF over a list of non-negative samples."""

    samples: Tuple[float, ...]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Cdf":
        return cls(samples=tuple(sorted(values)))

    def __len__(self) -> int:
        return len(self.samples)

    def at(self, threshold: float) -> float:
        """P(X <= threshold)."""
        if not self.samples:
            return 0.0
        import bisect
        return bisect.bisect_right(self.samples, threshold) / len(self.samples)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            raise ValueError("empty CDF has no quantiles")
        index = min(len(self.samples) - 1, int(q * len(self.samples)))
        return self.samples[index]

    def series(self, thresholds: Sequence[float]) -> List[Tuple[float, float]]:
        """(threshold, cumulative fraction) pairs — a plottable curve."""
        return [(threshold, self.at(threshold)) for threshold in thresholds]


# The x-axis grid the paper's figures effectively use.
DEFAULT_THRESHOLDS: Tuple[float, ...] = (
    1.0, 10.0, MINUTE, 10 * MINUTE, HOUR, 6 * HOUR,
    DAY, 3 * DAY, 10 * DAY, 30 * DAY,
)


def dns_delay_cdfs(
    events: Sequence[ShadowingEvent],
    resolvers: Sequence[str] = RESOLVER_H_NAMES,
) -> Dict[str, Cdf]:
    """Figure 4: per-resolver CDF of (unsolicited − decoy) time for DNS
    decoys sent to the Resolver_h set."""
    deltas: Dict[str, List[float]] = {name: [] for name in resolvers}
    for event in events:
        if event.decoy.protocol != "dns":
            continue
        name = event.decoy.destination_name
        if name in deltas:
            deltas[name].append(event.delta)
    return {name: Cdf.from_values(values) for name, values in deltas.items()}


def other_resolver_cdf(events: Sequence[ShadowingEvent],
                       exclude: Sequence[str] = RESOLVER_H_NAMES) -> Cdf:
    """Delay CDF for DNS decoys to public resolvers beyond Resolver_h
    (the paper: 95% of their unsolicited requests arrive within 1 minute)."""
    excluded = set(exclude)
    values = [
        event.delta
        for event in events
        if event.decoy.protocol == "dns"
        and event.decoy.destination_kind == "dns"
        and event.decoy.destination_name not in excluded
    ]
    return Cdf.from_values(values)


def web_delay_cdfs(events: Sequence[ShadowingEvent]) -> Dict[str, Cdf]:
    """Figure 7: delay CDFs for HTTP and TLS decoys."""
    deltas: Dict[str, List[float]] = {"http": [], "tls": []}
    for event in events:
        if event.decoy.protocol in deltas:
            deltas[event.decoy.protocol].append(event.delta)
    return {protocol: Cdf.from_values(values) for protocol, values in deltas.items()}


@frozen
class MultiUseStats:
    """Section 5.1: how often one decoy's data is leveraged repeatedly."""

    decoys_with_late_requests: int
    share_more_than_3: float
    """Fraction of DNS decoys still producing >3 unsolicited requests more
    than one hour after emission (paper: 51%)."""
    share_more_than_10: float
    """Same with >10 (paper: 2.4%)."""


def multi_use_stats(events: Sequence[ShadowingEvent],
                    after: float = HOUR,
                    protocol: str = "dns") -> MultiUseStats:
    """Count late unsolicited requests per decoy."""
    late_counts: Dict[str, int] = {}
    for event in events:
        if event.decoy.protocol != protocol:
            continue
        if event.delta > after:
            late_counts[event.decoy.domain] = late_counts.get(event.decoy.domain, 0) + 1
    total = len(late_counts)
    if total == 0:
        return MultiUseStats(0, 0.0, 0.0)
    more_than_3 = sum(1 for count in late_counts.values() if count > 3)
    more_than_10 = sum(1 for count in late_counts.values() if count > 10)
    return MultiUseStats(
        decoys_with_late_requests=total,
        share_more_than_3=more_than_3 / total,
        share_more_than_10=more_than_10 / total,
    )


# -- streaming constructors (see repro.analysis.streaming) -----------------
#
# Each *_from_accumulator mirrors its batch counterpart above, reading a
# CdfAccumulator / MultiUseAccumulator instead of re-scanning events.
# The accumulators store the exact per-event delta multisets, so the
# resulting Cdf objects are bit-identical to the batch ones.


def dns_delay_cdfs_from_accumulator(
    accumulator,
    resolvers: Sequence[str] = RESOLVER_H_NAMES,
) -> Dict[str, Cdf]:
    """Figure 4 from a :class:`~repro.analysis.streaming.CdfAccumulator`."""
    return {
        name: Cdf.from_values(
            accumulator.deltas(decoy_protocols=("dns",), include_names=(name,))
        )
        for name in resolvers
    }


def other_resolver_cdf_from_accumulator(
    accumulator,
    exclude: Sequence[str] = RESOLVER_H_NAMES,
) -> Cdf:
    return Cdf.from_values(accumulator.deltas(
        decoy_protocols=("dns",), destination_kinds=("dns",),
        exclude_names=exclude,
    ))


def web_delay_cdfs_from_accumulator(accumulator) -> Dict[str, Cdf]:
    """Figure 7 from a :class:`~repro.analysis.streaming.CdfAccumulator`."""
    return {
        protocol: Cdf.from_values(accumulator.deltas(decoy_protocols=(protocol,)))
        for protocol in ("http", "tls")
    }


def multi_use_stats_from_accumulator(accumulator,
                                     protocol: str = "dns") -> MultiUseStats:
    """Section 5.1 from a
    :class:`~repro.analysis.streaming.MultiUseAccumulator` (the ``after``
    threshold is the accumulator's own, fixed at observation time)."""
    late_counts = accumulator.late_counts(protocol)
    total = len(late_counts)
    if total == 0:
        return MultiUseStats(0, 0.0, 0.0)
    more_than_3 = sum(1 for count in late_counts.values() if count > 3)
    more_than_10 = sum(1 for count in late_counts.values() if count > 10)
    return MultiUseStats(
        decoys_with_late_requests=total,
        share_more_than_3=more_than_3 / total,
        share_more_than_10=more_than_10 / total,
    )


def reappearance_share(events: Sequence[ShadowingEvent], destination: str,
                       after: float = 10 * DAY,
                       protocols: Tuple[str, ...] = ("http", "https")) -> float:
    """Share of shadowed decoys to ``destination`` whose data re-appears in
    the given request protocols more than ``after`` seconds later
    (the paper's "40% of Yandex query names re-appear in HTTP(S) 10 days
    later")."""
    shadowed = set()
    late = set()
    for event in events:
        if event.decoy.destination_name != destination:
            continue
        shadowed.add(event.decoy.domain)
        if event.request.protocol in protocols and event.delta > after:
            late.add(event.decoy.domain)
    if not shadowed:
        return 0.0
    return len(late) / len(shadowed)
