"""Origin and observer network analyses: Figure 6, Table 3, Section 5.2."""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.correlate import ShadowingEvent
from repro.core.phase2 import ObserverLocation
from repro.datasets.asns import lookup_as
from repro.datasets.resolvers import RESOLVER_H_NAMES
from repro.intel.blocklist import Blocklist
from repro.intel.directory import IpDirectory
from repro.records import frozen


def _as_label(asn: int) -> str:
    try:
        return lookup_as(asn).name
    except KeyError:
        return f"AS{asn}"


@frozen
class OriginAsRow:
    """One bar of Figure 6."""

    destination_name: str
    request_protocol: str
    asn: int
    as_name: str
    requests: int
    share: float


def origin_as_distribution(
    events: Sequence[ShadowingEvent],
    directory: IpDirectory,
    resolvers: Sequence[str] = RESOLVER_H_NAMES,
    top_n: int = 6,
) -> List[OriginAsRow]:
    """Figure 6: origin ASes of unsolicited requests triggered by DNS
    decoys sent to Resolver_h, per destination and request protocol."""
    counts: Dict[Tuple[str, str, int], int] = {}
    totals: Dict[Tuple[str, str], int] = {}
    wanted = set(resolvers)
    for event in events:
        if event.decoy.protocol != "dns":
            continue
        if event.decoy.destination_name not in wanted:
            continue
        asn = directory.asn_of(event.origin_address)
        if asn is None:
            continue
        key = (event.decoy.destination_name, event.request.protocol, asn)
        counts[key] = counts.get(key, 0) + 1
        pair = key[:2]
        totals[pair] = totals.get(pair, 0) + 1
    rows: List[OriginAsRow] = []
    by_pair: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for (destination, protocol, asn), count in counts.items():
        by_pair.setdefault((destination, protocol), []).append((count, asn))
    for (destination, protocol), entries in sorted(by_pair.items()):
        entries.sort(reverse=True)
        total = totals[(destination, protocol)]
        for count, asn in entries[:top_n]:
            rows.append(
                OriginAsRow(
                    destination_name=destination,
                    request_protocol=protocol,
                    asn=asn,
                    as_name=_as_label(asn),
                    requests=count,
                    share=count / total,
                )
            )
    return rows


def origin_blocklist_rate(
    events: Sequence[ShadowingEvent],
    blocklist: Blocklist,
    request_protocol: Optional[str] = None,
    decoy_protocol: Optional[str] = None,
) -> float:
    """Fraction of distinct origin addresses labeled malicious.

    With ``request_protocol="dns"`` and ``decoy_protocol="dns"`` this is
    the paper's 5.2% figure; with HTTP/HTTPS it yields the 45-72% range.
    """
    addresses = {
        event.origin_address
        for event in events
        if (request_protocol is None or event.request.protocol == request_protocol)
        and (decoy_protocol is None or event.decoy.protocol == decoy_protocol)
    }
    return blocklist.hit_rate(addresses)


@frozen
class ObserverAsRow:
    """One row of Table 3."""

    protocol: str
    asn: int
    as_name: str
    observers: int
    share: float


def top_observer_ases(
    locations: Sequence[ObserverLocation],
    top_n: int = 3,
) -> List[ObserverAsRow]:
    """Table 3: top networks of on-path traffic observers.

    Counts distinct ICMP-revealed observer addresses per decoy protocol.
    """
    per_protocol: Dict[str, Dict[int, set]] = {}
    for location in locations:
        if location.observer_address is None or location.observer_asn is None:
            continue
        per_as = per_protocol.setdefault(location.protocol, {})
        per_as.setdefault(location.observer_asn, set()).add(location.observer_address)
    return _observer_as_rows(per_protocol, top_n)


def _observer_as_rows(per_protocol: Dict[str, Dict[int, set]],
                      top_n: int) -> List[ObserverAsRow]:
    rows: List[ObserverAsRow] = []
    for protocol, per_as in sorted(per_protocol.items()):
        total = sum(len(addresses) for addresses in per_as.values())
        # Ties rank by ascending ASN so the order is a pure function of
        # content — the streaming path merges shard states in arbitrary
        # order and must reproduce this ranking bit for bit.
        ranked = sorted(per_as.items(), key=lambda item: (-len(item[1]), item[0]))
        for asn, addresses in ranked[:top_n]:
            rows.append(
                ObserverAsRow(
                    protocol=protocol,
                    asn=asn,
                    as_name=_as_label(asn),
                    observers=len(addresses),
                    share=len(addresses) / total,
                )
            )
    return rows


def observer_country_counts(
    locations: Sequence[ObserverLocation],
) -> Dict[str, int]:
    """Countries of distinct ICMP-revealed observer addresses (the paper
    finds 448 of 572 — 79% — in CN)."""
    seen: Dict[str, str] = {}
    for location in locations:
        if location.observer_address is not None and location.observer_country:
            seen[location.observer_address] = location.observer_country
    counts: Dict[str, int] = {}
    for country in seen.values():
        counts[country] = counts.get(country, 0) + 1
    return counts


@frozen
class ObserverGroupRow:
    """Section 5.2: per-observer-AS behaviour of HTTP/TLS shadowing."""

    asn: int
    as_name: str
    paths: int
    share_of_all_paths: float
    combo_shares: Dict[str, float]
    same_as_origin_share: float
    """Fraction of this AS's triggered requests originating from the
    observer's own AS (the paper: 100% for AS40444 / AS29988)."""


def observer_as_groups(
    locations: Sequence[ObserverLocation],
    events: Sequence[ShadowingEvent],
    directory: IpDirectory,
    protocols: Tuple[str, ...] = ("http", "tls"),
    top_n: int = 5,
) -> List[ObserverGroupRow]:
    """Group problematic HTTP/TLS paths by the observer's AS."""
    # Map (vp_id, destination, protocol) -> observer ASN from Phase II.
    observer_of: Dict[Tuple[str, str, str], int] = {}
    for location in locations:
        if location.protocol not in protocols or location.observer_asn is None:
            continue
        observer_of[(location.vp_id, location.destination_address,
                     location.protocol)] = location.observer_asn
    per_as_paths: Dict[int, set] = {}
    per_as_combos: Dict[int, Dict[str, int]] = {}
    per_as_same_origin: Dict[int, List[bool]] = {}
    for event in events:
        decoy = event.decoy
        if decoy.protocol not in protocols:
            continue
        key = (decoy.vp_id, decoy.destination_address, decoy.protocol)
        asn = observer_of.get(key)
        if asn is None:
            continue
        per_as_paths.setdefault(asn, set()).add(key)
        combos = per_as_combos.setdefault(asn, {})
        combos[event.combo] = combos.get(event.combo, 0) + 1
        origin_asn = directory.asn_of(event.origin_address)
        per_as_same_origin.setdefault(asn, []).append(origin_asn == asn)
    per_as_events = {asn: len(same) for asn, same in per_as_same_origin.items()}
    per_as_same = {asn: sum(same) for asn, same in per_as_same_origin.items()}
    return _observer_group_rows(per_as_paths, per_as_combos, per_as_events,
                                per_as_same, top_n)


def _observer_group_rows(per_as_paths: Dict[int, set],
                         per_as_combos: Dict[int, Dict[str, int]],
                         per_as_events: Dict[int, int],
                         per_as_same: Dict[int, int],
                         top_n: int) -> List[ObserverGroupRow]:
    total_paths = sum(len(paths) for paths in per_as_paths.values())
    # Ascending-ASN tie-break: content-deterministic, see _observer_as_rows.
    ranked = sorted(per_as_paths.items(), key=lambda item: (-len(item[1]), item[0]))
    rows: List[ObserverGroupRow] = []
    for asn, paths in ranked[:top_n]:
        combos = per_as_combos.get(asn, {})
        combo_total = sum(combos.values())
        events = per_as_events.get(asn, 0)
        rows.append(
            ObserverGroupRow(
                asn=asn,
                as_name=_as_label(asn),
                paths=len(paths),
                share_of_all_paths=len(paths) / total_paths if total_paths else 0.0,
                combo_shares={
                    combo: count / combo_total for combo, count in sorted(combos.items())
                },
                same_as_origin_share=(
                    per_as_same.get(asn, 0) / events) if events else 0.0,
            )
        )
    return rows


# -- streaming constructors (see repro.analysis.streaming) -----------------


def origin_as_distribution_from_accumulator(
    accumulator,
    resolvers: Sequence[str] = RESOLVER_H_NAMES,
    top_n: int = 6,
) -> List[OriginAsRow]:
    """Figure 6 from an
    :class:`~repro.analysis.streaming.OriginAsAccumulator` (origin ASNs
    were resolved at observe time, so no IP directory is needed)."""
    wanted = set(resolvers)
    counts: Dict[Tuple[str, str, int], int] = {}
    totals: Dict[Tuple[str, str], int] = {}
    for (destination, protocol, asn), count in accumulator.origin_counts().items():
        if destination not in wanted:
            continue
        counts[(destination, protocol, asn)] = count
        pair = (destination, protocol)
        totals[pair] = totals.get(pair, 0) + count
    rows: List[OriginAsRow] = []
    by_pair: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for (destination, protocol, asn), count in counts.items():
        by_pair.setdefault((destination, protocol), []).append((count, asn))
    for (destination, protocol), entries in sorted(by_pair.items()):
        entries.sort(reverse=True)
        total = totals[(destination, protocol)]
        for count, asn in entries[:top_n]:
            rows.append(
                OriginAsRow(
                    destination_name=destination,
                    request_protocol=protocol,
                    asn=asn,
                    as_name=_as_label(asn),
                    requests=count,
                    share=count / total,
                )
            )
    return rows


def origin_blocklist_rate_from_accumulator(
    accumulator,
    request_protocol: Optional[str] = None,
    decoy_protocol: Optional[str] = None,
) -> float:
    """Streaming mirror of :func:`origin_blocklist_rate`: the accumulator
    kept the distinct origin-address sets and their blocklisted subsets,
    so the merged ratio divides the identical integers."""
    return accumulator.blocklist_rate(request_protocol=request_protocol,
                                      decoy_protocol=decoy_protocol)


def top_observer_ases_from_accumulator(accumulator,
                                       top_n: int = 3) -> List[ObserverAsRow]:
    """Table 3 from an
    :class:`~repro.analysis.streaming.OriginAsAccumulator`."""
    per_protocol: Dict[str, Dict[int, set]] = {}
    for (protocol, asn), addresses in accumulator.observer_sets().items():
        per_protocol.setdefault(protocol, {})[asn] = addresses
    return _observer_as_rows(per_protocol, top_n)


def observer_country_counts_from_accumulator(accumulator) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for country in accumulator.observer_countries().values():
        counts[country] = counts.get(country, 0) + 1
    return counts


def observer_as_groups_from_accumulator(
    accumulator,
    protocols: Tuple[str, ...] = ("http", "tls"),
    top_n: int = 5,
) -> List[ObserverGroupRow]:
    """Section 5.2 from an
    :class:`~repro.analysis.streaming.OriginAsAccumulator`.

    The accumulator kept per-path combo and origin-ASN counts; joining
    them with the Phase II observer map here reproduces the batch
    grouping — per-AS event totals, same-AS-origin counts, and path sets
    all merge exactly."""
    observer_of, combos_by_path, origins_by_path = accumulator.group_state(protocols)
    per_as_paths: Dict[int, set] = {}
    per_as_combos: Dict[int, Dict[str, int]] = {}
    per_as_events: Dict[int, int] = {}
    per_as_same: Dict[int, int] = {}
    for key, combos in combos_by_path.items():
        asn = observer_of.get(key)
        if asn is None:
            continue
        per_as_paths.setdefault(asn, set()).add(key)
        merged = per_as_combos.setdefault(asn, {})
        for combo, count in combos.items():
            merged[combo] = merged.get(combo, 0) + count
        origin_counts = origins_by_path.get(key, {})
        per_as_events[asn] = (per_as_events.get(asn, 0)
                              + sum(origin_counts.values()))
        per_as_same[asn] = per_as_same.get(asn, 0) + origin_counts.get(asn, 0)
    return _observer_group_rows(per_as_paths, per_as_combos, per_as_events,
                                per_as_same, top_n)
