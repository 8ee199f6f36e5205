"""Landscape analyses: Figure 3 and Table 2."""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.correlate import DecoyLedger, ShadowingEvent
from repro.core.phase2 import ObserverLocation
from repro.records import frozen


@frozen
class PathRatioRow:
    """One cell of Figure 3: VP grouping × destination, per decoy protocol."""

    vp_country: str
    destination_name: str
    destination_country: str
    protocol: str
    paths_total: int
    paths_problematic: int

    @property
    def ratio(self) -> float:
        return self.paths_problematic / self.paths_total if self.paths_total else 0.0


def problematic_path_ratios(
    ledger: DecoyLedger,
    events: Sequence[ShadowingEvent],
    group_by_vp_country: bool = True,
) -> List[PathRatioRow]:
    """Figure 3: the ratio of client-server paths subject to shadowing.

    A *path* is one (VP, destination) pair for a given decoy protocol; it
    is problematic when at least one of its decoys triggered an
    unsolicited request.
    """
    total: Dict[Tuple[str, str, str, str], set] = {}
    problematic: Dict[Tuple[str, str, str, str], set] = {}
    dest_country: Dict[str, str] = {}
    for record in ledger.records(phase=1):
        vp_group = record.vp_country if group_by_vp_country else "ALL"
        key = (vp_group, record.destination_name, record.protocol,
               record.destination_country)
        total.setdefault(key, set()).add((record.vp_id, record.destination_address))
        dest_country[record.destination_name] = record.destination_country
    for event in events:
        record = event.decoy
        if record.phase != 1:
            continue
        vp_group = record.vp_country if group_by_vp_country else "ALL"
        key = (vp_group, record.destination_name, record.protocol,
               record.destination_country)
        problematic.setdefault(key, set()).add(
            (record.vp_id, record.destination_address)
        )
    rows = []
    for key, paths in sorted(total.items()):
        vp_group, destination_name, protocol, destination_country = key
        rows.append(
            PathRatioRow(
                vp_country=vp_group,
                destination_name=destination_name,
                destination_country=destination_country,
                protocol=protocol,
                paths_total=len(paths),
                paths_problematic=len(problematic.get(key, set())),
            )
        )
    return rows


def destination_ratio_summary(rows: Sequence[PathRatioRow],
                              protocol: str) -> Dict[str, float]:
    """Collapse Figure 3 rows to per-destination ratios for one protocol."""
    totals: Dict[str, int] = {}
    bad: Dict[str, int] = {}
    for row in rows:
        if row.protocol != protocol:
            continue
        totals[row.destination_name] = totals.get(row.destination_name, 0) + row.paths_total
        bad[row.destination_name] = bad.get(row.destination_name, 0) + row.paths_problematic
    return {
        name: (bad.get(name, 0) / count if count else 0.0)
        for name, count in totals.items()
    }


def vp_country_ratio_summary(rows: Sequence[PathRatioRow],
                             protocol: str) -> Dict[str, float]:
    """Collapse Figure 3 rows to per-VP-country ratios for one protocol."""
    totals: Dict[str, int] = {}
    bad: Dict[str, int] = {}
    for row in rows:
        if row.protocol != protocol:
            continue
        totals[row.vp_country] = totals.get(row.vp_country, 0) + row.paths_total
        bad[row.vp_country] = bad.get(row.vp_country, 0) + row.paths_problematic
    return {
        country: (bad.get(country, 0) / count if count else 0.0)
        for country, count in totals.items()
    }


def observer_location_table(
    locations: Sequence[ObserverLocation],
) -> Dict[str, Dict[int, float]]:
    """Table 2: normalized (1-10) observer-location distribution per decoy
    protocol, as percentages.

    Only located paths contribute; 10 means the destination.
    """
    counts: Dict[str, Dict[int, int]] = {}
    for location in locations:
        normalized = location.normalized_hop()
        if normalized is None:
            continue
        per_protocol = counts.setdefault(location.protocol, {})
        per_protocol[normalized] = per_protocol.get(normalized, 0) + 1
    table: Dict[str, Dict[int, float]] = {}
    for protocol, per_hop in counts.items():
        total = sum(per_hop.values())
        table[protocol] = {
            hop: 100.0 * count / total for hop, count in sorted(per_hop.items())
        }
    return table


def destination_share(locations: Sequence[ObserverLocation],
                      protocol: str) -> float:
    """Fraction of located observers sitting at the destination."""
    relevant = [loc for loc in locations if loc.protocol == protocol and loc.located]
    if not relevant:
        return 0.0
    return sum(1 for loc in relevant if loc.at_destination) / len(relevant)


# -- streaming constructors (see repro.analysis.streaming) -----------------


def problematic_path_ratios_from_accumulator(
    accumulator,
    group_by_vp_country: bool = True,
) -> List[PathRatioRow]:
    """Figure 3 from a
    :class:`~repro.analysis.streaming.LandscapeAccumulator`: the
    accumulator kept the exact (VP, destination) pair sets, so totals and
    problematic counts — and therefore every ratio — match the batch
    recount bit for bit."""
    total, problematic = accumulator.path_sets(group_by_vp_country)
    rows = []
    for key, paths in sorted(total.items()):
        vp_group, destination_name, protocol, destination_country = key
        rows.append(
            PathRatioRow(
                vp_country=vp_group,
                destination_name=destination_name,
                destination_country=destination_country,
                protocol=protocol,
                paths_total=len(paths),
                paths_problematic=len(problematic.get(key, set())),
            )
        )
    return rows


def observer_location_table_from_accumulator(
    accumulator,
) -> Dict[str, Dict[int, float]]:
    """Table 2 from a
    :class:`~repro.analysis.streaming.LandscapeAccumulator`."""
    table: Dict[str, Dict[int, float]] = {}
    for protocol, per_hop in accumulator.hop_counts().items():
        total = sum(per_hop.values())
        table[protocol] = {
            hop: 100.0 * count / total for hop, count in sorted(per_hop.items())
        }
    return table


def destination_share_from_accumulator(accumulator, protocol: str) -> float:
    """Streaming mirror of :func:`destination_share`."""
    return accumulator.destination_share(protocol)
