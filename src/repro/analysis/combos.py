"""Figure 5: breakdown of DNS decoys per destination by protocol
combination and latency bucket."""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.correlate import DecoyLedger, ShadowingEvent
from repro.records import frozen
from repro.simkit.units import DAY, HOUR, MINUTE

# Figure 5 groups unsolicited requests into these latency buckets.
LATENCY_BUCKETS: Tuple[Tuple[str, float], ...] = (
    ("<1m", MINUTE),
    ("<1h", HOUR),
    ("<1d", DAY),
    (">=1d", float("inf")),
)


def bucket_of(delta: float) -> str:
    for label, ceiling in LATENCY_BUCKETS:
        if delta < ceiling:
            return label
    return LATENCY_BUCKETS[-1][0]


@frozen
class BreakdownRow:
    """One segment of a Figure 5 bar."""

    destination_name: str
    combo: str
    latency_bucket: str
    decoys: int
    share_of_sent: float
    """Fraction of all DNS decoys sent to this destination that triggered
    at least one unsolicited request with this combo in this bucket."""


def decoy_breakdown(
    ledger: DecoyLedger,
    events: Sequence[ShadowingEvent],
    protocol: str = "dns",
) -> List[BreakdownRow]:
    """Per destination: classify decoys by the combos/latencies they drew.

    A decoy contributes to every (combo, bucket) it produced at least one
    unsolicited request in, matching how the paper's stacked bars read.
    """
    sent: Dict[str, int] = {}
    for record in ledger.records(phase=1):
        if record.protocol == protocol:
            sent[record.destination_name] = sent.get(record.destination_name, 0) + 1
    per_key_decoys: Dict[Tuple[str, str, str], set] = {}
    for event in events:
        record = event.decoy
        if record.protocol != protocol or record.phase != 1:
            continue
        key = (record.destination_name, event.combo, bucket_of(event.delta))
        per_key_decoys.setdefault(key, set()).add(record.domain)
    rows: List[BreakdownRow] = []
    for key, decoys in sorted(per_key_decoys.items()):
        destination_name, combo, bucket = key
        total_sent = sent.get(destination_name, 0)
        rows.append(
            BreakdownRow(
                destination_name=destination_name,
                combo=combo,
                latency_bucket=bucket,
                decoys=len(decoys),
                share_of_sent=(len(decoys) / total_sent) if total_sent else 0.0,
            )
        )
    return rows


def shadowed_share(ledger: DecoyLedger, events: Sequence[ShadowingEvent],
                   destination_name: str, protocol: str = "dns") -> float:
    """Fraction of decoys to one destination that triggered anything
    unsolicited (e.g. the paper's ">99% of DNS decoys sent to Yandex")."""
    sent = sum(
        1
        for record in ledger.records(phase=1)
        if record.protocol == protocol and record.destination_name == destination_name
    )
    if sent == 0:
        return 0.0
    shadowed = {
        event.decoy.domain
        for event in events
        if event.decoy.protocol == protocol
        and event.decoy.destination_name == destination_name
        and event.decoy.phase == 1
    }
    return len(shadowed) / sent


def http_https_share(ledger: DecoyLedger, events: Sequence[ShadowingEvent],
                     destination_name: str) -> float:
    """Fraction of DNS decoys to one destination that drew unsolicited
    HTTP or HTTPS requests (paper: ~50% for Yandex and 114DNS)."""
    sent = sum(
        1
        for record in ledger.records(phase=1)
        if record.protocol == "dns" and record.destination_name == destination_name
    )
    if sent == 0:
        return 0.0
    decoys = {
        event.decoy.domain
        for event in events
        if event.decoy.protocol == "dns"
        and event.decoy.destination_name == destination_name
        and event.request.protocol in ("http", "https")
        and event.decoy.phase == 1
    }
    return len(decoys) / sent


def shadowed_share_from_accumulator(accumulator, destination_name: str,
                                    protocol: str = "dns") -> float:
    """Streaming mirror of :func:`shadowed_share`."""
    sent = accumulator.sent(protocol, destination_name)
    if sent == 0:
        return 0.0
    return len(accumulator.decoy_union(protocol, destination_name)) / sent


def http_https_share_from_accumulator(accumulator,
                                      destination_name: str) -> float:
    """Streaming mirror of :func:`http_https_share`.

    Combo labels "DNS-HTTP"/"DNS-HTTPS" are exactly the DNS-decoy events
    whose request protocol is http/https, so the union over those cells
    equals the batch decoy set.
    """
    sent = accumulator.sent("dns", destination_name)
    if sent == 0:
        return 0.0
    decoys = accumulator.decoy_union("dns", destination_name,
                                     combos=("DNS-HTTP", "DNS-HTTPS"))
    return len(decoys) / sent
