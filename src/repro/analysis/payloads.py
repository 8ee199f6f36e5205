"""HTTP(S) probing-incentive analysis (Sections 5.1 and 5.2).

What do unsolicited HTTP(S) requests actually try to do?  The paper finds
~95% perform path enumeration against the honey website, none carry
exploit payloads, and large shares of their origins sit on IP blocklists.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.correlate import ShadowingEvent
from repro.intel.blocklist import Blocklist
from repro.intel.exploitdb import PayloadVerdict, check_payload
from repro.records import frozen


@frozen
class IncentiveReport:
    """Aggregate verdicts over unsolicited HTTP(S) requests."""

    requests: int
    enumeration_share: float
    exploit_share: float
    root_share: float
    blocklist_rate_http: float
    blocklist_rate_https: float
    top_paths: Tuple[Tuple[str, int], ...]


def incentive_report(
    events: Sequence[ShadowingEvent],
    blocklist: Blocklist,
    decoy_protocol: Optional[str] = None,
    top_n: int = 10,
) -> IncentiveReport:
    """Classify every unsolicited HTTP(S) request's payload.

    ``decoy_protocol`` restricts to requests triggered by one decoy type
    (Section 5.1 analyzes DNS-triggered probes; 5.2 the HTTP/TLS ones).
    """
    verdicts: Dict[PayloadVerdict, int] = {verdict: 0 for verdict in PayloadVerdict}
    path_counts: Dict[str, int] = {}
    origins_http: List[str] = []
    origins_https: List[str] = []
    total = 0
    for event in events:
        if event.request.protocol not in ("http", "https"):
            continue
        if decoy_protocol is not None and event.decoy.protocol != decoy_protocol:
            continue
        path = event.request.path or "/"
        verdicts[check_payload(path)] += 1
        path_counts[path] = path_counts.get(path, 0) + 1
        if event.request.protocol == "http":
            origins_http.append(event.origin_address)
        else:
            origins_https.append(event.origin_address)
        total += 1
    top_paths = tuple(
        sorted(path_counts.items(), key=lambda item: (-item[1], item[0]))[:top_n]
    )
    if total == 0:
        return IncentiveReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
    return IncentiveReport(
        requests=total,
        enumeration_share=verdicts[PayloadVerdict.ENUMERATION] / total,
        exploit_share=verdicts[PayloadVerdict.EXPLOIT] / total,
        root_share=verdicts[PayloadVerdict.BENIGN] / total,
        blocklist_rate_http=blocklist.hit_rate(origins_http),
        blocklist_rate_https=blocklist.hit_rate(origins_https),
        top_paths=top_paths,
    )


def incentive_report_from_accumulator(
    accumulator,
    decoy_protocol: Optional[str] = None,
    top_n: int = 10,
) -> IncentiveReport:
    """Streaming mirror of :func:`incentive_report`, reading an
    :class:`~repro.analysis.streaming.IncentiveAccumulator`.

    Verdicts were classified and blocklist membership resolved at observe
    time; totals sum and origin sets union across shards, so every share
    divides the identical integers the batch pass produces.
    """
    verdicts = accumulator.verdict_counts(decoy_protocol)
    total = sum(verdicts.values())
    path_counts = accumulator.path_counts(decoy_protocol)
    top_paths = tuple(
        sorted(path_counts.items(), key=lambda item: (-item[1], item[0]))[:top_n]
    )
    if total == 0:
        return IncentiveReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
    return IncentiveReport(
        requests=total,
        enumeration_share=verdicts.get(PayloadVerdict.ENUMERATION.name, 0) / total,
        exploit_share=verdicts.get(PayloadVerdict.EXPLOIT.name, 0) / total,
        root_share=verdicts.get(PayloadVerdict.BENIGN.name, 0) / total,
        blocklist_rate_http=accumulator.blocklist_rate("http", decoy_protocol),
        blocklist_rate_https=accumulator.blocklist_rate("https", decoy_protocol),
        top_paths=top_paths,
    )
