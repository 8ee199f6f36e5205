"""Longitudinal analysis across Phase I rounds.

The paper's campaign cycles through its vantage points continuously for
two months; the landscape it reports is therefore an aggregate of many
passes.  With ``ExperimentConfig.phase1_rounds > 1``, this module checks
how stable the per-destination problematic ratios are from round to
round — a consistency property the single-figure presentation of the
paper implicitly relies on.
"""

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.stats import total_variation
from repro.core.correlate import DecoyLedger, ShadowingEvent
from repro.records import frozen


@frozen
class RoundSummary:
    """Per-round landscape digest for one decoy protocol."""

    round_index: int
    decoys: int
    shadowed: int
    destination_ratios: Dict[str, float]

    @property
    def shadowed_share(self) -> float:
        return self.shadowed / self.decoys if self.decoys else 0.0


def per_round_summaries(
    ledger: DecoyLedger,
    events: Sequence[ShadowingEvent],
    protocol: str = "dns",
) -> List[RoundSummary]:
    """One digest per Phase I round."""
    sent: Dict[Tuple[int, str], int] = {}
    rounds: Set[int] = set()
    for record in ledger.records(phase=1):
        if record.protocol != protocol:
            continue
        key = (record.round_index, record.destination_name)
        sent[key] = sent.get(key, 0) + 1
        rounds.add(record.round_index)
    shadowed_domains: Dict[Tuple[int, str], Set[str]] = {}
    shadowed_per_round: Dict[int, Set[str]] = {}
    for event in events:
        record = event.decoy
        if record.phase != 1 or record.protocol != protocol:
            continue
        key = (record.round_index, record.destination_name)
        shadowed_domains.setdefault(key, set()).add(record.domain)
        shadowed_per_round.setdefault(record.round_index, set()).add(record.domain)
    summaries = []
    for round_index in sorted(rounds):
        ratios = {}
        decoys = 0
        for (index, destination), count in sent.items():
            if index != round_index:
                continue
            decoys += count
            hit = len(shadowed_domains.get((index, destination), set()))
            ratios[destination] = hit / count if count else 0.0
        summaries.append(RoundSummary(
            round_index=round_index,
            decoys=decoys,
            shadowed=len(shadowed_per_round.get(round_index, set())),
            destination_ratios=ratios,
        ))
    return summaries


def round_stability(summaries: Sequence[RoundSummary]) -> float:
    """Maximum total-variation distance between any round's destination
    distribution and the first round's.  Near zero = a stable landscape."""
    if len(summaries) < 2:
        return 0.0
    baseline = {
        name: ratio
        for name, ratio in summaries[0].destination_ratios.items()
        if ratio > 0
    }
    if not baseline:
        return 0.0
    worst = 0.0
    for summary in summaries[1:]:
        other = {
            name: ratio
            for name, ratio in summary.destination_ratios.items()
            if ratio > 0
        }
        if not other:
            worst = max(worst, 1.0)
            continue
        worst = max(worst, total_variation(baseline, other))
    return worst
