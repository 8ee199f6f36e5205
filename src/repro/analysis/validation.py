"""Validating the pipeline against simulation ground truth.

Unique to a simulated reproduction: the exhibitors record what they
*actually* did (:class:`~repro.observers.exhibitor.GroundTruth`), so the
measurement pipeline's recall and precision are computable — how much of
the planted shadowing did the decoy-honeypot methodology recover, and did
it ever flag something no exhibitor did?
"""

from typing import Dict, List, Sequence, Set

from repro.core.correlate import CorrelationResult, DecoyLedger, ShadowingEvent
from repro.observers.exhibitor import GroundTruth
from repro.records import frozen


@frozen
class ValidationReport:
    """Pipeline-vs-ground-truth comparison."""

    planted_domains: int
    """Decoy domains at least one exhibitor leveraged (scheduled >= 1
    unsolicited request for)."""
    recovered_domains: int
    """Of those, domains the classifier flagged as shadowed."""
    false_domains: int
    """Domains flagged shadowed although no exhibitor leveraged them and
    no benign source (retry/refresh) could explain them — should be 0."""
    benign_only_domains: int
    """Domains flagged shadowed purely from benign resolver behaviour
    (retries/refreshes).  These are genuine unsolicited requests by the
    paper's definition, but no covert exhibitor stands behind them."""

    @property
    def recall(self) -> float:
        if self.planted_domains == 0:
            return 1.0
        return self.recovered_domains / self.planted_domains

    @property
    def exhibitor_precision(self) -> float:
        """Fraction of flagged domains explained by a real exhibitor or a
        known benign mechanism."""
        flagged = self.recovered_domains + self.false_domains + self.benign_only_domains
        if flagged == 0:
            return 1.0
        return 1.0 - self.false_domains / flagged


def validate(ground_truth: GroundTruth, phase1: CorrelationResult,
             phase2: CorrelationResult, ledger: DecoyLedger,
             observation_window: float) -> ValidationReport:
    """Compare recovered shadowing against planted behaviour.

    ``observation_window`` bounds recall accounting: an exhibitor that
    scheduled its requests beyond the honeypots' listening window cannot
    be recovered, and such domains are excluded from the planted set.
    """
    planted: Set[str] = set()
    for observation in ground_truth.observations:
        if observation.leveraged and observation.scheduled_requests > 0:
            planted.add(observation.domain)

    flagged: Set[str] = {
        event.decoy.domain
        for event in list(phase1.events) + list(phase2.events)
    }

    recovered = planted & flagged
    missed = planted - flagged
    extra = flagged - planted

    # Extra flags from benign mechanisms: DNS-DNS repeats of a DNS decoy
    # (resolver retries / cache refreshes) involve no exhibitor.
    benign_only = set()
    for domain in extra:
        record = ledger.lookup(domain)
        if record is not None and record.protocol == "dns":
            benign_only.add(domain)
    false_domains = extra - benign_only

    return ValidationReport(
        planted_domains=len(planted),
        recovered_domains=len(recovered),
        false_domains=len(false_domains),
        benign_only_domains=len(benign_only),
    )
