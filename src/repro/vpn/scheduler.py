"""The Phase I per-target rate limit.

Section 4: "switching between different VPs from VPN services continuously
in a round-robin fashion without stop".  The campaign's plan walks the
VPs round-robin over every destination; this limiter spaces the planned
sends to respect the paper's per-target rate limit (no more than 2
decoys/second toward any single destination) and defers sends past VP
disconnect windows.
"""

from typing import Optional


class RoundRobinScheduler:
    """Tracks per-destination send times for the round-robin plan."""

    def __init__(self, per_target_interval: float = 0.5, faults=None):
        if per_target_interval < 0:
            raise ValueError(f"interval must be non-negative, got {per_target_interval}")
        self.per_target_interval = per_target_interval
        self._last_send_toward: dict = {}
        self._faults = faults
        """Optional :class:`~repro.faults.FaultPlan`: sends proposed while
        the sending VP is inside its disconnect window are deferred to its
        reconnect time before rate limiting."""
        self.deferred_by_churn = 0
        """Sends shifted by a VP disconnect window; the campaign surfaces
        this as a replayed (merge="same") fault counter."""

    def earliest_send_time(self, target: str, proposed: float,
                           vp_address: Optional[str] = None) -> float:
        """Shift ``proposed`` later if needed to respect the rate limit, and
        record the reservation.

        Ethics appendix: at most 2 decoy packets per second toward a given
        target, hence the default 0.5 s spacing.  With a fault plan and a
        ``vp_address``, a send proposed during the VP's disconnect window
        first defers to the reconnect time (VP churn is part of the
        deterministic plan, so every shard replays the same deferral).
        """
        if self._faults is not None and vp_address is not None:
            deferred = self._faults.defer_past_vp_outage(vp_address, proposed)
            if deferred != proposed:
                self.deferred_by_churn += 1
                proposed = deferred
        last = self._last_send_toward.get(target)
        send_at = proposed
        if last is not None and proposed - last < self.per_target_interval:
            send_at = last + self.per_target_interval
        self._last_send_toward[target] = send_at
        return send_at
