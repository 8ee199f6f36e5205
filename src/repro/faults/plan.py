"""Deterministic, seed-driven fault injection.

The paper's measurement ran for two months across thousands of VPN
vantage points against the live Internet — a regime where packet loss, VP
churn, and collector downtime are the normal case, not the exception.
This module gives the simulation the same weather: a :class:`FaultSpec`
declares fault *rates* and a :class:`FaultPlan` compiles them into
concrete, reproducible decisions.

Every decision is a keyed :class:`~repro.simkit.rng.SubstreamFactory`
draw — a pure function of ``(fault seed, decision key)``, independent of
arrival order and therefore of how the campaign is partitioned across
shards.  A 4-worker run and the serial run of the same config and
fault seed both see the *same* packets lost on the *same* links, the
same VPs offline in the same windows, and the same collector outages —
which is what makes the byte-identical-digest invariant of
:mod:`repro.core.shard` hold under injected faults too.

Fault classes (who consults what):

* **Per-link packet loss** — :meth:`FaultPlan.loss_link`, consulted by
  :meth:`repro.core.campaign.Campaign._transmit` and applied inside
  :meth:`repro.net.path.Path.transit` (the packet is seen by hops before
  the lossy link, then vanishes: no ICMP, no delivery).
* **VP disconnect/churn windows** — :meth:`FaultPlan.vp_outage`,
  consulted by :class:`repro.vpn.scheduler.RoundRobinScheduler`: sends
  planned while a VP is offline are deferred to its reconnect time.
* **Honeypot outage intervals** — :meth:`FaultPlan.site_online`,
  consulted by the deployment's log path: requests arriving at a downed
  collector are dropped (and counted — never silently).
* **Delayed/duplicated log appends** — :meth:`FaultPlan.log_append_fault`,
  consulted by :class:`repro.honeypot.deployment.FaultInjectingLog`.

Retry/backoff policy for undelivered decoys also lives here
(:meth:`FaultPlan.retry_backoff`), so campaign code never hard-codes
robustness constants.
"""

from typing import Optional, Tuple

from repro.records import frozen
from repro.simkit.rng import SubstreamFactory
from repro.simkit.units import DAY, HOUR, MINUTE

_NO_WINDOWS: Tuple["OutageWindow", ...] = ()


@frozen
class OutageWindow:
    """One half-open ``[start, end)`` interval of virtual downtime."""

    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(
                f"outage window must end after it starts: "
                f"[{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    def defer(self, time: float) -> float:
        """``time`` pushed past the window when it falls inside it."""
        return self.end if self.contains(time) else time


@frozen
class FaultSpec:
    """Declarative fault configuration; rates, not decisions.

    A spec with all rates zero injects nothing (``FaultPlan(spec)`` is
    then a set of cheap no-ops), so the spec can ride along in every
    :class:`~repro.core.config.ExperimentConfig` without perturbing
    fault-free runs.  The ``seed`` is independent of the experiment seed:
    the same campaign can be replayed under different weather.
    """

    seed: int = 0
    link_loss_rate: float = 0.0
    """Per-link, per-transit probability that a packet vanishes."""
    vp_churn_rate: float = 0.0
    """Fraction of VPs that disconnect for one window during the run."""
    vp_outage_horizon: float = 4 * DAY
    """Disconnects start uniformly within this span of virtual time."""
    vp_outage_duration: Tuple[float, float] = (1 * HOUR, 1 * DAY)
    """(min, max) virtual seconds a churned VP stays offline."""
    honeypot_outages_per_site: int = 0
    """Collector downtime windows injected at each honeypot site."""
    honeypot_outage_horizon: float = 10 * DAY
    honeypot_outage_duration: Tuple[float, float] = (10 * MINUTE, 6 * HOUR)
    log_delay_rate: float = 0.0
    """Probability a honeypot log append lands late (collector lag)."""
    log_delay_max: float = 30.0
    """Upper bound on the append delay, virtual seconds."""
    log_duplicate_rate: float = 0.0
    """Probability a log append is recorded twice (at-least-once sinks)."""
    max_retries: int = 3
    """Retransmission attempts for a fault-lost Phase I decoy."""
    retry_backoff_base: float = 2.0
    """Virtual seconds before the first retry; doubles per attempt."""

    def __post_init__(self):
        for name in ("link_loss_rate", "vp_churn_rate", "log_delay_rate",
                     "log_duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("vp_outage_duration", "honeypot_outage_duration"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise ValueError(
                    f"{name} must be 0 < min <= max, got ({low}, {high})"
                )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_base <= 0:
            raise ValueError(
                f"retry_backoff_base must be positive, got "
                f"{self.retry_backoff_base}"
            )
        if self.honeypot_outages_per_site < 0:
            raise ValueError(
                f"honeypot_outages_per_site must be >= 0, got "
                f"{self.honeypot_outages_per_site}"
            )

    @property
    def any_faults(self) -> bool:
        """Does this spec inject anything at all?"""
        return bool(
            self.link_loss_rate or self.vp_churn_rate
            or self.honeypot_outages_per_site
            or self.log_delay_rate or self.log_duplicate_rate
        )

    @property
    def affects_log(self) -> bool:
        """Does the honeypot log path need fault interposition?"""
        return bool(
            self.honeypot_outages_per_site
            or self.log_delay_rate or self.log_duplicate_rate
        )


class FaultPlan:
    """Compiled fault decisions for one campaign.

    Stateless except for per-key caches; every method is a pure function
    of ``(spec.seed, key)``, so the shard workers, which inherit the
    parent's plan through fork, draw exactly what the serial run draws.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._streams = SubstreamFactory(spec.seed, "faults")
        self._vp_windows: dict = {}
        self._site_windows: dict = {}

    # -- per-link packet loss ---------------------------------------------

    def loss_link(self, domain: str, attempt: int, path_length: int,
                  ttl: int) -> Optional[int]:
        """First lossy link for one transit attempt, or None.

        Link ``i`` carries the packet toward hop ``i`` (1-indexed); each
        link the packet would cross draws an independent Bernoulli keyed
        by (decoy domain, attempt, link).  Keying by attempt gives every
        retransmission fresh loss draws.
        """
        rate = self.spec.link_loss_rate
        if rate <= 0.0:
            return None
        reach = min(max(ttl, 1), path_length)
        for position in range(1, reach + 1):
            draw = self._streams.derive("loss", domain, attempt, position)
            if draw.random() < rate:
                return position
        return None

    # -- VP disconnect/churn windows --------------------------------------

    def vp_outage(self, vp_address: str) -> Optional[OutageWindow]:
        """This VP's disconnect window, or None if it never churns."""
        if vp_address in self._vp_windows:
            return self._vp_windows[vp_address]
        window: Optional[OutageWindow] = None
        if self.spec.vp_churn_rate > 0.0:
            draw = self._streams.derive("churn", vp_address)
            if draw.random() < self.spec.vp_churn_rate:
                start = draw.uniform(0.0, self.spec.vp_outage_horizon)
                low, high = self.spec.vp_outage_duration
                window = OutageWindow(start, start + draw.uniform(low, high))
        self._vp_windows[vp_address] = window
        return window

    def defer_past_vp_outage(self, vp_address: str, proposed: float) -> float:
        """``proposed`` shifted to the VP's reconnect time when offline."""
        window = self.vp_outage(vp_address)
        if window is None:
            return proposed
        return window.defer(proposed)

    # -- honeypot outage intervals ----------------------------------------

    def site_outages(self, site: str) -> Tuple[OutageWindow, ...]:
        """Downtime windows of one honeypot site, in start order."""
        if site in self._site_windows:
            return self._site_windows[site]
        count = self.spec.honeypot_outages_per_site
        windows = []
        low, high = self.spec.honeypot_outage_duration
        for index in range(count):
            draw = self._streams.derive("outage", site, index)
            start = draw.uniform(0.0, self.spec.honeypot_outage_horizon)
            windows.append(OutageWindow(start, start + draw.uniform(low, high)))
        result = tuple(sorted(windows, key=lambda w: w.start))
        self._site_windows[site] = result
        return result

    def site_online(self, site: str, time: float) -> bool:
        return not any(w.contains(time) for w in self.site_outages(site))

    # -- delayed / duplicated log appends ---------------------------------

    def log_append_fault(self, site: str, protocol: str, src_address: str,
                         domain: str, time: float) -> Tuple[float, bool]:
        """(delay, duplicated) for one log append, keyed by its content.

        Delays are continuous draws from content-distinct keys, so two
        faulted appends essentially never collide on a landing time —
        keeping the cross-shard (time, shard, index) merge order equal to
        the serial append order.
        """
        spec = self.spec
        if spec.log_delay_rate <= 0.0 and spec.log_duplicate_rate <= 0.0:
            return 0.0, False
        draw = self._streams.derive("log", site, protocol, src_address,
                                    domain, time)
        delay = 0.0
        if draw.random() < spec.log_delay_rate:
            delay = draw.uniform(0.5, max(0.5, spec.log_delay_max))
        duplicated = draw.random() < spec.log_duplicate_rate
        return delay, duplicated

    # -- retry policy ------------------------------------------------------

    def retry_backoff(self, attempt: int) -> float:
        """Virtual seconds to wait before retransmission ``attempt + 1``.

        Exponential: ``base * 2**attempt``.  Deterministic (no jitter) so
        retried sends land at the same virtual instant in every layout.
        """
        return self.spec.retry_backoff_base * (2.0 ** attempt)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.spec.seed}, spec={self.spec})"
