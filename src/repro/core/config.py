"""Experiment configuration.

One :class:`ExperimentConfig` fully determines a campaign: the seed fixes
every random stream, and the scale knobs trade fidelity against runtime.
Defaults give a laptop-sized campaign (~100 VPs) that reproduces every
qualitative shape; benches scale selected knobs up.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.identifier import LABEL_LENGTH
from repro.faults.plan import FaultSpec
from repro.protocols.dns.names import MAX_NAME_LENGTH, encode_name
from repro.simkit.units import DAY, HOUR


def _zone_fits_decoy_names(zone: str) -> bool:
    """True when ``<identifier label>.<zone>`` is a valid DNS name."""
    try:
        encode_name(f"{'a' * LABEL_LENGTH}.{zone}")
    except ValueError:  # DnsNameError, or UnicodeError for non-ASCII
        return False
    return True


class ConfigError(ValueError):
    """One or more invalid :class:`ExperimentConfig` fields.

    Raised by :meth:`ExperimentConfig.validate` with every problem found
    (not just the first), each as a ``field: message`` line — so a bad
    config fails before Phase I with a complete diagnosis instead of
    mid-campaign with a stack trace.
    """

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid experiment config:\n  " + "\n  ".join(self.problems)
        )


@dataclass
class ExperimentConfig:
    """All knobs of one end-to-end experiment run."""

    seed: int = 20240301
    zone: str = "www.experiment.domain"

    # -- platform scale --------------------------------------------------
    vp_scale: float = 0.02
    """Fraction of the paper's 4,364 VPs to recruit (0.02 -> ~90 VPs).
    Values above 1.0 over-recruit past the paper's platform — Phase I
    queues one event per planned send and the path cache is a bounded
    LRU, so memory grows with the decoy ledger and super-paper-scale
    runs (``benchmarks/_scale_point.py 10000`` is ~2.3x) stay
    affordable."""

    # -- destination pools ------------------------------------------------
    web_site_count: int = 120
    """Synthetic top sites to generate (paper: Tranco top 1K)."""
    web_destination_count: int = 48
    """Addresses sampled from the pool as HTTP/TLS decoy targets
    (paper: 2,325)."""
    dns_vps_per_destination: Optional[int] = None
    """Cap VPs per DNS destination (None = all VPs, as in the paper)."""
    dns_destination_count: Optional[int] = None
    """Cap the public-resolver pool to its first N entries (None = the
    full dataset, as in the paper).  Scale benchmarks use this to keep
    the plan size proportional to the VP count under test."""
    web_vps_per_destination: int = 12
    """VPs sampled per web destination: the full cross product is
    quadratic and unnecessary for shape reproduction."""

    # -- timing ----------------------------------------------------------
    send_spacing: float = 0.5
    """Virtual seconds between consecutive decoy emissions (the ethics
    appendix's 2 packets/second/target rate limit)."""
    phase1_rounds: int = 1
    """Full round-robin passes over every (VP, destination) pair.  The
    paper cycles continuously for two months; one round already yields
    every landscape shape, additional rounds add temporal depth."""
    round_interval: float = 2 * DAY
    """Virtual time between the starts of consecutive rounds."""
    observation_window: float = 30 * DAY
    """How long after the last decoy the honeypots keep listening.
    Long enough to catch the paper's >10-day re-appearances."""

    # -- Phase II ----------------------------------------------------------
    phase2_max_ttl: int = 64
    phase2_paths_per_destination: int = 12
    """Problematic paths tracerouted per destination (sampled)."""
    phase2_observation_window: float = 12 * DAY

    # -- vetting / noise ----------------------------------------------------
    exclude_ttl_reset_providers: bool = True
    pair_resolver_filter: bool = True
    interceptors_enabled: bool = True
    """Deploy DNS interceptors as a noise source. With the pair-resolver
    filter on, affected VPs are removed before Phase I (Appendix E); the
    ablation bench turns the filter off to quantify the damage."""
    interceptor_asn_fraction: float = 0.08
    """Fraction of access-AS routers hosting interceptors, in countries
    where interception is deployed."""

    # -- observer population ------------------------------------------------
    sniffer_density_scale: float = 1.0
    """Multiplier on every on-path DPI deployment density (clamped to
    [0, 1] per deployment).  1.0 reproduces the paper's Tables 2/3
    population; 0 removes all wire sniffers; >1 grows an interception-
    heavy ecosystem.  Deployment decisions stay keyed per router, so any
    scale shards deterministically."""
    ech_adoption: float = 0.0
    """Fraction of TLS decoys sent as Encrypted Client Hello: the outer
    SNI carries only the provider's public name, so on-path DPI never
    sees the experiment domain, while the destination (which terminates
    ECH) still does — the paper's caveat that encryption does not stop
    collection *at* the endpoint.  Adoption is drawn per decoy domain
    from a keyed substream, so serial and sharded runs agree."""
    doh_adoption: float = 0.0
    """Fraction of DNS decoys tunneled over DoH: the wire carries a TLS
    session to the resolver frontend (constant SNI) instead of a
    plaintext query, blinding DNS sniffers and interceptors while the
    resolver still decodes — and shadows — the query.  Drawn per decoy
    domain from a keyed substream, like ``ech_adoption``."""
    ciphertext_observer_share: float = 0.0
    """Operator-level deployment share of ciphertext-metadata observers
    (:mod:`repro.observers.ciphertext`).  The placement planner scales
    this by each hop's topological centrality — backbones first —
    instead of spreading it uniformly; 0 deploys none."""
    ciphertext_threshold: float = 0.6
    """Score threshold of the traffic-analysis classifier.  Lower is a
    more aggressive observer (higher TPR, more false positives once
    ``ciphertext_fpr`` is nonzero); the classified set shrinks
    monotonically as the threshold rises."""
    ciphertext_fpr: float = 0.0
    """Tunable false-positive rate: sub-threshold flows are still
    flagged with this keyed-draw probability."""
    ciphertext_link_threshold: int = 3
    """Distinct decoy domains a destination address must receive before
    the destination-IP correlator links flows through it (applied at
    matrix render time, so shard merges stay order-free)."""
    nod_noise_rate: float = 0.0
    """Per-send probability of injecting one newly-observed-domain /
    DNS-tunneling style noise query (Tatang et al.) against the
    honeypot zone.  Noise labels fail the identifier checksum, so the
    correlator must file them as unknown domains — never as decoy
    aliases; the fuzzer uses this as a realism stressor."""

    # -- observer retention -------------------------------------------------
    onpath_retention_capacity: Optional[int] = None
    """Bounded FIFO :class:`~repro.observers.retention.RetentionStore`
    capacity for on-path exhibitors (``onpath.*``), modelling a DPI
    box's on-device buffer: eviction cancels still-pending unsolicited
    requests (Section 5.2's limited-storage hypothesis).  None keeps the
    unbounded warehouse behaviour.  Eviction order depends on global
    observation order, so bounded retention requires ``workers == 1``
    (enforced by :meth:`validate`)."""
    resolver_retention_capacity: Optional[int] = None
    """Retention capacity for resolver exhibitors (``resolver.*``)."""
    destination_retention_capacity: Optional[int] = None
    """Retention capacity for destination exhibitors (``dest.*``)."""

    # -- execution ----------------------------------------------------------
    workers: int = 1
    """Worker processes for the sharded campaign executor.  1 runs the
    classic single-process simulation; N > 1 partitions the (VP,
    destination) pair space into N shards simulated in parallel and
    deterministically merged — the result is identical to the serial run
    (see docs/PERFORMANCE.md)."""

    # -- robustness ---------------------------------------------------------
    faults: Optional[FaultSpec] = None
    """Deterministic fault injection (:mod:`repro.faults`): per-link
    packet loss, VP churn windows, honeypot outages, delayed/duplicated
    log appends, and the retry/backoff policy for undelivered decoys.
    None (and a spec with all rates zero) injects nothing.  Fault
    decisions are keyed by the spec's own seed, so serial and sharded
    runs of the same config see identical faults and still merge to
    byte-identical results (see docs/ROBUSTNESS.md)."""

    # -- diagnostics --------------------------------------------------------
    telemetry: bool = False
    """Collect run telemetry (repro.telemetry): counters, gauges, and
    histograms across the whole pipeline plus per-stage spans.  Purely
    observational — no random draws, no event-schedule changes — so an
    instrumented run is byte-identical to an uninstrumented one, and a
    sharded run merges to the same counters as serial.  Off by default;
    the disabled path costs one no-op call per recording site."""
    capture_pcap: Optional[str] = None
    """Write every decoy packet put on the wire to this pcap file
    (LINKTYPE_RAW; opens in Wireshark).  None disables capture.  With
    workers > 1 each shard writes its own ``<path>.shardNN`` file."""

    # -- wildcard zone ------------------------------------------------------
    wildcard_record_ttl: int = 3600
    cache_refreshing_resolvers: bool = False
    """When True, public resolvers actively refresh cached experiment
    names on TTL expiry.  The paper rules this behaviour out for the
    measured resolvers (no Figure 4 spike at the one-hour mark); the
    wildcard-TTL ablation enables it to show the counterfactual."""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check every field; raise :class:`ConfigError` listing all
        problems.

        Called at construction and again by the CLI ``run`` path and the
        scenario compiler — CLI flags and compiled scenarios mutate or
        assemble configs after ``__post_init__`` ran, and a campaign must
        never start from a config that would die mid-run.
        """
        problems: List[str] = []

        def check(ok: bool, field_name: str, message: str) -> None:
            if not ok:
                problems.append(
                    f"{field_name}: {message} "
                    f"(got {getattr(self, field_name)!r})"
                )

        check(isinstance(self.zone, str), "zone",
              "must be a str, a DNS name such as 'www.experiment.domain'")
        if isinstance(self.zone, str):
            check(_zone_fits_decoy_names(self.zone), "zone",
                  f"every decoy name <{LABEL_LENGTH}-char identifier>.<zone> "
                  "must be a valid DNS name: labels of 1-63 ASCII bytes, at "
                  f"most {MAX_NAME_LENGTH} wire bytes, so a zone of at most "
                  f"{MAX_NAME_LENGTH - LABEL_LENGTH - 3} characters")
            check(self.zone.strip("."), "zone",
                  "must have at least one label: no logged name decodes "
                  "under the root, so the campaign would correlate nothing")
        check(self.vp_scale > 0.0, "vp_scale",
              "must be positive — a fraction of the paper's 4,364 VPs "
              "(values > 1 over-recruit for scale benchmarks)")
        check(self.send_spacing >= 0, "send_spacing", "must be non-negative")
        check(self.web_site_count >= 1, "web_site_count", "must be >= 1")
        check(self.web_destination_count >= 1, "web_destination_count",
              "must be >= 1")
        check(self.web_vps_per_destination >= 1, "web_vps_per_destination",
              "must be >= 1")
        check(self.dns_vps_per_destination is None
              or self.dns_vps_per_destination >= 1,
              "dns_vps_per_destination", "must be None (all VPs) or >= 1")
        check(self.dns_destination_count is None
              or self.dns_destination_count >= 1,
              "dns_destination_count",
              "must be None (full pool) or >= 1")
        check(self.phase1_rounds >= 1, "phase1_rounds", "must be >= 1")
        check(self.round_interval >= 0, "round_interval",
              "must be non-negative")
        check(self.observation_window > 0, "observation_window",
              "must be positive")
        check(self.phase2_observation_window > 0, "phase2_observation_window",
              "must be positive")
        check(1 <= self.phase2_max_ttl <= 255, "phase2_max_ttl",
              "must be in [1, 255]")
        check(self.phase2_paths_per_destination >= 1,
              "phase2_paths_per_destination", "must be >= 1")
        check(0.0 <= self.interceptor_asn_fraction <= 1.0,
              "interceptor_asn_fraction", "must be in [0, 1]")
        check(self.sniffer_density_scale >= 0.0, "sniffer_density_scale",
              "must be non-negative")
        check(0.0 <= self.ech_adoption <= 1.0, "ech_adoption",
              "must be in [0, 1]")
        check(0.0 <= self.doh_adoption <= 1.0, "doh_adoption",
              "must be in [0, 1]")
        check(0.0 <= self.ciphertext_observer_share <= 1.0,
              "ciphertext_observer_share", "must be in [0, 1]")
        check(0.0 <= self.ciphertext_threshold <= 1.0,
              "ciphertext_threshold", "must be in [0, 1]")
        check(0.0 <= self.ciphertext_fpr <= 1.0, "ciphertext_fpr",
              "must be in [0, 1]")
        check(self.ciphertext_link_threshold >= 1,
              "ciphertext_link_threshold", "must be >= 1")
        check(0.0 <= self.nod_noise_rate <= 1.0, "nod_noise_rate",
              "must be in [0, 1]")
        check(self.wildcard_record_ttl >= 1, "wildcard_record_ttl",
              "must be >= 1 second")
        check(self.workers >= 1, "workers", "must be >= 1")
        for field_name in ("onpath_retention_capacity",
                           "resolver_retention_capacity",
                           "destination_retention_capacity"):
            check(getattr(self, field_name) is None
                  or getattr(self, field_name) >= 1,
                  field_name, "must be None (unbounded) or >= 1")
        # Incompatible engine knobs: a bounded FIFO retention store evicts
        # in global observation order, which a partitioned campaign cannot
        # reproduce — the serial == sharded digest invariant would break.
        if self.workers > 1 and any(
            getattr(self, name) is not None
            for name in ("onpath_retention_capacity",
                         "resolver_retention_capacity",
                         "destination_retention_capacity")
        ):
            problems.append(
                "workers: bounded retention capacities are order-dependent "
                f"and require workers == 1 (got workers={self.workers!r})"
            )
        if self.workers > 1:
            # Shard workers fork from the parent's vetted world (see
            # repro.core.shard).  Imported here because serial runs never
            # need multiprocessing, and importing it slows every start-up.
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                problems.append(
                    "workers: sharded runs fork their workers and this "
                    "platform has no 'fork' start method; use workers == 1 "
                    f"(got workers={self.workers!r})"
                )
        if problems:
            raise ConfigError(problems)

    @classmethod
    def tiny(cls, seed: int = 20240301) -> "ExperimentConfig":
        """A minimal configuration for fast tests."""
        return cls(
            seed=seed,
            vp_scale=0.004,
            web_site_count=30,
            web_destination_count=10,
            web_vps_per_destination=4,
            phase2_paths_per_destination=4,
            observation_window=15 * DAY,
            phase2_observation_window=6 * DAY,
        )

    @classmethod
    def medium(cls, seed: int = 20240301, workers: int = 1) -> "ExperimentConfig":
        """Between tiny and default scale — the ``medium`` pin's config."""
        return cls(
            seed=seed,
            vp_scale=0.01,
            web_site_count=60,
            web_destination_count=24,
            web_vps_per_destination=8,
            phase2_paths_per_destination=8,
            observation_window=20 * DAY,
            phase2_observation_window=8 * DAY,
            workers=workers,
        )

    @classmethod
    def paper_scale(cls, seed: int = 20240301) -> "ExperimentConfig":
        """Full paper scale: 4,364 VPs, 1K sites.  Hours of CPU time."""
        return cls(
            seed=seed,
            vp_scale=1.0,
            web_site_count=1000,
            web_destination_count=2325,
            web_vps_per_destination=64,
            observation_window=61 * DAY,
        )
