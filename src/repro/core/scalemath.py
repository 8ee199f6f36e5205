"""Campaign volume arithmetic (Section 4's in-text decoy counts).

The paper reports sending 46,613,616 DNS decoys and 1,694,109,438 each of
HTTP and TLS decoys over two months of continuous round-robin rotation.
These numbers are a function of platform size, destination counts, and
rotation cadence; this module derives them from an
:class:`~repro.core.config.ExperimentConfig` so the reproduction can show
its scaled campaign sits on the same curve.
"""


from repro.core.config import ExperimentConfig
from repro.datasets.providers import PAPER_TOTAL_VP_COUNT
from repro.records import frozen
from repro.simkit.units import DAY

# Paper constants (Section 4).
PAPER_DNS_DECOYS = 46_613_616
PAPER_HTTP_DECOYS = 1_694_109_438
PAPER_TLS_DECOYS = 1_694_109_438
PAPER_DNS_DESTINATIONS = 36
PAPER_WEB_DESTINATIONS = 2_325
PAPER_DURATION = 61 * DAY
PAPER_DNS_PATHS = 157_000          # "157K client-server paths"
PAPER_WEB_PATHS = 10_100_000       # "10.1M paths"


@frozen
class CampaignVolume:
    """Decoy counts and derived rates for one campaign."""

    vps: int
    dns_destinations: int
    web_destinations: int
    rounds: float
    dns_decoys: float
    http_decoys: float
    tls_decoys: float
    duration: float

    @property
    def total_decoys(self) -> float:
        return self.dns_decoys + self.http_decoys + self.tls_decoys

    @property
    def decoys_per_second(self) -> float:
        return self.total_decoys / self.duration if self.duration else 0.0

    @property
    def dns_paths(self) -> int:
        return self.vps * self.dns_destinations

    @property
    def web_paths(self) -> int:
        return self.vps * self.web_destinations


def volume_for(vps: int, dns_destinations: int, web_destinations: int,
               rounds: float, duration: float) -> CampaignVolume:
    """Decoy counts for a campaign of the given shape.

    One round sends one DNS decoy per (VP, DNS destination) and one HTTP
    plus one TLS decoy per (VP, web destination).
    """
    if min(vps, dns_destinations, web_destinations) < 0 or rounds < 0:
        raise ValueError("campaign dimensions must be non-negative")
    dns = vps * dns_destinations * rounds
    web = vps * web_destinations * rounds
    return CampaignVolume(
        vps=vps,
        dns_destinations=dns_destinations,
        web_destinations=web_destinations,
        rounds=rounds,
        dns_decoys=dns,
        http_decoys=web,
        tls_decoys=web,
        duration=duration,
    )


def paper_implied_rounds() -> dict:
    """Rotation cadence the paper's counts imply.

    DNS and HTTP/TLS round counts differ — the paper rotates the (much
    cheaper) DNS sweep and the web sweep at independent cadences.
    """
    dns_rounds = PAPER_DNS_DECOYS / (PAPER_TOTAL_VP_COUNT * PAPER_DNS_DESTINATIONS)
    web_rounds = PAPER_HTTP_DECOYS / (PAPER_TOTAL_VP_COUNT * PAPER_WEB_DESTINATIONS)
    return {
        "dns_rounds": dns_rounds,
        "dns_rounds_per_day": dns_rounds / (PAPER_DURATION / DAY),
        "web_rounds": web_rounds,
        "web_rounds_per_day": web_rounds / (PAPER_DURATION / DAY),
    }


def config_volume(config: ExperimentConfig,
                  duration: float = PAPER_DURATION) -> CampaignVolume:
    """The volume a given configuration generates per its rounds."""
    from repro.datasets.providers import PAPER_TOTAL_VP_COUNT as total
    vps = round(total * config.vp_scale)
    return volume_for(
        vps=vps,
        dns_destinations=PAPER_DNS_DESTINATIONS,
        web_destinations=config.web_destination_count,
        rounds=float(max(1, config.phase1_rounds)),
        duration=duration,
    )
