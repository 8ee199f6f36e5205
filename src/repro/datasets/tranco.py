"""Synthetic stand-in for the Tranco top-1K destination pool.

The paper sends HTTP/TLS decoys to 2,325 addresses in 234 ASes behind the
Tranco top 1K sites.  We cannot ship that proprietary snapshot, so this
module synthesizes a deterministic pool of popular-looking web
destinations whose country mix mirrors Figure 3's destination axis (most
mass in US/CN plus a long tail including small economies like AD).
"""

from typing import List, Sequence, Tuple

from repro.net.addr import ip_from_int
from repro.records import frozen
from repro.simkit.rng import RandomRouter


@frozen
class WebDestination:
    """One address behind a synthetic top site."""

    site: str
    address: str
    asn: int
    country: str
    rank: int


# Destination-country mix for synthetic top sites.  US-heavy with a CN
# cluster and a long tail, echoing where Tranco top-1K infrastructure sits.
_COUNTRY_MIX: Tuple[Tuple[str, float], ...] = (
    ("US", 0.42),
    ("CN", 0.14),
    ("DE", 0.07),
    ("NL", 0.05),
    ("GB", 0.05),
    ("JP", 0.04),
    ("FR", 0.04),
    ("CA", 0.04),
    ("SG", 0.03),
    ("RU", 0.03),
    ("AD", 0.02),
    ("IE", 0.02),
    ("AU", 0.02),
    ("KR", 0.02),
    ("BR", 0.01),
)

_SITE_WORDS = (
    "search", "video", "mail", "shop", "news", "social", "cloud", "game",
    "stream", "pay", "travel", "code", "music", "photo", "chat", "wiki",
    "sport", "auction", "bank", "drive",
)

_WEB_ADDRESS_BASE = (198 << 24) | (18 << 16)  # 198.18.0.0/15 benchmark space


def _pick_country(rng, cumulative: Sequence[Tuple[str, float]]) -> str:
    point = rng.random()
    for country, cutoff in cumulative:
        if point <= cutoff:
            return country
    return cumulative[-1][0]


def generate_web_destinations(
    router: RandomRouter,
    site_count: int = 1000,
    addresses_per_site_mean: float = 2.3,
    as_pool_size: int = 234,
) -> List[WebDestination]:
    """Build the synthetic Tranco-like pool.

    Deterministic in the router's seed.  ``as_pool_size`` caps AS diversity
    at the paper's 234; ASes are synthetic numbers grouped by country.
    """
    if site_count < 1:
        raise ValueError(f"site_count must be positive, got {site_count}")
    rng = router.stream("tranco")
    cumulative = []
    running = 0.0
    for country, weight in _COUNTRY_MIX:
        running += weight
        cumulative.append((country, running))
    # Normalize in case weights do not sum to exactly 1.
    cumulative = [(country, cutoff / running) for country, cutoff in cumulative]

    # Pre-assign each synthetic AS a country so sites in one AS co-locate.
    from repro.datasets.asns import synthetic_asn

    as_countries = [
        (synthetic_asn(100_000 + index), _pick_country(rng, cumulative))
        for index in range(as_pool_size)
    ]

    destinations: List[WebDestination] = []
    address_cursor = 0
    for rank in range(1, site_count + 1):
        word = _SITE_WORDS[(rank - 1) % len(_SITE_WORDS)]
        site = f"{word}{rank}.example"
        asn, country = as_countries[rng.randrange(as_pool_size)]
        count = max(1, int(rng.gauss(addresses_per_site_mean, 1.0)))
        for _ in range(count):
            address = ip_from_int(_WEB_ADDRESS_BASE + address_cursor)
            address_cursor += 1
            destinations.append(
                WebDestination(site=site, address=address, asn=asn,
                               country=country, rank=rank)
            )
    return destinations


def sample_web_destinations(
    router: RandomRouter, pool: Sequence[WebDestination], count: int
) -> List[WebDestination]:
    """Deterministically sample ``count`` addresses from the pool."""
    if count >= len(pool):
        return list(pool)
    rng = router.stream("tranco.sample")
    return rng.sample(list(pool), count)
