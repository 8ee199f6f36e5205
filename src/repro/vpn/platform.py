"""Construction and Table 1 accounting of the VPN measurement platform."""

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.asns import synthetic_asn
from repro.datasets.countries import CN, CN_PROVINCES, GLOBAL_COUNTRIES, country_weight
from repro.datasets.providers import (
    ALL_PROVIDERS,
    PAPER_CN_VP_COUNT,
    PAPER_GLOBAL_VP_COUNT,
    VpnProvider,
)
from repro.net.addr import ip_from_int
from repro.records import frozen
from repro.simkit.rng import RandomRouter
from repro.vpn.vantage import VantagePoint

# VP addresses are carved from 100.96.0.0 upward, disjoint from the router
# fabric (100.64.0.0 + 2^20) and from dataset destination addresses.
_VP_SPACE_BASE = (100 << 24) | (96 << 16)


@frozen
class PlatformSummary:
    """One row of Table 1."""

    label: str
    providers: int
    vps: int
    ases: int
    countries: int


class VpnPlatform:
    """The set of recruited vantage points.

    ``vp_scale`` scales the paper's 4,364 VPs down to laptop size while
    preserving the global/CN split and country weighting; ``vp_scale=1.0``
    reproduces full platform size.
    """

    def __init__(
        self,
        router: RandomRouter,
        vp_scale: float = 0.05,
        providers: Sequence[VpnProvider] = ALL_PROVIDERS,
        min_vps_per_provider: int = 2,
    ):
        if vp_scale <= 0:
            raise ValueError(f"vp_scale must be positive, got {vp_scale}")
        self._router = router
        self.vp_scale = vp_scale
        self.providers = tuple(providers)
        self._min_per_provider = min_vps_per_provider
        self.vantage_points: List[VantagePoint] = []
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        rng = self._router.stream("vpn.platform")
        address_cursor = 0
        global_weights = [(country, country_weight(country)) for country in GLOBAL_COUNTRIES]
        total_weight = sum(weight for _, weight in global_weights)

        for provider in self.providers:
            if not provider.datacenter:
                continue  # Appendix C: residential providers never recruited
            if provider.region == "global":
                target = max(
                    self._min_per_provider,
                    round(PAPER_GLOBAL_VP_COUNT * provider.vp_share * self.vp_scale),
                )
                placements = self._spread_global(rng, target, global_weights, total_weight)
                for country in placements:
                    self.vantage_points.append(
                        self._make_vp(provider, country, None, address_cursor)
                    )
                    address_cursor += 1
            else:
                target = max(
                    self._min_per_provider,
                    round(PAPER_CN_VP_COUNT * provider.vp_share * self.vp_scale),
                )
                for index in range(target):
                    province = CN_PROVINCES[rng.randrange(len(CN_PROVINCES))]
                    self.vantage_points.append(
                        self._make_vp(provider, CN, province, address_cursor)
                    )
                    address_cursor += 1

    @staticmethod
    def _spread_global(rng, target: int, weights, total_weight: int) -> List[str]:
        """Pick a country per VP, proportionally to datacenter density."""
        placements = []
        for _ in range(target):
            point = rng.randrange(total_weight)
            running = 0
            for country, weight in weights:
                running += weight
                if point < running:
                    placements.append(country)
                    break
        return placements

    def _make_vp(self, provider: VpnProvider, country: str,
                 province: Optional[str], cursor: int) -> VantagePoint:
        address = ip_from_int(_VP_SPACE_BASE + cursor)
        asn = self._access_asn(provider.name, country, province)
        vp_id = f"{provider.name.lower()}-{cursor:05d}"
        return VantagePoint(
            vp_id=vp_id,
            address=address,
            asn=asn,
            country=country,
            provider=provider.name,
            province=province,
            resets_ttl=provider.resets_ttl,
        )

    # Provincial ISPs named in the paper that host datacenter VPN nodes;
    # VPs in these provinces sit behind the real provincial networks, which
    # is how Chinanet provincial ASes end up on measured paths (Table 3).
    _PROVINCE_ACCESS_ASNS = {
        "Hubei": (58563,),
        "Jiangsu": (137697, 140292),
    }

    @classmethod
    def _access_asn(cls, provider: str, country: str, province: Optional[str]) -> int:
        """Datacenter access AS hosting this VP.

        Providers rent from regional hosters, so the AS is a function of
        (country, province, provider-group) — multiple providers in one
        location share hosters, giving Table 1 its AS counts.
        """
        if province in cls._PROVINCE_ACCESS_ASNS:
            choices = cls._PROVINCE_ACCESS_ASNS[province]
            return choices[hash_bucket(provider, len(choices))]
        # Datacenter hosters span locations, so the AS population is a
        # bounded pool rather than one AS per (location, provider): the
        # paper's platform spans 81 countries yet only 74 global ASes.
        if country == "CN":
            bucket = hash_bucket(f"cn-hoster:{province}:{provider}", 44)
            return synthetic_asn(31_000 + bucket)
        bucket = hash_bucket(f"hoster:{country}:{provider}", 72)
        return synthetic_asn(30_000 + bucket)

    # -- accounting (Table 1) ---------------------------------------------------

    def summary(self) -> List[PlatformSummary]:
        """The three rows of Table 1: global, CN, total."""
        rows = []
        for label, vps in (
            ("Global (excl. CN)", self.global_vps()),
            ("China (CN mainland)", self.cn_vps()),
            ("Total", self.vantage_points),
        ):
            providers = {vp.provider for vp in vps}
            ases = {vp.asn for vp in vps}
            if label == "China (CN mainland)":
                locations = {vp.province for vp in vps}
            else:
                locations = {vp.country for vp in vps}
            rows.append(
                PlatformSummary(
                    label=label,
                    providers=len(providers),
                    vps=len(vps),
                    ases=len(ases),
                    countries=len(locations),
                )
            )
        return rows

    def global_vps(self) -> List[VantagePoint]:
        return [vp for vp in self.vantage_points if vp.region == "global"]

    def cn_vps(self) -> List[VantagePoint]:
        return [vp for vp in self.vantage_points if vp.region == "cn"]

    def by_country(self) -> Dict[str, List[VantagePoint]]:
        grouped: Dict[str, List[VantagePoint]] = {}
        for vp in self.vantage_points:
            grouped.setdefault(vp.country, []).append(vp)
        return grouped

    def replace_vps(self, vps: Sequence[VantagePoint]) -> None:
        """Swap in a filtered VP list (used after vetting)."""
        self.vantage_points = list(vps)

    def __len__(self) -> int:
        return len(self.vantage_points)


def hash_bucket(text: str, buckets: int) -> int:
    """Stable small-bucket hash (not Python's randomized ``hash``)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big") % buckets
