"""Appendix D / Table 6: survey of existing measurement platforms.

The paper justifies building a new VPN platform by comparing candidate
platforms' capabilities; this module embeds that comparison matrix and the
capability predicate used to filter them.
"""

from typing import List, Optional, Tuple

from repro.records import frozen

# Tri-state capability: True (full), "partial", False, None (unknown).
Capability = object


@frozen
class SurveyedPlatform:
    """One row of Table 6."""

    category: str
    name: str
    general_purpose: Capability
    volunteer_free: Capability
    residential: Capability
    vps: Optional[int]
    countries: Optional[int]
    ases: Optional[int]
    dns: Capability
    http: Capability
    tls: Capability
    tcp: Capability
    udp: Capability
    ping: Capability
    traceroute: Capability
    custom_ttl: Capability


PLATFORM_SURVEY: Tuple[SurveyedPlatform, ...] = (
    SurveyedPlatform("Crowdsourcing", "Ark", True, False, True, 119, 44, 95,
                     False, False, False, "partial", "partial", True, True, False),
    SurveyedPlatform("Crowdsourcing", "Speedchecker", True, True, True, None, 170, None,
                     True, True, False, "partial", "partial", True, True, False),
    SurveyedPlatform("Crowdsourcing", "RIPE Atlas", True, False, True, 12_979, 169, 3_781,
                     "partial", "partial", "partial", "partial", "partial", True, True, False),
    SurveyedPlatform("Crowdsourcing", "OONI", False, False, True, None, 113, 670,
                     True, True, True, True, True, True, True, True),
    SurveyedPlatform("Advertising", "Google Ads", True, True, True, None, None, None,
                     False, False, False, False, False, False, False, False),
    SurveyedPlatform("Scanners", "Satellite-Iris", False, True, False, None, None, None,
                     True, False, False, False, True, False, False, False),
    SurveyedPlatform("Proxies", "BrightData", True, True, True, 72_000_000, 195, None,
                     False, True, True, True, False, False, False, False),
    SurveyedPlatform("Proxies", "ProxyRack", True, True, True, 5_000_000, 140, None,
                     True, True, True, True, True, False, False, False),
    SurveyedPlatform("VPN", "WARP", True, True, False, None, None, None,
                     True, True, True, True, True, True, True, True),
    SurveyedPlatform("VPN", "ICLab", False, "partial", False, 281, 62, 234,
                     True, True, True, True, True, True, True, True),
    SurveyedPlatform("Tor", "Tor", True, False, True, 2_200, 54, 248,
                     True, True, True, True, True, False, False, False),
    SurveyedPlatform("VPN", "This work", True, True, False, 4_364, 82, 121,
                     True, True, True, True, True, True, True, True),
)


def meets_requirements(platform: SurveyedPlatform) -> bool:
    """Appendix D selection predicate.

    The methodology needs: application-protocol messages (DNS, HTTP, TLS)
    with customizable IP TTL, no volunteer participation, no residential
    VPs, and multi-network coverage (WARP fails this: Cloudflare ASes only,
    which the survey records as unknown coverage; ICLab fails public
    availability, recorded here as partial volunteer-freedom).
    """
    full = lambda capability: capability is True  # noqa: E731 - tiny local predicate
    return (
        full(platform.volunteer_free)
        and platform.residential is False
        and full(platform.dns)
        and full(platform.http)
        and full(platform.tls)
        and full(platform.custom_ttl)
        and platform.ases is not None
        and platform.ases > 1
        and full(platform.general_purpose)
    )


def survey_rows() -> List[dict]:
    """Table 6 as dictionaries, with the selection verdict appended."""
    rows = []
    for platform in PLATFORM_SURVEY:
        row = {
            "category": platform.category,
            "platform": platform.name,
            "volunteer_free": platform.volunteer_free,
            "residential": platform.residential,
            "vps": platform.vps,
            "countries": platform.countries,
            "ases": platform.ases,
            "dns": platform.dns,
            "http": platform.http,
            "tls": platform.tls,
            "custom_ttl": platform.custom_ttl,
            "meets_requirements": meets_requirements(platform),
        }
        rows.append(row)
    return rows
