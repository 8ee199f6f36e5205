"""Autonomous systems: the networks named in the paper plus filler pools.

Tables 3 and 6 and Section 5.2 name specific ASes — Chinanet backbones,
HostRoyale, Zenlayer, Google, Rogers, Constant Contact.  We register them
with their real numbers so the reproduced tables carry recognizable rows,
then pad each country with synthetic ASes for path diversity.
"""

from typing import Dict, Tuple

from repro.records import frozen


@frozen
class AutonomousSystem:
    """One AS in the synthetic topology."""

    asn: int
    name: str
    country: str
    kind: str  # "isp" | "backbone" | "cloud" | "content" | "edu"


# --- ASes named in the paper ------------------------------------------------

AS_CHINANET_BACKBONE = AutonomousSystem(4134, "CHINANET-BACKBONE", "CN", "backbone")
AS_CHINANET_HUBEI = AutonomousSystem(58563, "CHINANET Hubei province network", "CN", "isp")
AS_CHINATELECOM_JIANGSU = AutonomousSystem(137697, "CHINATELECOM JiangSu", "CN", "isp")
AS_CHINATELECOM_GROUP = AutonomousSystem(4812, "China Telecom (Group)", "CN", "isp")
AS_CHINANET_JIANGSU_BB = AutonomousSystem(23650, "CHINANET jiangsu backbone", "CN", "backbone")
AS_UNICOM_BEIJING = AutonomousSystem(4808, "China Unicom Beijing Province Network", "CN", "isp")
AS_CHINATELECOM_JS2 = AutonomousSystem(140292, "CHINATELECOM Jiangsu", "CN", "isp")
AS_HOSTROYALE = AutonomousSystem(203020, "HostRoyale Technologies Pvt Ltd", "IN", "cloud")
AS_ZENLAYER = AutonomousSystem(21859, "Zenlayer Inc", "US", "cloud")
AS_GOOGLE = AutonomousSystem(15169, "Google LLC", "US", "content")
AS_CONSTANT_CONTACT = AutonomousSystem(40444, "Constant Contact", "US", "cloud")
AS_ROGERS = AutonomousSystem(29988, "Rogers Communications", "CA", "isp")
AS_YANDEX = AutonomousSystem(13238, "Yandex LLC", "RU", "content")
AS_CLOUDFLARE = AutonomousSystem(13335, "Cloudflare Inc", "US", "content")
AS_114DNS = AutonomousSystem(9808, "114DNS operator network", "CN", "content")

NAMED_ASES: Tuple[AutonomousSystem, ...] = (
    AS_CHINANET_BACKBONE,
    AS_CHINANET_HUBEI,
    AS_CHINATELECOM_JIANGSU,
    AS_CHINATELECOM_GROUP,
    AS_CHINANET_JIANGSU_BB,
    AS_UNICOM_BEIJING,
    AS_CHINATELECOM_JS2,
    AS_HOSTROYALE,
    AS_ZENLAYER,
    AS_GOOGLE,
    AS_CONSTANT_CONTACT,
    AS_ROGERS,
    AS_YANDEX,
    AS_CLOUDFLARE,
    AS_114DNS,
)

ASES_BY_NUMBER: Dict[int, AutonomousSystem] = {system.asn: system for system in NAMED_ASES}

# Countries whose backbone should be one of the named CN networks.
CN_BACKBONE_ASNS: Tuple[int, ...] = (4134, 23650)

# Base ASN for synthetic fillers; chosen inside the 32-bit private range so
# they can never collide with real registrations.
SYNTHETIC_ASN_BASE = 4_200_000_000


def synthetic_asn(index: int) -> int:
    """Deterministic filler ASN for synthetic networks."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return SYNTHETIC_ASN_BASE + index


# Friendly names for well-known synthetic networks (the exhibitor origin
# pools the ecosystem creates), so reports read like the paper's figures
# rather than raw filler indices.
SYNTHETIC_NAMES: Dict[int, Tuple[str, str, str]] = {
    50_001: ("SecProbe proxies (US)", "US", "cloud"),
    50_002: ("SecProbe proxies (EU)", "DE", "cloud"),
    50_003: ("CN cloud platform", "CN", "cloud"),
    50_004: ("RU cloud platform", "RU", "cloud"),
    50_005: ("Interceptor alt-resolvers", "??", "isp"),
    50_006: ("NOD scanner pool", "??", "cloud"),
}


def register_synthetic_name(index: int, name: str, country: str = "??",
                            kind: str = "isp") -> None:
    """Give a synthetic AS a human-readable name for reporting."""
    SYNTHETIC_NAMES[index] = (name, country, kind)


def lookup_as(asn: int) -> AutonomousSystem:
    """Resolve an ASN to its record; synthesizes a record for fillers."""
    if asn in ASES_BY_NUMBER:
        return ASES_BY_NUMBER[asn]
    if asn >= SYNTHETIC_ASN_BASE:
        index = asn - SYNTHETIC_ASN_BASE
        if index in SYNTHETIC_NAMES:
            name, country, kind = SYNTHETIC_NAMES[index]
            return AutonomousSystem(asn, name, country, kind)
        return AutonomousSystem(asn, f"SYNTH-{index}", "??", "isp")
    raise KeyError(f"unknown ASN {asn}")
