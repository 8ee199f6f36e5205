"""Table 5: the VPN providers integrated into the measurement platform.

Six providers with global accessibility and thirteen dedicated to mainland
China.  ``vp_share`` apportions Table 1's totals (2,179 global / 2,185 CN
vantage points) across providers; the platform scales these by the
experiment's ``vp_scale`` so laptop-sized campaigns stay tractable.
"""

from typing import Dict, Tuple

from repro.records import frozen


@frozen
class VpnProvider:
    """One commercial VPN provider the platform recruits VPs from."""

    name: str
    region: str  # "global" | "cn"
    url: str
    vp_share: float
    """Fraction of the region's VPs contributed by this provider."""
    datacenter: bool = True
    """Appendix C: residential providers are excluded before recruiting."""
    resets_ttl: bool = False
    """Appendix E: providers that reset outgoing TTLs break tracerouting
    and are excluded during vetting.  None ship in the default roster; the
    vetting tests construct synthetic offenders."""


GLOBAL_PROVIDERS: Tuple[VpnProvider, ...] = (
    VpnProvider("Anonine", "global", "https://anonine.com/", 0.14),
    VpnProvider("AzireVPN", "global", "https://www.azirevpn.com/", 0.12),
    VpnProvider("Cryptostorm", "global", "https://cryptostorm.is/", 0.13),
    VpnProvider("HideMe", "global", "https://hide.me/", 0.17),
    VpnProvider("PrivateInt", "global", "https://www.privateinternetaccess.com/", 0.26),
    VpnProvider("PureVPN", "global", "https://www.purevpn.com/", 0.18),
)

CN_PROVIDERS: Tuple[VpnProvider, ...] = (
    VpnProvider("QiXun", "cn", "https://www.ipkuip.com/product/Buy?id=3", 0.10),
    VpnProvider("XunYou", "cn", "https://www.ipkuip.com/product/Buy?id=6", 0.09),
    VpnProvider("YOYO", "cn", "https://www.ipkuip.com/product/Buy?id=51", 0.08),
    VpnProvider("BeiKe", "cn", "https://www.ipkuip.com/product/Buy?id=44", 0.08),
    VpnProvider("SunYunD", "cn", "https://www.ipkuip.com/product/Buy?id=92", 0.07),
    VpnProvider("HuoJian", "cn", "https://www.ipkuip.com/product/Buy?id=128", 0.08),
    VpnProvider("DuoDuo", "cn", "https://www.ipkuip.com/product/Buy?id=116", 0.07),
    VpnProvider("MoGu", "cn", "https://www.juip.com/product/Buy?id=1032", 0.08),
    VpnProvider("QiangZi", "cn", "https://www.juip.com/product/Buy", 0.07),
    VpnProvider("XunLian", "cn", "https://www.juip.com/product/Buy", 0.07),
    VpnProvider("TianTian", "cn", "https://www.juip.com/product/Buy?id=71", 0.07),
    VpnProvider("JiKe", "cn", "https://www.juip.com/product/Buy", 0.07),
    VpnProvider("XiGua", "cn", "https://www.juip.com/product/Buy", 0.07),
)

ALL_PROVIDERS: Tuple[VpnProvider, ...] = GLOBAL_PROVIDERS + CN_PROVIDERS

PROVIDERS_BY_NAME: Dict[str, VpnProvider] = {
    provider.name: provider for provider in ALL_PROVIDERS
}

# Table 1 targets at full scale.
PAPER_GLOBAL_VP_COUNT = 2_179
PAPER_CN_VP_COUNT = 2_185
PAPER_TOTAL_VP_COUNT = 4_364
