"""Vantage points: the measurement platform's client endpoints."""

from typing import Optional

from repro.records import frozen
from repro.topology.model import Endpoint


@frozen
class VantagePoint:
    """One VPN egress the platform sends decoys from.

    The address is what the honeypot saw when the VP connected out
    (Section 3: advertised VPN locations are not trusted), and the country
    is the geo-location of that address.
    """

    vp_id: str
    address: str
    asn: int
    country: str
    provider: str
    province: Optional[str] = None
    """Mainland-China VPs carry their province; others None."""
    resets_ttl: bool = False
    """True when the provider rewrites outgoing TTLs (excluded by vetting)."""

    @property
    def region(self) -> str:
        """Platform region: ``"cn"`` for mainland China, else ``"global"``."""
        return "cn" if self.country == "CN" else "global"

    def endpoint(self) -> Endpoint:
        """The topology endpoint used to build paths from this VP."""
        return Endpoint(address=self.address, asn=self.asn, country=self.country)

    def __str__(self) -> str:
        where = f"{self.country}/{self.province}" if self.province else self.country
        return f"VP({self.vp_id} {self.address} AS{self.asn} {where} via {self.provider})"
