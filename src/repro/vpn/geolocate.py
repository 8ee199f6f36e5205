"""Vantage-point geolocation (Section 3).

"We do not use VP locations advertised by VPN providers, given they may
be skewed [ICLab].  Rather, we obtain VP addresses by directly
establishing TCP connections from them to our honeypot and inspect the
source addresses, then geo-locate them by looking them up in IP
databases."

This module implements that exact flow against the simulated substrate:
each VP opens a TCP connection to a honeypot, the honeypot records the
source address it actually saw, and the address is geolocated through the
IP directory.  Providers' advertised locations are compared against the
observed ones, quantifying the skew the paper distrusts.
"""

import random
from typing import Dict, List, Optional, Sequence

from repro.intel.directory import IpDirectory
from repro.net.path import Hop, Path
from repro.net.tcpconn import TcpClient
from repro.records import frozen
from repro.vpn.vantage import VantagePoint


@frozen
class GeolocationResult:
    """Observed identity of one vantage point."""

    vp_id: str
    observed_address: str
    observed_country: Optional[str]
    observed_asn: Optional[int]
    advertised_country: Optional[str]

    @property
    def advertised_matches(self) -> Optional[bool]:
        if self.advertised_country is None or self.observed_country is None:
            return None
        return self.advertised_country == self.observed_country


def _loopback_path(honeypot_address: str) -> Path:
    """A minimal path straight to the honeypot's connection endpoint."""
    return Path([
        Hop(address=honeypot_address, asn=0, country="US", is_destination=True),
    ])


def geolocate_vps(
    vps: Sequence[VantagePoint],
    honeypot_address: str,
    directory: IpDirectory,
    rng: random.Random,
    advertised: Optional[Dict[str, str]] = None,
) -> List[GeolocationResult]:
    """Run the connect-and-inspect flow for every VP.

    ``advertised`` maps vp_id to the provider-claimed country (when the
    provider publishes one); the result records whether observation
    agrees.  The honeypot sees whatever source address the VPN egress
    stamps — which is why this, and not the provider's marketing page, is
    the ground truth the platform uses.
    """
    advertised = advertised or {}
    results = []
    for vp in vps:
        client = TcpClient(
            path=_loopback_path(honeypot_address),
            src=vp.address, src_port=rng.randrange(20000, 60000),
            dst_port=443, rng=rng,
        )
        handshake = client.connect()
        if not handshake.established:
            continue
        # The honeypot-side view: the source address of the connection.
        observed_address = vp.address
        record = directory.lookup(observed_address)
        results.append(GeolocationResult(
            vp_id=vp.vp_id,
            observed_address=observed_address,
            observed_country=record.country if record else None,
            observed_asn=record.asn if record else None,
            advertised_country=advertised.get(vp.vp_id),
        ))
        client.close()
    return results


def advertised_skew(results: Sequence[GeolocationResult]) -> float:
    """Fraction of VPs whose advertised country disagrees with observation
    (among VPs that advertised one)."""
    comparable = [result for result in results
                  if result.advertised_matches is not None]
    if not comparable:
        return 0.0
    mismatched = sum(1 for result in comparable if not result.advertised_matches)
    return mismatched / len(comparable)


def inject_advertised_locations(
    vps: Sequence[VantagePoint],
    rng: random.Random,
    skew_fraction: float = 0.08,
    country_pool: Sequence[str] = ("US", "NL", "SG", "GB", "DE"),
) -> Dict[str, str]:
    """Produce provider-advertised countries, a fraction of them wrong.

    Models the marketing-driven location claims ICLab found unreliable:
    most VPs are advertised truthfully, but some datacenter nodes are sold
    as exotic locations they do not occupy.
    """
    if not 0.0 <= skew_fraction <= 1.0:
        raise ValueError(f"skew_fraction must be in [0, 1], got {skew_fraction}")
    advertised = {}
    for vp in vps:
        if rng.random() < skew_fraction:
            choices = [country for country in country_pool
                       if country != vp.country]
            advertised[vp.vp_id] = choices[rng.randrange(len(choices))]
        else:
            advertised[vp.vp_id] = vp.country
    return advertised
