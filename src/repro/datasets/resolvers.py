"""Table 4: the DNS servers decoys are sent to.

20 public resolvers, one self-built control resolver, 13 root servers and
2 TLD authoritative servers.  ``RESOLVER_H`` is the paper's set of the five
most-problematic destinations (Section 5.1).
"""

from typing import Dict, Tuple

from repro.net.addr import ip_from_int, ip_to_int
from repro.records import frozen


@frozen
class DnsDestination:
    """One DNS destination of the Phase I campaign."""

    name: str
    address: str
    kind: str  # "public" | "self-built" | "root" | "tld"
    country: str
    """Country hosting the primary instance (drives path construction)."""
    anycast: bool = False

    @property
    def pair_address(self) -> str:
        """The Appendix E pair resolver: same /24, last octet shifted.

        The paper's example pairs 1.1.1.1 with 1.1.1.4: an address in the
        same /24 that offers no DNS service.
        """
        value = ip_to_int(self.address)
        last = value & 0xFF
        shifted = (last + 3) % 250 + 1  # stay clear of .0 and .255
        return ip_from_int((value & 0xFFFFFF00) | shifted)


PUBLIC_RESOLVERS: Tuple[DnsDestination, ...] = (
    DnsDestination("Cloudflare", "1.1.1.1", "public", "US", anycast=True),
    DnsDestination("CNNIC", "1.2.4.8", "public", "CN"),
    DnsDestination("DNSPAI", "101.226.4.6", "public", "CN"),
    DnsDestination("DNSPod", "119.29.29.29", "public", "CN"),
    DnsDestination("DNS.Watch", "84.200.69.80", "public", "DE"),
    DnsDestination("OracleDyn", "216.146.35.35", "public", "US"),
    DnsDestination("Google", "8.8.8.8", "public", "US", anycast=True),
    DnsDestination("Hurricane", "74.82.42.42", "public", "US"),
    DnsDestination("Level3", "209.244.0.3", "public", "US"),
    DnsDestination("Vercara", "156.154.70.1", "public", "US"),
    DnsDestination("OneDNS", "117.50.10.10", "public", "CN"),
    DnsDestination("OpenDNS", "208.67.222.222", "public", "US", anycast=True),
    DnsDestination("OpenNIC", "217.160.166.161", "public", "DE"),
    DnsDestination("Quad9", "9.9.9.9", "public", "US", anycast=True),
    DnsDestination("Yandex", "77.88.8.8", "public", "RU"),
    DnsDestination("SafeDNS", "195.46.39.39", "public", "RU"),
    DnsDestination("Freenom", "80.80.80.80", "public", "NL"),
    DnsDestination("Baidu", "180.76.76.76", "public", "CN"),
    DnsDestination("114DNS", "114.114.114.114", "public", "CN", anycast=True),
    DnsDestination("Quad101", "101.101.101.101", "public", "TW"),
)

SELF_BUILT_RESOLVER = DnsDestination("SelfBuilt", "203.0.113.53", "self-built", "US")

# Real root-server addresses (a through m).
ROOT_SERVERS: Tuple[DnsDestination, ...] = tuple(
    DnsDestination(f"{letter.upper()}-root", address, "root", "US", anycast=True)
    for letter, address in (
        ("a", "198.41.0.4"),
        ("b", "170.247.170.2"),
        ("c", "192.33.4.12"),
        ("d", "199.7.91.13"),
        ("e", "192.203.230.10"),
        ("f", "192.5.5.241"),
        ("g", "192.112.36.4"),
        ("h", "198.97.190.53"),
        ("i", "192.36.148.17"),
        ("j", "192.58.128.30"),
        ("k", "193.0.14.129"),
        ("l", "199.7.83.42"),
        ("m", "202.12.27.33"),
    )
)

TLD_SERVERS: Tuple[DnsDestination, ...] = (
    DnsDestination("com-tld", "192.12.94.30", "tld", "US", anycast=True),
    DnsDestination("org-tld", "199.19.57.1", "tld", "US", anycast=True),
)

ALL_DNS_DESTINATIONS: Tuple[DnsDestination, ...] = (
    PUBLIC_RESOLVERS + (SELF_BUILT_RESOLVER,) + ROOT_SERVERS + TLD_SERVERS
)

# Section 5.1: destinations with the highest ratio of problematic paths.
RESOLVER_H_NAMES: Tuple[str, ...] = ("Yandex", "114DNS", "OneDNS", "DNSPAI", "Vercara")

DESTINATIONS_BY_NAME: Dict[str, DnsDestination] = {
    destination.name: destination for destination in ALL_DNS_DESTINATIONS
}

DESTINATIONS_BY_ADDRESS: Dict[str, DnsDestination] = {
    destination.address: destination for destination in ALL_DNS_DESTINATIONS
}


def resolver_h() -> Tuple[DnsDestination, ...]:
    """The Resolver_h set of Section 5.1."""
    return tuple(DESTINATIONS_BY_NAME[name] for name in RESOLVER_H_NAMES)


def is_resolver_h(name: str) -> bool:
    return name in RESOLVER_H_NAMES
