"""Shadow policies and origin pools.

A :class:`ShadowPolicy` is the behavioural fingerprint of one exhibitor:
how likely observed data is to be leveraged, after what delay, over which
protocols, how many times, and from which networks the unsolicited
requests originate.  Section 5 of the paper characterizes exhibitors along
exactly these axes.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import random

from repro.intel.blocklist import Blocklist
from repro.intel.directory import IpDirectory
from repro.net.addr import ip_from_int
from repro.records import frozen
from repro.simkit.distributions import Constant, Distribution

# Unsolicited-request origin addresses live in 100.88.0.0-100.95.255.255:
# above the router fabric, below the vantage-point pool.
_ORIGIN_SPACE_BASE = (100 << 24) | (88 << 16)
_ORIGIN_SPACE_SIZE = 1 << 19


class AddressAllocator:
    """Deterministic, collision-free address allocation inside one space."""

    def __init__(self, base: int = _ORIGIN_SPACE_BASE, size: int = _ORIGIN_SPACE_SIZE):
        self._base = base
        self._size = size
        self._by_key: Dict[str, str] = {}
        self._used: set = set()

    def allocate(self, key: str) -> str:
        """The address for ``key``; stable across calls and run orders."""
        if key in self._by_key:
            return self._by_key[key]
        digest = hashlib.sha256(key.encode()).digest()
        offset = int.from_bytes(digest[:8], "big") % self._size
        while offset in self._used:
            offset = (offset + 1) % self._size
        self._used.add(offset)
        address = ip_from_int(self._base + offset)
        self._by_key[key] = address
        return address


@frozen
class OriginGroup:
    """One network that unsolicited requests originate from."""

    asn: int
    country: str
    weight: float
    blocklist_rate: float
    """Probability that an address in this group is on the IP blocklist."""
    address_count: int = 8
    protocols: Optional[Tuple[str, ...]] = None
    """Restrict this group to specific request protocols (None = any)."""


class OriginPool:
    """Weighted source-address pool for one exhibitor's requests.

    Addresses are allocated deterministically per (exhibitor, group,
    index), registered in the :class:`IpDirectory` (so Figure 6's origin-AS
    analysis can attribute them) and in the :class:`Blocklist` according to
    each group's listing rate.
    """

    def __init__(
        self,
        name: str,
        groups: Sequence[OriginGroup],
        allocator: AddressAllocator,
        directory: IpDirectory,
        blocklist: Blocklist,
        rng: random.Random,
    ):
        if not groups:
            raise ValueError("origin pool needs at least one group")
        total = sum(group.weight for group in groups)
        if total <= 0:
            raise ValueError("origin group weights must sum to a positive value")
        self.name = name
        self.groups = tuple(groups)
        self._weights = [group.weight / total for group in groups]
        self._addresses: Dict[int, Tuple[str, ...]] = {}
        for index, group in enumerate(groups):
            allocated = []
            for slot in range(group.address_count):
                address = allocator.allocate(f"origin:{name}:{index}:{slot}")
                directory.register(address, group.asn, group.country, role="origin")
                blocklist.maybe_add(address, group.blocklist_rate, rng)
                allocated.append(address)
            self._addresses[index] = tuple(allocated)

    def pick(self, rng: random.Random, protocol: str) -> str:
        """One origin address for a request over ``protocol``."""
        eligible = [
            (index, weight)
            for index, (group, weight) in enumerate(zip(self.groups, self._weights))
            if group.protocols is None or protocol in group.protocols
        ]
        if not eligible:
            eligible = list(enumerate(self._weights))
        point = rng.random() * sum(weight for _, weight in eligible)
        running = 0.0
        chosen = eligible[-1][0]
        for index, weight in eligible:
            running += weight
            if point <= running:
                chosen = index
                break
        addresses = self._addresses[chosen]
        return addresses[rng.randrange(len(addresses))]

    def all_addresses(self) -> Tuple[str, ...]:
        return tuple(
            address for addresses in self._addresses.values() for address in addresses
        )


@dataclass
class ShadowPolicy:
    """Behavioural parameters of one shadowing exhibitor."""

    name: str
    delay: Distribution
    """Time between observation and each unsolicited request."""
    uses: Distribution
    """How many unsolicited requests one observation produces."""
    protocol_weights: Dict[str, float]
    """Mix over "dns" / "http" / "https" for unsolicited requests."""
    origin_pool: OriginPool
    observe_probability: float = 1.0
    """Fraction of exposed decoys this exhibitor actually leverages."""
    http_enumeration_rate: float = 0.95
    """Fraction of HTTP(S) requests performing path enumeration
    (Section 5.1: ~95%; the rest fetch the root page)."""

    def __post_init__(self):
        if not 0.0 <= self.observe_probability <= 1.0:
            raise ValueError(
                f"observe_probability must be in [0, 1], got {self.observe_probability}"
            )
        if not self.protocol_weights:
            raise ValueError("policy needs at least one protocol weight")
        bad = set(self.protocol_weights) - {"dns", "http", "https"}
        if bad:
            raise ValueError(f"unknown protocols in policy: {sorted(bad)}")
        if sum(self.protocol_weights.values()) <= 0:
            raise ValueError("protocol weights must sum to a positive value")

    def pick_protocol(self, rng: random.Random) -> str:
        total = sum(self.protocol_weights.values())
        point = rng.random() * total
        running = 0.0
        for protocol, weight in self.protocol_weights.items():
            running += weight
            if point <= running:
                return protocol
        return next(iter(self.protocol_weights))
