"""IP-to-AS and geo-location directory.

Every component that allocates simulated addresses (the VPN platform,
topology fabric, origin pools, destination datasets) registers them here,
so analyses can answer "which AS / country does this source address belong
to?" exactly the way the paper queries commercial IP databases.
"""

from typing import Dict, Iterator, Optional

from repro.datasets.asns import lookup_as
from repro.records import frozen


@frozen
class IpRecord:
    """What the directory knows about one address."""

    address: str
    asn: int
    country: str
    role: str
    """Allocation role: "vp", "router", "resolver", "origin", "web", ..."""

    @property
    def as_name(self) -> str:
        try:
            return lookup_as(self.asn).name
        except KeyError:
            return f"AS{self.asn}"


class IpDirectory:
    """Registry of simulated address allocations."""

    def __init__(self):
        self._records: Dict[str, IpRecord] = {}

    def register(self, address: str, asn: int, country: str, role: str) -> IpRecord:
        """Record an allocation; re-registration must agree.

        Conflicting duplicate registrations indicate overlapping address
        pools — a simulation bug worth failing loudly on.
        """
        record = IpRecord(address=address, asn=asn, country=country, role=role)
        existing = self._records.get(address)
        if existing is not None:
            if (existing.asn, existing.country) != (asn, country):
                raise ValueError(
                    f"conflicting registration for {address}: {existing} vs {record}"
                )
            return existing
        self._records[address] = record
        return record

    def lookup(self, address: str) -> Optional[IpRecord]:
        return self._records.get(address)

    def asn_of(self, address: str) -> Optional[int]:
        record = self._records.get(address)
        return record.asn if record else None

    def country_of(self, address: str) -> Optional[str]:
        record = self._records.get(address)
        return record.country if record else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[IpRecord]:
        return iter(self._records.values())
