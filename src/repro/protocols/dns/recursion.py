"""Iterative DNS resolution: root → TLD → authoritative.

Appendix E of the paper discusses the resolver-authoritative path: the
leg of a lookup the measurement platform cannot see.  Two properties make
shadowing there unattractive, and both are structural facts of the
resolution chain this module implements:

1. queries on that leg originate from the *resolver's* address, so an
   observer cannot correlate names with client IPs;
2. with QNAME minimization (RFC 9156), upstream servers see only the
   label suffix they are authoritative for — the root sees ``domain``,
   the TLD sees ``experiment.domain``, and only the final authoritative
   server sees the full decoy name.

The chain is exercised standalone by tests and the resolver-authoritative
bias benchmark; the campaign's resolver models keep their direct-to-
authoritative shortcut (the full chain collapses to it for a wildcard
zone one delegation below the TLD).
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro.protocols.dns.names import normalize_name
from repro.records import frozen


class ResolutionError(Exception):
    """Raised when the chain cannot resolve a name."""


@frozen
class Delegation:
    """One zone cut: who is authoritative below this point."""

    zone: str
    server_name: str
    server_address: str


@frozen
class UpstreamQuery:
    """One query as seen by an upstream server — the observable the
    resolver-authoritative bias analysis cares about."""

    server_address: str
    server_role: str  # "root" | "tld" | "authoritative"
    qname: str
    source_address: str


class DnsHierarchy:
    """A miniature delegation tree: root, TLDs, and leaf zones.

    ``answers`` maps fully-qualified names (or a wildcard zone) to
    addresses at the leaf.
    """

    def __init__(self, root_address: str = "198.41.0.4"):
        self.root_address = root_address
        self._tlds: Dict[str, Delegation] = {}
        self._zones: Dict[str, Delegation] = {}
        self._wildcards: Dict[str, str] = {}
        self._static: Dict[str, str] = {}

    def add_tld(self, tld: str, server_address: str) -> None:
        tld = normalize_name(tld)
        self._tlds[tld] = Delegation(
            zone=tld, server_name=f"ns.{tld}-servers.example",
            server_address=server_address,
        )

    def add_zone(self, zone: str, server_address: str,
                 wildcard_target: Optional[str] = None) -> None:
        """Delegate ``zone`` to an authoritative server; optionally give it
        a wildcard A record (the experiment-zone configuration)."""
        zone = normalize_name(zone)
        tld = zone.rsplit(".", 1)[-1]
        if tld not in self._tlds:
            raise ResolutionError(f"no TLD {tld!r} registered for zone {zone!r}")
        self._zones[zone] = Delegation(
            zone=zone, server_name=f"ns1.{zone}", server_address=server_address,
        )
        if wildcard_target is not None:
            self._wildcards[zone] = wildcard_target

    def add_static(self, name: str, address: str) -> None:
        self._static[normalize_name(name)] = address

    # -- server-side views -----------------------------------------------

    def tld_for(self, name: str) -> Optional[Delegation]:
        tld = normalize_name(name).rsplit(".", 1)[-1]
        return self._tlds.get(tld)

    def zone_for(self, name: str) -> Optional[Delegation]:
        name = normalize_name(name)
        best: Optional[Delegation] = None
        for zone, delegation in self._zones.items():
            if name == zone or name.endswith("." + zone):
                if best is None or len(zone) > len(best.zone):
                    best = delegation
        return best

    def authoritative_answer(self, name: str) -> Optional[str]:
        name = normalize_name(name)
        if name in self._static:
            return self._static[name]
        delegation = self.zone_for(name)
        if delegation is not None and delegation.zone in self._wildcards:
            return self._wildcards[delegation.zone]
        return None


class IterativeResolver:
    """A recursive resolver performing iterative lookups over a hierarchy.

    ``observer`` (if given) receives every upstream query — this is how
    the bias benchmark inspects what each leg of the chain exposes.
    """

    def __init__(self, hierarchy: DnsHierarchy, egress_address: str,
                 qname_minimization: bool = True,
                 observer: Optional[Callable[[UpstreamQuery], None]] = None):
        self.hierarchy = hierarchy
        self.egress_address = egress_address
        self.qname_minimization = qname_minimization
        self._observer = observer
        self.upstream_queries = 0

    def _emit(self, server_address: str, role: str, qname: str) -> None:
        self.upstream_queries += 1
        if self._observer is not None:
            self._observer(UpstreamQuery(
                server_address=server_address, server_role=role,
                qname=qname, source_address=self.egress_address,
            ))

    @staticmethod
    def _suffix(name: str, labels: int) -> str:
        parts = normalize_name(name).split(".")
        return ".".join(parts[-labels:])

    def resolve(self, name: str) -> str:
        """Resolve ``name`` to an address, walking root → TLD → leaf."""
        name = normalize_name(name)
        if not name or "." not in name:
            raise ResolutionError(f"cannot resolve bare label {name!r}")

        # 1. Ask a root server for the TLD delegation.
        root_qname = self._suffix(name, 1) if self.qname_minimization else name
        self._emit(self.hierarchy.root_address, "root", root_qname)
        tld = self.hierarchy.tld_for(name)
        if tld is None:
            raise ResolutionError(f"root has no delegation for {name!r}")

        # 2. Ask the TLD server for the zone delegation.
        zone = self.hierarchy.zone_for(name)
        if zone is None:
            raise ResolutionError(f"TLD {tld.zone!r} has no delegation under {name!r}")
        labels_to_zone = len(zone.zone.split("."))
        tld_qname = (self._suffix(name, labels_to_zone)
                     if self.qname_minimization else name)
        self._emit(tld.server_address, "tld", tld_qname)

        # 3. Ask the authoritative server the full question.
        self._emit(zone.server_address, "authoritative", name)
        answer = self.hierarchy.authoritative_answer(name)
        if answer is None:
            raise ResolutionError(f"{zone.zone!r} has no answer for {name!r}")
        return answer
