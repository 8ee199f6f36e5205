"""Client-server paths and TTL-faithful packet transit.

Topology in this reproduction is path-centric: the builder precomputes the
hop list between each vantage point and destination, and this module walks
packets along it with real TTL semantics.  With ``n`` hops (the destination
being hop ``n``):

* a packet with initial TTL ``t`` is seen by hops ``1..min(t, n)``;
* it expires at hop ``t`` when ``t < n``, producing an ICMP Time-Exceeded
  from that hop (if the hop responds to expiry at all);
* it is delivered when ``t >= n``.

This is exactly the property Phase II of the paper exploits: the smallest
initial TTL at which a decoy still triggers unsolicited requests equals the
observer's hop distance from the VP.
"""

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.errors import TransitError
from repro.net.icmp import IcmpTimeExceeded
from repro.net.packet import Packet
from repro.records import frozen

# Signature of a sniffer callback: (hop position 1-indexed, hop, packet).
HopTap = Callable[[int, "Hop", Packet], None]


@frozen
class Hop:
    """One device on a client-server path."""

    address: str
    asn: int
    country: str
    is_destination: bool = False
    responds_icmp: bool = True
    """Routers that silently drop expired packets (a traceroute limitation
    the paper acknowledges) set this to False."""
    open_ports: Tuple[int, ...] = ()
    """TCP ports answering the post-hoc observer port scan (Section 5.2)."""

    def __str__(self) -> str:
        role = "dst" if self.is_destination else "hop"
        return f"{role}:{self.address}(AS{self.asn},{self.country})"


class TransitOutcome(enum.Enum):
    DELIVERED = "delivered"
    EXPIRED = "expired"
    LOST = "lost"
    """Dropped in transit by an injected link fault: no ICMP, no delivery
    (see :mod:`repro.faults`)."""


@dataclass
class TransitResult:
    """What happened to one packet sent down a path."""

    outcome: TransitOutcome
    final_position: int
    """1-indexed hop where the packet stopped (destination or expiry hop).
    For LOST transits, the last hop that saw the packet — 0 when it died
    on the access link before the first hop."""
    icmp: Optional[IcmpTimeExceeded]
    """Time-Exceeded returned to the sender, when the expiry hop responds."""
    observed_by: List[Tuple[int, Hop]] = field(default_factory=list)
    """Every (position, hop) that processed the packet, in path order."""

    @property
    def delivered(self) -> bool:
        return self.outcome is TransitOutcome.DELIVERED


class Path:
    """An ordered hop list from a vantage point to a destination."""

    def __init__(self, hops: Sequence[Hop]):
        hops = tuple(hops)
        if not hops:
            raise TransitError("a path needs at least one hop (the destination)")
        if not hops[-1].is_destination:
            raise TransitError("the final hop of a path must be the destination")
        if any(hop.is_destination for hop in hops[:-1]):
            raise TransitError("only the final hop may be the destination")
        self.hops = hops
        self._taps: List[Tuple[int, HopTap]] = []

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def destination(self) -> Hop:
        return self.hops[-1]

    @property
    def length(self) -> int:
        """Hop count, destination included."""
        return len(self.hops)

    def hop_at(self, position: int) -> Hop:
        """The hop ``position`` hops from the VP (1-indexed)."""
        if not 1 <= position <= len(self.hops):
            raise TransitError(f"position {position} outside path of length {len(self.hops)}")
        return self.hops[position - 1]

    def position_of(self, address: str) -> Optional[int]:
        """1-indexed position of the hop with ``address``, or None."""
        for position, hop in enumerate(self.hops, start=1):
            if hop.address == address:
                return position
        return None

    def add_tap(self, position: int, tap: HopTap) -> None:
        """Attach a sniffer at ``position``; it sees every packet that
        reaches that hop (regardless of whether the packet expires there).
        """
        if not 1 <= position <= len(self.hops):
            raise TransitError(f"tap position {position} outside path of length {len(self.hops)}")
        # Kept sorted by position, in attachment order within a position:
        # the order taps fire in, and what lets transit stop at the first
        # tap past the hop where the packet stopped.
        index = len(self._taps)
        while index and self._taps[index - 1][0] > position:
            index -= 1
        self._taps.insert(index, (position, tap))

    def transit(self, packet: Packet,
                loss_at: Optional[int] = None) -> TransitResult:
        """Send ``packet`` down the path and report its fate.

        ``loss_at`` injects a link fault: the packet is dropped on the
        link *toward* hop ``loss_at`` (1-indexed), so hops before it
        still process the packet — and any sniffers tapped there still
        capture it — but no ICMP is generated and nothing is delivered.
        A ``loss_at`` beyond where the packet naturally stops is moot.

        The TTL is walked as an integer: hop ``k`` receives the packet
        with TTL ``t - k + 1``, and that copy is built only where it is
        read — by the taps at hop ``k`` (which share one copy) or by the
        ICMP quote at the expiry hop.
        """
        initial_ttl = packet.ip.ttl
        if initial_ttl < 1:
            raise TransitError(f"packet needs TTL >= 1 to leave the VP, got {initial_ttl}")
        hops = self.hops
        reach = min(initial_ttl, len(hops))
        lost = loss_at is not None and 1 <= loss_at <= reach
        last = loss_at - 1 if lost else reach
        observed = list(zip(range(1, last + 1), hops))
        seen_at, seen = 1, packet
        for position, tap in self._taps:
            if position > last:
                break
            if position != seen_at:
                seen_at = position
                seen = packet.with_ttl(initial_ttl - position + 1)
            tap(position, hops[position - 1], seen)
        if lost:
            return TransitResult(
                outcome=TransitOutcome.LOST,
                final_position=last,
                icmp=None,
                observed_by=observed,
            )
        if reach == len(hops):
            return TransitResult(
                outcome=TransitOutcome.DELIVERED,
                final_position=reach,
                icmp=None,
                observed_by=observed,
            )
        # Expired at hop ``reach == initial_ttl``, which got TTL 1.
        final_hop = hops[reach - 1]
        icmp = None
        if final_hop.responds_icmp:
            expired = seen if seen_at == reach else packet.with_ttl(1)
            icmp = IcmpTimeExceeded.for_packet(final_hop.address, expired)
        return TransitResult(
            outcome=TransitOutcome.EXPIRED,
            final_position=reach,
            icmp=icmp,
            observed_by=observed,
        )

    def __repr__(self) -> str:
        return f"Path({' -> '.join(hop.address for hop in self.hops)})"
