"""Minimal TCP connection establishment over a simulated path.

Phase I of the paper sends HTTP/TLS decoys *after successful TCP
handshakes* with the destination; Phase II deliberately skips the
handshake so that low-TTL probes do not hold server connections open.
This module models exactly that much TCP: a three-way handshake with
real SYN/SYN-ACK/ACK segments transiting the path, sequence numbers, and
a state machine for the client side.
"""

import enum
import random
from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Packet, TCPSegment
from repro.net.path import Path, TransitOutcome


class TcpState(enum.Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    ESTABLISHED = "established"
    FAILED = "failed"


@dataclass
class HandshakeResult:
    """Outcome of a three-way handshake attempt."""

    state: TcpState
    syn_delivered: bool
    client_isn: int
    server_isn: Optional[int]

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED


class TcpClient:
    """Client-side TCP over one path.

    The server side is implicit: destinations in the simulation always
    accept connections on their service port (they are live public
    services by construction), so a SYN that *reaches* the destination is
    answered.  What the model preserves is the part the methodology cares
    about: SYNs transit the path (and are seen by any DPI hops), and no
    payload is ever sent on an unestablished connection.
    """

    def __init__(self, path: Path, src: str, src_port: int, dst_port: int,
                 rng: random.Random, ttl: int = 64):
        self.path = path
        self.src = src
        self.src_port = src_port
        self.dst = path.destination.address
        self.dst_port = dst_port
        self.ttl = ttl
        self._rng = rng
        self.state = TcpState.CLOSED
        self.client_isn = rng.randrange(0x100000000)
        self.server_isn: Optional[int] = None
        self._next_seq = 0

    def connect(self) -> HandshakeResult:
        """Run the three-way handshake."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"connect() from state {self.state}")
        syn = Packet.tcp(
            src=self.src, dst=self.dst, ttl=self.ttl,
            src_port=self.src_port, dst_port=self.dst_port,
            payload=b"", flags=TCPSegment.FLAG_SYN, seq=self.client_isn,
        )
        self.state = TcpState.SYN_SENT
        result = self.path.transit(syn)
        if result.outcome is not TransitOutcome.DELIVERED:
            self.state = TcpState.FAILED
            return HandshakeResult(self.state, False, self.client_isn, None)
        # The destination SYN-ACKs; reverse-path delivery is assumed (the
        # methodology never manipulates return TTLs).
        self.server_isn = self._rng.randrange(0x100000000)
        ack = Packet.tcp(
            src=self.src, dst=self.dst, ttl=self.ttl,
            src_port=self.src_port, dst_port=self.dst_port,
            payload=b"", flags=TCPSegment.FLAG_ACK,
        )
        self.path.transit(ack)
        self.state = TcpState.ESTABLISHED
        self._next_seq = (self.client_isn + 1) & 0xFFFFFFFF
        return HandshakeResult(self.state, True, self.client_isn, self.server_isn)

    def send(self, payload: bytes, ttl: Optional[int] = None,
             loss_at: Optional[int] = None):
        """Send application bytes on the established connection.

        Returns the path's :class:`TransitResult`.  Raises unless the
        connection is established — the invariant Phase I relies on.
        ``loss_at`` injects a link fault on this data segment only; the
        handshake itself is kept reliable (TCP's own retransmission is
        below this model's level of detail — undelivered-decoy faults are
        what the robustness layer exercises).
        """
        if self.state is not TcpState.ESTABLISHED:
            raise RuntimeError(f"send() on {self.state} connection")
        packet = Packet.tcp(
            src=self.src, dst=self.dst,
            ttl=self.ttl if ttl is None else ttl,
            src_port=self.src_port, dst_port=self.dst_port, payload=payload,
            seq=self._next_seq,
            ack=((self.server_isn or 0) + 1) & 0xFFFFFFFF,
        )
        self._next_seq = (self._next_seq + len(payload)) & 0xFFFFFFFF
        return self.path.transit(packet, loss_at=loss_at)

    def close(self) -> None:
        """Tear the connection down (FIN transit elided)."""
        self.state = TcpState.CLOSED
