"""ICMP Time-Exceeded messages.

During Phase II the VPs learn observer addresses from the ICMP type-11
errors that routers return when the decoy's TTL expires at their hop.  The
error quotes the expired packet's IP header (plus the first payload bytes),
exactly as RFC 792 specifies — the quoted header is what lets the VP match
the error back to the decoy it sent.
"""

import struct

from repro.net.errors import PacketDecodeError
from repro.net.packet import IPv4Header, Packet, checksum16
from repro.records import frozen

ICMP_TIME_EXCEEDED = 11
_QUOTE_PAYLOAD_BYTES = 8  # RFC 792: original header + first 8 payload bytes


@frozen
class IcmpTimeExceeded:
    """A type-11 code-0 ICMP error, quoting the expired packet."""

    reporter: str
    """Address of the router whose hop exhausted the TTL."""
    quoted_header: IPv4Header
    quoted_payload: bytes

    @classmethod
    def for_packet(cls, reporter: str, expired: Packet) -> "IcmpTimeExceeded":
        """Build the error a router at ``reporter`` would emit for ``expired``."""
        return cls(
            reporter=reporter,
            quoted_header=expired.ip,
            quoted_payload=expired.transport.encode()[:_QUOTE_PAYLOAD_BYTES],
        )

    def encode(self) -> bytes:
        """ICMP message bytes: type/code/checksum/unused + quoted data."""
        quote = self.quoted_header.encode() + self.quoted_payload
        without_checksum = struct.pack("!BBHI", ICMP_TIME_EXCEEDED, 0, 0, 0) + quote
        digest = checksum16(without_checksum)
        return (
            struct.pack("!BBHI", ICMP_TIME_EXCEEDED, 0, digest, 0) + quote
        )

    @classmethod
    def decode(cls, reporter: str, data: bytes) -> "IcmpTimeExceeded":
        """Parse ICMP bytes received from ``reporter``."""
        if len(data) < 8 + 20:
            raise PacketDecodeError(f"ICMP time-exceeded too short: {len(data)} bytes")
        icmp_type, code, _checksum, _unused = struct.unpack("!BBHI", data[:8])
        if icmp_type != ICMP_TIME_EXCEEDED or code != 0:
            raise PacketDecodeError(f"not a time-exceeded message: type={icmp_type} code={code}")
        if checksum16(data) != 0:
            raise PacketDecodeError("ICMP checksum mismatch")
        quoted_header = IPv4Header.decode(data[8:28])
        return cls(reporter=reporter, quoted_header=quoted_header, quoted_payload=data[28:])
