"""Packet model with genuine IPv4/UDP/TCP header encoding.

Decoys in the paper are real packets whose IP TTL field is varied for
hop-by-hop tracerouting, so this reproduction encodes real headers: a
20-byte IPv4 header with a correct ones-complement checksum, and 8-byte
UDP / 20-byte TCP headers.  Observers and honeypots parse these bytes
rather than peeking at Python objects, keeping the measurement path
honest end to end.
"""

import struct
from typing import Optional

from repro.net.addr import ip_from_int, ip_to_int
from repro.net.errors import PacketDecodeError
from repro.records import frozen

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_IPV4_FMT = "!BBHHHBBH4s4s"
_UDP_FMT = "!HHHH"
_TCP_FMT = "!HHIIBBHHH"
_UDP_HEADER_LEN = 8
_TCP_HEADER_LEN = 20  # no options


def checksum16(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@frozen
class IPv4Header:
    """Minimal IPv4 header: the fields the methodology manipulates/reads."""

    src: str
    dst: str
    ttl: int
    protocol: int
    identification: int = 0
    payload_length: int = 0

    def __post_init__(self):
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"TTL out of range: {self.ttl}")
        if not 0 <= self.identification <= 0xFFFF:
            raise ValueError(f"identification out of range: {self.identification}")
        if self.protocol not in (PROTO_ICMP, PROTO_TCP, PROTO_UDP):
            raise ValueError(f"unsupported IP protocol {self.protocol}")

    def encode(self) -> bytes:
        """Serialize to 20 bytes with a valid header checksum."""
        total_length = 20 + self.payload_length
        without_checksum = struct.pack(
            _IPV4_FMT,
            (4 << 4) | 5,  # version 4, IHL 5 words
            0,  # DSCP/ECN
            total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            ip_to_int(self.src).to_bytes(4, "big"),
            ip_to_int(self.dst).to_bytes(4, "big"),
        )
        digest = checksum16(without_checksum)
        return without_checksum[:10] + struct.pack("!H", digest) + without_checksum[12:]

    @classmethod
    def decode(cls, data: bytes) -> "IPv4Header":
        """Parse 20 header bytes, verifying version and checksum."""
        if len(data) < 20:
            raise PacketDecodeError(f"IPv4 header needs 20 bytes, got {len(data)}")
        header = data[:20]
        if checksum16(header) != 0:
            raise PacketDecodeError("IPv4 header checksum mismatch")
        (
            version_ihl,
            _dscp,
            total_length,
            identification,
            _frag,
            ttl,
            protocol,
            _checksum,
            src_bytes,
            dst_bytes,
        ) = struct.unpack(_IPV4_FMT, header)
        if version_ihl >> 4 != 4:
            raise PacketDecodeError(f"not an IPv4 packet (version {version_ihl >> 4})")
        if version_ihl & 0x0F != 5:
            raise PacketDecodeError("IP options are not supported")
        return cls(
            src=ip_from_int(int.from_bytes(src_bytes, "big")),
            dst=ip_from_int(int.from_bytes(dst_bytes, "big")),
            ttl=ttl,
            protocol=protocol,
            identification=identification,
            payload_length=total_length - 20,
        )


@frozen
class UDPSegment:
    """UDP header plus payload."""

    src_port: int
    dst_port: int
    payload: bytes = b""

    def __post_init__(self):
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")

    def encode(self) -> bytes:
        length = _UDP_HEADER_LEN + len(self.payload)
        # Checksum left zero (legal for UDP over IPv4); the IP checksum
        # already guards the fields the methodology depends on.
        return struct.pack(_UDP_FMT, self.src_port, self.dst_port, length, 0) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "UDPSegment":
        if len(data) < 8:
            raise PacketDecodeError(f"UDP header needs 8 bytes, got {len(data)}")
        src_port, dst_port, length, _checksum = struct.unpack(_UDP_FMT, data[:8])
        if length != len(data):
            raise PacketDecodeError(f"UDP length field {length} != segment size {len(data)}")
        return cls(src_port=src_port, dst_port=dst_port, payload=data[8:])


@frozen
class TCPSegment:
    """TCP header plus payload (no options; enough for decoy transport)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    payload: bytes = b""

    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    def __post_init__(self):
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")
        for counter in (self.seq, self.ack):
            if not 0 <= counter <= 0xFFFFFFFF:
                raise ValueError(f"sequence number out of range: {counter}")

    def encode(self) -> bytes:
        data_offset = 5 << 4  # 20-byte header, no options
        return (
            struct.pack(
                _TCP_FMT,
                self.src_port,
                self.dst_port,
                self.seq,
                self.ack,
                data_offset,
                self.flags,
                0xFFFF,  # window
                0,  # checksum (not modelled)
                0,  # urgent pointer
            )
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes) -> "TCPSegment":
        if len(data) < 20:
            raise PacketDecodeError(f"TCP header needs 20 bytes, got {len(data)}")
        (
            src_port,
            dst_port,
            seq,
            ack,
            data_offset,
            flags,
            _window,
            _checksum,
            _urgent,
        ) = struct.unpack(_TCP_FMT, data[:20])
        header_len = (data_offset >> 4) * 4
        if header_len < 20 or header_len > len(data):
            raise PacketDecodeError(f"bad TCP data offset {data_offset >> 4}")
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=data[header_len:],
        )


@frozen
class Packet:
    """A full simulated packet: IPv4 header plus transport segment."""

    ip: IPv4Header
    transport: object  # UDPSegment | TCPSegment

    @classmethod
    def udp(cls, src: str, dst: str, ttl: int, src_port: int, dst_port: int,
            payload: bytes, identification: int = 0) -> "Packet":
        segment = UDPSegment(src_port=src_port, dst_port=dst_port, payload=payload)
        header = IPv4Header(
            src=src, dst=dst, ttl=ttl, protocol=PROTO_UDP,
            identification=identification,
            payload_length=_UDP_HEADER_LEN + len(payload),
        )
        return cls(ip=header, transport=segment)

    @classmethod
    def tcp(cls, src: str, dst: str, ttl: int, src_port: int, dst_port: int,
            payload: bytes, flags: int = TCPSegment.FLAG_PSH | TCPSegment.FLAG_ACK,
            identification: int = 0, seq: int = 0, ack: int = 0) -> "Packet":
        segment = TCPSegment(src_port=src_port, dst_port=dst_port, seq=seq,
                             ack=ack, flags=flags, payload=payload)
        header = IPv4Header(
            src=src, dst=dst, ttl=ttl, protocol=PROTO_TCP,
            identification=identification,
            payload_length=_TCP_HEADER_LEN + len(payload),
        )
        return cls(ip=header, transport=segment)

    @property
    def payload(self) -> bytes:
        """Application bytes carried by the transport segment."""
        return self.transport.payload

    def with_ttl(self, ttl: int) -> "Packet":
        """Copy of this packet with a different initial TTL (traceroute)."""
        ip = self.ip
        return Packet(IPv4Header(ip.src, ip.dst, ttl, ip.protocol,
                                 ip.identification, ip.payload_length),
                      self.transport)

    def decrement_ttl(self) -> "Packet":
        """Copy with TTL reduced by one, as a router would forward it."""
        if self.ip.ttl <= 0:
            raise ValueError("cannot decrement TTL below zero")
        return self.with_ttl(self.ip.ttl - 1)

    def encode(self) -> bytes:
        """Full on-the-wire bytes: IP header followed by the segment."""
        return self.ip.encode() + self.transport.encode()

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        header = IPv4Header.decode(data)
        body = data[20:]
        if header.payload_length != len(body):
            raise PacketDecodeError(
                f"IP total length disagrees with capture: {header.payload_length} != {len(body)}"
            )
        if header.protocol == PROTO_UDP:
            return cls(ip=header, transport=UDPSegment.decode(body))
        if header.protocol == PROTO_TCP:
            return cls(ip=header, transport=TCPSegment.decode(body))
        raise PacketDecodeError(f"cannot decode transport protocol {header.protocol}")
