"""EDNS(0) support (RFC 6891).

Modern resolvers attach an OPT pseudo-record to queries; the decoy
generator can do the same so decoys are indistinguishable from ordinary
client traffic at the wire level.  The OPT record abuses the resource-
record layout: NAME is root, CLASS carries the UDP payload size, and TTL
packs extended-rcode/version/flags.
"""

import struct
from typing import Optional, Tuple

from repro.protocols.dns.message import DnsMessage, ResourceRecord
from repro.protocols.dns.types import QTYPE
from repro.records import frozen

OPT_RTYPE = 41
DEFAULT_UDP_PAYLOAD_SIZE = 1232  # the DNS-flag-day recommendation
FLAG_DO = 0x8000


@frozen
class EdnsOptions:
    """Decoded view of an OPT pseudo-record."""

    udp_payload_size: int = DEFAULT_UDP_PAYLOAD_SIZE
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False

    def __post_init__(self):
        if not 512 <= self.udp_payload_size <= 0xFFFF:
            raise ValueError(
                f"udp payload size out of range: {self.udp_payload_size}"
            )
        if self.version != 0:
            raise ValueError(f"only EDNS version 0 is supported, got {self.version}")

    def to_record(self) -> ResourceRecord:
        """Encode as the OPT pseudo-record for the additional section."""
        ttl = (self.extended_rcode << 24) | (self.version << 16)
        if self.dnssec_ok:
            ttl |= FLAG_DO
        return ResourceRecord(
            name="",
            rtype=OPT_RTYPE,
            rclass=self.udp_payload_size,
            ttl=ttl,
            rdata="",
        )

    @classmethod
    def from_record(cls, record: ResourceRecord) -> "EdnsOptions":
        if record.rtype != OPT_RTYPE:
            raise ValueError(f"not an OPT record (type {record.rtype})")
        return cls(
            udp_payload_size=record.rclass,
            extended_rcode=(record.ttl >> 24) & 0xFF,
            version=(record.ttl >> 16) & 0xFF,
            dnssec_ok=bool(record.ttl & FLAG_DO),
        )


def with_edns(message: DnsMessage,
              options: Optional[EdnsOptions] = None) -> DnsMessage:
    """Attach an OPT record to a message's additional section."""
    options = options if options is not None else EdnsOptions()
    return DnsMessage(
        header=message.header,
        questions=message.questions,
        answers=message.answers,
        authorities=message.authorities,
        additionals=message.additionals + (options.to_record(),),
    )


def edns_of(message: DnsMessage) -> Optional[EdnsOptions]:
    """The message's EDNS options, if an OPT record is present."""
    for record in message.additionals:
        if record.rtype == OPT_RTYPE:
            return EdnsOptions.from_record(record)
    return None
