"""TLS record layer (TLSPlaintext framing, RFC 8446 section 5.1)."""

import struct

from repro.records import frozen

CONTENT_TYPE_HANDSHAKE = 22
LEGACY_RECORD_VERSION = 0x0301  # TLS 1.0 on the wire, as modern stacks send
_MAX_RECORD_LENGTH = 2**14


class TlsRecordError(ValueError):
    """Raised for malformed TLS records."""


@frozen
class TlsPlaintext:
    """One TLS record: content type, legacy version, fragment."""

    content_type: int
    fragment: bytes
    legacy_version: int = LEGACY_RECORD_VERSION

    def __post_init__(self):
        if len(self.fragment) > _MAX_RECORD_LENGTH:
            raise TlsRecordError(
                f"fragment of {len(self.fragment)} bytes exceeds 2^14 record limit"
            )

    def encode(self) -> bytes:
        return struct.pack(
            "!BHH", self.content_type, self.legacy_version, len(self.fragment)
        ) + self.fragment

    @classmethod
    def decode(cls, data: bytes) -> "TlsPlaintext":
        if len(data) < 5:
            raise TlsRecordError(f"record header needs 5 bytes, got {len(data)}")
        content_type, version, length = struct.unpack("!BHH", data[:5])
        if length > _MAX_RECORD_LENGTH:
            raise TlsRecordError(f"record length {length} exceeds 2^14")
        if len(data) < 5 + length:
            raise TlsRecordError("record fragment truncated")
        return cls(content_type=content_type, legacy_version=version,
                   fragment=data[5 : 5 + length])


def wrap_handshake(handshake_bytes: bytes) -> bytes:
    """Frame handshake bytes in a single TLS record, as decoys are sent."""
    return TlsPlaintext(content_type=CONTENT_TYPE_HANDSHAKE,
                        fragment=handshake_bytes).encode()
