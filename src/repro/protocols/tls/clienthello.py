"""TLS ClientHello with the server_name extension (RFC 8446/6066 subset).

The TLS decoy is a syntactically valid ClientHello whose SNI carries the
experiment domain; on-path observers that parse TLS handshakes will
extract exactly this field.  Encoding follows the handshake structure:

    Handshake(type=1) > ClientHello > extensions > server_name
"""

import struct
from typing import Optional, Tuple

from repro.records import frozen

HANDSHAKE_CLIENT_HELLO = 1
LEGACY_VERSION_TLS12 = 0x0303
EXT_SERVER_NAME = 0
EXT_SUPPORTED_VERSIONS = 43
_SNI_HOSTNAME_TYPE = 0

# A realistic modern cipher list (TLS 1.3 suites + common 1.2 ECDHE).
DEFAULT_CIPHER_SUITES: Tuple[int, ...] = (
    0x1301,  # TLS_AES_128_GCM_SHA256
    0x1302,  # TLS_AES_256_GCM_SHA384
    0x1303,  # TLS_CHACHA20_POLY1305_SHA256
    0xC02F,  # ECDHE-RSA-AES128-GCM-SHA256
    0xC030,  # ECDHE-RSA-AES256-GCM-SHA384
)


class TlsDecodeError(ValueError):
    """Raised when bytes do not parse as the expected handshake structure."""


def _encode_sni(hostname: str) -> bytes:
    raw = hostname.encode("ascii")
    entry = struct.pack("!BH", _SNI_HOSTNAME_TYPE, len(raw)) + raw
    server_name_list = struct.pack("!H", len(entry)) + entry
    return struct.pack("!HH", EXT_SERVER_NAME, len(server_name_list)) + server_name_list


def _decode_sni(body: bytes) -> str:
    if len(body) < 2:
        raise TlsDecodeError("server_name extension too short")
    (list_length,) = struct.unpack("!H", body[:2])
    if list_length != len(body) - 2:
        raise TlsDecodeError("server_name list length mismatch")
    cursor = 2
    while cursor < len(body):
        if cursor + 3 > len(body):
            raise TlsDecodeError("truncated server_name entry")
        name_type, name_length = struct.unpack("!BH", body[cursor : cursor + 3])
        cursor += 3
        if cursor + name_length > len(body):
            raise TlsDecodeError("server_name entry runs past extension")
        if name_type == _SNI_HOSTNAME_TYPE:
            return body[cursor : cursor + name_length].decode("ascii")
        cursor += name_length
    raise TlsDecodeError("no host_name entry in server_name extension")


@frozen
class ClientHello:
    """A ClientHello carrying SNI — the TLS decoy."""

    server_name: Optional[str]
    random: bytes
    session_id: bytes = b""
    cipher_suites: Tuple[int, ...] = DEFAULT_CIPHER_SUITES
    extra_extensions: Tuple[Tuple[int, bytes], ...] = ()

    def __post_init__(self):
        if len(self.random) != 32:
            raise TlsDecodeError(f"client random must be 32 bytes, got {len(self.random)}")
        if len(self.session_id) > 32:
            raise TlsDecodeError("session id longer than 32 bytes")
        if not self.cipher_suites:
            raise TlsDecodeError("at least one cipher suite is required")

    def encode(self) -> bytes:
        """Serialize as a Handshake message (type 1 + 24-bit length)."""
        suites = b"".join(struct.pack("!H", suite) for suite in self.cipher_suites)
        extensions = bytearray()
        if self.server_name is not None:
            extensions += _encode_sni(self.server_name)
        # supported_versions advertising TLS 1.3, as modern clients do.
        extensions += struct.pack("!HHBH", EXT_SUPPORTED_VERSIONS, 3, 2, 0x0304)
        for ext_type, ext_body in self.extra_extensions:
            extensions += struct.pack("!HH", ext_type, len(ext_body)) + ext_body
        body = (
            struct.pack("!H", LEGACY_VERSION_TLS12)
            + self.random
            + struct.pack("!B", len(self.session_id)) + self.session_id
            + struct.pack("!H", len(suites)) + suites
            + b"\x01\x00"  # compression methods: null only
            + struct.pack("!H", len(extensions)) + bytes(extensions)
        )
        return struct.pack("!B", HANDSHAKE_CLIENT_HELLO) + len(body).to_bytes(3, "big") + body

    @classmethod
    def decode(cls, data: bytes) -> "ClientHello":
        """Parse a Handshake-framed ClientHello, extracting SNI."""
        if len(data) < 4:
            raise TlsDecodeError("handshake header needs 4 bytes")
        if data[0] != HANDSHAKE_CLIENT_HELLO:
            raise TlsDecodeError(f"not a ClientHello (handshake type {data[0]})")
        body_length = int.from_bytes(data[1:4], "big")
        body = data[4 : 4 + body_length]
        if len(body) != body_length:
            raise TlsDecodeError("handshake body truncated")
        cursor = 0
        if len(body) < 2 + 32 + 1:
            raise TlsDecodeError("ClientHello body too short")
        cursor += 2  # legacy_version
        random = body[cursor : cursor + 32]
        cursor += 32
        session_id_length = body[cursor]
        cursor += 1
        session_id = body[cursor : cursor + session_id_length]
        cursor += session_id_length
        if cursor + 2 > len(body):
            raise TlsDecodeError("truncated cipher suite length")
        (suites_length,) = struct.unpack("!H", body[cursor : cursor + 2])
        cursor += 2
        if suites_length % 2 or cursor + suites_length > len(body):
            raise TlsDecodeError("malformed cipher suite list")
        suites = tuple(
            struct.unpack("!H", body[cursor + index : cursor + index + 2])[0]
            for index in range(0, suites_length, 2)
        )
        cursor += suites_length
        if cursor >= len(body):
            raise TlsDecodeError("truncated compression methods")
        compression_length = body[cursor]
        cursor += 1 + compression_length
        server_name = None
        extras = []
        if cursor + 2 <= len(body):
            (ext_total,) = struct.unpack("!H", body[cursor : cursor + 2])
            cursor += 2
            end = cursor + ext_total
            if end > len(body):
                raise TlsDecodeError("extensions run past ClientHello body")
            while cursor + 4 <= end:
                ext_type, ext_length = struct.unpack("!HH", body[cursor : cursor + 4])
                cursor += 4
                if cursor + ext_length > end:
                    raise TlsDecodeError("extension body truncated")
                ext_body = body[cursor : cursor + ext_length]
                cursor += ext_length
                if ext_type == EXT_SERVER_NAME:
                    server_name = _decode_sni(ext_body)
                elif ext_type != EXT_SUPPORTED_VERSIONS:
                    extras.append((ext_type, ext_body))
        return cls(
            server_name=server_name,
            random=random,
            session_id=session_id,
            cipher_suites=suites,
            extra_extensions=tuple(extras),
        )
