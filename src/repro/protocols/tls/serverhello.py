"""TLS ServerHello (RFC 8446 subset) — the honeypot's side of the
handshake.

The honey TLS endpoint answers unsolicited ClientHellos like a real
server would: it selects a cipher suite from the client's list, echoes
the session id, and advertises TLS 1.3 via supported_versions.  Probing
clients therefore see a syntactically complete handshake start rather
than a silent socket.
"""

import struct
from typing import Optional, Tuple

from repro.protocols.tls.clienthello import (
    ClientHello,
    EXT_SUPPORTED_VERSIONS,
    LEGACY_VERSION_TLS12,
    TlsDecodeError,
)
from repro.records import frozen

HANDSHAKE_SERVER_HELLO = 2

# Preference order the honeypot negotiates in (TLS 1.3 suites first).
PREFERRED_SUITES: Tuple[int, ...] = (0x1301, 0x1302, 0x1303, 0xC02F, 0xC030)


@frozen
class ServerHello:
    """A ServerHello answering one ClientHello."""

    random: bytes
    session_id: bytes
    cipher_suite: int
    selected_version: int = 0x0304  # TLS 1.3

    def __post_init__(self):
        if len(self.random) != 32:
            raise TlsDecodeError(f"server random must be 32 bytes, got {len(self.random)}")
        if len(self.session_id) > 32:
            raise TlsDecodeError("session id longer than 32 bytes")

    def encode(self) -> bytes:
        extensions = struct.pack("!HHH", EXT_SUPPORTED_VERSIONS, 2,
                                 self.selected_version)
        body = (
            struct.pack("!H", LEGACY_VERSION_TLS12)
            + self.random
            + struct.pack("!B", len(self.session_id)) + self.session_id
            + struct.pack("!H", self.cipher_suite)
            + b"\x00"  # compression: null
            + struct.pack("!H", len(extensions)) + extensions
        )
        return (struct.pack("!B", HANDSHAKE_SERVER_HELLO)
                + len(body).to_bytes(3, "big") + body)

    @classmethod
    def decode(cls, data: bytes) -> "ServerHello":
        if len(data) < 4 or data[0] != HANDSHAKE_SERVER_HELLO:
            raise TlsDecodeError("not a ServerHello")
        body_length = int.from_bytes(data[1:4], "big")
        body = data[4 : 4 + body_length]
        if len(body) != body_length:
            raise TlsDecodeError("ServerHello body truncated")
        cursor = 2  # legacy_version
        random = body[cursor : cursor + 32]
        cursor += 32
        session_id_length = body[cursor]
        cursor += 1
        session_id = body[cursor : cursor + session_id_length]
        cursor += session_id_length
        if cursor + 3 > len(body):
            raise TlsDecodeError("truncated cipher/compression fields")
        (cipher_suite,) = struct.unpack("!H", body[cursor : cursor + 2])
        cursor += 3  # suite + compression byte
        selected_version = 0x0303
        if cursor + 2 <= len(body):
            (ext_total,) = struct.unpack("!H", body[cursor : cursor + 2])
            cursor += 2
            end = cursor + ext_total
            while cursor + 4 <= end:
                ext_type, ext_length = struct.unpack("!HH", body[cursor : cursor + 4])
                cursor += 4
                ext_body = body[cursor : cursor + ext_length]
                cursor += ext_length
                if ext_type == EXT_SUPPORTED_VERSIONS and len(ext_body) == 2:
                    (selected_version,) = struct.unpack("!H", ext_body)
        return cls(random=random, session_id=session_id,
                   cipher_suite=cipher_suite, selected_version=selected_version)


def negotiate(client: ClientHello, server_random: bytes) -> ServerHello:
    """Pick the first mutually-supported suite, preferring TLS 1.3 ones.

    Raises :class:`TlsDecodeError` when no common suite exists — real
    servers answer that with a handshake_failure alert.
    """
    offered = set(client.cipher_suites)
    for suite in PREFERRED_SUITES:
        if suite in offered:
            return ServerHello(
                random=server_random,
                session_id=client.session_id,
                cipher_suite=suite,
            )
    for suite in client.cipher_suites:
        # Fall back to whatever the client leads with, if we know nothing
        # better — mirrors permissive honeypot stacks.
        return ServerHello(random=server_random, session_id=client.session_id,
                           cipher_suite=suite)
    raise TlsDecodeError("no cipher suites offered")
