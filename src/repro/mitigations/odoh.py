"""Oblivious DNS (RFC 9230 style, simplified).

The privacy goal is a visibility split: the **proxy** sees the client's
address but only a sealed query; the **target resolver** sees the query
name but only the proxy's address.  No single party can correlate *who*
asked with *what* was asked — which is exactly the correlation traffic
shadowing exploits (sniffed QNAMEs enable user tracking).

As with :mod:`repro.mitigations.ech`, sealing uses a keyed SHA-256
keystream: structurally honest, not production HPKE.
"""

import hashlib
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.records import frozen

_NONCE_LENGTH = 12


class OdohError(ValueError):
    """Raised for malformed or unopenable oblivious queries."""


@frozen
class OdohQuery:
    """A sealed query in flight between client, proxy, and target."""

    key_id: int
    nonce: bytes
    ciphertext: bytes

    def encode(self) -> bytes:
        return struct.pack("!B", self.key_id) + self.nonce + self.ciphertext

    @classmethod
    def decode(cls, data: bytes) -> "OdohQuery":
        if len(data) < 1 + _NONCE_LENGTH:
            raise OdohError("sealed query too short")
        return cls(key_id=data[0], nonce=data[1 : 1 + _NONCE_LENGTH],
                   ciphertext=data[1 + _NONCE_LENGTH :])


def _keystream(secret: bytes, nonce: bytes, length: int) -> bytes:
    stream = bytearray()
    counter = 0
    while len(stream) < length:
        stream.extend(hashlib.sha256(secret + nonce + struct.pack("!I", counter)).digest())
        counter += 1
    return bytes(stream[:length])


def seal_query(name: str, key_id: int, target_secret: bytes,
               rng: random.Random) -> OdohQuery:
    """Seal a query name toward the target resolver's key."""
    if not 0 <= key_id <= 255:
        raise OdohError(f"key_id out of range: {key_id}")
    nonce = bytes(rng.randrange(256) for _ in range(_NONCE_LENGTH))
    plaintext = name.encode("ascii")
    ciphertext = bytes(
        byte ^ key for byte, key in
        zip(plaintext, _keystream(target_secret, nonce, len(plaintext)))
    )
    return OdohQuery(key_id=key_id, nonce=nonce, ciphertext=ciphertext)


def open_query(query: OdohQuery, key_id: int, target_secret: bytes) -> str:
    """Open a sealed query at the target resolver."""
    if query.key_id != key_id:
        raise OdohError(f"key mismatch: sealed for {query.key_id}, have {key_id}")
    plaintext = bytes(
        byte ^ key for byte, key in
        zip(query.ciphertext, _keystream(target_secret, query.nonce,
                                         len(query.ciphertext)))
    )
    try:
        return plaintext.decode("ascii")
    except UnicodeDecodeError as exc:
        raise OdohError("query decryption failed (wrong key?)") from exc


@dataclass
class ProxyLogEntry:
    """What the proxy can record: client address, opaque bytes."""

    client_address: str
    sealed_bytes: bytes


@dataclass
class TargetLogEntry:
    """What the target can record: proxy address, clear-text name."""

    proxy_address: str
    name: str


class ObliviousDnsProxy:
    """An oblivious relay between clients and one target resolver.

    ``resolve`` is the target-side callback ``(proxy_address, name) ->
    answer``; the proxy never learns the name, the target never learns
    the client address, and both sides' logs prove it.
    """

    def __init__(self, proxy_address: str, key_id: int, target_secret: bytes,
                 resolve: Callable[[str, str], Optional[str]]):
        self.proxy_address = proxy_address
        self._key_id = key_id
        self._target_secret = target_secret
        self._resolve = resolve
        self.proxy_log: List[ProxyLogEntry] = []
        self.target_log: List[TargetLogEntry] = []

    def relay(self, client_address: str, sealed: OdohQuery) -> Optional[str]:
        """Forward one sealed query and return the answer to the client."""
        self.proxy_log.append(
            ProxyLogEntry(client_address=client_address,
                          sealed_bytes=sealed.encode())
        )
        # Target side: open with the key, resolve, log what it saw.
        name = open_query(sealed, self._key_id, self._target_secret)
        self.target_log.append(
            TargetLogEntry(proxy_address=self.proxy_address, name=name)
        )
        return self._resolve(self.proxy_address, name)

    def correlation_possible(self) -> bool:
        """Can any single log pair a client address with a query name?

        Proxy entries carry addresses but only sealed bytes; target
        entries carry names but only the proxy's own address.  Returns
        True only if that split is somehow violated.
        """
        names = {entry.name.encode("ascii") for entry in self.target_log}
        for entry in self.proxy_log:
            if any(name in entry.sealed_bytes for name in names):
                return True
        return any(entry.proxy_address != self.proxy_address
                   for entry in self.target_log)
