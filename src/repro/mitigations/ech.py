"""TLS Encrypted Client Hello (draft-ietf-tls-esni style, simplified).

The real ECH uses HPKE; what matters to the measurement methodology is the
*visibility split*: the outer ClientHello carries only the provider's
public name, while the true SNI rides inside an opaque extension that
only the key holder can open.  The cipher here is a keyed keystream
derived with SHA-256 — structurally honest (nonce + ciphertext, key
required to open), deliberately not production crypto.
"""

import hashlib
import random
import struct

from repro.protocols.tls.clienthello import ClientHello, TlsDecodeError
from repro.records import frozen

ECH_EXTENSION_TYPE = 0xFE0D
_NONCE_LENGTH = 12


@frozen
class EchConfig:
    """One provider's ECH configuration, as published in DNS."""

    config_id: int
    public_name: str
    secret: bytes
    """Shared with the terminating provider only."""

    def __post_init__(self):
        if not 0 <= self.config_id <= 255:
            raise ValueError(f"config_id out of range: {self.config_id}")
        if len(self.secret) < 16:
            raise ValueError("ECH secret must be at least 16 bytes")


def _keystream(secret: bytes, nonce: bytes, length: int) -> bytes:
    stream = bytearray()
    counter = 0
    while len(stream) < length:
        block = hashlib.sha256(secret + nonce + struct.pack("!I", counter)).digest()
        stream.extend(block)
        counter += 1
    return bytes(stream[:length])


def encrypt_sni(inner_sni: str, config: EchConfig, rng: random.Random) -> bytes:
    """Seal the true SNI into an ECH extension body."""
    nonce = bytes(rng.randrange(256) for _ in range(_NONCE_LENGTH))
    plaintext = inner_sni.encode("ascii")
    ciphertext = bytes(
        byte ^ key for byte, key in
        zip(plaintext, _keystream(config.secret, nonce, len(plaintext)))
    )
    return struct.pack("!B", config.config_id) + nonce + ciphertext


def decrypt_ech_sni(body: bytes, config: EchConfig) -> str:
    """Open an ECH extension body with the provider's key."""
    if len(body) < 1 + _NONCE_LENGTH:
        raise TlsDecodeError("ECH body too short")
    config_id = body[0]
    if config_id != config.config_id:
        raise TlsDecodeError(
            f"ECH config mismatch: got {config_id}, have {config.config_id}"
        )
    nonce = body[1 : 1 + _NONCE_LENGTH]
    ciphertext = body[1 + _NONCE_LENGTH :]
    plaintext = bytes(
        byte ^ key for byte, key in
        zip(ciphertext, _keystream(config.secret, nonce, len(ciphertext)))
    )
    try:
        return plaintext.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TlsDecodeError("ECH decryption failed (wrong key?)") from exc


def build_ech_client_hello(inner_sni: str, config: EchConfig,
                           rng: random.Random) -> ClientHello:
    """A ClientHello whose visible SNI is the provider's public name.

    On-path observers parsing this hello extract ``config.public_name``
    — never the experiment domain — which is why ECH decoys defeat wire
    sniffers in the mitigation benchmark.
    """
    return ClientHello(
        server_name=config.public_name,
        random=bytes(rng.randrange(256) for _ in range(32)),
        extra_extensions=((ECH_EXTENSION_TYPE, encrypt_sni(inner_sni, config, rng)),),
    )


def outer_sni(hello: ClientHello) -> str:
    """What a wire observer sees: the outer (public) name only."""
    return hello.server_name or ""


def terminate(hello: ClientHello, config: EchConfig) -> str:
    """What the terminating provider sees after opening ECH: the true SNI.

    Demonstrates the paper's caveat — encryption does not mitigate data
    collection *by the destination*, which decrypts and sees everything.
    """
    for ext_type, body in hello.extra_extensions:
        if ext_type == ECH_EXTENSION_TYPE:
            return decrypt_ech_sni(body, config)
    raise TlsDecodeError("no ECH extension present")
