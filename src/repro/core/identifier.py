"""Decoy identifier codec.

Section 3: each decoy embeds a unique domain of the form::

    g6d8jjkut5obc4-9982 . www.experiment.domain
    \\__________________/
     identifier string (time, IP, TTL)

The identifier must survive a round trip through arbitrary third parties
(resolver logs, DPI extractors, probing proxies) and come back decodable,
so it is a single DNS label: base32 over a fixed binary layout plus a
checksum, then ``-<sequence>``.  Layout (15 bytes before base32):

    time-offset  u32   seconds since campaign epoch
    vp address   u32
    dst address  u32
    initial TTL  u8    (varies during Phase II tracerouting)
    checksum     u16   CRC-16/CCITT over the first 13 bytes

24 base32 characters + ``-`` + sequence stays well under the 63-byte
label limit.

Every send encodes one identifier, so encoding is profile-driven: the C
CRC of ``binascii``, precompiled ``struct.Struct`` instances, memoized
address parsing and a pair-table base32 encoder.  Decoding is rare: the
correlator decodes a logged name only when it misses the ledger or is not
its decoy's canonical encoding, and resolves each logged domain once.
"""

import base64
import binascii
import struct
from functools import lru_cache

from repro.net.addr import ip_from_int, ip_to_int
from repro.records import frozen

_BODY = struct.Struct("!III B")
_CRC = struct.Struct("!H")

LABEL_LENGTH = 29
"""Characters in every encoded label: 24 base32 characters for the 15
packed bytes, ``-`` and the 4-digit sequence."""


class IdentifierError(ValueError):
    """Raised for labels that do not decode to a valid identity."""


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE — compact integrity check for identifiers
    (``binascii.crc_hqx`` is this CRC, poly 0x1021, from 0xFFFF)."""
    return binascii.crc_hqx(data, 0xFFFF)


_BASE32_PAIRS = tuple(
    first + second
    for first in "abcdefghijklmnopqrstuvwxyz234567"
    for second in "abcdefghijklmnopqrstuvwxyz234567"
)
"""Two lower-case base32 characters for each 10-bit value."""

_PAIR_SHIFTS = tuple(range(110, -1, -10))


def _base32(packed: bytes) -> str:
    """``base64.b32encode(packed).decode().lower().rstrip("=")`` for the
    15 packed bytes: 120 bits are exactly 24 characters, no padding, taken
    two at a time from the top of the bytes read as one integer."""
    value = int.from_bytes(packed, "big")
    pairs = _BASE32_PAIRS
    return "".join([pairs[value >> shift & 0x3FF] for shift in _PAIR_SHIFTS])


@frozen
class DecoyIdentity:
    """Everything a decoy's identifier encodes."""

    sent_at: int
    """Virtual seconds since campaign epoch (truncated to whole seconds)."""
    vp_address: str
    dst_address: str
    ttl: int
    sequence: int
    """Distinguishes decoys sharing (time, VP, destination, TTL)."""

    def __post_init__(self):
        if not 0 <= self.sent_at <= 0xFFFFFFFF:
            raise IdentifierError(f"sent_at out of range: {self.sent_at}")
        if not 0 <= self.ttl <= 255:
            raise IdentifierError(f"ttl out of range: {self.ttl}")
        if not 0 <= self.sequence <= 9999:
            raise IdentifierError(f"sequence out of range: {self.sequence}")


def _decode_label(label: str) -> DecoyIdentity:
    """Decode one identifier label; raise :class:`IdentifierError` for
    anything else."""
    token, separator, sequence_text = label.partition("-")
    # The sequence suffix must be exactly the four digits encode()
    # emits: accepting shorter or longer digit runs lets distinct
    # labels ("…-1", "…-01", "…-00001") alias onto one identity and
    # misattribute foreign traffic to a decoy.
    if (not separator or len(sequence_text) != 4
            or not sequence_text.isdigit()):
        raise IdentifierError(f"label has no sequence suffix: {label!r}")
    padding = "=" * (-len(token) % 8)
    try:
        packed = base64.b32decode(token.upper() + padding)
    except Exception:
        raise IdentifierError(f"label is not base32: {label!r}") from None
    if len(packed) != 15:
        raise IdentifierError(
            f"identifier payload must be 15 bytes, got {len(packed)}")
    body, checksum_bytes = packed[:13], packed[13:]
    (expected,) = _CRC.unpack(checksum_bytes)
    if crc16_ccitt(body) != expected:
        raise IdentifierError(f"identifier checksum mismatch in {label!r}")
    sent_at, vp_int, dst_int, ttl = _BODY.unpack(body)
    return DecoyIdentity(
        sent_at=sent_at,
        vp_address=ip_from_int(vp_int),
        dst_address=ip_from_int(dst_int),
        ttl=ttl,
        sequence=int(sequence_text),
    )


@lru_cache(maxsize=65536)
def _address_int(address: str) -> int:
    """:func:`ip_to_int`, memoized: every send packs its VP and
    destination addresses, and a campaign has few of either."""
    return ip_to_int(address)


class IdentifierCodec:
    """Encodes identities into DNS labels and back."""

    def encode(self, identity: DecoyIdentity) -> str:
        packed = _BODY.pack(
            identity.sent_at,
            _address_int(identity.vp_address),
            _address_int(identity.dst_address),
            identity.ttl,
        )
        packed += _CRC.pack(crc16_ccitt(packed))
        return f"{_base32(packed)}-{identity.sequence:04d}"

    def decode(self, label: str) -> DecoyIdentity:
        """Parse one label back into an identity.

        Raises :class:`IdentifierError` for anything that is not a genuine
        experiment identifier — corrupted, truncated, or foreign labels.
        """
        return _decode_label(label)

    def decode_domain(self, domain: str, zone: str) -> DecoyIdentity:
        """Decode the identity from a full experiment domain."""
        domain = domain.rstrip(".").lower()
        zone = zone.rstrip(".").lower()
        if not domain.endswith("." + zone):
            raise IdentifierError(f"{domain!r} is not under zone {zone!r}")
        label = domain[: -(len(zone) + 1)]
        if "." not in label:
            return self.decode(label)
        # Third parties prepend their own labels when probing
        # ("probe.<identifier>.<zone>"), so the identifier is not
        # necessarily leftmost — try every candidate label and accept the
        # one that decodes (the checksum rejects foreign labels).
        for candidate in label.split("."):
            try:
                return _decode_label(candidate)
            except IdentifierError as error:
                last_error = error
        raise last_error
