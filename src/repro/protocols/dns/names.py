"""Domain-name encoding and decoding, with RFC 1035 compression pointers.

Decoy domains like ``g6d8jjkut5obc4-9982.www.experiment.domain`` ride in
QNAMEs, so the label-length limits here (63 bytes per label, 255 per name)
constrain the identifier codec in :mod:`repro.core.identifier`.
"""

from typing import Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
_POINTER_MASK = 0xC0


class DnsNameError(ValueError):
    """Raised for names that violate RFC 1035 limits or malformed wires."""


def normalize_name(name: str) -> str:
    """Lower-case and strip the trailing dot: the canonical comparison form."""
    return name.rstrip(".").lower()


def is_subdomain_of(name: str, zone: str) -> bool:
    """True when ``name`` equals ``zone`` or sits beneath it.

    >>> is_subdomain_of("a.www.example.com", "example.com")
    True
    """
    name = normalize_name(name)
    zone = normalize_name(zone)
    return name == zone or name.endswith("." + zone)


def encode_name(name: str) -> bytes:
    """Serialize a domain name as a sequence of length-prefixed labels.

    Compression is applied only on full-message encoding (see
    :meth:`~repro.protocols.dns.message.DnsMessage.encode`), not here.
    This is the strict encoder whose errors the message writer and
    :func:`decode_name` raise; neither calls it for a name that passes.
    """
    name = normalize_name(name)
    if name == "":
        return b"\x00"
    encoded = bytearray()
    for label in name.split("."):
        if not label:
            raise DnsNameError(f"empty label in {name!r}")
        raw = label.encode("ascii", errors="strict")
        if len(raw) > MAX_LABEL_LENGTH:
            raise DnsNameError(f"label {label!r} exceeds {MAX_LABEL_LENGTH} bytes")
        encoded.append(len(raw))
        encoded.extend(raw)
    encoded.append(0)
    if len(encoded) > MAX_NAME_LENGTH:
        raise DnsNameError(f"name {name!r} exceeds {MAX_NAME_LENGTH} wire bytes")
    return bytes(encoded)


def decode_name(message: bytes, offset: int) -> Tuple[str, int]:
    """Decode a possibly-compressed name starting at ``offset``.

    Returns ``(name, next_offset)`` where ``next_offset`` is the position
    after the name *in the original stream* (pointers do not advance it
    past the 2-byte pointer itself).
    """
    labels = []
    jumps = 0
    cursor = offset
    next_offset = None
    size = len(message)
    while True:
        if cursor >= size:
            raise DnsNameError(f"name runs past end of message at offset {cursor}")
        length = message[cursor]
        if length & _POINTER_MASK == _POINTER_MASK:
            if cursor + 1 >= size:
                raise DnsNameError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | message[cursor + 1]
            if pointer >= cursor:
                raise DnsNameError(f"forward compression pointer {pointer} at {cursor}")
            if next_offset is None:
                next_offset = cursor + 2
            jumps += 1
            if jumps > 64:
                raise DnsNameError("compression pointer loop")
            cursor = pointer
            continue
        if length & _POINTER_MASK:
            raise DnsNameError(f"reserved label type 0x{length:02x}")
        if length == 0:
            if next_offset is None:
                next_offset = cursor + 1
            break
        end = cursor + 1 + length
        if end > size:
            raise DnsNameError("label runs past end of message")
        try:  # free on valid labels (3.11+), unlike a per-label test
            labels.append(message[cursor + 1 : end].decode("ascii"))
        except UnicodeDecodeError:
            raise DnsNameError(f"non-ASCII label at offset {cursor}") from None
        cursor = end
    name = ".".join(labels)
    # Every label here is 1-63 ASCII bytes, so the strict encoder can
    # reject the name only when it is long or a label holds a dot (which
    # re-splits it); any other name takes len(name) + 2 wire bytes.
    if (len(name) + 2 > MAX_NAME_LENGTH
            or name.count(".") != len(labels) - 1):
        if len(encode_name(name)) > MAX_NAME_LENGTH:
            raise DnsNameError("decoded name exceeds 255 wire bytes")
    return name, next_offset
