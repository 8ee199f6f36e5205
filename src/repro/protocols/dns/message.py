"""DNS message encoding and decoding.

Implements the RFC 1035 message format: 12-byte header, question section,
and A/NS/CNAME/TXT/SOA resource records, with name compression on encode
(each full name is encoded at most once; later occurrences become
pointers).  This is the codec both decoy generation and the honeypot
authoritative server run on.

The simulation's DNS round trip is one shape: a query with one question
and no records, answered with one A record.  :func:`encode_query`,
:func:`read_query` and :func:`encode_answer` write and read that shape
straight from bytes, building no message records; each gives exactly the
bytes, values and errors of the message codec it stands in for.
"""

import struct
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.net.addr import ip_from_int, ip_to_int
from repro.net.errors import PacketDecodeError
from repro.protocols.dns.names import (
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    DnsNameError,
    decode_name,
    encode_name,
    normalize_name,
)
from repro.protocols.dns.types import QCLASS_IN, RCODE, QTYPE
from repro.records import frozen

_HEADER = struct.Struct("!HHHHHH")
_QUESTION_TAIL = struct.Struct("!HH")
_RECORD_TAIL = struct.Struct("!HHI")
_RECORD_HEAD = struct.Struct("!HHIH")
"""Type, class, TTL and rdlength: the 10 bytes after a record's name."""
_RDLENGTH = struct.Struct("!H")

FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_TC = 0x0200
FLAG_RD = 0x0100
FLAG_RA = 0x0080


@frozen
class DnsHeader:
    """The 12-byte DNS header."""

    txid: int
    flags: int = 0
    qdcount: int = 0
    ancount: int = 0
    nscount: int = 0
    arcount: int = 0

    def __post_init__(self):
        _check_txid(self.txid)

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR)

    @property
    def rcode(self) -> RCODE:
        return RCODE(self.flags & 0x000F)

    @property
    def recursion_desired(self) -> bool:
        return bool(self.flags & FLAG_RD)

    def encode(self) -> bytes:
        return _HEADER.pack(
            self.txid, self.flags,
            self.qdcount, self.ancount, self.nscount, self.arcount,
        )

    @classmethod
    def decode(cls, data: bytes) -> "DnsHeader":
        return cls(*_unpack_header(data))


def _check_txid(txid: int) -> None:
    if not 0 <= txid <= 0xFFFF:
        raise ValueError(f"transaction id out of range: {txid}")


def _unpack_header(data: bytes) -> Tuple[int, int, int, int, int, int]:
    """Transaction id, flags and the four section counts."""
    if len(data) < 12:
        raise PacketDecodeError(f"DNS header needs 12 bytes, got {len(data)}")
    return _HEADER.unpack_from(data)


@frozen
class DnsQuestion:
    """One entry of the question section."""

    qname: str
    qtype: int = QTYPE.A
    qclass: int = QCLASS_IN

    def __post_init__(self):
        object.__setattr__(self, "qname", normalize_name(self.qname))


@frozen
class ResourceRecord:
    """One resource record. ``rdata`` interpretation depends on ``rtype``:

    * A — dotted-quad address string
    * NS/CNAME/PTR — domain name string
    * TXT — arbitrary text
    * SOA — ``"mname rname serial refresh retry expire minimum"``
    """

    name: str
    rtype: int
    ttl: int
    rdata: str
    rclass: int = QCLASS_IN

    def __post_init__(self):
        object.__setattr__(self, "name", normalize_name(self.name))
        # Real TTLs are capped at 2^31-1 (RFC 2181), but the field is a
        # u32 on the wire and the EDNS OPT pseudo-record packs flags into
        # it, so the codec accepts the full range.
        if self.ttl < 0 or self.ttl > 0xFFFFFFFF:
            raise ValueError(f"record TTL out of range: {self.ttl}")


class _NameWriter:
    """Tracks name offsets during message encoding for compression."""

    def __init__(self):
        self.buffer = bytearray()
        self._offsets: Dict[str, int] = {}

    def write_name(self, name: str) -> None:
        """Emit the normalized ``name``, compressing against any
        previously-written suffix.

        RFC 1035 4.1.4: a name may end in a pointer to a prior occurrence
        of its tail.  The writer emits leading labels until it finds a
        registered suffix within pointer range (14 bits), then a pointer;
        every newly-written suffix is registered for later names.  The
        name is walked by index: a suffix is the slice after a label
        boundary.  Question and record names arrive normalized (their
        dataclasses normalize them); rdata names are normalized first.
        """
        if not name:
            self.buffer.append(0)
            return
        # Uncompressed, a name takes one length byte per label plus the
        # root byte: len(name) + 2.  A name over the limit, like a bad
        # label below, gets the strict encoder's error.
        if len(name) + 2 > MAX_NAME_LENGTH:
            encode_name(name)
        buffer = self.buffer
        offsets = self._offsets
        if not offsets:
            self._write_whole(name)
            return
        size = len(name)
        start = 0
        while start < size:
            suffix = name[start:]
            offset = offsets.get(suffix)
            if offset is not None:
                buffer.append(0xC0 | offset >> 8)
                buffer.append(offset & 0xFF)
                return
            end = name.find(".", start)
            if end < 0:
                end = size
            if not 0 < end - start <= MAX_LABEL_LENGTH:
                encode_name(name)
            # Register this suffix at the position its first label starts
            # (only where a pointer can reach it), then emit that label.
            position = len(buffer)
            if position <= 0x3FFF:
                offsets[suffix] = position
            buffer.append(end - start)
            buffer.extend(name[start:end].encode("ascii"))
            start = end + 1
        buffer.append(0)

    def _write_whole(self, name: str) -> None:
        """Emit a normalized name when nothing written before can be
        pointed at, as for a message's first name: the bytes are
        ``encode_name(name)``'s.  The label starting at character ``i``
        of the name has its length byte ``i`` bytes into the name, so
        that is where its suffix is registered."""
        try:
            labels = name.encode("ascii").split(b".")
        except UnicodeEncodeError:
            encode_name(name)
            raise
        buffer = self.buffer
        offsets = self._offsets
        position = len(buffer)
        start = 0
        for label in labels:
            size = len(label)
            if not 0 < size <= MAX_LABEL_LENGTH:
                encode_name(name)
            if position + start <= 0x3FFF:
                offsets[name[start:]] = position + start
            buffer.append(size)
            buffer += label
            start += size + 1
        buffer.append(0)


@lru_cache(maxsize=1024)
def _a_rdata(address: str) -> bytes:
    """An A record's 4 rdata bytes.  Memoized: answers carry one of a few
    honey addresses."""
    return ip_to_int(address).to_bytes(4, "big")


_NAME_RDATA_TYPES = frozenset((QTYPE.NS, QTYPE.CNAME, QTYPE.PTR))


def _encode_rdata(writer: _NameWriter, record: ResourceRecord) -> None:
    buffer = writer.buffer
    if record.rtype in _NAME_RDATA_TYPES:
        # Domain-name rdata may be compressed against earlier names
        # (RFC 1035 permits it for these classic types).  The length field
        # is backpatched once the possibly-pointered name is written.
        length_position = len(buffer)
        buffer += b"\x00\x00"
        start = len(buffer)
        writer.write_name(normalize_name(record.rdata))
        rdlength = len(buffer) - start
        buffer[length_position:length_position + 2] = _RDLENGTH.pack(rdlength)
        return
    if record.rtype == QTYPE.A:
        rdata = _a_rdata(record.rdata)
    elif record.rtype == QTYPE.TXT:
        raw = record.rdata.encode("utf-8")
        if len(raw) > 255:
            raise DnsNameError("TXT strings longer than 255 bytes are not supported")
        rdata = bytes([len(raw)]) + raw
    elif record.rtype == QTYPE.SOA:
        fields = record.rdata.split()
        if len(fields) != 7:
            raise DnsNameError(f"SOA rdata needs 7 fields, got {record.rdata!r}")
        mname, rname = fields[0], fields[1]
        numbers = [int(value) for value in fields[2:]]
        rdata = encode_name(mname) + encode_name(rname) + struct.pack("!IIIII", *numbers)
    else:
        # Unknown/opaque types (e.g. the EDNS OPT pseudo-record) carry
        # their rdata as a hex string, mirroring the decode fallback.
        try:
            rdata = bytes.fromhex(record.rdata)
        except ValueError as exc:
            raise DnsNameError(
                f"cannot encode rdata for record type {record.rtype}"
            ) from exc
    buffer += _RDLENGTH.pack(len(rdata))
    buffer += rdata


def _decode_rdata(message: bytes, offset: int, rtype: int, rdlength: int) -> str:
    blob = message[offset : offset + rdlength]
    if rtype == QTYPE.A:
        if rdlength != 4:
            raise PacketDecodeError(f"A record rdata must be 4 bytes, got {rdlength}")
        return ip_from_int(int.from_bytes(blob, "big"))
    if rtype in (QTYPE.NS, QTYPE.CNAME, QTYPE.PTR):
        name, _ = decode_name(message, offset)
        return name
    if rtype == QTYPE.TXT:
        if rdlength < 1 or blob[0] != rdlength - 1:
            raise PacketDecodeError("malformed TXT rdata")
        return blob[1:].decode("utf-8")
    if rtype == QTYPE.SOA:
        mname, cursor = decode_name(message, offset)
        rname, cursor = decode_name(message, cursor)
        numbers = struct.unpack("!IIIII", message[cursor : cursor + 20])
        return " ".join([mname, rname] + [str(value) for value in numbers])
    # Unknown types round-trip as hex so decoding never destroys data.
    return blob.hex()


@frozen
class DnsMessage:
    """A complete DNS message."""

    header: DnsHeader
    questions: Tuple[DnsQuestion, ...] = ()
    answers: Tuple[ResourceRecord, ...] = ()
    authorities: Tuple[ResourceRecord, ...] = ()
    additionals: Tuple[ResourceRecord, ...] = ()

    @property
    def qname(self) -> Optional[str]:
        """QNAME of the first question, the field decoys embed data in."""
        return self.questions[0].qname if self.questions else None

    def encode(self) -> bytes:
        """Wire bytes; the header's section counts are the tuple sizes."""
        writer = _NameWriter()
        buffer = writer.buffer
        buffer += _HEADER.pack(
            self.header.txid, self.header.flags,
            len(self.questions), len(self.answers),
            len(self.authorities), len(self.additionals),
        )
        for question in self.questions:
            writer.write_name(question.qname)
            buffer += _QUESTION_TAIL.pack(question.qtype, question.qclass)
        for record in self.answers + self.authorities + self.additionals:
            writer.write_name(record.name)
            buffer += _RECORD_TAIL.pack(record.rtype, record.rclass, record.ttl)
            _encode_rdata(writer, record)
        return bytes(buffer)

    @classmethod
    def decode(cls, data: bytes) -> "DnsMessage":
        header = DnsHeader.decode(data)
        cursor = 12
        questions: List[DnsQuestion] = []
        for _ in range(header.qdcount):
            qname, qtype, qclass, cursor = _read_question(data, cursor)
            questions.append(DnsQuestion(qname=qname, qtype=qtype, qclass=qclass))
        answers, cursor = _read_records(data, header.ancount, cursor)
        authorities, cursor = _read_records(data, header.nscount, cursor)
        additionals, cursor = _read_records(data, header.arcount, cursor)
        return cls(
            header=header,
            questions=tuple(questions),
            answers=answers,
            authorities=authorities,
            additionals=additionals,
        )


def _read_question(data: bytes, cursor: int) -> Tuple[str, int, int, int]:
    """Decode the question entry at ``cursor``: its name as written (not
    yet normalized), type and class, and the offset after it."""
    try:
        qname, cursor = decode_name(data, cursor)
    except DnsNameError as exc:
        raise PacketDecodeError(f"bad QNAME: {exc}") from exc
    if cursor + 4 > len(data):
        raise PacketDecodeError("truncated question section")
    qtype, qclass = _QUESTION_TAIL.unpack_from(data, cursor)
    return qname, qtype, qclass, cursor + 4


def _read_records(data: bytes, count: int,
                  cursor: int) -> Tuple[Tuple[ResourceRecord, ...], int]:
    """Decode ``count`` resource records from ``cursor``; returns them and
    the offset after the last."""
    if not count:
        return (), cursor
    size = len(data)
    records: List[ResourceRecord] = []
    for _ in range(count):
        try:
            name, cursor = decode_name(data, cursor)
        except DnsNameError as exc:
            raise PacketDecodeError(f"bad record name: {exc}") from exc
        if cursor + 10 > size:
            raise PacketDecodeError("truncated resource record")
        rtype, rclass, ttl, rdlength = _RECORD_HEAD.unpack_from(data, cursor)
        cursor += 10
        if cursor + rdlength > size:
            raise PacketDecodeError("resource record rdata runs past message end")
        rdata = _decode_rdata(data, cursor, rtype, rdlength)
        cursor += rdlength
        records.append(
            ResourceRecord(name=name, rtype=rtype, rclass=rclass, ttl=ttl, rdata=rdata)
        )
    return tuple(records), cursor


def make_query(qname: str, txid: int, qtype: int = QTYPE.A,
               recursion_desired: bool = True) -> DnsMessage:
    """Build a standard query — the DNS decoy format."""
    flags = FLAG_RD if recursion_desired else 0
    return DnsMessage(
        header=DnsHeader(txid=txid, flags=flags, qdcount=1),
        questions=(DnsQuestion(qname=qname, qtype=qtype),),
    )


def _one_question(txid: int, flags: int, ancount: int, qname: str,
                  qtype: int, qclass: int) -> bytearray:
    """The header and the one question of a message without authority or
    additional records, as :meth:`DnsMessage.encode` writes them; the
    normalized ``qname`` goes through the name writer."""
    writer = _NameWriter()
    buffer = writer.buffer
    buffer += _HEADER.pack(txid, flags, 1, ancount, 0, 0)
    writer.write_name(qname)
    buffer += _QUESTION_TAIL.pack(qtype, qclass)
    return buffer


def encode_query(qname: str, txid: int, qtype: int = QTYPE.A,
                 recursion_desired: bool = True) -> bytes:
    """The bytes of ``make_query(qname, txid, qtype,
    recursion_desired).encode()``, with the same errors, built without the
    message: the form for a caller that sends the query."""
    _check_txid(txid)
    return bytes(_one_question(txid, FLAG_RD if recursion_desired else 0, 0,
                               normalize_name(qname), qtype, QCLASS_IN))


def read_query(data: bytes) -> Optional[Tuple[int, int, str, int, int]]:
    """``(txid, flags, qname, qtype, qclass)`` of a message with one
    question and no records, with the name normalized as
    :class:`DnsQuestion` normalizes it; None for any other shape.

    What it reads, it reads as :meth:`DnsMessage.decode` does: malformed
    bytes raise the same errors, and nothing past the question is read.
    """
    txid, flags, qdcount, ancount, nscount, arcount = _unpack_header(data)
    if qdcount != 1 or ancount or nscount or arcount:
        return None
    qname, qtype, qclass, _ = _read_question(data, 12)
    return txid, flags, normalize_name(qname), qtype, qclass


_ANSWER_FLAGS = FLAG_QR | FLAG_AA | FLAG_RA | int(RCODE.NOERROR)
_QTYPE_A = int(QTYPE.A)


def encode_answer(txid: int, flags: int, qname: str, qtype: int, qclass: int,
                  ttl: int, address: str) -> bytes:
    """The authoritative A answer to a query :func:`read_query` returned
    ``(txid, flags, qname, qtype, qclass)`` for: the bytes of
    ``make_response(query, answers=(ResourceRecord(qname, QTYPE.A, ttl,
    address),), authoritative=True).encode()``.

    The question is written as the query sent it (normalized), and the
    answer's name, the message's first name again, is a pointer to it at
    offset 12 (the root name is its single zero byte).  ``ttl`` must fit
    the record's u32 field, which the caller checks once.
    """
    buffer = _one_question(txid, _ANSWER_FLAGS | (flags & FLAG_RD), 1,
                           qname, qtype, qclass)
    buffer += b"\xc0\x0c" if qname else b"\x00"
    buffer += _RECORD_HEAD.pack(_QTYPE_A, QCLASS_IN, ttl, 4)
    buffer += _a_rdata(address)
    return bytes(buffer)


def make_response(query: DnsMessage, answers: Tuple[ResourceRecord, ...] = (),
                  rcode: RCODE = RCODE.NOERROR, authoritative: bool = False) -> DnsMessage:
    """Build the response a server would return for ``query``.

    A query with no question can only be answered FORMERR, with no
    question either."""
    if not query.questions and rcode != RCODE.FORMERR:
        raise ValueError("cannot answer a query with no question")
    flags = FLAG_QR | FLAG_RA | int(rcode)
    if query.header.recursion_desired:
        flags |= FLAG_RD
    if authoritative:
        flags |= FLAG_AA
    return DnsMessage(
        header=DnsHeader(txid=query.header.txid, flags=flags),
        questions=query.questions,
        answers=tuple(answers),
    )
