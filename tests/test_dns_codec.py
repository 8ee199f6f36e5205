"""Tests for the DNS wire codec: names, header, records, full messages,
and the byte path (query writer, query reader, answer writer) that must
equal the message codec."""

import random
import string
import struct

import pytest

from repro.core.decoy import DecoyFactory
from repro.core.identifier import DecoyIdentity, IdentifierCodec
from repro.honeypot.authdns import AuthoritativeServer
from repro.honeypot.logstore import PROTOCOL_DNS, LoggedRequest, LogStore
from repro.net.errors import PacketDecodeError
from repro.net.packet import PROTO_UDP, Packet
from repro.observers.onpath import extract_domain
from repro.protocols.dns import (
    DnsHeader,
    DnsMessage,
    DnsNameError,
    DnsQuestion,
    QTYPE,
    RCODE,
    ResourceRecord,
    decode_name,
    encode_name,
    encode_query,
    is_subdomain_of,
    make_query,
    make_response,
    normalize_name,
    read_query,
)
from repro.simkit.rng import SubstreamFactory
from repro.protocols.dns.edns import OPT_RTYPE, EdnsOptions, with_edns
from repro.protocols.dns.message import FLAG_AA, FLAG_QR


class TestNames:
    def test_roundtrip_simple(self):
        wire = encode_name("www.example.com")
        name, offset = decode_name(wire, 0)
        assert name == "www.example.com"
        assert offset == len(wire)

    def test_normalization_lowercases_and_strips_dot(self):
        assert normalize_name("WWW.Example.COM.") == "www.example.com"

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        name, offset = decode_name(b"\x00", 0)
        assert name == ""
        assert offset == 1

    def test_rejects_oversized_label(self):
        with pytest.raises(DnsNameError):
            encode_name("a" * 64 + ".example.com")

    def test_accepts_63_byte_label(self):
        encode_name("a" * 63 + ".example.com")

    def test_rejects_oversized_name(self):
        long_name = ".".join(["a" * 60] * 5)
        with pytest.raises(DnsNameError):
            encode_name(long_name)

    def test_rejects_empty_label(self):
        with pytest.raises(DnsNameError):
            encode_name("a..b")

    def test_decode_rejects_truncation(self):
        wire = encode_name("www.example.com")
        with pytest.raises(DnsNameError):
            decode_name(wire[:-3], 0)

    def test_decode_follows_compression_pointer(self):
        target = encode_name("example.com")
        message = target + b"\x03www" + b"\xc0\x00"  # www + pointer to offset 0
        name, offset = decode_name(message, len(target))
        assert name == "www.example.com"
        assert offset == len(message)

    def test_decode_rejects_forward_pointer(self):
        message = b"\xc0\x05" + b"\x00" * 10
        with pytest.raises(DnsNameError):
            decode_name(message, 0)

    def test_is_subdomain_of(self):
        assert is_subdomain_of("a.b.example.com", "example.com")
        assert is_subdomain_of("example.com", "example.com")
        assert not is_subdomain_of("notexample.com", "example.com")
        assert not is_subdomain_of("example.com.evil.org", "example.com")


class TestHeader:
    def test_roundtrip(self):
        header = DnsHeader(txid=0x1234, flags=FLAG_QR | FLAG_AA, qdcount=1, ancount=2)
        assert DnsHeader.decode(header.encode()) == header

    def test_rejects_bad_txid(self):
        with pytest.raises(ValueError):
            DnsHeader(txid=70000)

    def test_flag_properties(self):
        header = DnsHeader(txid=1, flags=FLAG_QR | int(RCODE.NXDOMAIN))
        assert header.is_response
        assert header.rcode is RCODE.NXDOMAIN

    def test_decode_rejects_short_buffer(self):
        with pytest.raises(PacketDecodeError):
            DnsHeader.decode(b"\x00\x01")


class TestMessages:
    def test_query_roundtrip(self):
        query = make_query("g6d8jjkut5obc4-9982.www.experiment.domain", txid=7)
        decoded = DnsMessage.decode(query.encode())
        assert decoded.qname == "g6d8jjkut5obc4-9982.www.experiment.domain"
        assert decoded.header.txid == 7
        assert decoded.header.recursion_desired
        assert not decoded.header.is_response

    def test_response_roundtrip_with_a_record(self):
        query = make_query("www.experiment.domain", txid=9)
        answer = ResourceRecord(name="www.experiment.domain", rtype=QTYPE.A,
                                ttl=3600, rdata="203.0.113.10")
        response = make_response(query, answers=(answer,), authoritative=True)
        decoded = DnsMessage.decode(response.encode())
        assert decoded.header.is_response
        assert decoded.header.rcode is RCODE.NOERROR
        assert decoded.answers[0].rdata == "203.0.113.10"
        assert decoded.answers[0].ttl == 3600

    def test_response_preserves_txid(self):
        query = make_query("x.example.com", txid=0xBEEF)
        response = make_response(query)
        assert DnsMessage.decode(response.encode()).header.txid == 0xBEEF

    def test_nxdomain_response(self):
        query = make_query("missing.example.com", txid=3)
        response = make_response(query, rcode=RCODE.NXDOMAIN)
        assert DnsMessage.decode(response.encode()).header.rcode is RCODE.NXDOMAIN

    def test_compression_shrinks_repeated_names(self):
        query = make_query("very-long-label-for-compression.example.com", txid=1)
        answer = ResourceRecord(name="very-long-label-for-compression.example.com",
                                rtype=QTYPE.A, ttl=60, rdata="1.2.3.4")
        response = make_response(query, answers=(answer,))
        encoded = response.encode()
        # The answer's name must be a 2-byte pointer, not a re-encoding.
        assert len(encoded) < len(query.encode()) + 2 + 10 + 4 + 20
        assert DnsMessage.decode(encoded).answers[0].name == query.qname

    def test_txt_record_roundtrip(self):
        query = make_query("t.example.com", txid=2, qtype=QTYPE.TXT)
        answer = ResourceRecord(name="t.example.com", rtype=QTYPE.TXT,
                                ttl=60, rdata="experiment contact: see homepage")
        decoded = DnsMessage.decode(make_response(query, answers=(answer,)).encode())
        assert decoded.answers[0].rdata == "experiment contact: see homepage"

    def test_cname_and_ns_records_roundtrip(self):
        query = make_query("alias.example.com", txid=2)
        records = (
            ResourceRecord(name="alias.example.com", rtype=QTYPE.CNAME,
                           ttl=30, rdata="real.example.com"),
            ResourceRecord(name="real.example.com", rtype=QTYPE.NS,
                           ttl=30, rdata="ns1.example.com"),
        )
        decoded = DnsMessage.decode(make_response(query, answers=records).encode())
        assert decoded.answers[0].rdata == "real.example.com"
        assert decoded.answers[1].rdata == "ns1.example.com"

    def test_soa_record_roundtrip(self):
        query = make_query("example.com", txid=2, qtype=QTYPE.SOA)
        soa = ResourceRecord(name="example.com", rtype=QTYPE.SOA, ttl=300,
                             rdata="ns1.example.com admin.example.com 2024030101 7200 3600 1209600 300")
        decoded = DnsMessage.decode(make_response(query, answers=(soa,)).encode())
        assert decoded.answers[0].rdata.split()[2] == "2024030101"

    def test_record_rejects_negative_ttl(self):
        with pytest.raises(ValueError):
            ResourceRecord(name="x.com", rtype=QTYPE.A, ttl=-1, rdata="1.2.3.4")

    def test_make_response_requires_question(self):
        empty = DnsMessage(header=DnsHeader(txid=1))
        with pytest.raises(ValueError):
            make_response(empty)

    def test_decode_rejects_truncated_question(self):
        query = make_query("www.example.com", txid=5).encode()
        with pytest.raises(PacketDecodeError):
            DnsMessage.decode(query[:-2])

    def test_qname_none_for_empty_message(self):
        assert DnsMessage(header=DnsHeader(txid=1)).qname is None


class TestSuffixCompression:
    def test_sibling_names_share_suffix_pointer(self):
        """a.example.com then b.example.com: the second name emits one
        label plus a pointer into the first."""
        query = make_query("a.example.com", txid=1)
        answers = (
            ResourceRecord(name="a.example.com", rtype=QTYPE.CNAME,
                           ttl=60, rdata="b.example.com"),
        )
        response = make_response(query, answers=answers)
        encoded = response.encode()
        decoded = DnsMessage.decode(encoded)
        assert decoded.answers[0].rdata == "b.example.com"
        # "example.com" must appear exactly once in the wire bytes.
        assert encoded.count(b"\x07example\x03com") == 1

    def test_deep_names_compress_progressively(self):
        names = [
            "x.deep.zone.example.com",
            "y.deep.zone.example.com",
            "z.zone.example.com",
        ]
        query = make_query(names[0], txid=2)
        answers = tuple(
            ResourceRecord(name=name, rtype=QTYPE.A, ttl=60, rdata="1.2.3.4")
            for name in names
        )
        response = make_response(query, answers=answers)
        decoded = DnsMessage.decode(response.encode())
        assert [record.name for record in decoded.answers] == names
        assert response.encode().count(b"\x04zone\x07example\x03com") == 1

    def test_message_rejects_name_over_255_wire_bytes(self):
        name = ".".join(["a" * 63] * 4 + ["b" * 11])
        assert len(name) == 267
        with pytest.raises(DnsNameError):
            make_query(name, txid=3).encode()
        # The longest legal name (253 characters, 255 wire bytes) encodes.
        longest = ".".join(["a" * 63] * 3 + ["b" * 61])
        wire = make_query(longest, txid=3).encode()
        assert DnsMessage.decode(wire).qname == longest

    def test_message_rejects_bad_labels(self):
        for name in ("a..example.com", "a" * 64 + ".example.com"):
            with pytest.raises(DnsNameError):
                make_query(name, txid=4).encode()


def _decoy_query() -> DnsMessage:
    label = IdentifierCodec().encode(DecoyIdentity(
        sent_at=86_461, vp_address="100.96.0.7", dst_address="8.8.8.8",
        ttl=9, sequence=42))
    return make_query(f"{label}.www.experiment.domain", txid=0x1A2B)


def _authoritative_a() -> DnsMessage:
    query = _decoy_query()
    return make_response(query, answers=(ResourceRecord(
        name=query.qname, rtype=QTYPE.A, ttl=60, rdata="198.51.100.7"),),
        authoritative=True)


def _cname_ns_chain() -> DnsMessage:
    return DnsMessage(
        header=DnsHeader(txid=0x0102, flags=FLAG_QR | 0x0180),
        questions=(DnsQuestion(qname="www.example.com"),),
        answers=(
            ResourceRecord("www.example.com", QTYPE.CNAME, 300,
                           "edge.cdn.example.com"),
            ResourceRecord("edge.cdn.example.com", QTYPE.CNAME, 300,
                           "edge.cdn.example.net"),
            ResourceRecord("edge.cdn.example.net", QTYPE.A, 30, "203.0.113.9"),
        ),
        authorities=(
            ResourceRecord("example.net", QTYPE.NS, 86400, "ns1.example.net"),
            ResourceRecord("example.net", QTYPE.NS, 86400, "ns2.example.net"),
        ),
        additionals=(
            ResourceRecord("ns1.example.net", QTYPE.A, 86400, "192.0.2.53"),
            ResourceRecord("NS2.Example.NET.", QTYPE.A, 86400, "192.0.2.54"),
        ),
    )


def _soa_nxdomain() -> DnsMessage:
    query = make_query("missing.www.experiment.domain", txid=0xBEEF,
                       recursion_desired=False)
    response = make_response(query, rcode=RCODE.NXDOMAIN, authoritative=True)
    return DnsMessage(
        header=response.header, questions=response.questions,
        authorities=(ResourceRecord(
            "www.experiment.domain", QTYPE.SOA, 300,
            "ns1.experiment.domain hostmaster.experiment.domain "
            "2024030101 7200 3600 1209600 300"),),
    )


def _txt() -> DnsMessage:
    query = make_query("_probe.www.experiment.domain", txid=0x7777,
                       qtype=QTYPE.TXT)
    return make_response(query, answers=(ResourceRecord(
        "_probe.www.experiment.domain", QTYPE.TXT, 120,
        "v=shadow1; seen=2024-03-01"),))


def _formerr() -> DnsMessage:
    query = make_query("bad.example.com", txid=0x3333,
                       recursion_desired=False)
    return make_response(query, rcode=RCODE.FORMERR)


def _suffix_pointers() -> DnsMessage:
    """Later names point at every suffix of the first name, which is
    written whole; rdata names point too, and the OPT record's root name
    is a single zero byte."""
    return DnsMessage(
        header=DnsHeader(txid=0x5150, flags=FLAG_QR | FLAG_AA),
        questions=(DnsQuestion(qname="A.B.Example.COM."),),
        answers=(
            ResourceRecord("b.example.com", QTYPE.CNAME, 60, "c.b.example.com"),
            ResourceRecord("example.com", QTYPE.NS, 60, "com"),
            ResourceRecord("com", QTYPE.A, 60, "192.0.2.1"),
            ResourceRecord("a.b.example.com", QTYPE.PTR, 60, "Z.example.COM"),
        ),
        additionals=(ResourceRecord("", OPT_RTYPE, 0, ""),),
    )


def _opt_and_hex_rdata() -> DnsMessage:
    query = with_edns(make_query("www.example.org", txid=0xFFFF,
                                 qtype=QTYPE.AAAA),
                      EdnsOptions(udp_payload_size=4096, dnssec_ok=True))
    return DnsMessage(
        header=query.header, questions=query.questions,
        additionals=query.additionals + (ResourceRecord(
            "www.example.org", QTYPE.AAAA, 3600,
            "20010db8000000000000000000000001"),),
    )


class TestGoldenBytes:
    """Wire bytes pinned byte for byte, so a change to compression,
    section counts or rdata layout shows up as a diff rather than as a
    round trip that still succeeds."""

    GOLDEN = {
        _decoy_query: (
            "1a2b010000010000000000001d6161617664706c656d6161616f63616962"
            "616561736e66712d30303432037777770a6578706572696d656e7406646f"
            "6d61696e0000010001"
        ),
        _authoritative_a: (
            "1a2b858000010001000000001d6161617664706c656d6161616f63616962"
            "616561736e66712d30303432037777770a6578706572696d656e7406646f"
            "6d61696e0000010001c00c000100010000003c0004c6336407"
        ),
        _cname_ns_chain: (
            "01028180000100030002000203777777076578616d706c6503636f6d0000"
            "010001c00c000500010000012c000b04656467650363646ec010c02d0005"
            "00010000012c001604656467650363646e076578616d706c65036e657400"
            "c044000100010000001e0004cb007109c04d00020001000151800006036e"
            "7331c04dc04d00020001000151800006036e7332c04dc076000100010001"
            "51800004c0000235c08800010001000151800004c0000236"
        ),
        _soa_nxdomain: (
            "beef84830001000000010000076d697373696e67037777770a6578706572"
            "696d656e7406646f6d61696e0000010001c014000600010000012c004903"
            "6e73310a6578706572696d656e7406646f6d61696e000a686f73746d6173"
            "7465720a6578706572696d656e7406646f6d61696e0078a43f9500001c20"
            "00000e10001275000000012c"
        ),
        _txt: (
            "777781800001000100000000065f70726f6265037777770a657870657269"
            "6d656e7406646f6d61696e0000100001c00c0010000100000078001b1a76"
            "3d736861646f77313b207365656e3d323032342d30332d3031"
        ),
        _opt_and_hex_rdata: (
            "ffff0100000100000000000203777777076578616d706c65036f72670000"
            "1c00010000291000000080000000c00c001c000100000e10001020010db8"
            "000000000000000000000001"
        ),
        _formerr: (
            "33338081000100000000000003626164076578616d706c6503636f6d0000"
            "010001"
        ),
        _suffix_pointers: (
            "51508400000100040000000101610162076578616d706c6503636f6d0000"
            "010001c00e000500010000003c00040163c00ec010000200010000003c00"
            "02c018c018000100010000003c0004c0000201c00c000c00010000003c00"
            "04017ac0100000290001000000000000"
        ),
    }

    @pytest.mark.parametrize("build", list(GOLDEN), ids=lambda b: b.__name__[1:])
    def test_encode_matches_golden_bytes(self, build):
        assert build().encode().hex() == self.GOLDEN[build]

    @pytest.mark.parametrize("build", list(GOLDEN), ids=lambda b: b.__name__[1:])
    def test_golden_bytes_decode_and_reencode(self, build):
        wire = bytes.fromhex(self.GOLDEN[build])
        assert DnsMessage.decode(wire).encode() == wire


ZONE = "www.experiment.domain"
HONEY_ADDRESSES = ("203.0.113.11", "203.0.113.21", "203.0.113.31")


def _served(wire: bytes) -> bytes:
    """What a fresh authoritative server for ``ZONE`` replies to ``wire``."""
    server = AuthoritativeServer(ZONE, HONEY_ADDRESSES, LogStore(), site="US")
    return server.handle_query(wire, "100.96.0.7", 5.0)


def _served_answer() -> bytes:
    return _served(_decoy_query().encode())


def _served_refused() -> bytes:
    return _served(make_query("WWW.Google.com.", txid=0x0909).encode())


def _served_no_question() -> bytes:
    return _served(DnsMessage(header=DnsHeader(txid=0x4242, flags=0x0100)).encode())


def _served_edns() -> bytes:
    """A decoy query carrying an OPT record: answered through the message
    codec, which drops the OPT record from the reply."""
    return _served(with_edns(_decoy_query(), EdnsOptions(dnssec_ok=True)).encode())


def _served_two_questions() -> bytes:
    """Answered for the first question, with both echoed."""
    query = _decoy_query()
    second = DnsQuestion(qname="Probe.WWW.Experiment.Domain.", qtype=QTYPE.TXT)
    return _served(DnsMessage(header=query.header,
                              questions=query.questions + (second,)).encode())


class TestServedGoldenBytes:
    """The authoritative server's replies, byte for byte: the wildcard A
    answer (its honey address chosen from three), REFUSED outside the
    zone, and FORMERR for a question-less query."""

    GOLDEN = {
        _served_answer: (
            "1a2b858000010001000000001d6161617664706c656d6161616f63616962"
            "616561736e66712d30303432037777770a6578706572696d656e7406646f"
            "6d61696e0000010001c00c0001000100000e100004cb00711f"
        ),
        _served_refused: (
            "0909818500010000000000000377777706676f6f676c6503636f6d000001"
            "0001"
        ),
        _served_no_question: "424281810000000000000000",
        _served_edns: (
            "1a2b858000010001000000001d6161617664706c656d6161616f63616962"
            "616561736e66712d30303432037777770a6578706572696d656e7406646f"
            "6d61696e0000010001c00c0001000100000e100004cb00711f"
        ),
        _served_two_questions: (
            "1a2b858000020001000000001d6161617664706c656d6161616f63616962"
            "616561736e66712d30303432037777770a6578706572696d656e7406646f"
            "6d61696e00000100010570726f6265c02a00100001c00c0001000100000e"
            "100004cb00711f"
        ),
    }

    @pytest.mark.parametrize("build", list(GOLDEN), ids=lambda b: b.__name__[1:])
    def test_reply_matches_golden_bytes(self, build):
        assert build().hex() == self.GOLDEN[build]


def _header(qd: int = 0, an: int = 0) -> bytes:
    return DnsHeader(txid=1, qdcount=qd, ancount=an).encode()


def _pointer_chain() -> bytes:
    """66 questions, each name a pointer to the one before; the first
    points at the header's zero last byte.  The last name takes 66 jumps,
    past the decoder's limit of 64."""
    questions = [b"\xc0\x0b\x00\x01\x00\x01"]
    for index in range(1, 66):
        target = 12 + 6 * (index - 1)
        questions.append((0xC000 | target).to_bytes(2, "big") + b"\x00\x01\x00\x01")
    return _header(qd=66) + b"".join(questions)


_QUERY = make_query("www.example.com", txid=1).encode()
_RECORD_HEAD = b"\x00\x00\x01\x00\x01\x00\x00\x00\x3c"
"""A root-named A record of class IN and TTL 60, up to its rdlength."""

DECODE_ERRORS = {
    "short-header": (_QUERY[:11], "DNS header needs 12 bytes, got 11"),
    "truncated-question": (_QUERY[:-1], "truncated question section"),
    "forward-pointer": (_header(qd=1) + b"\xc0\x20" + bytes(40),
                        "bad QNAME: forward compression pointer 32 at 12"),
    "pointer-loop": (_pointer_chain(), "bad QNAME: compression pointer loop"),
    "label-past-end": (_header(qd=1) + b"\x05ab",
                       "bad QNAME: label runs past end of message"),
    "name-past-end": (_header(qd=1) + b"\x03www",
                      "bad QNAME: name runs past end of message at offset 16"),
    "truncated-pointer": (_header(qd=1) + b"\xc0",
                          "bad QNAME: truncated compression pointer"),
    "reserved-label": (_header(qd=1) + b"\x80abc\x00\x00\x01\x00\x01",
                       "bad QNAME: reserved label type 0x80"),
    "non-ascii-label": (_header(qd=1) + b"\x02\xc3\xa9\x00\x00\x01\x00\x01",
                        "bad QNAME: non-ASCII label at offset 12"),
    "bad-record-name": (_header(an=1) + b"\x03abc",
                        "bad record name: name runs past end of message "
                        "at offset 16"),
    "truncated-record": (_header(an=1) + _RECORD_HEAD[:7],
                         "truncated resource record"),
    "rdata-past-end": (_header(an=1) + _RECORD_HEAD + b"\x00\x04\x01\x02",
                       "resource record rdata runs past message end"),
    "a-rdata-length": (_header(an=1) + _RECORD_HEAD + b"\x00\x03\x01\x02\x03",
                       "A record rdata must be 4 bytes, got 3"),
    "txt-malformed": (_header(an=1) + b"\x00\x00\x10" + _RECORD_HEAD[3:]
                      + b"\x00\x03\x05ab", "malformed TXT rdata"),
}


class TestDecodeErrors:
    """Malformed wires fail with these exact messages."""

    @pytest.mark.parametrize("case", list(DECODE_ERRORS))
    def test_message(self, case):
        wire, message = DECODE_ERRORS[case]
        with pytest.raises(PacketDecodeError) as caught:
            DnsMessage.decode(wire)
        assert str(caught.value) == message


CASES = 300
_LABEL_CHARS = string.ascii_letters + string.digits + "-_"


def _label(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(_LABEL_CHARS) for _ in range(size))


def _generated_name(rng: random.Random, zone: str = "") -> str:
    """A valid name of mixed case, sometimes with a trailing dot: the
    root, the zone apex, 63-byte labels, a 253-character name (255 wire
    bytes) or random labels, under ``zone`` when one is given."""
    shape = rng.randrange(5)
    room = 253 - (len(zone) + 1 if zone else 0)
    if shape == 0:
        labels = []
    elif shape == 1:
        labels = [_label(rng, 63) for _ in range(rng.randint(1, room // 64))]
    elif shape == 2:
        labels = []
        while room - 64 >= 1:
            labels.append(_label(rng, 63))
            room -= 64
        labels.append(_label(rng, room))
    else:
        labels = [_label(rng, rng.randint(1, 20)) for _ in range(rng.randint(1, 4))]
    name = ".".join(labels + ([zone] if zone else []))
    if rng.random() < 0.5:
        name = "".join(c.upper() if rng.random() < 0.3 else c for c in name)
    if name and rng.random() < 0.3:
        name += "."
    return name


def _raw_query(txid: int, flags: int, name: str, qtype: int, qclass: int,
               tail: bytes = b"") -> bytes:
    """One-question query bytes with the name's labels as given: upper
    case stays upper case on the wire."""
    labels = [label for label in name.split(".") if label]
    return (DnsHeader(txid=txid, flags=flags, qdcount=1).encode()
            + b"".join(bytes([len(label)]) + label.encode() for label in labels)
            + b"\x00" + struct.pack("!HH", qtype, qclass) + tail)


class TestQueryWriter:
    """``encode_query`` writes exactly what ``make_query(...).encode()``
    writes, and fails exactly where it fails."""

    def test_equals_make_query(self):
        rng = random.Random(28)
        for case in range(CASES):
            name = _generated_name(rng, ZONE if case % 2 else "")
            txid = rng.choice((0, 1, 0xFFFE, 0xFFFF, rng.randrange(0x10000)))
            qtype = rng.choice(list(QTYPE))
            rd = rng.random() < 0.5
            assert (encode_query(name, txid, qtype, recursion_desired=rd)
                    == make_query(name, txid, qtype, recursion_desired=rd).encode())
        assert encode_query("", 0) == make_query("", 0).encode()

    @pytest.mark.parametrize("name, txid", [
        ("a" * 63 + "." + "b" * 63 + "." + "c" * 63 + "." + "d" * 63, 1),
        ("x." * 127 + "x", 1),
        ("a..example.com", 1),
        (".example.com", 1),
        ("café.example.com", 1),
        ("a" * 64 + ".example.com", 1),
        ("www.example.com", -1),
        ("www.example.com", 0x10000),
    ], ids=["name-256-bytes", "name-257-bytes", "empty-label", "leading-dot",
            "non-ascii", "long-label", "txid-negative", "txid-too-large"])
    def test_raises_what_make_query_raises(self, name, txid):
        with pytest.raises(Exception) as expected:
            make_query(name, txid=txid).encode()
        with pytest.raises(type(expected.value)) as caught:
            encode_query(name, txid=txid)
        assert str(caught.value) == str(expected.value)


class TestQueryReader:
    """``read_query`` returns what ``DnsMessage.decode`` reads from a
    one-question query, and None for any other shape."""

    def test_reads_what_decode_reads(self):
        rng = random.Random(29)
        for _ in range(CASES):
            tail = bytes(rng.randrange(256) for _ in range(rng.choice((0, 0, 3))))
            wire = _raw_query(rng.randrange(0x10000), rng.randrange(0x10000),
                              _generated_name(rng, ZONE), rng.randrange(0x10000),
                              rng.randrange(0x10000), tail)
            message = DnsMessage.decode(wire)
            question = message.questions[0]
            assert read_query(wire) == (message.header.txid, message.header.flags,
                                        question.qname, question.qtype,
                                        question.qclass)

    def test_other_shapes_are_not_read(self):
        query = _decoy_query()
        answered = _authoritative_a()
        for message in (
            DnsMessage(header=DnsHeader(txid=7)),
            DnsMessage(header=query.header,
                       questions=query.questions + query.questions),
            with_edns(query),
            answered,
        ):
            assert read_query(message.encode()) is None


def _server(log: LogStore) -> AuthoritativeServer:
    return AuthoritativeServer(ZONE, HONEY_ADDRESSES, log, site="DE",
                               record_ttl=86_400)


class TestServedFromBytes:
    """The server's byte path answers and logs as the message path does."""

    def test_in_zone_queries_match_the_message_path(self):
        rng = random.Random(30)
        for case in range(CASES):
            wire = _raw_query(rng.randrange(0x10000), rng.randrange(0x10000),
                              _generated_name(rng, ZONE), rng.randrange(0x10000),
                              rng.randrange(0x10000))
            log = LogStore()
            reply = _server(log).handle_query(wire, "100.96.0.7", float(case))
            query = DnsMessage.decode(wire)
            qname = query.qname
            address = HONEY_ADDRESSES[sum(qname.encode()) % 3]
            assert reply == make_response(query, answers=(ResourceRecord(
                qname, QTYPE.A, 86_400, address),), authoritative=True).encode()
            assert list(log.all()) == [LoggedRequest(
                time=float(case), site="DE", protocol=PROTOCOL_DNS,
                src_address="100.96.0.7", domain=qname,
                qtype=query.questions[0].qtype)]

    def test_root_name_answer_is_not_a_pointer(self):
        """The root name registers no suffix, so the answer repeats it."""
        server = AuthoritativeServer("", HONEY_ADDRESSES, LogStore(), site="US")
        wire = make_query("", txid=3).encode()
        assert server.handle_query(wire, "100.96.0.7", 1.0) == make_response(
            DnsMessage.decode(wire), answers=(ResourceRecord(
                "", QTYPE.A, 3600, HONEY_ADDRESSES[0]),), authoritative=True).encode()

    @pytest.mark.parametrize("case", list(DECODE_ERRORS))
    def test_malformed_wire_raises_what_decode_raises(self, case):
        wire, message = DECODE_ERRORS[case]
        log = LogStore()
        with pytest.raises(PacketDecodeError) as caught:
            _server(log).handle_query(wire, "100.96.0.7", 1.0)
        assert str(caught.value) == message
        assert len(log) == 0

    @pytest.mark.parametrize("case", list(DECODE_ERRORS))
    def test_sniffer_reads_no_domain_from_malformed_wire(self, case):
        wire, _ = DECODE_ERRORS[case]
        packet = Packet.udp(src="100.96.0.7", dst="8.8.8.8", ttl=9,
                            src_port=40000, dst_port=53, payload=wire)
        assert extract_domain(packet) is None


def _extract_by_message(packet: Packet):
    """What a sniffer read from a DNS payload through the message codec."""
    if packet.ip.protocol == PROTO_UDP and packet.transport.dst_port == 53:
        qname = DnsMessage.decode(packet.payload).qname
        return ("dns", qname) if qname else None
    return extract_domain(packet)


class TestSnifferParse:
    def test_every_dns_decoy_shape_reads_as_the_message_path(self):
        factory = DecoyFactory(ZONE, random.Random(31), doh_adoption=0.5,
                               doh_streams=SubstreamFactory(31, "doh"))
        shapes = set()
        for sequence in range(60):
            identity = DecoyIdentity(sent_at=86_400 + sequence,
                                     vp_address="100.96.0.7",
                                     dst_address="8.8.8.8",
                                     ttl=1 + sequence % 30, sequence=sequence)
            decoy = factory.build(identity, "dns")
            shapes.add(decoy.mitigation)
            extracted = extract_domain(decoy.packet)
            assert extracted == _extract_by_message(decoy.packet)
            if decoy.mitigation == "none":
                assert extracted == ("dns", decoy.domain)
        assert shapes == {"none", "doh"}

    def test_other_query_shapes_fall_back_to_the_message_codec(self):
        query = _decoy_query()
        for wire in (
            with_edns(query).encode(),
            DnsMessage(header=query.header,
                       questions=query.questions + query.questions).encode(),
            DnsMessage(header=DnsHeader(txid=7)).encode(),
            make_query("", txid=7).encode(),
        ):
            packet = Packet.udp(src="100.96.0.7", dst="8.8.8.8", ttl=9,
                                src_port=40000, dst_port=53, payload=wire)
            assert extract_domain(packet) == _extract_by_message(packet)
