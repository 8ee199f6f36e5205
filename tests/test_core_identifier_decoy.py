"""Tests for the identifier codec and decoy factory."""

import random
import traceback

import pytest

from repro.core.decoy import Decoy, DecoyFactory
from repro.core.identifier import (
    LABEL_LENGTH,
    DecoyIdentity,
    IdentifierCodec,
    IdentifierError,
    crc16_ccitt,
)
from repro.net.addr import InvalidAddressError
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.observers.onpath import extract_domain
from repro.protocols.dns import DnsMessage
from repro.protocols.dns.names import MAX_LABEL_LENGTH

ZONE = "www.experiment.domain"


def make_identity(**overrides) -> DecoyIdentity:
    defaults = dict(sent_at=123456, vp_address="100.96.0.7",
                    dst_address="8.8.8.8", ttl=64, sequence=42)
    defaults.update(overrides)
    return DecoyIdentity(**defaults)


class TestCrc16:
    def test_known_value(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF


class TestIdentifierCodec:
    def setup_method(self):
        self.codec = IdentifierCodec()

    def test_roundtrip(self):
        identity = make_identity()
        assert self.codec.decode(self.codec.encode(identity)) == identity

    def test_roundtrip_extremes(self):
        for identity in (
            make_identity(sent_at=0, ttl=1, sequence=0),
            make_identity(sent_at=0xFFFFFFFF, ttl=255, sequence=9999),
            make_identity(vp_address="0.0.0.0", dst_address="255.255.255.255"),
        ):
            assert self.codec.decode(self.codec.encode(identity)) == identity

    def test_label_fits_dns_limit(self):
        for identity in (make_identity(sequence=0), make_identity(sequence=9999)):
            label = self.codec.encode(identity)
            assert len(label) == LABEL_LENGTH <= MAX_LABEL_LENGTH

    def test_encode_rejects_malformed_addresses(self):
        # Twice: the memoized address parse must not cache a failure away.
        for _ in range(2):
            with pytest.raises(InvalidAddressError):
                self.codec.encode(make_identity(vp_address="10.0.0.01"))
            with pytest.raises(InvalidAddressError):
                self.codec.encode(make_identity(dst_address="8.8.8"))

    def test_label_is_valid_dns_label_charset(self):
        label = self.codec.encode(make_identity())
        assert all(char.isalnum() or char == "-" for char in label)

    def test_different_ttls_yield_different_labels(self):
        labels = {self.codec.encode(make_identity(ttl=ttl)) for ttl in range(1, 65)}
        assert len(labels) == 64

    def test_corruption_detected(self):
        label = self.codec.encode(make_identity())
        flipped = ("a" if label[0] != "a" else "b") + label[1:]
        with pytest.raises(IdentifierError):
            self.codec.decode(flipped)

    def test_rejects_missing_sequence(self):
        with pytest.raises(IdentifierError):
            self.codec.decode("abcdef")

    def test_rejects_non_base32(self):
        with pytest.raises(IdentifierError):
            self.codec.decode("!!invalid!!-0001")

    def test_rejects_wrong_length(self):
        with pytest.raises(IdentifierError):
            self.codec.decode("ge-0001")

    @pytest.mark.parametrize("decode", [
        lambda codec: codec.decode("notalabel"),
        lambda codec: codec.decode_domain(f"probe.notalabel.{ZONE}", ZONE),
    ], ids=["label", "domain"])
    def test_memoized_failure_raises_a_fresh_error(self, decode):
        # Failures are memoized; re-raising one cached instance would add
        # every raise's frames to its traceback and keep them alive.
        errors = []
        for _ in range(5):
            with pytest.raises(IdentifierError) as excinfo:
                decode(self.codec)
            errors.append(excinfo.value)
        depths = [len(traceback.extract_tb(error.__traceback__))
                  for error in errors]
        assert depths == [depths[0]] * 5
        assert len({id(error) for error in errors}) == 5
        assert len({str(error) for error in errors}) == 1

    def test_decode_domain(self):
        identity = make_identity()
        domain = f"{self.codec.encode(identity)}.{ZONE}"
        assert self.codec.decode_domain(domain, ZONE) == identity

    def test_decode_domain_with_trailing_dot_and_case(self):
        identity = make_identity()
        domain = f"{self.codec.encode(identity)}.{ZONE}".upper() + "."
        assert self.codec.decode_domain(domain, ZONE) == identity

    def test_decode_domain_outside_zone_rejected(self):
        with pytest.raises(IdentifierError):
            self.codec.decode_domain("foo.example.com", ZONE)

    def test_identity_validation(self):
        with pytest.raises(IdentifierError):
            make_identity(ttl=256)
        with pytest.raises(IdentifierError):
            make_identity(sequence=10000)
        with pytest.raises(IdentifierError):
            make_identity(sent_at=-1)

    def test_rejects_non_canonical_sequence_suffixes(self):
        # encode() always emits exactly four digits; shorter or longer
        # digit runs must NOT decode, or "…-1", "…-01", and "…-00001"
        # would all alias onto the identity of "…-0001" and misattribute
        # foreign traffic to a decoy (regression).
        token = self.codec.encode(make_identity(sequence=1)).rsplit("-", 1)[0]
        for suffix in ("1", "01", "001", "00001", "000001"):
            with pytest.raises(IdentifierError):
                self.codec.decode(f"{token}-{suffix}")
        assert self.codec.decode(f"{token}-0001").sequence == 1

    def test_canonical_four_digit_sequences_still_decode(self):
        for sequence in (0, 1, 42, 9999):
            identity = make_identity(sequence=sequence)
            assert self.codec.decode(self.codec.encode(identity)) == identity

    def test_decode_domain_with_prepended_third_party_label(self):
        # Probing third parties prepend their own labels before replaying
        # a name; the identifier is then no longer leftmost, but it must
        # still be found and decoded (regression).
        identity = make_identity()
        label = self.codec.encode(identity)
        for mangled in (
            f"probe.{label}.{ZONE}",
            f"a.b.{label}.{ZONE}",
            f"{label}.extra.{ZONE}",
        ):
            assert self.codec.decode_domain(mangled, ZONE) == identity

    def test_decode_domain_all_foreign_labels_rejected(self):
        with pytest.raises(IdentifierError):
            self.codec.decode_domain(f"scan.probe.{ZONE}", ZONE)


class TestDecoyFactory:
    def setup_method(self):
        self.factory = DecoyFactory(ZONE, random.Random(1))

    def test_dns_decoy_structure(self):
        decoy = self.factory.build(make_identity(), "dns")
        assert decoy.packet.ip.protocol == PROTO_UDP
        assert decoy.packet.transport.dst_port == 53
        message = DnsMessage.decode(decoy.packet.payload)
        assert message.qname == decoy.domain

    def test_http_decoy_structure(self):
        decoy = self.factory.build(make_identity(), "http")
        assert decoy.packet.ip.protocol == PROTO_TCP
        assert decoy.packet.transport.dst_port == 80
        assert extract_domain(decoy.packet) == ("http", decoy.domain)

    def test_tls_decoy_structure(self):
        decoy = self.factory.build(make_identity(), "tls")
        assert decoy.packet.transport.dst_port == 443
        assert extract_domain(decoy.packet) == ("tls", decoy.domain)

    def test_packet_carries_identity_ttl_and_addresses(self):
        identity = make_identity(ttl=7)
        decoy = self.factory.build(identity, "dns")
        assert decoy.packet.ip.ttl == 7
        assert decoy.packet.ip.src == identity.vp_address
        assert decoy.packet.ip.dst == identity.dst_address

    def test_domain_decodes_back(self):
        identity = make_identity()
        decoy = self.factory.build(identity, "dns")
        assert self.factory.codec.decode_domain(decoy.domain, ZONE) == identity

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            self.factory.build(make_identity(), "ftp")

    def test_wire_bytes_roundtrip(self):
        decoy = self.factory.build(make_identity(), "dns")
        assert Packet.decode(decoy.packet.encode()) == decoy.packet

    def test_decoy_dataclass_validates_protocol(self):
        decoy = self.factory.build(make_identity(), "dns")
        with pytest.raises(ValueError):
            Decoy(identity=decoy.identity, protocol="ftp",
                  domain=decoy.domain, packet=decoy.packet)
