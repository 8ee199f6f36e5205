"""Tests for ICMP Time-Exceeded and the path transit engine."""

import pytest

from repro.net import (
    Hop,
    IcmpTimeExceeded,
    Packet,
    PacketDecodeError,
    Path,
    TransitError,
    TransitOutcome,
)


def make_path(n_hops: int = 5, silent: set = frozenset()) -> Path:
    """Path of n_hops: routers at 10.0.0.x, destination 8.8.8.8."""
    hops = [
        Hop(address=f"10.0.0.{index}", asn=100 + index, country="US",
            responds_icmp=index not in silent)
        for index in range(1, n_hops)
    ]
    hops.append(Hop(address="8.8.8.8", asn=15169, country="US", is_destination=True))
    return Path(hops)


def decoy_packet(ttl: int) -> Packet:
    return Packet.udp(src="192.0.2.1", dst="8.8.8.8", ttl=ttl,
                      src_port=40000, dst_port=53, payload=b"decoy-payload")


class TestIcmp:
    def test_roundtrip(self):
        expired = decoy_packet(ttl=3)
        icmp = IcmpTimeExceeded.for_packet("10.0.0.3", expired)
        decoded = IcmpTimeExceeded.decode("10.0.0.3", icmp.encode())
        assert decoded.reporter == "10.0.0.3"
        assert decoded.quoted_header.src == "192.0.2.1"
        assert decoded.quoted_header.dst == "8.8.8.8"

    def test_quotes_first_payload_bytes(self):
        expired = decoy_packet(ttl=3)
        icmp = IcmpTimeExceeded.for_packet("10.0.0.3", expired)
        assert icmp.quoted_payload == expired.transport.encode()[:8]

    def test_decode_rejects_wrong_type(self):
        raw = bytearray(IcmpTimeExceeded.for_packet("10.0.0.3", decoy_packet(3)).encode())
        raw[0] = 3  # destination unreachable
        with pytest.raises(PacketDecodeError):
            IcmpTimeExceeded.decode("10.0.0.3", bytes(raw))

    def test_decode_rejects_short_message(self):
        with pytest.raises(PacketDecodeError):
            IcmpTimeExceeded.decode("10.0.0.3", b"\x0b\x00\x00\x00")


class TestPathConstruction:
    def test_requires_destination_last(self):
        with pytest.raises(TransitError):
            Path([Hop(address="10.0.0.1", asn=1, country="US")])

    def test_rejects_destination_mid_path(self):
        hops = [
            Hop(address="10.0.0.1", asn=1, country="US", is_destination=True),
            Hop(address="8.8.8.8", asn=2, country="US", is_destination=True),
        ]
        with pytest.raises(TransitError):
            Path(hops)

    def test_rejects_empty(self):
        with pytest.raises(TransitError):
            Path([])

    def test_hop_at_and_position_of(self):
        path = make_path(4)
        assert path.hop_at(1).address == "10.0.0.1"
        assert path.hop_at(4).address == "8.8.8.8"
        assert path.position_of("10.0.0.2") == 2
        assert path.position_of("1.2.3.4") is None
        with pytest.raises(TransitError):
            path.hop_at(0)
        with pytest.raises(TransitError):
            path.hop_at(5)


class TestTransit:
    def test_sufficient_ttl_delivers(self):
        path = make_path(5)
        result = path.transit(decoy_packet(ttl=64))
        assert result.outcome is TransitOutcome.DELIVERED
        assert result.final_position == 5
        assert result.icmp is None

    def test_exact_ttl_delivers(self):
        path = make_path(5)
        result = path.transit(decoy_packet(ttl=5))
        assert result.delivered

    def test_short_ttl_expires_at_that_hop(self):
        path = make_path(5)
        result = path.transit(decoy_packet(ttl=3))
        assert result.outcome is TransitOutcome.EXPIRED
        assert result.final_position == 3
        assert result.icmp is not None
        assert result.icmp.reporter == "10.0.0.3"

    def test_icmp_quotes_sender_addresses(self):
        path = make_path(5)
        result = path.transit(decoy_packet(ttl=2))
        assert result.icmp.quoted_header.src == "192.0.2.1"

    def test_silent_hop_returns_no_icmp(self):
        path = make_path(5, silent={2})
        result = path.transit(decoy_packet(ttl=2))
        assert result.outcome is TransitOutcome.EXPIRED
        assert result.icmp is None

    def test_zero_ttl_cannot_leave_vp(self):
        path = make_path(3)
        with pytest.raises(TransitError):
            path.transit(decoy_packet(ttl=1).with_ttl(0))

    def test_observed_by_lists_hops_up_to_expiry(self):
        path = make_path(5)
        result = path.transit(decoy_packet(ttl=3))
        assert [position for position, _ in result.observed_by] == [1, 2, 3]

    def test_observed_by_includes_destination_on_delivery(self):
        path = make_path(4)
        result = path.transit(decoy_packet(ttl=64))
        assert [position for position, _ in result.observed_by] == [1, 2, 3, 4]


class TestTaps:
    def test_tap_sees_packets_reaching_its_hop(self):
        path = make_path(5)
        captured = []
        path.add_tap(3, lambda position, hop, packet: captured.append(packet.ip.ttl))
        path.transit(decoy_packet(ttl=64))
        path.transit(decoy_packet(ttl=3))
        assert len(captured) == 2

    def test_tap_misses_packets_expiring_earlier(self):
        path = make_path(5)
        captured = []
        path.add_tap(4, lambda position, hop, packet: captured.append(1))
        path.transit(decoy_packet(ttl=3))
        assert captured == []

    def test_minimal_triggering_ttl_equals_tap_position(self):
        """The core Phase II property: an observer at hop t is first reached
        at initial TTL exactly t."""
        path = make_path(8)
        captured = []
        path.add_tap(5, lambda position, hop, packet: captured.append(1))
        for ttl in range(1, 9):
            captured.clear()
            path.transit(decoy_packet(ttl=ttl))
            assert bool(captured) == (ttl >= 5)

    def test_tap_position_validated(self):
        path = make_path(3)
        with pytest.raises(TransitError):
            path.add_tap(9, lambda position, hop, packet: None)


class TestTransitBytes:
    """What each hop reads is the sent packet with only the TTL lowered."""

    HOPS = 6

    @staticmethod
    def without_ttl(packet: Packet) -> bytes:
        """Wire bytes minus the TTL byte and the header checksum it moves."""
        wire = packet.encode()
        return wire[:8] + wire[9:10] + wire[12:]

    def test_tap_at_every_hop_sees_ttl_minus_hops_crossed(self):
        for ttl in range(1, self.HOPS + 2):
            sent = decoy_packet(ttl=ttl)
            for position in range(1, self.HOPS + 1):
                path = make_path(self.HOPS)
                captured = []
                path.add_tap(position, lambda p, hop, packet: captured.append(packet))
                path.transit(sent)
                if position > ttl:
                    assert captured == []
                    continue
                (seen,) = captured
                assert seen.ip.ttl == ttl - position + 1
                assert self.without_ttl(seen) == self.without_ttl(sent)
                assert Packet.decode(seen.encode()) == seen

    def test_taps_fire_in_path_order_and_attachment_order(self):
        path = make_path(self.HOPS)
        fired = []
        for position, name in ((4, "d"), (2, "b1"), (5, "e"), (2, "b2"), (1, "a")):
            path.add_tap(position, lambda p, hop, packet, name=name:
                         fired.append((name, p, hop.address, packet.ip.ttl)))
        path.transit(decoy_packet(ttl=64))
        assert fired == [
            ("a", 1, "10.0.0.1", 64),
            ("b1", 2, "10.0.0.2", 63),
            ("b2", 2, "10.0.0.2", 63),
            ("d", 4, "10.0.0.4", 61),
            ("e", 5, "10.0.0.5", 60),
        ]

    def test_icmp_quotes_ttl_one_and_first_transport_bytes(self):
        for ttl in range(1, self.HOPS):
            sent = decoy_packet(ttl=ttl)
            result = make_path(self.HOPS).transit(sent)
            assert result.outcome is TransitOutcome.EXPIRED
            quoted = result.icmp.quoted_header
            assert quoted.ttl == 1
            assert (quoted.src, quoted.dst, quoted.protocol, quoted.payload_length) == (
                sent.ip.src, sent.ip.dst, sent.ip.protocol, sent.ip.payload_length)
            assert result.icmp.quoted_payload == sent.transport.encode()[:8]
            decoded = IcmpTimeExceeded.decode(result.icmp.reporter, result.icmp.encode())
            assert decoded.quoted_header == quoted

    def test_loss_fires_taps_before_the_lost_link_only(self):
        for loss_at in range(1, self.HOPS + 1):
            path = make_path(self.HOPS)
            fired = []
            for position in range(1, self.HOPS + 1):
                path.add_tap(position, lambda p, hop, packet: fired.append(p))
            for ttl in (loss_at, self.HOPS, 64):
                fired.clear()
                result = path.transit(decoy_packet(ttl=ttl), loss_at=loss_at)
                assert result.outcome is TransitOutcome.LOST
                assert result.icmp is None
                assert result.final_position == loss_at - 1
                assert fired == list(range(1, loss_at))
                assert [p for p, _ in result.observed_by] == fired

    def test_loss_beyond_expiry_is_moot(self):
        path = make_path(self.HOPS)
        result = path.transit(decoy_packet(ttl=3), loss_at=4)
        assert result.outcome is TransitOutcome.EXPIRED
        assert result.icmp is not None
        assert result.icmp.reporter == "10.0.0.3"
