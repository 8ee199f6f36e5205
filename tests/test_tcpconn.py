"""Tests for TCP connection establishment over simulated paths."""

import random

import pytest

from repro.net.packet import PROTO_TCP, IPv4Header, Packet, TCPSegment
from repro.net.path import Hop, Path
from repro.net.tcpconn import HandshakeResult, TcpClient, TcpState


def make_path(n_hops: int = 5) -> Path:
    hops = [
        Hop(address=f"10.0.0.{index}", asn=100 + index, country="US")
        for index in range(1, n_hops)
    ]
    hops.append(Hop(address="93.184.216.34", asn=15133, country="US",
                    is_destination=True))
    return Path(hops)


def make_client(path=None, ttl=64) -> TcpClient:
    return TcpClient(
        path=path if path is not None else make_path(),
        src="100.96.0.1", src_port=40000, dst_port=80,
        rng=random.Random(1), ttl=ttl,
    )


class TestHandshake:
    def test_successful_handshake(self):
        client = make_client()
        result = client.connect()
        assert result.established
        assert client.state is TcpState.ESTABLISHED
        assert result.syn_delivered
        assert result.server_isn is not None

    def test_syn_expiry_fails_handshake(self):
        client = make_client(ttl=2)
        result = client.connect()
        assert not result.established
        assert client.state is TcpState.FAILED
        assert result.server_isn is None

    def test_connect_twice_raises(self):
        client = make_client()
        client.connect()
        with pytest.raises(RuntimeError):
            client.connect()

    def test_syn_packet_transits_taps(self):
        path = make_path()
        seen = []
        path.add_tap(2, lambda position, hop, packet: seen.append(packet))
        client = make_client(path=path)
        client.connect()
        # SYN and the final ACK both crossed hop 2.
        assert len(seen) == 2
        assert seen[0].transport.flags & TCPSegment.FLAG_SYN
        assert seen[0].payload == b""


class TestSend:
    def test_send_requires_established(self):
        client = make_client()
        with pytest.raises(RuntimeError):
            client.send(b"GET / HTTP/1.1\r\n\r\n")

    def test_send_delivers_payload(self):
        path = make_path()
        captured = []
        path.add_tap(3, lambda position, hop, packet: captured.append(packet.payload))
        client = make_client(path=path)
        client.connect()
        result = client.send(b"hello")
        assert result.delivered
        assert b"hello" in captured

    def test_sequence_numbers_advance(self):
        client = make_client()
        client.connect()
        first_seq = client._next_seq
        client.send(b"12345")
        assert client._next_seq == (first_seq + 5) & 0xFFFFFFFF

    def test_packets_carry_the_connection_numbers(self):
        """Every field of the SYN and of the data packet, as the first hop
        receives them: the SYN carries the client ISN, and the data
        segment the next sequence number and the server ISN + 1."""
        path = make_path()
        seen = []
        path.add_tap(1, lambda position, hop, packet: seen.append(packet))
        client = make_client(path=path, ttl=30)
        client.connect()
        client.send(b"hello")
        syn, _, data = seen

        def expected(length, segment):
            return Packet(IPv4Header("100.96.0.1", "93.184.216.34", 30,
                                     PROTO_TCP, 0, 20 + length), segment)

        assert syn == expected(0, TCPSegment(
            40000, 80, seq=client.client_isn, flags=TCPSegment.FLAG_SYN))
        assert data == expected(5, TCPSegment(
            40000, 80, seq=(client.client_isn + 1) & 0xFFFFFFFF,
            ack=(client.server_isn + 1) & 0xFFFFFFFF,
            flags=TCPSegment.FLAG_PSH | TCPSegment.FLAG_ACK, payload=b"hello"))

    def test_close_prevents_further_sends(self):
        client = make_client()
        client.connect()
        client.close()
        with pytest.raises(RuntimeError):
            client.send(b"x")

    def test_send_after_failed_handshake_raises(self):
        client = make_client(ttl=1)
        client.connect()
        with pytest.raises(RuntimeError):
            client.send(b"x")
