"""Tests for pcap capture files and the incremental HTTP parser."""

import io
import struct

import pytest

from repro.net.packet import Packet
from repro.net.path import Hop, Path
from repro.net.pcap import (
    CaptureTap,
    LINKTYPE_RAW,
    PCAP_MAGIC,
    PcapFormatError,
    PcapWriter,
    read_pcap,
)
from repro.protocols.http import HttpMessageError, make_get
from repro.protocols.http.incremental import HttpRequestParser


def sample_packet(ttl=64):
    return Packet.udp("100.96.0.1", "8.8.8.8", ttl, 40000, 53, b"query-bytes")


class TestPcapWriter:
    def test_global_header_shape(self):
        stream = io.BytesIO()
        PcapWriter(stream)
        header = stream.getvalue()
        magic, major, minor, _, _, snaplen, linktype = struct.unpack(
            "<IHHiIII", header
        )
        assert magic == PCAP_MAGIC
        assert (major, minor) == (2, 4)
        assert linktype == LINKTYPE_RAW

    def test_roundtrip(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write(sample_packet(), timestamp=12.5)
        writer.write(sample_packet(ttl=3), timestamp=99.000001)
        stream.seek(0)
        captured = read_pcap(stream)
        assert len(captured) == 2
        assert captured[0].timestamp == pytest.approx(12.5)
        assert captured[0].decode() == sample_packet()
        assert captured[1].decode().ip.ttl == 3

    def test_snaplen_truncates(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream, snaplen=10)
        writer.write(sample_packet(), timestamp=1.0)
        stream.seek(0)
        captured = read_pcap(stream)
        assert len(captured[0].data) == 10

    def test_raw_bytes_accepted(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write(b"\x45\x00rawbytes", timestamp=0.0)
        stream.seek(0)
        assert read_pcap(stream)[0].data.startswith(b"\x45")

    def test_negative_timestamp_rejected(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(ValueError):
            writer.write(sample_packet(), timestamp=-1.0)

    def test_reader_rejects_bad_magic(self):
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(b"\x00" * 24))

    def test_reader_rejects_truncated_record(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write(sample_packet(), timestamp=1.0)
        data = stream.getvalue()[:-4]
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(data))

    def test_capture_tap_on_path(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        now = [42.0]
        hops = [
            Hop("10.0.0.1", 1, "US"),
            Hop("8.8.8.8", 2, "US", is_destination=True),
        ]
        path = Path(hops)
        path.add_tap(1, CaptureTap(writer, lambda: now[0]))
        path.transit(sample_packet())
        stream.seek(0)
        captured = read_pcap(stream)
        assert len(captured) == 1
        assert captured[0].timestamp == pytest.approx(42.0)
        assert captured[0].decode().payload == b"query-bytes"


class TestIncrementalHttp:
    def test_single_feed(self):
        parser = HttpRequestParser()
        requests = parser.feed(make_get("a.example").encode())
        assert [request.host for request in requests] == ["a.example"]

    def test_byte_at_a_time(self):
        parser = HttpRequestParser()
        wire = make_get("slow.example").encode()
        collected = []
        for index in range(len(wire)):
            collected += parser.feed(wire[index:index + 1])
        assert len(collected) == 1
        assert collected[0].host == "slow.example"
        assert parser.buffered == 0

    def test_pipelined_requests(self):
        parser = HttpRequestParser()
        wire = make_get("one.example").encode() + make_get("two.example").encode()
        requests = parser.feed(wire)
        assert [request.host for request in requests] == ["one.example", "two.example"]

    def test_body_framing(self):
        parser = HttpRequestParser()
        from repro.protocols.http import HttpRequest
        request = HttpRequest(method="POST", path="/submit",
                              headers=(("Host", "x.example"),), body=b"hello")
        wire = request.encode()
        assert parser.feed(wire[:-3]) == []
        completed = parser.feed(wire[-3:])
        assert completed[0].body == b"hello"

    def test_oversized_head_rejected(self):
        parser = HttpRequestParser(max_head_bytes=64)
        with pytest.raises(HttpMessageError):
            parser.feed(b"GET /" + b"a" * 100)

    def test_oversized_body_rejected(self):
        parser = HttpRequestParser(max_body_bytes=10)
        wire = (b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n")
        with pytest.raises(HttpMessageError):
            parser.feed(wire)

    def test_bad_content_length_rejected(self):
        parser = HttpRequestParser()
        with pytest.raises(HttpMessageError):
            parser.feed(b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n")

    def test_counter(self):
        parser = HttpRequestParser()
        parser.feed(make_get("a.example").encode())
        parser.feed(make_get("b.example").encode())
        assert parser.requests_parsed == 2


class TestCampaignCapture:
    def test_experiment_writes_decoy_pcap(self, tmp_path):
        from repro.core.config import ExperimentConfig
        from repro.core.experiment import Experiment
        from repro.net.pcap import read_pcap
        pcap_path = tmp_path / "decoys.pcap"
        config = ExperimentConfig.tiny(seed=454545)
        config.capture_pcap = str(pcap_path)
        result = Experiment(config).run()
        with pcap_path.open("rb") as handle:
            captured = read_pcap(handle)
        # One record per decoy sent (Phase I + Phase II probes).
        assert len(captured) == len(result.ledger)
        # Records decode back to valid packets with experiment addressing.
        sample = captured[0].decode()
        assert sample.ip.ttl >= 1
        timestamps = [packet.timestamp for packet in captured]
        assert timestamps == sorted(timestamps)

    def test_tiny_capture_pinned(self, tmp_path):
        """Every decoy byte on the wire: DNS queries, ClientHello
        randoms, transaction ids, ports and IP identifications."""
        from tests.make_pins import check, pcap_pin, tiny_capture
        check("pcap-tiny-20240301", pcap_pin(tiny_capture(tmp_path)))
