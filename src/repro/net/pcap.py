"""libpcap capture files for simulated traffic.

Every packet in this reproduction is real bytes, so captures can be
written in the standard pcap format (LINKTYPE_RAW: each record is a raw
IPv4 packet) and opened in Wireshark/tcpdump for inspection — handy when
debugging observer behaviour or demonstrating what a DPI box actually
sees on the wire.

The format is the classic 24-byte global header plus 16-byte per-record
headers (https://wiki.wireshark.org/Development/LibpcapFileFormat).
"""

import struct
from typing import BinaryIO, Iterator, List, Tuple, Union

from repro.net.packet import Packet
from repro.records import frozen

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_RAW = 101  # raw IP; no link-layer header
_GLOBAL_HEADER_FMT = "<IHHiIII"
_RECORD_HEADER_FMT = "<IIII"
DEFAULT_SNAPLEN = 65_535


class PcapFormatError(ValueError):
    """Raised for files that do not parse as classic pcap."""


@frozen
class CapturedPacket:
    """One record read back from a capture."""

    timestamp: float
    data: bytes

    def decode(self) -> Packet:
        return Packet.decode(self.data)


class PcapWriter:
    """Streams packets into a classic pcap file."""

    def __init__(self, stream: BinaryIO, snaplen: int = DEFAULT_SNAPLEN):
        if snaplen < 1:
            raise ValueError(f"snaplen must be positive, got {snaplen}")
        self._stream = stream
        self.snaplen = snaplen
        self.packets_written = 0
        stream.write(struct.pack(
            _GLOBAL_HEADER_FMT, PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1],
            0,  # thiszone: virtual time is already zone-free
            0,  # sigfigs
            snaplen,
            LINKTYPE_RAW,
        ))

    def write(self, packet: Union[Packet, bytes], timestamp: float) -> None:
        """Append one packet at the given virtual timestamp."""
        if timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {timestamp}")
        data = packet.encode() if isinstance(packet, Packet) else packet
        captured = data[: self.snaplen]
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1_000_000))
        if microseconds >= 1_000_000:
            seconds += 1
            microseconds = 0
        self._stream.write(struct.pack(
            _RECORD_HEADER_FMT, seconds, microseconds, len(captured), len(data)
        ))
        self._stream.write(captured)
        self.packets_written += 1


def read_pcap(stream: BinaryIO) -> List[CapturedPacket]:
    """Read an entire classic pcap file back into memory."""
    header = stream.read(struct.calcsize(_GLOBAL_HEADER_FMT))
    if len(header) < struct.calcsize(_GLOBAL_HEADER_FMT):
        raise PcapFormatError("truncated global header")
    magic, major, minor, _zone, _sigfigs, _snaplen, linktype = struct.unpack(
        _GLOBAL_HEADER_FMT, header
    )
    if magic != PCAP_MAGIC:
        raise PcapFormatError(f"bad magic 0x{magic:08x} (byte-swapped files "
                              "are not supported)")
    if linktype != LINKTYPE_RAW:
        raise PcapFormatError(f"unsupported linktype {linktype}")
    packets: List[CapturedPacket] = []
    record_size = struct.calcsize(_RECORD_HEADER_FMT)
    while True:
        record = stream.read(record_size)
        if not record:
            break
        if len(record) < record_size:
            raise PcapFormatError("truncated record header")
        seconds, microseconds, captured_length, _original = struct.unpack(
            _RECORD_HEADER_FMT, record
        )
        data = stream.read(captured_length)
        if len(data) < captured_length:
            raise PcapFormatError("truncated record body")
        packets.append(CapturedPacket(
            timestamp=seconds + microseconds / 1_000_000, data=data,
        ))
    return packets


class CaptureTap:
    """A path tap that mirrors transiting packets into a PcapWriter.

    Attach at any hop; pairs with a clock callable so records carry
    virtual time::

        tap = CaptureTap(writer, sim.now)
        path.add_tap(3, tap)
    """

    def __init__(self, writer: PcapWriter, clock):
        self._writer = writer
        self._clock = clock

    def __call__(self, position: int, hop, packet: Packet) -> None:
        self._writer.write(packet, self._clock())
