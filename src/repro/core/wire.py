"""Compact, versioned wire format for the worker↔supervisor data plane.

Every blob crossing a shard worker's pipe, the serve feed socket, or a
checkpoint directory is a purpose-built binary encoding:

* **String interning.**  Domains, addresses, VP ids, countries, protocol
  labels, and metric-like strings repeat across thousands of records; each
  payload carries one deduplicated string table and every record field is
  a varint reference into it.
* **Struct packing.**  Fixed-width floats use an 8-byte IEEE double
  (exact round trip); counts, indexes, and small integers are LEB128
  varints (zigzag where negatives occur); booleans are single bytes.
* **Raw output only.**  Shard payloads carry what a worker simulated —
  ledger records, log entries, counters — never derived state the
  supervisor can recompute: no correlation events cross the wire, since
  the supervisor correlates the merged log itself.  A final payload
  ships the ledger and log *tails* Phase II appended plus full
  telemetry and analysis snapshots, so it decodes on its own.

Every blob is framed ``MAGIC | version | kind | string table | body |
crc32`` and decoding is strict: truncation, trailing garbage, a bad
checksum, or an unknown version raises :class:`WireError` naming the
format version — never a silently wrong payload.

The wire format is a serialization of already-deterministic values, so
the digest contract of :mod:`repro.core.shard` is untouched: a payload
that round-trips through ``encode``/``decode`` merges into byte-identical
results (pinned by ``tests/test_wire.py``).
"""

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import StringTable
from repro.core.correlate import DecoyRecord
from repro.core.identifier import DecoyIdentity
from repro.core.phase2 import ObserverLocation
from repro.honeypot.logstore import LoggedRequest
from repro.observers.exhibitor import ObservationRecord
from repro.telemetry.spans import Span

WIRE_VERSION = 4
"""v4 dropped the Phase I payload's three vetting counts: workers fork
from the parent's vetted world, so there is nothing left to compare.
v3 dropped the Phase I payload's correlation, analysis and telemetry
sections and the final payload's deltas: a final blob ships full
telemetry and analysis snapshots and decodes without its Phase I blob.
v2 appended the decoy mitigation column to ledger records."""
_MAGIC = b"RWIR"

_KIND_PHASE1 = 1
_KIND_FINAL = 2
_KIND_PLAN = 3
_KIND_FEED = 4

_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

LedgerKey = Tuple[float, int, int, int]


class WireError(ValueError):
    """A blob is not a decodable wire-format payload of this version."""

    def __init__(self, message: str):
        super().__init__(f"wire format v{WIRE_VERSION}: {message}")


# -- payloads --------------------------------------------------------------
#
# The payload dataclasses live here because the wire format *is* their
# schema; :mod:`repro.core.shard` re-exports them under their historical
# names.


@dataclass
class ShardPhase1Payload:
    """Everything one shard produced during Phase I."""

    shard_index: int
    records: List[Tuple[LedgerKey, DecoyRecord]]
    log_entries: List[LoggedRequest]
    sends_planned: int
    sends_scheduled: int
    last_send_time: float
    virtual_now: float
    wall_seconds: float


@dataclass
class FeedBatch:
    """One framed unit of the live record feed (``repro serve``).

    A batch with ``context`` set is a *registration*: it announces a
    campaign and carries the static analysis context (zone, IP
    directory rows, blocklist) the session needs to resolve
    observations.  Data batches ship decoy registrations, honeypot log
    entries, and Phase II location verdicts; ``seq`` makes delivery
    idempotent — a session skips any batch at or below its high-water
    sequence, so a reconnecting feeder may simply resend.
    """

    campaign_id: str
    seq: int
    records: List[DecoyRecord] = field(default_factory=list)
    log_entries: List[LoggedRequest] = field(default_factory=list)
    locations: List[ObserverLocation] = field(default_factory=list)
    context: Optional[dict] = None
    """Registration context: ``{"zone", "directory", "blocklist",
    "meta"}`` — JSON, written once per campaign."""


@dataclass
class ShardFinalPayload:
    """Phase II tails plus final counters and snapshots from one shard."""

    shard_index: int
    records: List[Tuple[LedgerKey, DecoyRecord]]
    log_entries: List[LoggedRequest]
    """Entries appended after the Phase I snapshot."""
    locations: List[Tuple[int, ObserverLocation]]
    """(plan index, location) for traceroutes this shard ran."""
    ground_truth: List[Tuple[float, ObservationRecord]]
    label_counts: Dict[str, int]
    processed: int
    exhibitor_counts: Dict[str, Tuple[int, int]]
    """Exhibitor name -> (observed_count, leveraged_count)."""
    resolver_received: Dict[str, int]
    """Destination address -> decoys_received."""
    emitter_emitted: int
    virtual_now: float
    wall_seconds: float
    telemetry: Dict[str, dict] = field(default_factory=dict)
    """The shard's full registry snapshot (both phases)."""
    spans: List[Span] = field(default_factory=list)
    """Per-shard stage spans, tagged with the shard index."""
    analysis: Optional[dict] = None
    """The shard's final
    :class:`~repro.analysis.streaming.AnalysisState` snapshot; decoding
    rejects a blob without one."""


# -- primitive writer / reader ---------------------------------------------


class _Writer:
    """Appends wire primitives to a growing byte buffer."""

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()

    def varint(self, value: int) -> None:
        if value < 0:
            raise WireError(f"varint cannot encode negative value {value}")
        buf = self.buf
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def zigzag(self, value: int) -> None:
        self.varint(value * 2 if value >= 0 else -value * 2 - 1)

    def f64(self, value: float) -> None:
        self.buf += _F64.pack(value)

    def flag(self, value: bool) -> None:
        self.buf.append(1 if value else 0)

    def blob(self, data: bytes) -> None:
        self.varint(len(data))
        self.buf += data


class _Reader:
    """Strict sequential reader; every overrun is a :class:`WireError`."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def varint(self) -> int:
        data, pos, end = self.data, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise WireError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise WireError("varint overflow")
        self.pos = pos
        return result

    def zigzag(self) -> int:
        value = self.varint()
        return value // 2 if value % 2 == 0 else -(value + 1) // 2

    def f64(self) -> float:
        pos = self.pos
        if pos + 8 > self.end:
            raise WireError("truncated float")
        self.pos = pos + 8
        return _F64.unpack_from(self.data, pos)[0]

    def flag(self) -> bool:
        pos = self.pos
        if pos >= self.end:
            raise WireError("truncated flag")
        self.pos = pos + 1
        return self.data[pos] != 0

    def blob(self) -> bytes:
        length = self.varint()
        pos = self.pos
        if pos + length > self.end:
            raise WireError("truncated byte section")
        self.pos = pos + length
        return bytes(self.data[pos:pos + length])

    def done(self) -> bool:
        return self.pos == self.end


# -- string interning ------------------------------------------------------


class _Encoder:
    """Body writer plus the payload-wide string table it populates.

    References are assigned in first-use order while the body is written
    (the shared :class:`~repro.core.columnar.StringTable` — the same
    machinery the columnar in-memory stores intern through, so the wire
    format and the stores agree on ordering semantics by construction);
    :meth:`frame` then emits ``MAGIC | version | kind | table | body |
    crc32`` so the decoder can materialize every string up front.
    """

    __slots__ = ("body", "_table")

    def __init__(self):
        self.body = _Writer()
        self._table = StringTable()

    def ref(self, value: str) -> None:
        self.body.varint(self._table.intern(value))

    def opt_ref(self, value: Optional[str]) -> None:
        if value is None:
            self.body.varint(0)
        else:
            self.body.varint(self._table.intern(value) + 1)

    def frame(self, kind: int) -> bytes:
        head = _Writer()
        head.buf += _MAGIC
        head.buf.append(WIRE_VERSION)
        head.buf.append(kind)
        head.varint(len(self._table))
        for value in self._table.values():
            head.blob(value.encode("utf-8"))
        head.buf += self.body.buf
        head.buf += _U32.pack(zlib.crc32(head.buf))
        return bytes(head.buf)


class _Decoder(_Reader):
    """Reader with the payload's string table pre-materialized."""

    __slots__ = ("strings",)

    def __init__(self, data: bytes, start: int, end: int):
        super().__init__(data, start, end)
        count = self.varint()
        strings = []
        for _ in range(count):
            try:
                strings.append(self.blob().decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise WireError(f"malformed string table entry: {exc}") from None
        self.strings = strings

    def ref(self) -> str:
        ident = self.varint()
        try:
            return self.strings[ident]
        except IndexError:
            raise WireError(f"string reference {ident} out of table") from None

    def opt_ref(self) -> Optional[str]:
        ident = self.varint()
        if ident == 0:
            return None
        try:
            return self.strings[ident - 1]
        except IndexError:
            raise WireError(f"string reference {ident - 1} out of table") from None


def _open(blob: bytes, kind: int) -> _Decoder:
    if len(blob) < 10:
        raise WireError(f"blob of {len(blob)} bytes is too short to frame")
    if blob[:4] != _MAGIC:
        raise WireError(f"bad magic {bytes(blob[:4])!r}")
    if blob[4] != WIRE_VERSION:
        raise WireError(
            f"blob is wire version {blob[4]}; this build decodes version "
            f"{WIRE_VERSION}"
        )
    if _U32.unpack_from(blob, len(blob) - 4)[0] != zlib.crc32(blob[:-4]):
        raise WireError("checksum mismatch — blob is corrupt or truncated")
    if blob[5] != kind:
        raise WireError(f"expected payload kind {kind}, got {blob[5]}")
    return _Decoder(blob, 6, len(blob) - 4)


# -- field-group codecs ----------------------------------------------------


def _write_record(enc: _Encoder, key: LedgerKey, record: DecoyRecord) -> None:
    w = enc.body
    w.f64(key[0])
    w.varint(key[1])
    w.zigzag(key[2])
    w.zigzag(key[3])
    _write_bare_record(enc, record)


def _write_bare_record(enc: _Encoder, record: DecoyRecord) -> None:
    """A :class:`DecoyRecord` without a ledger key — feed batches carry
    registration order implicitly."""
    w = enc.body
    identity = record.identity
    w.varint(identity.sent_at)
    enc.ref(identity.vp_address)
    enc.ref(identity.dst_address)
    w.varint(identity.ttl)
    w.varint(identity.sequence)
    enc.ref(record.domain)
    enc.ref(record.protocol)
    enc.ref(record.vp_id)
    enc.ref(record.vp_country)
    enc.opt_ref(record.vp_province)
    enc.ref(record.destination_address)
    enc.ref(record.destination_name)
    enc.ref(record.destination_kind)
    enc.ref(record.destination_country)
    enc.ref(record.instance_country)
    w.varint(record.path_length)
    w.f64(record.sent_at)
    w.varint(record.phase)
    w.flag(record.delivered)
    w.varint(record.round_index)
    enc.ref(record.mitigation)


def _read_record(dec: _Decoder) -> Tuple[LedgerKey, DecoyRecord]:
    key = (dec.f64(), dec.varint(), dec.zigzag(), dec.zigzag())
    return key, _read_bare_record(dec)


def _read_bare_record(dec: _Decoder) -> DecoyRecord:
    identity = DecoyIdentity(
        sent_at=dec.varint(),
        vp_address=dec.ref(),
        dst_address=dec.ref(),
        ttl=dec.varint(),
        sequence=dec.varint(),
    )
    record = DecoyRecord(
        identity=identity,
        domain=dec.ref(),
        protocol=dec.ref(),
        vp_id=dec.ref(),
        vp_country=dec.ref(),
        vp_province=dec.opt_ref(),
        destination_address=dec.ref(),
        destination_name=dec.ref(),
        destination_kind=dec.ref(),
        destination_country=dec.ref(),
        instance_country=dec.ref(),
        path_length=dec.varint(),
        sent_at=dec.f64(),
        phase=dec.varint(),
        delivered=dec.flag(),
        round_index=dec.varint(),
        mitigation=dec.ref(),
    )
    return record


def _write_records(enc: _Encoder,
                   records: Sequence[Tuple[LedgerKey, DecoyRecord]]) -> None:
    enc.body.varint(len(records))
    for key, record in records:
        _write_record(enc, key, record)


def _read_records(dec: _Decoder) -> List[Tuple[LedgerKey, DecoyRecord]]:
    return [_read_record(dec) for _ in range(dec.varint())]


def _write_log_entry(enc: _Encoder, entry: LoggedRequest) -> None:
    w = enc.body
    w.f64(entry.time)
    enc.ref(entry.site)
    enc.ref(entry.protocol)
    enc.ref(entry.src_address)
    enc.ref(entry.domain)
    enc.opt_ref(entry.path)
    w.varint(0 if entry.qtype is None else entry.qtype + 1)
    enc.opt_ref(entry.user_agent)


def _read_log_entry(dec: _Decoder) -> LoggedRequest:
    time = dec.f64()
    site = dec.ref()
    protocol = dec.ref()
    src_address = dec.ref()
    domain = dec.ref()
    path = dec.opt_ref()
    qtype = dec.varint()
    user_agent = dec.opt_ref()
    return LoggedRequest(
        time=time, site=site, protocol=protocol, src_address=src_address,
        domain=domain, path=path,
        qtype=None if qtype == 0 else qtype - 1,
        user_agent=user_agent,
    )


def _write_log(enc: _Encoder, entries: Sequence[LoggedRequest]) -> None:
    enc.body.varint(len(entries))
    for entry in entries:
        _write_log_entry(enc, entry)


def _read_log(dec: _Decoder) -> List[LoggedRequest]:
    return [_read_log_entry(dec) for _ in range(dec.varint())]


def _write_spans(enc: _Encoder, spans: Sequence[Span]) -> None:
    enc.body.varint(len(spans))
    for span in spans:
        enc.ref(span.name)
        enc.body.f64(span.wall_seconds)
        enc.body.f64(span.virtual_start)
        enc.body.f64(span.virtual_end)
        enc.body.zigzag(span.shard)


def _read_spans(dec: _Decoder) -> List[Span]:
    return [
        Span(name=dec.ref(), wall_seconds=dec.f64(), virtual_start=dec.f64(),
             virtual_end=dec.f64(), shard=dec.zigzag())
        for _ in range(dec.varint())
    ]


def _write_location(enc: _Encoder, location: ObserverLocation) -> None:
    w = enc.body
    enc.ref(location.vp_id)
    enc.ref(location.vp_country)
    enc.ref(location.destination_address)
    enc.ref(location.destination_name)
    enc.ref(location.protocol)
    w.varint(location.path_length)
    w.varint(0 if location.trigger_ttl is None else location.trigger_ttl + 1)
    enc.opt_ref(location.observer_address)
    w.varint(0 if location.observer_asn is None else location.observer_asn + 1)
    enc.opt_ref(location.observer_country)


def _read_location(dec: _Decoder) -> ObserverLocation:
    vp_id = dec.ref()
    vp_country = dec.ref()
    destination_address = dec.ref()
    destination_name = dec.ref()
    protocol = dec.ref()
    path_length = dec.varint()
    trigger_ttl = dec.varint()
    observer_address = dec.opt_ref()
    observer_asn = dec.varint()
    observer_country = dec.opt_ref()
    return ObserverLocation(
        vp_id=vp_id, vp_country=vp_country,
        destination_address=destination_address,
        destination_name=destination_name, protocol=protocol,
        path_length=path_length,
        trigger_ttl=None if trigger_ttl == 0 else trigger_ttl - 1,
        observer_address=observer_address,
        observer_asn=None if observer_asn == 0 else observer_asn - 1,
        observer_country=observer_country,
    )


def _write_str_int_map(enc: _Encoder, mapping: Dict[str, int]) -> None:
    enc.body.varint(len(mapping))
    for key, value in mapping.items():
        enc.ref(key)
        enc.body.varint(value)


def _read_str_int_map(dec: _Decoder) -> Dict[str, int]:
    return {dec.ref(): dec.varint() for _ in range(dec.varint())}


def _write_json(enc: _Encoder, value) -> None:
    """A canonical-JSON section: telemetry/analysis snapshots are
    tree-shaped dicts the registry/accumulator code already round-trips
    through JSON (checkpoints, bundles)."""
    if value is None:
        enc.body.flag(False)
        return
    enc.body.flag(True)
    enc.body.blob(json.dumps(value, sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))


def _read_json(dec: _Decoder):
    if not dec.flag():
        return None
    try:
        return json.loads(dec.blob().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed JSON section: {exc}") from None


# -- payload codecs --------------------------------------------------------


def encode_phase1_payload(payload: ShardPhase1Payload) -> bytes:
    enc = _Encoder()
    w = enc.body
    w.varint(payload.shard_index)
    w.varint(payload.sends_planned)
    w.varint(payload.sends_scheduled)
    w.f64(payload.last_send_time)
    w.f64(payload.virtual_now)
    w.f64(payload.wall_seconds)
    _write_records(enc, payload.records)
    _write_log(enc, payload.log_entries)
    return enc.frame(_KIND_PHASE1)


def decode_phase1_payload(blob: bytes) -> ShardPhase1Payload:
    dec = _open(blob, _KIND_PHASE1)
    shard_index = dec.varint()
    sends_planned = dec.varint()
    sends_scheduled = dec.varint()
    last_send_time = dec.f64()
    virtual_now = dec.f64()
    wall_seconds = dec.f64()
    records = _read_records(dec)
    log_entries = _read_log(dec)
    if not dec.done():
        raise WireError("trailing bytes after phase1 payload")
    return ShardPhase1Payload(
        shard_index=shard_index, records=records, log_entries=log_entries,
        sends_planned=sends_planned, sends_scheduled=sends_scheduled,
        last_send_time=last_send_time, virtual_now=virtual_now,
        wall_seconds=wall_seconds,
    )


def encode_final_payload(payload: ShardFinalPayload) -> bytes:
    enc = _Encoder()
    w = enc.body
    w.varint(payload.shard_index)
    w.varint(payload.processed)
    w.varint(payload.emitter_emitted)
    w.f64(payload.virtual_now)
    w.f64(payload.wall_seconds)
    _write_records(enc, payload.records)
    _write_log(enc, payload.log_entries)

    w.varint(len(payload.locations))
    for plan_index, location in payload.locations:
        w.zigzag(plan_index)
        _write_location(enc, location)

    w.varint(len(payload.ground_truth))
    for _, observation in payload.ground_truth:
        enc.ref(observation.exhibitor)
        enc.ref(observation.domain)
        w.f64(observation.observed_at)
        enc.ref(observation.observed_from)
        w.flag(observation.leveraged)
        w.varint(observation.scheduled_requests)

    _write_str_int_map(enc, payload.label_counts)
    w.varint(len(payload.exhibitor_counts))
    for name, (observed, leveraged) in payload.exhibitor_counts.items():
        enc.ref(name)
        w.varint(observed)
        w.varint(leveraged)
    _write_str_int_map(enc, payload.resolver_received)
    _write_spans(enc, payload.spans)
    _write_json(enc, payload.telemetry)
    _write_json(enc, payload.analysis)
    return enc.frame(_KIND_FINAL)


def _read_json_object(dec: _Decoder, section: str) -> dict:
    value = _read_json(dec)
    if not isinstance(value, dict):
        raise WireError(f"final payload {section} section is missing or "
                        "not a JSON object")
    return value


def decode_final_payload(blob: bytes) -> ShardFinalPayload:
    dec = _open(blob, _KIND_FINAL)
    shard_index = dec.varint()
    processed = dec.varint()
    emitter_emitted = dec.varint()
    virtual_now = dec.f64()
    wall_seconds = dec.f64()
    records = _read_records(dec)
    log_entries = _read_log(dec)
    locations = [(dec.zigzag(), _read_location(dec))
                 for _ in range(dec.varint())]
    ground_truth = []
    for _ in range(dec.varint()):
        observation = ObservationRecord(
            exhibitor=dec.ref(), domain=dec.ref(), observed_at=dec.f64(),
            observed_from=dec.ref(), leveraged=dec.flag(),
            scheduled_requests=dec.varint(),
        )
        ground_truth.append((observation.observed_at, observation))
    label_counts = _read_str_int_map(dec)
    exhibitor_counts = {}
    for _ in range(dec.varint()):
        name = dec.ref()
        exhibitor_counts[name] = (dec.varint(), dec.varint())
    resolver_received = _read_str_int_map(dec)
    spans = _read_spans(dec)
    telemetry = _read_json_object(dec, "telemetry")
    analysis = _read_json_object(dec, "analysis")
    if not dec.done():
        raise WireError("trailing bytes after final payload")
    return ShardFinalPayload(
        shard_index=shard_index, records=records, log_entries=log_entries,
        locations=locations, ground_truth=ground_truth,
        label_counts=label_counts, processed=processed,
        exhibitor_counts=exhibitor_counts,
        resolver_received=resolver_received,
        emitter_emitted=emitter_emitted, virtual_now=virtual_now,
        wall_seconds=wall_seconds, telemetry=telemetry, spans=spans,
        analysis=analysis,
    )


# -- phase II plan slices --------------------------------------------------


def encode_plan_slices(slices: Sequence[Sequence]) -> bytes:
    """Encode a list of per-shard Phase II plan slices."""
    enc = _Encoder()
    enc.body.varint(len(slices))
    for plan_slice in slices:
        enc.body.varint(len(plan_slice))
        for entry in plan_slice:
            enc.body.varint(entry.index)
            enc.ref(entry.vp_id)
            enc.ref(entry.vp_address)
            enc.ref(entry.destination_address)
            enc.ref(entry.destination_country)
            enc.ref(entry.destination_name)
            enc.ref(entry.protocol)
    return enc.frame(_KIND_PLAN)


def decode_plan_slices(blob: bytes) -> List[List]:
    from repro.core.experiment import Phase2PlanEntry

    dec = _open(blob, _KIND_PLAN)
    slices = []
    for _ in range(dec.varint()):
        plan_slice = []
        for _ in range(dec.varint()):
            plan_slice.append(Phase2PlanEntry(
                index=dec.varint(),
                vp_id=dec.ref(),
                vp_address=dec.ref(),
                destination_address=dec.ref(),
                destination_country=dec.ref(),
                destination_name=dec.ref(),
                protocol=dec.ref(),
            ))
        slices.append(plan_slice)
    if not dec.done():
        raise WireError("trailing bytes after plan payload")
    return slices


# -- record feed -----------------------------------------------------------

FRAME_HEADER = struct.Struct(">I")
"""The 4-byte big-endian length prefix that frames each feed batch blob,
on the feed socket and in a serve checkpoint journal alike."""


def framed(blob: bytes) -> bytes:
    """``blob`` behind its length prefix: the bytes a feeder sends."""
    return FRAME_HEADER.pack(len(blob)) + blob


def _write_bare_records(enc: _Encoder, records: Sequence[DecoyRecord]) -> None:
    enc.body.varint(len(records))
    for record in records:
        _write_bare_record(enc, record)


def _read_bare_records(dec: _Decoder) -> List[DecoyRecord]:
    return [_read_bare_record(dec) for _ in range(dec.varint())]


def encode_feed_batch(batch: FeedBatch) -> bytes:
    enc = _Encoder()
    enc.ref(batch.campaign_id)
    enc.body.varint(batch.seq)
    _write_bare_records(enc, batch.records)
    _write_log(enc, batch.log_entries)
    enc.body.varint(len(batch.locations))
    for location in batch.locations:
        _write_location(enc, location)
    _write_json(enc, batch.context)
    return enc.frame(_KIND_FEED)


def decode_feed_batch(blob: bytes) -> FeedBatch:
    dec = _open(blob, _KIND_FEED)
    campaign_id = dec.ref()
    seq = dec.varint()
    records = _read_bare_records(dec)
    log_entries = _read_log(dec)
    locations = [_read_location(dec) for _ in range(dec.varint())]
    context = _read_json(dec)
    if not dec.done():
        raise WireError("trailing bytes after feed batch")
    return FeedBatch(campaign_id=campaign_id, seq=seq, records=records,
                     log_entries=log_entries, locations=locations,
                     context=context)


def encode_plan_slice(plan_slice: Sequence) -> bytes:
    """One shard's slice, for Phase II dispatch over the pipe."""
    return encode_plan_slices([plan_slice])


def decode_plan_slice(blob: bytes) -> List:
    slices = decode_plan_slices(blob)
    if len(slices) != 1:
        raise WireError(f"expected one plan slice, got {len(slices)}")
    return slices[0]
