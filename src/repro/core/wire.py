"""Compact, versioned wire format for the worker↔supervisor data plane.

Every blob crossing a shard worker's pipe or the serve feed socket, and
every frame of a serve journal, is a purpose-built binary encoding of
fixed-width rows:

* **Rows.**  Every per-record section (decoy records, keyed ledger
  records, log entries, locations, ground-truth observations, Phase II
  plan entries, spans, counters) is a u32 row count followed by rows of
  one precompiled little-endian :class:`struct.Struct`, and a payload's
  scalars are one more such row: a row encodes with one ``pack``, a
  section decodes with one ``iter_unpack``, and each record is rebuilt
  through its positional constructor, so the record's own checks still
  run.  Floats are IEEE doubles (exact round trip), booleans single
  bytes.
* **String interning.**  Domains, addresses, VP ids, countries, protocol
  labels, and metric-like strings repeat across thousands of records;
  each payload carries one deduplicated string table (a length array and
  one UTF-8 blob) and every string field is a u32 reference into it.  An
  optional string, or an optional integer, is stored plus one, with 0 for
  None.
* **Raw output only.**  Shard payloads carry what a worker simulated —
  ledger records, log entries, counters — never derived state the
  supervisor can recompute: no correlation events cross the wire, since
  the supervisor correlates the merged log itself.  A final payload
  ships the ledger and log *tails* Phase II appended plus full
  telemetry and analysis snapshots, so it decodes on its own.

Every blob is framed ``MAGIC | version | kind | string table | body |
crc32`` and decoding is strict: truncation, trailing garbage, a bad
checksum, an unknown version, a reference past the string table, or a
value a record's constructor rejects raises :class:`WireError` naming
the format version — never a silently wrong payload.  Encoding a value
that does not fit its field's width raises :class:`WireError` naming the
field.

The wire format is a serialization of already-deterministic values, so
the digest contract of :mod:`repro.core.shard` is untouched: a payload
that round-trips through ``encode``/``decode`` merges into byte-identical
results (pinned by ``tests/test_wire.py``).
"""

import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, starmap
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.columnar import StringTable
from repro.core.correlate import DecoyRecord
from repro.core.identifier import DecoyIdentity
from repro.core.phase2 import ObserverLocation
from repro.honeypot.logstore import LoggedRequest
from repro.observers.exhibitor import ObservationRecord
from repro.telemetry.spans import Span

WIRE_VERSION = 5
"""v5 replaced every varint with fixed-width little-endian rows (one
``struct.Struct`` per row kind, u32 string references) and the string
table with one length array plus one UTF-8 blob.
v4 dropped the Phase I payload's three vetting counts: workers fork
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

_U32 = struct.Struct("<I")
"""A row count, a JSON section's byte length, or the trailing crc32."""

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


# -- row layouts -----------------------------------------------------------


class _Row(struct.Struct):
    """A little-endian row layout whose fields have names.

    ``layout`` lists ``name:code`` pairs in row order, each code one
    standard-size :mod:`struct` code (no padding, the same bytes on every
    host); string fields are ``I`` references into the blob's table.
    """

    __slots__ = ("name", "fields")

    def __init__(self, name: str, layout: str):
        pairs = [item.split(":") for item in layout.split()]
        super().__init__("<" + "".join(code for _, code in pairs))
        self.name = name
        self.fields = tuple(field_name for field_name, _ in pairs)

    def misfit(self, rows: Iterable[tuple]) -> WireError:
        """The error for ``rows`` that did not pack, naming the first
        field whose value does not fit its width."""
        for values in rows:
            for name, code, value in zip(self.fields, self.format[1:],
                                         values):
                try:
                    struct.pack("<" + code, value)
                except struct.error as exc:
                    return WireError(
                        f"{self.name} field {name}: {value!r} does not fit "
                        f"struct code {code!r} ({exc})")
        return WireError(f"{self.name} section has too many rows to count")


_DECOY_LAYOUT = """
    identity.sent_at:I identity.vp_address:I identity.dst_address:I
    identity.ttl:B identity.sequence:H domain:I protocol:I vp_id:I
    vp_country:I vp_province:I destination_address:I destination_name:I
    destination_kind:I destination_country:I instance_country:I
    path_length:H sent_at:d phase:B delivered:? round_index:I mitigation:I
"""

_DECOY = _Row("decoy", _DECOY_LAYOUT)
"""Decoy record row, 75 bytes: the identity's ``sent_at`` u32,
``vp_address`` and ``dst_address`` references, ``ttl`` u8 and
``sequence`` u16; then ``domain``, ``protocol``, ``vp_id`` and
``vp_country`` references, ``vp_province`` as an optional reference,
``destination_address``, ``destination_name``, ``destination_kind``,
``destination_country`` and ``instance_country`` references,
``path_length`` u16, ``sent_at`` f64, ``phase`` u8, ``delivered`` bool,
``round_index`` u32 and a ``mitigation`` reference.  Feed batches carry
registration order implicitly, so their decoys have no ledger key."""

_LEDGER = _Row("ledger record",
               "key.sent_at:d key.phase:B key.major:q key.minor:q"
               + _DECOY_LAYOUT)
"""Keyed ledger record row, 100 bytes: the merge-order key (``sent_at``
f64, ``phase`` u8, signed i64 plan ``major`` and ``minor``, which are
−1 outside a plan), then the 75 bytes of a :data:`_DECOY` row."""

_LOG = _Row("log entry", "time:d site:I protocol:I src_address:I domain:I"
                         " path:I qtype:I user_agent:I")
"""Log entry row, 36 bytes: ``time`` f64; ``site``, ``protocol``,
``src_address`` and ``domain`` references; ``path`` as an optional
reference; ``qtype`` u32 plus one (0 for None); ``user_agent`` as an
optional reference."""

_LOCATION_LAYOUT = """
    vp_id:I vp_country:I destination_address:I destination_name:I
    protocol:I path_length:H trigger_ttl:H observer_address:I
    observer_asn:Q observer_country:I
"""

_LOCATION = _Row("location", _LOCATION_LAYOUT)
"""Observer location row, 40 bytes: ``vp_id``, ``vp_country``,
``destination_address``, ``destination_name`` and ``protocol``
references; ``path_length`` u16; ``trigger_ttl`` u16 plus one (0 for
None); ``observer_address`` as an optional reference; ``observer_asn``
u64 plus one (0 for None); ``observer_country`` as an optional
reference."""

_PLACED_LOCATION = _Row("placed location", "plan_index:i" + _LOCATION_LAYOUT)
"""A final payload's location row, 44 bytes: the traceroute's signed
i32 Phase II ``plan_index``, then the 40 bytes of a :data:`_LOCATION`
row."""

_OBSERVATION = _Row("observation",
                    "exhibitor:I domain:I observed_at:d observed_from:I"
                    " leveraged:? scheduled_requests:I")
"""Ground-truth observation row, 25 bytes: ``exhibitor`` and ``domain``
references, ``observed_at`` f64, an ``observed_from`` reference,
``leveraged`` bool and ``scheduled_requests`` u32."""

_PLAN_ENTRY = _Row("plan entry",
                   "index:I vp_id:I vp_address:I destination_address:I"
                   " destination_country:I destination_name:I protocol:I")
"""Phase II plan entry row, 28 bytes: ``index`` u32, then ``vp_id``,
``vp_address``, ``destination_address``, ``destination_country``,
``destination_name`` and ``protocol`` references."""

_SPAN = _Row("span", "name:I wall_seconds:d virtual_start:d virtual_end:d"
                     " shard:i")
"""Stage span row, 32 bytes: a ``name`` reference, ``wall_seconds``,
``virtual_start`` and ``virtual_end`` f64, and the signed i32 ``shard``
(−1 for the parent)."""

_COUNTER = _Row("counter", "key:I value:Q")
"""One entry of a string-to-count map, 12 bytes: a ``key`` reference
and a u64 ``value``."""

_EXHIBITOR_COUNTS = _Row("exhibitor counts",
                         "name:I observed:Q leveraged:Q")
"""One exhibitor's counters, 20 bytes: a ``name`` reference and the u64
``observed`` and ``leveraged`` counts."""

_PHASE1_HEAD = _Row("phase1 header",
                    "shard_index:I sends_planned:Q sends_scheduled:Q"
                    " last_send_time:d virtual_now:d wall_seconds:d")
"""Phase I payload header, 44 bytes: ``shard_index`` u32, the u64
``sends_planned`` and ``sends_scheduled`` counts, and the f64
``last_send_time``, ``virtual_now`` and ``wall_seconds``."""

_FINAL_HEAD = _Row("final header",
                   "shard_index:I processed:Q emitter_emitted:Q"
                   " virtual_now:d wall_seconds:d")
"""Final payload header, 36 bytes: ``shard_index`` u32, the u64
``processed`` and ``emitter_emitted`` counts, and the f64
``virtual_now`` and ``wall_seconds``."""

_FEED_HEAD = _Row("feed header", "campaign_id:I seq:Q")
"""Feed batch header, 12 bytes: a ``campaign_id`` reference and the u64
batch ``seq``."""

_TABLE_HEAD = struct.Struct("<II")
"""String table header, 8 bytes: the string count and the UTF-8 blob's
length in bytes, both u32.  One u32 per string follows, its length in
characters, then the blob: every string, concatenated, encoded once.
Strings may hold any character, NUL included, so the table needs no
separator."""


# -- encoding --------------------------------------------------------------


class _Encoder:
    """Body writer plus the payload-wide string table it populates.

    References are assigned in first-use order while the body is written
    (a :class:`~repro.core.columnar.StringTable`, so replaying the same
    values yields the same table and the same bytes); :meth:`frame` then
    emits ``MAGIC | version | kind | table | body | crc32`` so the
    decoder can materialize every string up front.
    """

    __slots__ = ("body", "_table", "ref", "opt_ref")

    def __init__(self):
        self.body = bytearray()
        self._table = StringTable()
        self.ref = self._table.intern
        """The id of a string, interning it on first use."""
        self.opt_ref = self._table.intern_opt
        """Like :attr:`ref`, with None as −1: store it plus one."""

    def row(self, row: _Row, values: tuple) -> None:
        """One row on its own: a payload header."""
        try:
            self.body += row.pack(*values)
        except struct.error:
            raise row.misfit([values]) from None

    def rows(self, row: _Row, rows: Sequence[tuple]) -> None:
        """A section: the row count, then one ``pack`` per row."""
        try:
            self.body += _U32.pack(len(rows))
            self.body += b"".join(starmap(row.pack, rows))
        except struct.error:
            raise row.misfit(rows) from None

    def json(self, value) -> None:
        """A canonical-JSON section: telemetry/analysis snapshots are
        tree-shaped dicts the registry/accumulator code already
        round-trips through JSON (bundles, telemetry captures).  Its u32 byte
        length comes first, 0 for None (no JSON text is empty)."""
        if value is None:
            self.body += _U32.pack(0)
            return
        text = json.dumps(value, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        self.body += _U32.pack(len(text)) + text

    def frame(self, kind: int) -> bytes:
        values = self._table.values()
        try:
            text = "".join(values).encode("utf-8")
        except (TypeError, UnicodeEncodeError) as exc:
            raise WireError(f"string table cannot be encoded: {exc}") from None
        head = bytearray(_MAGIC)
        head.append(WIRE_VERSION)
        head.append(kind)
        head += _TABLE_HEAD.pack(len(values), len(text))
        head += struct.pack(f"<{len(values)}I", *map(len, values))
        head += text
        head += self.body
        head += _U32.pack(zlib.crc32(head))
        return bytes(head)


def _decoy_values(record: DecoyRecord, ref, opt_ref) -> tuple:
    identity = record.identity
    return (
        identity.sent_at, ref(identity.vp_address), ref(identity.dst_address),
        identity.ttl, identity.sequence, ref(record.domain),
        ref(record.protocol), ref(record.vp_id), ref(record.vp_country),
        opt_ref(record.vp_province) + 1, ref(record.destination_address),
        ref(record.destination_name), ref(record.destination_kind),
        ref(record.destination_country), ref(record.instance_country),
        record.path_length, record.sent_at, record.phase, record.delivered,
        record.round_index, ref(record.mitigation),
    )


def _location_values(location: ObserverLocation, ref, opt_ref) -> tuple:
    trigger_ttl = location.trigger_ttl
    observer_asn = location.observer_asn
    return (
        ref(location.vp_id), ref(location.vp_country),
        ref(location.destination_address), ref(location.destination_name),
        ref(location.protocol), location.path_length,
        0 if trigger_ttl is None else trigger_ttl + 1,
        opt_ref(location.observer_address) + 1,
        0 if observer_asn is None else observer_asn + 1,
        opt_ref(location.observer_country) + 1,
    )


def _write_ledger(enc: _Encoder,
                  records: Sequence[Tuple[LedgerKey, DecoyRecord]]) -> None:
    ref, opt_ref = enc.ref, enc.opt_ref
    enc.rows(_LEDGER, [key + _decoy_values(record, ref, opt_ref)
                       for key, record in records])


def _write_log(enc: _Encoder, entries: Sequence[LoggedRequest]) -> None:
    ref, opt_ref = enc.ref, enc.opt_ref
    enc.rows(_LOG, [
        (entry.time, ref(entry.site), ref(entry.protocol),
         ref(entry.src_address), ref(entry.domain), opt_ref(entry.path) + 1,
         0 if entry.qtype is None else entry.qtype + 1,
         opt_ref(entry.user_agent) + 1)
        for entry in entries
    ])


# -- decoding --------------------------------------------------------------


class _Decoder:
    """Strict reader over a blob's body, with its string table
    materialized up front; every overrun is a :class:`WireError`."""

    __slots__ = ("view", "pos", "end", "strings")

    def __init__(self, blob: bytes, start: int, end: int):
        self.view = memoryview(blob)
        self.pos = start
        self.end = end
        count, size = self.row(_TABLE_HEAD)
        lengths = struct.unpack_from(f"<{count}I", self.view,
                                     self._take(4 * count, "string lengths"))
        start = self._take(size, "string table")
        try:
            text = str(self.view[start:start + size], "utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed string table: {exc}") from None
        ends = list(accumulate(lengths, initial=0))
        if ends[-1] != len(text):
            raise WireError(
                f"string lengths sum to {ends[-1]} characters; the table "
                f"holds {len(text)}")
        self.strings = [text[a:b] for a, b in zip(ends, ends[1:])]

    def _take(self, size: int, what: str) -> int:
        """Claim ``size`` bytes; returns where they start."""
        start = self.pos
        if start + size > self.end:
            raise WireError(f"truncated {what}: needs {size} bytes, "
                            f"{self.end - start} left")
        self.pos = start + size
        return start

    def row(self, row: struct.Struct) -> tuple:
        """One row on its own: a payload or section header."""
        return row.unpack_from(self.view, self._take(row.size, "header"))

    def rows(self, row: _Row) -> Iterable[tuple]:
        """A section: its row count, then the rows, checked against the
        body before anything is read."""
        (count,) = self.row(_U32)
        size = count * row.size
        start = self._take(size, f"{row.name} section of {count} rows")
        return row.iter_unpack(self.view[start:start + size])

    def json(self):
        (size,) = self.row(_U32)
        if size == 0:
            return None
        start = self._take(size, "JSON section")
        try:
            return json.loads(str(self.view[start:start + size], "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"malformed JSON section: {exc}") from None

    def done(self, what: str) -> None:
        if self.pos != self.end:
            raise WireError(f"trailing bytes after {what}")


@contextmanager
def _building(what: str):
    """Turn what a row's values can break while records are built — a
    reference past the string table, a value the record's constructor
    rejects (:class:`~repro.core.identifier.IdentifierError` is one) —
    into :class:`WireError`."""
    try:
        yield
    except IndexError:
        raise WireError(f"{what} row references a string past the "
                        "table") from None
    except ValueError as exc:
        raise WireError(f"{what} row rejected: {exc}") from None


def _decoys(strings: List[str], rows: Iterable[tuple]) -> List[DecoyRecord]:
    with _building("decoy"):
        return [
            DecoyRecord(
                DecoyIdentity(id_sent_at, strings[vp_address],
                              strings[dst_address], ttl, sequence),
                strings[domain], strings[protocol], strings[vp_id],
                strings[vp_country],
                strings[vp_province - 1] if vp_province else None,
                strings[destination_address], strings[destination_name],
                strings[destination_kind], strings[destination_country],
                strings[instance_country], path_length, sent_at, phase,
                delivered, round_index, strings[mitigation],
            )
            for (id_sent_at, vp_address, dst_address, ttl, sequence, domain,
                 protocol, vp_id, vp_country, vp_province,
                 destination_address, destination_name, destination_kind,
                 destination_country, instance_country, path_length, sent_at,
                 phase, delivered, round_index, mitigation) in rows
        ]


def _read_ledger(dec: _Decoder) -> List[Tuple[LedgerKey, DecoyRecord]]:
    rows = list(dec.rows(_LEDGER))
    records = _decoys(dec.strings, [row[4:] for row in rows])
    return [(row[:4], record) for row, record in zip(rows, records)]


def _read_log(dec: _Decoder) -> List[LoggedRequest]:
    strings = dec.strings
    rows = dec.rows(_LOG)
    with _building("log entry"):
        return [
            LoggedRequest(
                time, strings[site], strings[protocol], strings[src_address],
                strings[domain], strings[path - 1] if path else None,
                qtype - 1 if qtype else None,
                strings[user_agent - 1] if user_agent else None,
            )
            for (time, site, protocol, src_address, domain, path, qtype,
                 user_agent) in rows
        ]


def _locations(strings: List[str],
               rows: Iterable[tuple]) -> List[ObserverLocation]:
    with _building("location"):
        return [
            ObserverLocation(
                strings[vp_id], strings[vp_country],
                strings[destination_address], strings[destination_name],
                strings[protocol], path_length,
                trigger_ttl - 1 if trigger_ttl else None,
                strings[observer_address - 1] if observer_address else None,
                observer_asn - 1 if observer_asn else None,
                strings[observer_country - 1] if observer_country else None,
            )
            for (vp_id, vp_country, destination_address, destination_name,
                 protocol, path_length, trigger_ttl, observer_address,
                 observer_asn, observer_country) in rows
        ]


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


# -- payload codecs --------------------------------------------------------


def encode_phase1_payload(payload: ShardPhase1Payload) -> bytes:
    enc = _Encoder()
    enc.row(_PHASE1_HEAD, (
        payload.shard_index, payload.sends_planned, payload.sends_scheduled,
        payload.last_send_time, payload.virtual_now, payload.wall_seconds))
    _write_ledger(enc, payload.records)
    _write_log(enc, payload.log_entries)
    return enc.frame(_KIND_PHASE1)


def decode_phase1_payload(blob: bytes) -> ShardPhase1Payload:
    dec = _open(blob, _KIND_PHASE1)
    (shard_index, sends_planned, sends_scheduled, last_send_time,
     virtual_now, wall_seconds) = dec.row(_PHASE1_HEAD)
    records = _read_ledger(dec)
    log_entries = _read_log(dec)
    dec.done("phase1 payload")
    return ShardPhase1Payload(
        shard_index=shard_index, records=records, log_entries=log_entries,
        sends_planned=sends_planned, sends_scheduled=sends_scheduled,
        last_send_time=last_send_time, virtual_now=virtual_now,
        wall_seconds=wall_seconds,
    )


def encode_final_payload(payload: ShardFinalPayload) -> bytes:
    enc = _Encoder()
    ref, opt_ref = enc.ref, enc.opt_ref
    enc.row(_FINAL_HEAD, (
        payload.shard_index, payload.processed, payload.emitter_emitted,
        payload.virtual_now, payload.wall_seconds))
    _write_ledger(enc, payload.records)
    _write_log(enc, payload.log_entries)
    enc.rows(_PLACED_LOCATION, [
        (plan_index,) + _location_values(location, ref, opt_ref)
        for plan_index, location in payload.locations
    ])
    enc.rows(_OBSERVATION, [
        (ref(observation.exhibitor), ref(observation.domain),
         observation.observed_at, ref(observation.observed_from),
         observation.leveraged, observation.scheduled_requests)
        for _, observation in payload.ground_truth
    ])
    enc.rows(_COUNTER, [(ref(key), value)
                        for key, value in payload.label_counts.items()])
    enc.rows(_EXHIBITOR_COUNTS, [
        (ref(name), observed, leveraged)
        for name, (observed, leveraged) in payload.exhibitor_counts.items()
    ])
    enc.rows(_COUNTER, [(ref(key), value)
                        for key, value in payload.resolver_received.items()])
    enc.rows(_SPAN, [
        (ref(span.name), span.wall_seconds, span.virtual_start,
         span.virtual_end, span.shard)
        for span in payload.spans
    ])
    enc.json(payload.telemetry)
    enc.json(payload.analysis)
    return enc.frame(_KIND_FINAL)


def _read_json_object(dec: _Decoder, section: str) -> dict:
    value = dec.json()
    if not isinstance(value, dict):
        raise WireError(f"final payload {section} section is missing or "
                        "not a JSON object")
    return value


def decode_final_payload(blob: bytes) -> ShardFinalPayload:
    dec = _open(blob, _KIND_FINAL)
    strings = dec.strings
    (shard_index, processed, emitter_emitted, virtual_now,
     wall_seconds) = dec.row(_FINAL_HEAD)
    records = _read_ledger(dec)
    log_entries = _read_log(dec)
    placed = list(dec.rows(_PLACED_LOCATION))
    locations = list(zip(
        [row[0] for row in placed],
        _locations(strings, [row[1:] for row in placed])))
    rows = dec.rows(_OBSERVATION)
    with _building("observation"):
        ground_truth = [
            (observed_at, ObservationRecord(
                strings[exhibitor], strings[domain], observed_at,
                strings[observed_from], leveraged, scheduled_requests))
            for (exhibitor, domain, observed_at, observed_from, leveraged,
                 scheduled_requests) in rows
        ]
    rows = dec.rows(_COUNTER)
    with _building("label count"):
        label_counts = {strings[key]: value for key, value in rows}
    rows = dec.rows(_EXHIBITOR_COUNTS)
    with _building("exhibitor count"):
        exhibitor_counts = {strings[name]: (observed, leveraged)
                            for name, observed, leveraged in rows}
    rows = dec.rows(_COUNTER)
    with _building("resolver count"):
        resolver_received = {strings[key]: value for key, value in rows}
    rows = dec.rows(_SPAN)
    with _building("span"):
        spans = [Span(strings[name], wall_seconds, virtual_start,
                      virtual_end, shard)
                 for name, wall_seconds, virtual_start, virtual_end, shard
                 in rows]
    telemetry = _read_json_object(dec, "telemetry")
    analysis = _read_json_object(dec, "analysis")
    dec.done("final payload")
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


def encode_plan_slice(plan_slice: Sequence) -> bytes:
    """One shard's Phase II slice, for dispatch over the pipe.

    The body is a slice count, always 1, then the slice's entry rows."""
    enc = _Encoder()
    ref = enc.ref
    enc.body += _U32.pack(1)
    enc.rows(_PLAN_ENTRY, [
        (entry.index, ref(entry.vp_id), ref(entry.vp_address),
         ref(entry.destination_address), ref(entry.destination_country),
         ref(entry.destination_name), ref(entry.protocol))
        for entry in plan_slice
    ])
    return enc.frame(_KIND_PLAN)


def decode_plan_slice(blob: bytes) -> List:
    from repro.core.experiment import Phase2PlanEntry

    dec = _open(blob, _KIND_PLAN)
    strings = dec.strings
    (count,) = dec.row(_U32)
    if count != 1:
        raise WireError(f"expected one plan slice, got {count}")
    rows = dec.rows(_PLAN_ENTRY)
    with _building("plan entry"):
        entries = [
            Phase2PlanEntry(index, strings[vp_id], strings[vp_address],
                            strings[destination_address],
                            strings[destination_country],
                            strings[destination_name], strings[protocol])
            for (index, vp_id, vp_address, destination_address,
                 destination_country, destination_name, protocol) in rows
        ]
    dec.done("plan payload")
    return entries


# -- record feed -----------------------------------------------------------

FRAME_HEADER = struct.Struct(">I")
"""The 4-byte big-endian length prefix that frames each feed batch blob,
on the feed socket and in a serve checkpoint journal alike."""


def framed(blob: bytes) -> bytes:
    """``blob`` behind its length prefix: the bytes a feeder sends."""
    return FRAME_HEADER.pack(len(blob)) + blob


def encode_feed_batch(batch: FeedBatch) -> bytes:
    enc = _Encoder()
    ref, opt_ref = enc.ref, enc.opt_ref
    enc.row(_FEED_HEAD, (ref(batch.campaign_id), batch.seq))
    enc.rows(_DECOY, [_decoy_values(record, ref, opt_ref)
                      for record in batch.records])
    _write_log(enc, batch.log_entries)
    enc.rows(_LOCATION, [_location_values(location, ref, opt_ref)
                         for location in batch.locations])
    enc.json(batch.context)
    return enc.frame(_KIND_FEED)


def decode_feed_batch(blob: bytes) -> FeedBatch:
    dec = _open(blob, _KIND_FEED)
    strings = dec.strings
    campaign, seq = dec.row(_FEED_HEAD)
    with _building("feed header"):
        campaign_id = strings[campaign]
    records = _decoys(strings, dec.rows(_DECOY))
    log_entries = _read_log(dec)
    locations = _locations(strings, dec.rows(_LOCATION))
    context = dec.json()
    dec.done("feed batch")
    return FeedBatch(campaign_id=campaign_id, seq=seq, records=records,
                     log_entries=log_entries, locations=locations,
                     context=context)

