"""Wire-codec properties and serial-vs-sharded equivalence.

The compact payload codec (:mod:`repro.core.wire`) replaced
pickle-the-world transport on the worker↔supervisor data plane, so its
contract carries the whole digest guarantee: encode/decode must round
trip every payload exactly, re-encoding a decoded payload must reproduce
identical bytes, and every truncated or corrupted blob must raise a
versioned :class:`WireError` instead of decoding into a silently wrong
payload.

The row codec's own edges are pinned too: every fixed-width field
round-trips at 0 and at its maximum (None in every optional field,
non-ASCII strings, a string holding NUL), one past the maximum is a
:class:`WireError` naming the field at encode, and checksum-valid blobs
crafted to lie (a row count past its section, a reference past the
string table, a string table that overruns or does not add up, a value
a record's constructor rejects) are a :class:`WireError` at decode.

Like :mod:`tests.test_properties_codecs`, the property tests drive a
``random.Random`` with pinned seeds so failures replay exactly.  The
equivalence suite then closes the loop end to end: for three seeds, the
serial run and the 4-worker run produce the same result digest.
"""

import copy
import random
import re
import string
import struct
import zlib

import pytest

from repro.core.config import ExperimentConfig
from repro.core.correlate import DecoyRecord
from repro.core.experiment import Experiment, Phase2PlanEntry
from repro.core.identifier import DecoyIdentity
from repro.core.phase2 import ObserverLocation
from repro.core.shard import PairwiseMerger, result_digest
from repro.core.wire import (
    _DECOY,
    _LOG,
    WIRE_VERSION,
    FeedBatch,
    ShardFinalPayload,
    ShardPhase1Payload,
    WireError,
    decode_feed_batch,
    decode_final_payload,
    decode_phase1_payload,
    decode_plan_slice,
    encode_feed_batch,
    encode_final_payload,
    encode_phase1_payload,
    encode_plan_slice,
)
from repro.honeypot.logstore import LoggedRequest
from repro.net.addr import ip_from_int
from repro.observers.exhibitor import ObservationRecord
from repro.telemetry.spans import Span

CASES = 30

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
          "golf", "hotel")


def _address(rng):
    return ip_from_int(rng.randint(0, 0xFFFFFFFF))


def _domain(rng, index):
    token = "".join(rng.choice(string.ascii_lowercase) for _ in range(10))
    return f"{token}-{index:04d}.www.experiment.domain"


def _record(rng, index, phase=1):
    domain = _domain(rng, index)
    return (
        (rng.uniform(0, 1e5), phase, rng.randint(-2, 40), rng.randint(-2, 40)),
        DecoyRecord(
            identity=DecoyIdentity(
                sent_at=rng.randint(0, 0xFFFFFFFF),
                vp_address=_address(rng),
                dst_address=_address(rng),
                ttl=rng.randint(0, 255),
                sequence=index % 10000,
            ),
            domain=domain,
            protocol=rng.choice(("dns", "http", "tls")),
            vp_id=f"vp-{rng.randint(0, 99):02d}",
            vp_country=rng.choice(("US", "DE", "JP", "BR")),
            vp_province=rng.choice((None, "CA", "BY")),
            destination_address=_address(rng),
            destination_name=rng.choice(_WORDS) + ".example",
            destination_kind=rng.choice(("dns", "web")),
            destination_country=rng.choice(("US", "CN", "RU")),
            instance_country=rng.choice(("US", "NL", "SG")),
            path_length=rng.randint(1, 30),
            sent_at=rng.uniform(0, 1e5),
            phase=phase,
            delivered=rng.random() < 0.9,
            round_index=rng.randint(0, 3),
        ),
    )


def _log_entry(rng, time, domain=None):
    protocol = rng.choice(("dns", "http", "https"))
    return LoggedRequest(
        time=time,
        site=rng.choice(("US", "DE", "JP")),
        protocol=protocol,
        src_address=_address(rng),
        domain=domain or _domain(rng, rng.randint(0, 9999)),
        path=rng.choice((None, "/", "/probe")) if protocol != "dns" else None,
        qtype=rng.choice((1, 28, 16)) if protocol == "dns" else None,
        user_agent=rng.choice((None, "curl/8.0")) if protocol == "http" else None,
    )


def _location(rng):
    return ObserverLocation(
        vp_id=f"vp-{rng.randint(0, 99):02d}",
        vp_country=rng.choice(("US", "DE")),
        destination_address=_address(rng),
        destination_name=rng.choice(_WORDS) + ".example",
        protocol=rng.choice(("dns", "http")),
        path_length=rng.randint(1, 30),
        trigger_ttl=rng.choice((None, rng.randint(1, 30))),
        observer_address=rng.choice((None, _address(rng))),
        observer_asn=rng.choice((None, rng.randint(1, 65535))),
        observer_country=rng.choice((None, "CN")),
    )


def _snapshot(rng):
    return {
        "format": 1,
        "counters": {rng.choice(_WORDS): rng.randint(0, 500)
                     for _ in range(rng.randint(0, 5))},
        "pairs": [[rng.choice(_WORDS), rng.randint(0, 9)]
                  for _ in range(rng.randint(0, 6))],
    }


def _phase1_payload(rng, size=None):
    size = rng.randint(2, 12) if size is None else size
    records = [_record(rng, index) for index in range(size)]
    clock, entries = 0.0, []
    for _ in range(rng.randint(0, 2 * size)):
        clock += rng.uniform(0.0, 30.0)
        entry_domain = (rng.choice(records)[1].domain
                        if rng.random() < 0.5 else None)
        entries.append(_log_entry(rng, clock, entry_domain))
    return ShardPhase1Payload(
        shard_index=0,
        records=records,
        log_entries=entries,
        sends_planned=rng.randint(0, 10000),
        sends_scheduled=rng.randint(0, 10000),
        last_send_time=rng.uniform(0, 1e5),
        virtual_now=rng.uniform(0, 1e5),
        wall_seconds=rng.uniform(0, 100),
    )


def _final_payload(rng, base):
    new_records = [_record(rng, 5000 + index, phase=2)
                   for index in range(rng.randint(0, 6))]
    clock = max((entry.time for entry in base.log_entries), default=0.0)
    new_entries = []
    for _ in range(rng.randint(0, 8)):
        clock += rng.uniform(0.0, 30.0)
        pool = base.records + new_records
        entry_domain = (rng.choice(pool)[1].domain
                        if pool and rng.random() < 0.5 else None)
        new_entries.append(_log_entry(rng, clock, entry_domain))

    return ShardFinalPayload(
        shard_index=base.shard_index,
        records=new_records,
        log_entries=new_entries,
        locations=[(rng.randint(0, 500), _location(rng))
                   for _ in range(rng.randint(0, 4))],
        ground_truth=[
            (stamp, ObservationRecord(
                exhibitor=rng.choice(_WORDS),
                domain=_domain(rng, rng.randint(0, 9999)),
                observed_at=stamp,
                observed_from=_address(rng),
                leveraged=rng.random() < 0.5,
                scheduled_requests=rng.randint(0, 8),
            ))
            for stamp in sorted(rng.uniform(0, 1e5)
                                for _ in range(rng.randint(0, 4)))
        ],
        label_counts={word: rng.randint(0, 1000)
                      for word in rng.sample(_WORDS, rng.randint(0, 4))},
        processed=rng.randint(0, 100000),
        exhibitor_counts={
            word: (rng.randint(0, 100), rng.randint(0, 100))
            for word in rng.sample(_WORDS, rng.randint(0, 3))
        },
        resolver_received={_address(rng): rng.randint(0, 1000)
                           for _ in range(rng.randint(0, 3))},
        emitter_emitted=rng.randint(0, 100000),
        virtual_now=rng.uniform(0, 1e5),
        wall_seconds=rng.uniform(0, 100),
        telemetry=_snapshot(rng),
        spans=[Span(name=rng.choice(("build", "phase1", "phase2")),
                    wall_seconds=rng.uniform(0, 10),
                    virtual_start=rng.uniform(0, 1e5),
                    virtual_end=rng.uniform(0, 1e5),
                    shard=base.shard_index)
               for _ in range(rng.randint(0, 3))],
        analysis=_snapshot(rng),
    )


def _feed_batch(rng, size=None):
    """A data batch, or now and then a registration batch with a context."""
    size = rng.randint(0, 12) if size is None else size
    records = [_record(rng, index)[1] for index in range(size)]
    clock, entries = 0.0, []
    for _ in range(rng.randint(0, 2 * size)):
        clock += rng.uniform(0.0, 30.0)
        entry_domain = (rng.choice(records).domain
                        if records and rng.random() < 0.5 else None)
        entries.append(_log_entry(rng, clock, entry_domain))
    context = None
    if rng.random() < 0.3:
        context = {"zone": "www.experiment.domain",
                   "directory": [{"address": _address(rng), "asn": 4134}],
                   "blocklist": sorted(_address(rng) for _ in range(3))}
    return FeedBatch(
        campaign_id=rng.choice(("ci", "campaign-7", "kampanj-å")),
        seq=rng.randint(0, 2 ** 40),
        records=records,
        log_entries=entries,
        locations=[_location(rng) for _ in range(rng.randint(0, 4))],
        context=context,
    )


def _assert_payloads_equal(left, right):
    for name in left.__dataclass_fields__:
        assert getattr(left, name) == getattr(right, name), name


class TestPhase1RoundTrip:
    def test_round_trip_equality(self):
        rng = random.Random(0x3171)
        for _ in range(CASES):
            payload = _phase1_payload(rng)
            decoded = decode_phase1_payload(encode_phase1_payload(payload))
            _assert_payloads_equal(payload, decoded)

    def test_reencode_is_byte_exact(self):
        rng = random.Random(0x3172)
        for _ in range(CASES):
            blob = encode_phase1_payload(_phase1_payload(rng))
            assert encode_phase1_payload(decode_phase1_payload(blob)) == blob


class TestFinalRoundTrip:
    def test_delta_reconstructs_full_state(self):
        """The final blob (Phase II tails plus full snapshots) decodes on
        its own to the payload the worker built, and re-encodes to the
        same bytes."""
        rng = random.Random(0x3174)
        for _ in range(CASES):
            final = _final_payload(rng, _phase1_payload(rng))
            blob = encode_final_payload(final)
            decoded = decode_final_payload(blob)
            _assert_payloads_equal(final, decoded)
            assert encode_final_payload(decoded) == blob

    def test_delta_ships_fewer_bytes_than_full_reencode(self):
        rng = random.Random(0x3175)
        base = _phase1_payload(rng, size=50)
        blob = encode_final_payload(_final_payload(rng, base))
        # The final blob ships only the Phase II tails: a regression to
        # re-shipping the Phase I records/log would exceed the Phase I
        # blob size.
        assert len(blob) < len(encode_phase1_payload(base))

    def test_missing_analysis_rejected(self):
        rng = random.Random(0x3176)
        final = _final_payload(rng, _phase1_payload(rng))
        final.analysis = None
        with pytest.raises(WireError, match="analysis"):
            decode_final_payload(encode_final_payload(final))


class TestPlanRoundTrip:
    def _entries(self, rng, count):
        return [
            Phase2PlanEntry(
                index=rng.randint(0, 10000),
                vp_id=f"vp-{rng.randint(0, 99):02d}",
                vp_address=_address(rng),
                destination_address=_address(rng),
                destination_country=rng.choice(("US", "CN")),
                destination_name=rng.choice(_WORDS) + ".example",
                protocol=rng.choice(("dns", "http", "tls")),
            )
            for _ in range(count)
        ]

    def test_slices_round_trip(self):
        rng = random.Random(0x3177)
        for _ in range(CASES):
            entries = self._entries(rng, rng.randint(0, 6))
            assert decode_plan_slice(encode_plan_slice(entries)) == entries

    def test_single_slice_helpers(self):
        rng = random.Random(0x3178)
        entries = self._entries(rng, 5)
        assert decode_plan_slice(encode_plan_slice(entries)) == entries
        # The body leads with a slice count; only a count of 1 decodes.
        blob = bytearray(encode_plan_slice(entries))
        struct.pack_into("<I", blob, _blob_layout(blob)[2], 2)
        with pytest.raises(WireError, match="one plan slice, got 2"):
            decode_plan_slice(_reframed(blob))


class TestCorruptionAlwaysRejected:
    @staticmethod
    def _blobs(rng):
        """(decoder, blob) for every payload kind."""
        base = _phase1_payload(rng, size=3)
        yield decode_phase1_payload, encode_phase1_payload(base)
        yield decode_final_payload, encode_final_payload(
            _final_payload(rng, base))
        yield decode_plan_slice, encode_plan_slice(
            TestPlanRoundTrip()._entries(rng, 3))
        yield decode_feed_batch, encode_feed_batch(_feed_batch(rng, size=3))

    def test_every_truncation_raises_versioned_error(self):
        rng = random.Random(0x3179)
        for decode, blob in self._blobs(rng):
            for length in range(len(blob)):
                with pytest.raises(WireError) as excinfo:
                    decode(blob[:length])
                assert f"wire format v{WIRE_VERSION}" in str(excinfo.value)

    def test_single_byte_corruption_raises(self):
        rng = random.Random(0x317A)
        for decode, blob in self._blobs(rng):
            for _ in range(CASES):
                position = rng.randrange(len(blob))
                flipped = bytearray(blob)
                flipped[position] ^= 1 << rng.randrange(8)
                with pytest.raises(WireError):
                    decode(bytes(flipped))

    def test_trailing_garbage_rejected_by_checksum(self):
        rng = random.Random(0x317B)
        for decode, blob in self._blobs(rng):
            with pytest.raises(WireError):
                decode(blob + b"\x00")

    def test_unknown_version_named_in_error(self):
        rng = random.Random(0x317C)
        blob = bytearray(encode_phase1_payload(_phase1_payload(rng, size=2)))
        blob[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version"):
            decode_phase1_payload(bytes(blob))

    def test_previous_version_named_in_error(self):
        rng = random.Random(0x317E)
        blob = bytearray(encode_feed_batch(_feed_batch(rng, size=2)))
        blob[4] = WIRE_VERSION - 1
        with pytest.raises(WireError) as excinfo:
            decode_feed_batch(bytes(blob))
        assert (f"blob is wire version {WIRE_VERSION - 1}; this build "
                f"decodes version {WIRE_VERSION}") in str(excinfo.value)

    def test_wrong_kind_rejected(self):
        rng = random.Random(0x317D)
        blob = encode_phase1_payload(_phase1_payload(rng, size=2))
        with pytest.raises(WireError, match="kind"):
            decode_plan_slice(blob)

    def test_not_pickle_not_python(self):
        for garbage in (b"", b"RWIR", b"\x80\x04K\x01.", b"{}"):
            with pytest.raises(WireError):
                decode_phase1_payload(garbage)


class TestFeedRoundTrip:
    def test_round_trip_equality(self):
        rng = random.Random(0x3180)
        for _ in range(CASES):
            batch = _feed_batch(rng)
            assert decode_feed_batch(encode_feed_batch(batch)) == batch

    def test_reencode_is_byte_exact(self):
        """The serve journal stores received blobs verbatim."""
        rng = random.Random(0x3181)
        for _ in range(CASES):
            blob = encode_feed_batch(_feed_batch(rng))
            assert encode_feed_batch(decode_feed_batch(blob)) == blob


def _forced(value, **fields):
    """A copy of ``value`` with ``fields`` set past its constructor's
    checks: what a buggy or hostile feeder could encode."""
    forced = copy.copy(value)
    for name, field_value in fields.items():
        object.__setattr__(forced, name, field_value)
    return forced


_U8, _U16, _U32, _U64 = 2 ** 8 - 1, 2 ** 16 - 1, 2 ** 32 - 1, 2 ** 64 - 1
_I32, _I64 = 2 ** 31 - 1, 2 ** 63 - 1

_ODD_STRINGS = ("", "a\x00b", "\x00", "ñandú", "東京", "🛰 probe", "x" * 300)


def _decoy_at(low: bool, index: int = 0) -> DecoyRecord:
    """Every field of a decoy at the bottom (or top) of its width; the
    identity's ranges are DecoyIdentity's own."""
    text = _ODD_STRINGS[index % len(_ODD_STRINGS)]
    return DecoyRecord(
        identity=DecoyIdentity(
            sent_at=0 if low else _U32, vp_address="0.0.0.0",
            dst_address="255.255.255.255", ttl=0 if low else _U8,
            sequence=0 if low else 9999),
        domain=f"{text}-{index}", protocol="dns", vp_id=text,
        vp_country=text, vp_province=None if low else text,
        destination_address=text, destination_name=text,
        destination_kind=text, destination_country=text,
        instance_country=text, path_length=0 if low else _U16,
        sent_at=0.0 if low else 1e300, phase=0 if low else _U8,
        delivered=not low, round_index=0 if low else _U32,
        mitigation=text,
    )


def _entry_at(low: bool, index: int = 0) -> LoggedRequest:
    text = _ODD_STRINGS[index % len(_ODD_STRINGS)]
    return LoggedRequest(
        time=-0.0 if low else float("inf"), site=text,
        protocol="https", src_address=text, domain=text,
        path=None if low else text, qtype=None if low else _U32 - 1,
        user_agent=None if low else text,
    )


def _location_at(low: bool, index: int = 0) -> ObserverLocation:
    text = _ODD_STRINGS[index % len(_ODD_STRINGS)]
    return ObserverLocation(
        vp_id=text, vp_country=text, destination_address=text,
        destination_name=text, protocol=text,
        path_length=0 if low else _U16,
        trigger_ttl=None if low else _U16 - 1,
        observer_address=None if low else text,
        observer_asn=None if low else _U64 - 1,
        observer_country=None if low else text,
    )


def _extreme_feed() -> FeedBatch:
    rows = range(len(_ODD_STRINGS))
    return FeedBatch(
        campaign_id="\x00", seq=_U64,
        records=[_decoy_at(low, index) for index in rows
                 for low in (True, False)],
        log_entries=[_entry_at(low, index) for index in rows
                     for low in (True, False)],
        locations=[_location_at(low, index) for index in rows
                   for low in (True, False)],
        context={"zone": "東京.example", "nul": "\x00"},
    )


def _extreme_final() -> ShardFinalPayload:
    return ShardFinalPayload(
        shard_index=_U32,
        records=[((0.0, 0, -_I64 - 1, -_I64 - 1), _decoy_at(True)),
                 ((1e9, _U8, _I64, _I64), _decoy_at(False, 1))],
        log_entries=[_entry_at(True), _entry_at(False, 2)],
        locations=[(-_I32 - 1, _location_at(True)),
                   (_I32, _location_at(False, 3))],
        ground_truth=[(0.0, ObservationRecord("", "\x00", 0.0, "ñ", False, 0)),
                      (1.5, ObservationRecord("東京", "d", 1.5, "a", True, _U32))],
        label_counts={"": 0, "\x00": _U64},
        processed=_U64,
        exhibitor_counts={"🛰": (0, _U64), "x": (_U64, 0)},
        resolver_received={"255.255.255.255": _U64},
        emitter_emitted=_U64, virtual_now=0.0, wall_seconds=1e-300,
        telemetry={"format": 1}, analysis={"ñ": [None, True]},
        spans=[Span("", 0.0, 0.0, 0.0, -_I32 - 1),
               Span("phase1", 1.0, 2.0, 3.0, _I32)],
    )


def _encode_past(field: str):
    """Encode a payload holding one value one past its field's width."""
    decoy, entry, location = _decoy_at(False), _entry_at(False), \
        _location_at(False)
    identity = decoy.identity
    feed = {
        "identity.sent_at": _forced(decoy, identity=_forced(
            identity, sent_at=_U32 + 1)),
        "identity.ttl": _forced(decoy, identity=_forced(identity, ttl=_U8 + 1)),
        "identity.sequence": _forced(decoy, identity=_forced(
            identity, sequence=_U16 + 1)),
        "path_length": _forced(decoy, path_length=_U16 + 1),
        "phase": _forced(decoy, phase=-1),
        "round_index": _forced(decoy, round_index=_U32 + 1),
    }
    if field in feed:
        return encode_feed_batch(FeedBatch("c", 1, records=[feed[field]]))
    if field == "qtype":
        return encode_feed_batch(FeedBatch("c", 1, log_entries=[
            _forced(entry, qtype=_U32)]))
    if field in ("trigger_ttl", "observer_asn"):
        top = {"trigger_ttl": _U16, "observer_asn": _U64}[field]
        return encode_feed_batch(FeedBatch("c", 1, locations=[
            _forced(location, **{field: top})]))
    if field == "seq":
        return encode_feed_batch(FeedBatch("c", _U64 + 1))
    final = _extreme_final()
    if field in ("key.major", "key.phase"):
        key = (0.0, _U8 + 1, 0, 0) if field == "key.phase" else \
            (0.0, 0, _I64 + 1, 0)
        final.records = [(key, decoy)]
    elif field == "plan_index":
        final.locations = [(_I32 + 1, location)]
    elif field == "scheduled_requests":
        final.ground_truth = [(0.0, ObservationRecord("e", "d", 0.0, "a",
                                                      True, _U32 + 1))]
    elif field == "value":
        final.label_counts = {"x": _U64 + 1}
    elif field == "observed":
        final.exhibitor_counts = {"x": (_U64 + 1, 0)}
    elif field == "shard":
        final.spans = [Span("s", 0.0, 0.0, 0.0, _I32 + 1)]
    elif field == "processed":
        final.processed = -1
    return encode_final_payload(final)


class TestRowBoundaries:
    """Every width round-trips at 0 and at its maximum; one past the
    maximum is an encode-time WireError naming the field."""

    def test_feed_extremes_round_trip_exactly(self):
        batch = _extreme_feed()
        blob = encode_feed_batch(batch)
        assert decode_feed_batch(blob) == batch
        assert encode_feed_batch(decode_feed_batch(blob)) == blob

    def test_final_extremes_round_trip_exactly(self):
        final = _extreme_final()
        blob = encode_final_payload(final)
        _assert_payloads_equal(final, decode_final_payload(blob))
        assert encode_final_payload(decode_final_payload(blob)) == blob

    def test_plan_extremes_round_trip_exactly(self):
        entries = [Phase2PlanEntry(index, text, text, text, text, text, text)
                   for index, text in ((0, "\x00"), (_U32, "東京"))]
        assert decode_plan_slice(encode_plan_slice(entries)) == entries

    @pytest.mark.parametrize("field", [
        "identity.sent_at", "identity.ttl", "identity.sequence",
        "path_length", "phase", "round_index", "qtype", "trigger_ttl",
        "observer_asn", "seq", "key.major", "key.phase", "plan_index",
        "scheduled_requests", "value", "observed", "shard", "processed",
    ])
    def test_one_past_the_width_names_the_field(self, field):
        with pytest.raises(WireError, match=re.escape(f" field {field}: ")):
            _encode_past(field)


def _reframed(blob) -> bytes:
    """``blob`` with its crc32 recomputed: a lie the checksum cannot see."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _blob_layout(blob):
    """(string count, table text offset, body offset) of a blob."""
    count, size = struct.unpack_from("<II", blob, 6)
    text = 14 + 4 * count
    return count, text, text + size


def _field_offset(row, name: str) -> int:
    return struct.calcsize("<" + row.format[1:1 + row.fields.index(name)])


class TestCraftedBlobsRejected:
    """Checksum-valid blobs that lie about their contents: each is a
    WireError, never an IndexError, struct.error or ValueError."""

    @staticmethod
    def _feed():
        rng = random.Random(0x3190)
        batch = _feed_batch(rng, size=3)
        batch.log_entries = [_log_entry(rng, 1.0)] + batch.log_entries
        return bytearray(encode_feed_batch(batch))

    def _lie(self, patch):
        """The reframed feed blob after ``patch(blob, count, text, body)``;
        the decoy section starts at ``body + 12``."""
        blob = self._feed()
        patch(blob, *_blob_layout(blob))
        return _reframed(blob)

    @staticmethod
    def _rejects(blob, message):
        with pytest.raises(WireError, match=message):
            decode_feed_batch(blob)

    def test_row_count_past_its_section(self):
        def patch(blob, count, text, body):
            struct.pack_into("<I", blob, body + 12, 1000)
        self._rejects(self._lie(patch),
                      r"truncated decoy section of 1000 rows")

    def test_string_reference_past_the_table(self):
        def patch(blob, count, text, body):
            offset = body + 16 + _field_offset(_DECOY, "domain")
            struct.pack_into("<I", blob, offset, count)
        self._rejects(self._lie(patch),
                      "decoy row references a string past the table")

    def test_optional_reference_past_the_table(self):
        def patch(blob, count, text, body):
            offset = body + 16 + _field_offset(_DECOY, "vp_province")
            struct.pack_into("<I", blob, offset, count + 1)
        self._rejects(self._lie(patch),
                      "decoy row references a string past the table")

    def test_header_reference_past_the_table(self):
        def patch(blob, count, text, body):
            struct.pack_into("<I", blob, body, count)
        self._rejects(self._lie(patch), "feed header row references")

    def test_table_overruns_the_blob(self):
        def patch(blob, count, text, body):
            struct.pack_into("<I", blob, 10, len(blob))
        self._rejects(self._lie(patch), "truncated string table")

    def test_string_count_overruns_the_blob(self):
        def patch(blob, count, text, body):
            struct.pack_into("<I", blob, 6, 2 ** 31)
        self._rejects(self._lie(patch), "truncated string lengths")

    def test_lengths_do_not_sum_to_the_table(self):
        def patch(blob, count, text, body):
            (first,) = struct.unpack_from("<I", blob, 14)
            struct.pack_into("<I", blob, 14, first + 1)
        self._rejects(self._lie(patch), "string lengths sum to")

    def test_non_utf8_table(self):
        def patch(blob, count, text, body):
            blob[text] = 0xFF
        self._rejects(self._lie(patch), "malformed string table")

    def test_trailing_bytes_inside_the_checksum(self):
        blob = self._feed()
        blob[-4:-4] = b"\x00"
        self._rejects(_reframed(blob), "trailing bytes after feed batch")

    def test_out_of_range_sequence(self):
        def patch(blob, count, text, body):
            offset = body + 16 + _field_offset(_DECOY, "identity.sequence")
            struct.pack_into("<H", blob, offset, 10000)
        self._rejects(self._lie(patch),
                      r"decoy row rejected: sequence out of range: 10000")

    def test_out_of_range_protocol(self):
        def patch(blob, count, text, body):
            decoys = struct.unpack_from("<I", blob, body + 12)[0]
            first_entry = body + 16 + decoys * _DECOY.size + 4
            struct.pack_into("<I", blob,
                             first_entry + _field_offset(_LOG, "protocol"),
                             struct.unpack_from("<I", blob, body)[0])
        self._rejects(self._lie(patch),
                      "log entry row rejected: unknown protocol")

    def test_every_ttl_byte_is_a_valid_ttl(self):
        """``ttl`` is a u8 and DecoyIdentity takes 0–255: no blob can
        carry an out-of-range ttl, so the width itself is the check."""
        def patch(blob, count, text, body):
            blob[body + 16 + _field_offset(_DECOY, "identity.ttl")] = 0xFF
        assert decode_feed_batch(self._lie(patch)).records[0].identity.ttl \
            == 0xFF


class TestPairwiseMerger:
    def test_matches_left_fold_for_every_count(self):
        for count in range(1, 33):
            merger = PairwiseMerger(lambda a, b: a + b)
            for index in range(count):
                merger.push([index])
            assert merger.result() == list(range(count))

    def test_empty_result_is_none(self):
        assert PairwiseMerger(lambda a, b: a + b).result() is None

    def test_partials_stay_logarithmic(self):
        merger = PairwiseMerger(lambda a, b: a + b)
        for index in range(1000):
            merger.push([index])
            assert len(merger) <= 10  # bin(1000) has 10 bits


SEEDS = (20240301, 7, 1234)


def _tiny(seed, workers):
    config = ExperimentConfig.tiny(seed=seed)
    config.workers = workers
    return config


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_vs_full_equivalence(seed):
    """Serial and 4-worker runs produce the same digest over the wire
    format."""
    serial = result_digest(Experiment(_tiny(seed, 1)).run())
    sharded = result_digest(Experiment(_tiny(seed, 4)).run())
    assert serial == sharded
