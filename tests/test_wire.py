"""Wire-codec properties and delta-vs-full equivalence.

The compact payload codec (:mod:`repro.core.wire`) replaced
pickle-the-world transport on the worker↔supervisor data plane, so its
contract carries the whole digest guarantee: encode/decode must round
trip every payload exactly, re-encoding a decoded payload must reproduce
identical bytes (the checkpoint store relies on blob-verbatim flushes),
and every truncated or corrupted blob must raise a versioned
:class:`WireError` instead of decoding into a silently wrong payload.

Like :mod:`tests.test_properties_codecs`, the property tests drive a
``random.Random`` with pinned seeds so failures replay exactly.  The
equivalence suite then closes the loop end to end: for three seeds, the
serial run, the 4-worker run (delta transport), the
killed-and-respawned run (replayed Phase I verified against the delta
stream), and the resumed run (payloads reloaded from wire blobs) all
produce the same result digest.
"""

import json
import random
import string

import pytest

from repro.core.config import ExperimentConfig
from repro.core.correlate import DecoyRecord, ShadowingEvent, ShardCorrelation
from repro.core.experiment import Experiment, Phase2PlanEntry
from repro.core.identifier import DecoyIdentity
from repro.core.phase2 import ObserverLocation
from repro.core.shard import (
    PairwiseMerger,
    SupervisorPolicy,
    result_digest,
    run_sharded,
)
from repro.core.wire import (
    WIRE_VERSION,
    ShardFinalPayload,
    ShardPhase1Payload,
    WireError,
    apply_snapshot_delta,
    decode_final_payload,
    decode_phase1_payload,
    decode_plan_slice,
    decode_plan_slices,
    encode_final_payload,
    encode_phase1_payload,
    encode_plan_slice,
    encode_plan_slices,
    snapshot_delta,
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


def _correlation(rng, records, entries):
    """A ShardCorrelation whose cross-references stay inside the payload."""
    firsts, seen = [], set()
    for index, entry in enumerate(entries):
        if entry.domain not in seen:
            seen.add(entry.domain)
            firsts.append((entry.time, index, entry.domain))
    events = {}
    arrivals = {}
    for _, record in records:
        if entries and rng.random() < 0.6:
            entry = rng.choice(entries)
            events.setdefault(entry.domain, []).append(ShadowingEvent(
                decoy=record, request=entry,
                combo=f"{record.protocol.upper()}-{entry.protocol.upper()}",
            ))
        if entries and rng.random() < 0.4:
            arrivals[record.domain] = rng.choice(entries)
    unknown = sorted({entry.domain for entry in entries
                      if rng.random() < 0.2})
    return ShardCorrelation(firsts=firsts, events=events,
                            initial_arrivals=arrivals,
                            unknown_domains=unknown)


def _snapshot(rng):
    return {
        "format": 1,
        "counters": {rng.choice(_WORDS): rng.randint(0, 500)
                     for _ in range(rng.randint(0, 5))},
        "pairs": [[rng.choice(_WORDS), rng.randint(0, 9)]
                  for _ in range(rng.randint(0, 6))],
    }


def _phase1_payload(rng, shard_index=0, size=None):
    size = rng.randint(2, 12) if size is None else size
    records = [_record(rng, index) for index in range(size)]
    clock, entries = 0.0, []
    for _ in range(rng.randint(0, 2 * size)):
        clock += rng.uniform(0.0, 30.0)
        entry_domain = (rng.choice(records)[1].domain
                        if rng.random() < 0.5 else None)
        entries.append(_log_entry(rng, clock, entry_domain))
    return ShardPhase1Payload(
        shard_index=shard_index,
        records=records,
        log_entries=entries,
        sends_planned=rng.randint(0, 10000),
        sends_scheduled=rng.randint(0, 10000),
        last_send_time=rng.uniform(0, 1e5),
        virtual_now=rng.uniform(0, 1e5),
        vetting_kept=rng.randint(0, 500),
        vetting_removed_ttl=rng.randint(0, 50),
        vetting_removed_intercepted=rng.randint(0, 50),
        wall_seconds=rng.uniform(0, 100),
        correlation=_correlation(rng, records, entries),
        analysis=_snapshot(rng),
        telemetry=_snapshot(rng),
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

    # The full correlation extends the Phase I one: same events plus a
    # tail referencing only entries this payload ships (what a real
    # worker's full-log pass produces under shard locality).
    base_corr = base.correlation
    firsts, seen = list(base_corr.firsts), {f[2] for f in base_corr.firsts}
    offset = len(base.log_entries)
    for index, entry in enumerate(new_entries):
        if entry.domain not in seen:
            seen.add(entry.domain)
            firsts.append((entry.time, offset + index, entry.domain))
    # Event lists are keyed by the logged domain and only ever appended
    # to, as a real worker's correlator retains them.
    events = {domain: list(entries)
              for domain, entries in base_corr.events.items()}
    for _, record in base.records + new_records:
        if new_entries and rng.random() < 0.4:
            entry = rng.choice(new_entries)
            events.setdefault(entry.domain, []).append(ShadowingEvent(
                decoy=record, request=entry,
                combo=f"{record.protocol.upper()}-{entry.protocol.upper()}",
            ))
    arrivals = dict(base_corr.initial_arrivals)
    for _, record in new_records:
        if new_entries and rng.random() < 0.3:
            if record.domain not in arrivals:
                arrivals[record.domain] = rng.choice(new_entries)
    unknown = base_corr.unknown_domains + sorted(
        {entry.domain for entry in new_entries if rng.random() < 0.2})
    correlation = ShardCorrelation(
        firsts=firsts, events=events, initial_arrivals=arrivals,
        unknown_domains=unknown)

    telemetry = json.loads(json.dumps(base.telemetry))
    for key in list(telemetry["counters"]):
        telemetry["counters"][key] += rng.randint(0, 9)
    analysis = json.loads(json.dumps(base.analysis))
    analysis["pairs"].extend(
        [[rng.choice(_WORDS), rng.randint(0, 9)]
         for _ in range(rng.randint(0, 3))])

    return ShardFinalPayload(
        shard_index=base.shard_index,
        records=new_records,
        log_entries=new_entries,
        locations=[
            (rng.randint(0, 500), ObserverLocation(
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
            ))
            for _ in range(rng.randint(0, 4))
        ],
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
        telemetry=telemetry,
        spans=[Span(name=rng.choice(("build", "phase1", "phase2")),
                    wall_seconds=rng.uniform(0, 10),
                    virtual_start=rng.uniform(0, 1e5),
                    virtual_end=rng.uniform(0, 1e5),
                    shard=base.shard_index)
               for _ in range(rng.randint(0, 3))],
        correlation=correlation,
        analysis=analysis,
    )


def _assert_payloads_equal(left, right):
    for name in left.__dataclass_fields__:
        if name == "correlation":
            continue
        assert getattr(left, name) == getattr(right, name), name
    lc, rc = left.correlation, right.correlation
    if lc is None or rc is None:
        assert lc is rc
        return
    assert lc.firsts == rc.firsts
    assert lc.events == rc.events
    assert lc.initial_arrivals == rc.initial_arrivals
    assert lc.unknown_domains == rc.unknown_domains


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

    def test_without_optional_sections(self):
        rng = random.Random(0x3173)
        payload = _phase1_payload(rng)
        payload.correlation = None
        payload.analysis = None
        payload.telemetry = None
        decoded = decode_phase1_payload(encode_phase1_payload(payload))
        assert decoded.correlation is None
        assert decoded.analysis is None
        assert decoded.telemetry is None


class TestFinalRoundTrip:
    def test_delta_reconstructs_full_state(self):
        rng = random.Random(0x3174)
        for _ in range(CASES):
            base = _phase1_payload(rng)
            final = _final_payload(rng, base)
            # Decode against the supervisor's *decoded* Phase I copy, as
            # run_sharded does — the delta must survive the object-identity
            # change across the pipe.
            supervisor_base = decode_phase1_payload(
                encode_phase1_payload(base))
            decoded = decode_final_payload(
                encode_final_payload(final, base), supervisor_base)
            for name in ("records", "log_entries", "locations",
                         "ground_truth", "label_counts", "processed",
                         "exhibitor_counts", "resolver_received",
                         "emitter_emitted", "virtual_now", "wall_seconds",
                         "spans"):
                assert getattr(final, name) == getattr(decoded, name), name
            # Telemetry/analysis reconstruct in JSON space (the worker's
            # tuples become lists, exactly as from_snapshot tolerates).
            assert decoded.telemetry == json.loads(json.dumps(final.telemetry))
            assert decoded.analysis == json.loads(json.dumps(final.analysis))
            lc, rc = final.correlation, decoded.correlation
            assert lc.firsts == rc.firsts
            assert lc.initial_arrivals == rc.initial_arrivals
            assert lc.unknown_domains == rc.unknown_domains
            assert set(lc.events) == set(rc.events)
            for domain in lc.events:
                assert lc.events[domain] == rc.events[domain], domain

    def test_delta_ships_fewer_bytes_than_full_reencode(self):
        rng = random.Random(0x3175)
        base = _phase1_payload(rng, size=50)
        final = _final_payload(rng, base)
        blob = encode_final_payload(final, base)
        # The final blob must not re-ship the Phase I records/log: a
        # regression to full shipping would exceed the Phase I blob size.
        assert len(blob) < len(encode_phase1_payload(base))

    def test_shard_mismatch_rejected(self):
        rng = random.Random(0x3176)
        base = _phase1_payload(rng, shard_index=0)
        final = _final_payload(rng, base)
        blob = encode_final_payload(final, base)
        other = decode_phase1_payload(encode_phase1_payload(
            _phase1_payload(rng, shard_index=1)))
        with pytest.raises(WireError, match="shard"):
            decode_final_payload(blob, other)


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
            slices = [self._entries(rng, rng.randint(0, 6))
                      for _ in range(rng.randint(1, 4))]
            assert decode_plan_slices(encode_plan_slices(slices)) == slices

    def test_single_slice_helpers(self):
        rng = random.Random(0x3178)
        entries = self._entries(rng, 5)
        assert decode_plan_slice(encode_plan_slice(entries)) == entries
        with pytest.raises(WireError, match="one plan slice"):
            decode_plan_slice(encode_plan_slices([entries, entries]))


class TestCorruptionAlwaysRejected:
    def _blobs(self, rng):
        base = _phase1_payload(rng, size=3)
        yield encode_phase1_payload(base)
        yield encode_final_payload(_final_payload(rng, base), base)
        yield encode_plan_slice(TestPlanRoundTrip()._entries(rng, 3))

    def test_every_truncation_raises_versioned_error(self):
        rng = random.Random(0x3179)
        for blob in self._blobs(rng):
            for length in range(len(blob)):
                with pytest.raises(WireError) as excinfo:
                    decode_phase1_payload(blob[:length])
                assert f"wire format v{WIRE_VERSION}" in str(excinfo.value)

    def test_single_byte_corruption_raises(self):
        rng = random.Random(0x317A)
        blob = encode_phase1_payload(_phase1_payload(rng, size=3))
        for _ in range(CASES):
            position = rng.randrange(len(blob))
            flipped = bytes(
                byte ^ (1 << rng.randrange(8)) if index == position else byte
                for index, byte in enumerate(blob))
            with pytest.raises(WireError):
                decode_phase1_payload(flipped)

    def test_trailing_garbage_rejected_by_checksum(self):
        rng = random.Random(0x317B)
        blob = encode_phase1_payload(_phase1_payload(rng, size=2))
        with pytest.raises(WireError):
            decode_phase1_payload(blob + b"\x00")

    def test_unknown_version_named_in_error(self):
        rng = random.Random(0x317C)
        blob = bytearray(encode_phase1_payload(_phase1_payload(rng, size=2)))
        blob[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version"):
            decode_phase1_payload(bytes(blob))

    def test_wrong_kind_rejected(self):
        rng = random.Random(0x317D)
        blob = encode_phase1_payload(_phase1_payload(rng, size=2))
        with pytest.raises(WireError, match="kind"):
            decode_plan_slices(blob)

    def test_not_pickle_not_python(self):
        for garbage in (b"", b"RWIR", b"\x80\x04K\x01.", b"{}"):
            with pytest.raises(WireError):
                decode_phase1_payload(garbage)


def _random_json(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return rng.choice((None, True, False, rng.randint(-50, 50),
                           rng.choice(_WORDS)))
    if roll < 0.7:
        return {rng.choice(_WORDS): _random_json(rng, depth + 1)
                for _ in range(rng.randint(0, 4))}
    return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]


def _grown(rng, value):
    """A plausible 'later snapshot': extend lists, bump ints, add keys."""
    if isinstance(value, dict):
        grown = {key: _grown(rng, child) for key, child in value.items()}
        if rng.random() < 0.4:
            grown["grown-" + rng.choice(_WORDS)] = _random_json(rng, 2)
        if grown and rng.random() < 0.2:
            grown.pop(rng.choice(sorted(grown)))
        return grown
    if isinstance(value, list):
        return value + [_random_json(rng, 2)
                        for _ in range(rng.randint(0, 3))]
    if isinstance(value, int) and not isinstance(value, bool):
        return value + rng.randint(0, 10)
    return value


class TestSnapshotDelta:
    def test_apply_inverts_delta_for_any_pair(self):
        rng = random.Random(0x317E)
        for _ in range(200):
            old = _random_json(rng)
            new = _random_json(rng)
            assert apply_snapshot_delta(old, snapshot_delta(old, new)) == new

    def test_grown_snapshots_ship_compact_deltas(self):
        rng = random.Random(0x317F)
        for _ in range(100):
            old = {word: _random_json(rng, 1) for word in _WORDS}
            new = _grown(rng, old)
            delta = snapshot_delta(old, new)
            assert apply_snapshot_delta(old, delta) == new
            if old != new:
                assert len(json.dumps(delta)) < 2 * len(json.dumps(new)) + 16

    def test_identity_delta_is_constant_size(self):
        value = {"a": list(range(1000))}
        assert snapshot_delta(value, value) == ["="]
        assert apply_snapshot_delta(value, ["="]) == value

    def test_malformed_delta_raises_wire_error(self):
        with pytest.raises(WireError):
            apply_snapshot_delta({}, ["?"])
        with pytest.raises(WireError):
            apply_snapshot_delta({}, None)


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
def test_delta_vs_full_equivalence(seed, tmp_path):
    """Serial, 4-worker, killed-and-respawned, and resumed runs all
    produce the same digest over the delta wire format."""
    serial = result_digest(Experiment(_tiny(seed, 1)).run())
    sharded = result_digest(Experiment(_tiny(seed, 4)).run())

    checkpoint_dir = tmp_path / f"ckpt-{seed}"
    killed = result_digest(run_sharded(
        _tiny(seed, 4),
        checkpoint_dir=checkpoint_dir,
        supervision=SupervisorPolicy(kill_after_phase1=2),
    ))
    (checkpoint_dir / "shard-01.final.bin").unlink()
    resumed = result_digest(run_sharded(resume_dir=checkpoint_dir))

    assert serial == sharded == killed == resumed
