"""Wire-codec properties and serial-vs-sharded equivalence.

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
serial run, the 4-worker run, the killed-and-respawned run (replayed
Phase I verified against the original payload), and the resumed run
(payloads reloaded from wire blobs) all produce the same result digest.
"""

import random
import string

import pytest

from repro.core.config import ExperimentConfig
from repro.core.correlate import DecoyRecord
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
    decode_final_payload,
    decode_phase1_payload,
    decode_plan_slice,
    decode_plan_slices,
    encode_final_payload,
    encode_phase1_payload,
    encode_plan_slice,
    encode_plan_slices,
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
        telemetry=_snapshot(rng),
        spans=[Span(name=rng.choice(("build", "phase1", "phase2")),
                    wall_seconds=rng.uniform(0, 10),
                    virtual_start=rng.uniform(0, 1e5),
                    virtual_end=rng.uniform(0, 1e5),
                    shard=base.shard_index)
               for _ in range(rng.randint(0, 3))],
        analysis=_snapshot(rng),
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
        yield encode_final_payload(_final_payload(rng, base))
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
    produce the same digest over the wire format."""
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
