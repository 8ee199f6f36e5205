"""Serve equivalence and multi-tenant contract tests.

The always-on service (:mod:`repro.serve`) promises that a live-served
report after N ingested records is *byte-identical* to batch ``repro
report`` over the same N records — including across a daemon kill and
restart-from-checkpoint.  This suite pins that contract:

* three seeds x {batch, live-fed, killed-and-restarted}: equal digests
  and byte-identical rendered reports;
* the checkpoint journal: every acknowledged batch survives a kill, a
  torn final frame is dropped, a corrupt whole frame is an error, and a
  failed append is retried by a resend;
* a data batch that would register a decoy twice is rejected before
  any of it applies, in-process and over the socket;
* a checksum-valid frame holding a value its record rejects decodes to
  a ``WireError`` naming the field, and over the socket gets a
  ``wire_error`` ack while the daemon stays up;
* the feed's bytes for tiny seed 20240301 are pinned;
* the incremental correlator emits the batch pass's exact event
  multiset, initial arrivals, and unknown domains;
* ingest for an unknown campaign raises a structured error (never a
  bare ``KeyError``), at the service layer and over both transports;
* four concurrent readers hammering ``/report`` mid-ingest always see a
  self-consistent (digest, text) pair;
* report renders are cached: repeated reads of an unchanged session are
  cache hits, the first read after an ingest is a miss.
"""

import copy
import dataclasses
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.paperreport import full_report_from_state
from repro.core.checkpoint import CheckpointError, ServeCheckpointStore
from repro.core.config import ExperimentConfig
from repro.core.correlate import IncrementalCorrelator
from repro.core.experiment import Experiment
from repro.core.wire import (
    FRAME_HEADER,
    FeedBatch,
    WireError,
    decode_feed_batch,
    encode_feed_batch,
    framed,
)
from repro.serve.feed import (
    FeedClient,
    FeedError,
    FeedServer,
    feed_batches_from_result,
)
from repro.serve.httpapi import ReportApiServer
from repro.serve.service import (
    InvalidBatchError,
    InvalidCampaignError,
    MeasurementService,
    RegistrationError,
    UnknownCampaignError,
)
from repro.serve.session import REPORT_TITLE

SEEDS = (20240301, 7, 1234)
BATCH_SIZE = 50


@pytest.fixture(scope="module")
def runs():
    """seed -> completed tiny experiment result."""
    return {seed: Experiment(ExperimentConfig.tiny(seed=seed)).run()
            for seed in SEEDS}


def _campaign(seed) -> str:
    return f"campaign-{seed}"


def _feed_all(service, result, campaign_id, batch_size=BATCH_SIZE):
    for batch in feed_batches_from_result(result, campaign_id,
                                          batch_size=batch_size):
        service.ingest(batch)


class TestLiveEqualsBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_live_digest_and_report_match_batch(self, runs, seed):
        result = runs[seed]
        service = MeasurementService()
        _feed_all(service, result, _campaign(seed))
        session = service.session(_campaign(seed))
        text, digest, version = session.report()
        assert digest == result.analysis.digest()
        assert text == full_report_from_state(result.analysis,
                                              title=REPORT_TITLE)
        assert version == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_restart_from_checkpoint_matches_batch(self, runs, seed, tmp_path):
        """Kill mid-stream, restore, resend everything: the duplicate
        prefix is absorbed and the final report is byte-identical."""
        result = runs[seed]
        campaign = _campaign(seed)
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        half = len(batches) // 2
        first = MeasurementService(checkpoint_dir=tmp_path)
        for batch in batches[:half]:
            first.ingest(batch)
        # No flush_all(): the "kill" relies on the journal alone.

        restored = MeasurementService.restore(tmp_path)
        acks = [restored.ingest(batch) for batch in batches]
        assert not any(ack["applied"] for ack in acks[:half])
        session = restored.session(campaign)
        text, digest, _ = session.report()
        assert digest == result.analysis.digest()
        assert text == full_report_from_state(result.analysis,
                                              title=REPORT_TITLE)


class TestJournal:
    """The serve checkpoint is an append-only journal of feed frames."""

    @staticmethod
    def _batches(result, campaign):
        return list(feed_batches_from_result(result, campaign,
                                             batch_size=BATCH_SIZE))

    @staticmethod
    def _journal(directory, campaign) -> Path:
        return Path(directory) / f"campaign-{campaign}.journal.bin"

    def test_acks_are_durable(self, runs, tmp_path):
        """No flush_all(): the restored session is at the last ack."""
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = self._batches(result, campaign)
        first = MeasurementService(checkpoint_dir=tmp_path)
        acks = [first.ingest(batch) for batch in batches[:len(batches) // 2]]

        restored = MeasurementService.restore(tmp_path)
        session = restored.session(campaign)
        assert session.seq == acks[-1]["seq"] > 0
        assert session.log_records == acks[-1]["log_records"]
        assert session.digest() == first.session(campaign).digest()

    @pytest.mark.parametrize("cut", [2, 37], ids=["in-header", "in-blob"])
    def test_torn_tail_is_dropped_and_truncated(self, runs, tmp_path, cut):
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = self._batches(result, campaign)
        half = len(batches) // 2
        first = MeasurementService(checkpoint_dir=tmp_path)
        for batch in batches[:half]:
            first.ingest(batch)
        journal = self._journal(tmp_path, campaign)
        whole = journal.stat().st_size
        # Killed mid-append: only the next frame's first bytes landed.
        with open(journal, "ab") as handle:
            handle.write(framed(encode_feed_batch(batches[half]))[:cut])

        restored = MeasurementService.restore(tmp_path)
        assert journal.stat().st_size == whole
        assert restored.session(campaign).seq == half - 1
        for batch in batches:
            restored.ingest(batch)
        text, digest, _ = restored.session(campaign).report()
        assert digest == result.analysis.digest()
        assert text == full_report_from_state(result.analysis,
                                              title=REPORT_TITLE)
        again = MeasurementService.restore(tmp_path).session(campaign)
        assert again.digest() == result.analysis.digest()

    def test_corrupt_frame_raises_checkpoint_error(self, runs, tmp_path):
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = self._batches(result, campaign)
        first = MeasurementService(checkpoint_dir=tmp_path)
        for batch in batches[:4]:
            first.ingest(batch)
        journal = self._journal(tmp_path, campaign)
        data = bytearray(journal.read_bytes())
        second = FRAME_HEADER.size + len(encode_feed_batch(batches[0]))
        data[second + FRAME_HEADER.size + 20] ^= 0xFF
        journal.write_bytes(bytes(data))

        with pytest.raises(CheckpointError) as excinfo:
            MeasurementService.restore(tmp_path)
        message = str(excinfo.value)
        assert journal.name in message
        assert f"frame at byte {second} is corrupt" in message
        assert journal.stat().st_size == len(data)  # nothing truncated

    def test_concurrent_feeders_journal_in_apply_order(self, runs, tmp_path):
        """Four feeders resending one campaign at once: each batch is
        journaled once, in seq order, and the journal restores exactly."""
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = self._batches(result, campaign)
        service = MeasurementService(checkpoint_dir=tmp_path)
        service.ingest(batches[0])
        errors = []

        def feeder():
            try:
                for batch in batches:
                    service.ingest(batch)
            except Exception as error:  # noqa: BLE001
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=feeder) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        journaled = ServeCheckpointStore(tmp_path).load_journal(campaign)
        assert [batch.seq for batch in journaled] == \
            [batch.seq for batch in batches]
        restored = MeasurementService.restore(tmp_path).session(campaign)
        assert restored.digest() == result.analysis.digest()

    def test_failed_append_is_an_error_ack_and_resend_retries(
            self, runs, tmp_path, monkeypatch):
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = self._batches(result, campaign)
        append = ServeCheckpointStore.save_state_blob
        failures = []

        def fail_once(store, campaign_id, blob):
            if failures:
                return append(store, campaign_id, blob)
            failures.append(campaign_id)
            # A partial write, then the error: the retry must overwrite it.
            with open(self._journal(tmp_path, campaign_id), "ab") as handle:
                handle.write(blob[:10])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ServeCheckpointStore, "save_state_blob",
                            fail_once)
        service = MeasurementService(checkpoint_dir=tmp_path)
        server = FeedServer(service)
        server.start()
        try:
            with FeedClient(port=server.port) as client:
                client.send(batches[0])
                with pytest.raises(FeedError, match="journal_error"):
                    client.send(batches[1])
                ack = client.send(batches[1])  # the resend
                assert ack["seq"] == 1 and not ack["applied"]
                assert service.session(campaign).state_blob() == b""
                for batch in batches[2:]:
                    client.send(batch)
        finally:
            server.stop()
        restored = MeasurementService.restore(tmp_path).session(campaign)
        assert restored.digest() == result.analysis.digest()


class TestIncrementalCorrelator:
    def test_result_requires_retained_events(self, runs):
        result = runs[SEEDS[0]]
        correlator = IncrementalCorrelator(result.ledger, result.config.zone)
        with pytest.raises(RuntimeError, match="retain_events"):
            correlator.result()


class TestMultiTenantGuard:
    def test_unknown_campaign_is_structured(self):
        service = MeasurementService()
        batch = FeedBatch(campaign_id="ghost", seq=1)
        with pytest.raises(UnknownCampaignError) as excinfo:
            service.ingest(batch)
        payload = excinfo.value.to_payload()
        assert payload["error"]["code"] == "unknown_campaign"
        assert payload["error"]["campaign"] == "ghost"
        assert payload["error"]["known"] == []

    def test_unknown_campaign_never_keyerror(self):
        service = MeasurementService()
        try:
            service.ingest(FeedBatch(campaign_id="ghost", seq=1))
        except KeyError:  # pragma: no cover - the regression being pinned
            pytest.fail("unknown campaign surfaced as a bare KeyError")
        except UnknownCampaignError:
            pass

    def test_invalid_campaign_id_rejected(self):
        service = MeasurementService()
        batch = FeedBatch(campaign_id="../escape", seq=0,
                          context={"zone": "z.example"})
        with pytest.raises(InvalidCampaignError):
            service.ingest(batch)

    def test_reregistration_same_zone_is_idempotent(self):
        service = MeasurementService()
        context = {"zone": "z.example", "directory": [], "blocklist": []}
        first = service.ingest(FeedBatch(campaign_id="c", seq=0,
                                         context=context))
        again = service.ingest(FeedBatch(campaign_id="c", seq=0,
                                         context=dict(context)))
        assert first["applied"] and not again["applied"]

    def test_reregistration_conflicting_zone_rejected(self):
        service = MeasurementService()
        service.ingest(FeedBatch(
            campaign_id="c", seq=0,
            context={"zone": "z.example", "directory": [], "blocklist": []}))
        with pytest.raises(RegistrationError):
            service.ingest(FeedBatch(
                campaign_id="c", seq=0,
                context={"zone": "other.example", "directory": [],
                         "blocklist": []}))

    def test_feed_socket_reports_unknown_campaign(self):
        service = MeasurementService()
        server = FeedServer(service)
        server.start()
        try:
            with FeedClient(port=server.port) as client:
                with pytest.raises(FeedError, match="unknown_campaign"):
                    client.send(FeedBatch(campaign_id="ghost", seq=1))
        finally:
            server.stop()

    def test_http_reports_unknown_campaign_as_404(self):
        service = MeasurementService()
        server = ReportApiServer(service)
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}/campaigns/ghost/report"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read().decode())
            assert payload["error"]["code"] == "unknown_campaign"
        finally:
            server.stop()


class TestInvalidBatch:
    """A data batch that would register a decoy twice is rejected whole,
    before anything applies or is journaled."""

    @staticmethod
    def _bad_batch(batches, kind) -> FeedBatch:
        fresh = batches[2].records[:2]
        repeat = (batches[1].records[0] if kind == "in-ledger"
                  else fresh[0])
        return FeedBatch(campaign_id=batches[2].campaign_id, seq=2,
                         records=fresh + [repeat],
                         log_entries=batches[2].log_entries)

    @pytest.mark.parametrize("kind", ["in-ledger", "within-batch"])
    def test_rejected_in_process(self, runs, tmp_path, kind):
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        service = MeasurementService(checkpoint_dir=tmp_path)
        service.ingest(batches[0])
        service.ingest(batches[1])
        session = service.session(campaign)
        before = (session.seq, len(session.ledger), session.digest())
        journal = tmp_path / f"campaign-{campaign}.journal.bin"
        journal_bytes = journal.stat().st_size

        with pytest.raises(InvalidBatchError) as excinfo:
            service.ingest(self._bad_batch(batches, kind))
        assert excinfo.value.to_payload()["error"]["code"] == "invalid_batch"
        assert (session.seq, len(session.ledger), session.digest()) == before
        assert journal.stat().st_size == journal_bytes

        for batch in batches[2:]:
            service.ingest(batch)
        assert session.digest() == result.analysis.digest()
        restored = MeasurementService.restore(tmp_path).session(campaign)
        assert restored.digest() == result.analysis.digest()

    @pytest.mark.parametrize("kind", ["in-ledger", "within-batch"])
    def test_rejected_over_socket_connection_stays_open(self, runs, kind):
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        service = MeasurementService()
        server = FeedServer(service)
        server.start()
        try:
            with FeedClient(port=server.port) as client:
                client.send(batches[0])
                client.send(batches[1])
                with pytest.raises(FeedError, match="invalid_batch"):
                    client.send(self._bad_batch(batches, kind))
                for batch in batches[2:]:
                    client.send(batch)
        finally:
            server.stop()
        assert service.session(campaign).digest() == result.analysis.digest()


class TestBadValueFrame:
    """A checksum-valid frame whose values a record's constructor
    rejects: a log entry with protocol "ftp", a decoy with sequence
    10,000.  What a buggy feeder could send."""

    @staticmethod
    def _bad_batch(batches, kind) -> FeedBatch:
        if kind == "protocol":
            batch = next(b for b in batches[1:] if b.log_entries)
            entry = copy.copy(batch.log_entries[0])
            object.__setattr__(entry, "protocol", "ftp")
            return FeedBatch(batch.campaign_id, batch.seq,
                             log_entries=[entry])
        batch = next(b for b in batches[1:] if b.records)
        record = batch.records[0]
        identity = copy.copy(record.identity)
        object.__setattr__(identity, "sequence", 10_000)
        return FeedBatch(batch.campaign_id, batch.seq, records=[
            dataclasses.replace(record, identity=identity)])

    @pytest.mark.parametrize("kind", ["protocol", "sequence"])
    def test_decode_raises_wire_error_naming_the_field(self, runs, kind):
        batches = list(feed_batches_from_result(
            runs[SEEDS[0]], _campaign(SEEDS[0]), batch_size=BATCH_SIZE))
        blob = encode_feed_batch(self._bad_batch(batches, kind))
        with pytest.raises(WireError, match=kind):
            decode_feed_batch(blob)

    @pytest.mark.parametrize("kind", ["protocol", "sequence"])
    def test_socket_acks_wire_error_and_daemon_stays_up(self, runs, kind,
                                                        monkeypatch):
        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        service = MeasurementService()
        feed = FeedServer(service)
        http = ReportApiServer(service)
        feed.start()
        http.start()
        try:
            with FeedClient(port=feed.port) as client:
                client.send(batches[0])
                with pytest.raises(FeedError, match=f"wire_error.*{kind}"):
                    client.send(self._bad_batch(batches, kind))
            url = f"http://127.0.0.1:{http.port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
            with FeedClient(port=feed.port) as client:
                for batch in batches[1:]:
                    client.send(batch)
        finally:
            feed.stop()
            http.stop()
        assert not crashed
        assert service.session(campaign).digest() == result.analysis.digest()


_ROW = {"address": "10.0.0.1", "asn": 4134, "country": "CN", "role": "vp"}
_GOOD_CONTEXT = {"zone": "z.example", "directory": [_ROW],
                 "blocklist": ["10.0.0.9"]}


class TestBadRegistrationContext:
    """A registration context no session can be built from, as a buggy
    feeder could send it, is refused as a ``registration_error`` before
    anything registers or journals."""

    BAD = {
        "json-list": [_GOOD_CONTEXT],
        "row-without-address": dict(_GOOD_CONTEXT, directory=[
            {key: value for key, value in _ROW.items() if key != "address"}]),
        "no-zone": {"directory": [_ROW], "blocklist": []},
        "directory-not-a-list": dict(_GOOD_CONTEXT, directory=5),
        "conflicting-rows": dict(_GOOD_CONTEXT, directory=[
            _ROW, dict(_ROW, asn=4837)]),
        "zone-not-a-string": {"zone": 5},
        "zone-of-only-dots": dict(_GOOD_CONTEXT, zone="."),
        "blocklist-not-strings": dict(_GOOD_CONTEXT, blocklist=[5]),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_refused_in_process(self, tmp_path, kind):
        service = MeasurementService(checkpoint_dir=tmp_path)
        with pytest.raises(RegistrationError) as excinfo:
            service.ingest(FeedBatch("c", 0, context=self.BAD[kind]))
        assert excinfo.value.to_payload()["error"]["code"] == \
            "registration_error"
        assert service.campaign_ids() == []
        assert not list(tmp_path.glob("*.journal.bin"))
        assert service.ingest(FeedBatch("c", 0, context=_GOOD_CONTEXT))[
            "applied"]

    def test_refused_for_a_registered_campaign(self):
        service = MeasurementService()
        service.ingest(FeedBatch("c", 0, context=_GOOD_CONTEXT))
        with pytest.raises(RegistrationError, match="not an object"):
            service.ingest(FeedBatch("c", 0, context=self.BAD["json-list"]))
        assert service.session("c").zone == "z.example"

    def test_refused_over_socket_connection_stays_open(self, monkeypatch):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        service = MeasurementService()
        feed = FeedServer(service)
        http = ReportApiServer(service)
        feed.start()
        http.start()
        try:
            with FeedClient(port=feed.port) as client:
                with pytest.raises(FeedError, match="registration_error"):
                    client.send(FeedBatch(
                        "c", 0, context=self.BAD["row-without-address"]))
                assert client.send(FeedBatch("c", 0,
                                             context=_GOOD_CONTEXT))["applied"]
            url = f"http://127.0.0.1:{http.port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
        finally:
            feed.stop()
            http.stop()
        assert not crashed
        assert service.campaign_ids() == ["c"]


class TestFeedPin:
    def test_tiny_feed_bytes_pinned(self, runs):
        from tests.make_pins import check, feed_pin

        check("feed-tiny-20240301", feed_pin(runs[20240301]))


class TestFeedServerStop:
    def test_stop_wakes_blocked_accept(self):
        server = FeedServer(MeasurementService())
        server.start()
        time.sleep(0.2)  # let the accept thread block in accept()
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()


class TestConcurrentReaders:
    def test_four_readers_hammering_report_during_ingest(self, runs):
        """Readers must always see a (digest, text) pair from the same
        state — never a digest of one snapshot with another's render."""
        seed = SEEDS[0]
        result = runs[seed]
        campaign = _campaign(seed)
        service = MeasurementService()
        server = ReportApiServer(service)
        server.start()
        url = f"http://127.0.0.1:{server.port}/campaigns/{campaign}/report"
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=10) as response:
                        payload = json.loads(response.read().decode())
                except urllib.error.HTTPError as error:
                    if error.code == 404:  # not registered yet
                        continue
                    failures.append(f"HTTP {error.code}")
                    return
                except Exception as error:  # noqa: BLE001
                    failures.append(repr(error))
                    return
                session = service.session(campaign)
                with session.lock:
                    rendered = full_report_from_state(session.state,
                                                      title=REPORT_TITLE)
                    current = session.state.digest()
                if payload["digest"] == current and payload["report"] != rendered:
                    failures.append("digest/text mismatch")
                    return

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            _feed_all(service, result, campaign, batch_size=25)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            server.stop()
        assert not failures, failures
        _, digest, _ = service.session(campaign).report()
        assert digest == result.analysis.digest()


class TestReportCache:
    def test_hits_and_misses(self, runs):
        seed = SEEDS[0]
        result = runs[seed]
        campaign = _campaign(seed)
        service = MeasurementService()
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        for batch in batches[:-1]:
            service.ingest(batch)
        session = service.session(campaign)
        _, _, version1 = session.report()
        _, _, version2 = session.report()
        telemetry = service.telemetry(campaign)
        assert version1 == version2 == 1
        assert telemetry["report"]["cache_misses"] == 1
        assert telemetry["report"]["cache_hits"] == 1
        assert telemetry["report"]["cache_hit_ratio"] == 0.5

        service.ingest(batches[-1])
        _, _, version3 = session.report()
        assert version3 == 2
        assert service.telemetry(campaign)["report"]["cache_misses"] == 2

    def test_version_endpoint_tracks_renders_without_rendering(self, runs):
        """``/version`` is the poller's change-detection handle: digest
        moves on ingest, version only on render, ``current`` says
        whether the cached artifact still matches the digest."""
        seed = SEEDS[0]
        result = runs[seed]
        campaign = _campaign(seed)
        service = MeasurementService()
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        for batch in batches[:-1]:
            service.ingest(batch)
        server = ReportApiServer(service)
        server.start()
        base = f"http://127.0.0.1:{server.port}/campaigns/{campaign}"
        try:
            def get(path):
                with urllib.request.urlopen(base + path, timeout=10) as resp:
                    return json.loads(resp.read().decode()), dict(resp.headers)

            before, _ = get("/version")
            assert before["campaign"] == campaign
            assert before["version"] == 0 and before["current"] is False

            report, _ = get("/report")
            after, _ = get("/version")
            assert after["version"] == report["version"] == 1
            assert after["current"] is True
            assert after["digest"] == report["digest"]

            service.ingest(batches[-1])
            moved, _ = get("/version")
            assert moved["digest"] != after["digest"]
            assert moved["version"] == 1 and moved["current"] is False
            assert moved["digest"] == result.analysis.digest()
        finally:
            server.stop()

    def test_telemetry_exposes_ingest_rate(self, runs):
        seed = SEEDS[0]
        result = runs[seed]
        campaign = _campaign(seed)
        service = MeasurementService()
        _feed_all(service, result, campaign)
        telemetry = service.telemetry(campaign)
        assert telemetry["log_records"] == len(result.log)
        assert telemetry["ingest"]["records_per_second"] > 0


class TestCheckpointHygiene:
    def test_writes_are_atomic(self, tmp_path):
        store = ServeCheckpointStore(tmp_path)
        store.save_meta()
        store.start_journal("c1", framed(b"registration"))
        assert not list(tmp_path.glob("*.tmp"))
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["campaign-c1.journal.bin", "meta.json"]
        assert store.load_meta()["kind"] == "serve"

    def test_wire_roundtrip_feed_and_state(self, runs, tmp_path):
        from repro.core.wire import decode_feed_batch

        result = runs[SEEDS[0]]
        campaign = _campaign(SEEDS[0])
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        for batch in batches[:3]:
            decoded = decode_feed_batch(encode_feed_batch(batch))
            assert decoded.campaign_id == batch.campaign_id
            assert decoded.seq == batch.seq
            assert decoded.records == batch.records
            assert decoded.log_entries == batch.log_entries
            assert decoded.locations == batch.locations
            assert decoded.context == batch.context

        # The checkpoint state is the journal: every batch, in order.
        service = MeasurementService(checkpoint_dir=tmp_path)
        _feed_all(service, result, campaign)
        journaled = ServeCheckpointStore(tmp_path).load_journal(campaign)
        assert [encode_feed_batch(batch) for batch in journaled] == \
            [encode_feed_batch(batch) for batch in batches]
        assert service.session(campaign).state_blob() == b""
        telemetry = service.telemetry(campaign)["checkpoint"]
        assert "pending_records" not in telemetry
        assert telemetry["journal_bytes"] == \
            (tmp_path / f"campaign-{campaign}.journal.bin").stat().st_size
