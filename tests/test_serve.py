"""Serve equivalence and multi-tenant contract tests.

The always-on service (:mod:`repro.serve`) promises that a live-served
report after N ingested records is *byte-identical* to batch ``repro
report`` over the same N records — including across a daemon kill and
restart-from-checkpoint.  This suite pins that contract:

* three seeds x {batch, live-fed, killed-and-restarted}: equal digests
  and byte-identical rendered reports;
* the incremental correlator emits the batch pass's exact event
  multiset, initial arrivals, and unknown domains;
* ingest for an unknown campaign raises a structured error (never a
  bare ``KeyError``), at the service layer and over both transports;
* four concurrent readers hammering ``/report`` mid-ingest always see a
  self-consistent (digest, text) pair;
* report renders are cached: repeated reads of an unchanged session are
  cache hits, the first read after an ingest is a miss.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.paperreport import full_report_from_state
from repro.core.config import ExperimentConfig
from repro.core.correlate import IncrementalCorrelator
from repro.core.experiment import Experiment
from repro.core.wire import FeedBatch
from repro.serve.feed import (
    FeedClient,
    FeedError,
    FeedServer,
    feed_batches_from_result,
)
from repro.serve.httpapi import ReportApiServer
from repro.serve.service import (
    InvalidCampaignError,
    MeasurementService,
    RegistrationError,
    UnknownCampaignError,
    WatermarkPolicy,
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
        first = MeasurementService(
            checkpoint_dir=tmp_path,
            watermark=WatermarkPolicy(records=1, seconds=0.0))
        for batch in batches[:half]:
            first.ingest(batch)
        # No flush_all(): the "kill" relies on watermark flushes alone.

        restored = MeasurementService.restore(tmp_path)
        acks = [restored.ingest(batch) for batch in batches]
        assert not any(ack["applied"] for ack in acks[:half - 1])
        session = restored.session(campaign)
        text, digest, _ = session.report()
        assert digest == result.analysis.digest()
        assert text == full_report_from_state(result.analysis,
                                              title=REPORT_TITLE)

    def test_restore_without_state_blob_replays_from_empty(self, runs,
                                                           tmp_path):
        """Killed before the first watermark: context blob only, the
        restored session starts at seq 0 and a full resend rebuilds."""
        seed = SEEDS[0]
        result = runs[seed]
        campaign = _campaign(seed)
        batches = list(feed_batches_from_result(result, campaign,
                                                batch_size=BATCH_SIZE))
        first = MeasurementService(
            checkpoint_dir=tmp_path,
            watermark=WatermarkPolicy(records=10**9, seconds=10**9))
        first.ingest(batches[0])  # registration flushes the context blob
        first.ingest(batches[1])  # never reaches a watermark

        restored = MeasurementService.restore(tmp_path)
        assert restored.session(campaign).seq == 0
        for batch in batches:
            restored.ingest(batch)
        _, digest, _ = restored.session(campaign).report()
        assert digest == result.analysis.digest()


class TestIncrementalCorrelator:
    def test_state_snapshot_roundtrip_continues_identically(self, runs):
        result = runs[SEEDS[0]]
        entries = list(result.log)
        half = len(entries) // 2
        full = IncrementalCorrelator(result.ledger, result.config.zone)
        for entry in entries:
            full.ingest(entry)

        first = IncrementalCorrelator(result.ledger, result.config.zone)
        for entry in entries[:half]:
            first.ingest(entry)
        resumed = IncrementalCorrelator.from_state_snapshot(
            first.state_snapshot(), result.ledger, result.config.zone)
        for entry in entries[half:]:
            resumed.ingest(entry)
        assert resumed.state_snapshot() == full.state_snapshot()

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
    def test_serve_and_run_checkpoints_do_not_mix(self, tmp_path):
        from repro.core.checkpoint import (
            CheckpointError,
            CheckpointStore,
            ServeCheckpointStore,
        )

        serve_store = ServeCheckpointStore(tmp_path)
        serve_store.save_meta()
        with pytest.raises(CheckpointError, match="serve"):
            CheckpointStore(tmp_path).load_meta()

    def test_wire_roundtrip_feed_and_state(self, runs):
        from repro.core.wire import (
            decode_feed_batch,
            decode_serve_state,
            encode_feed_batch,
            encode_serve_state,
        )

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

        service = MeasurementService()
        _feed_all(service, result, campaign)
        session = service.session(campaign)
        state = decode_serve_state(session.state_blob())
        assert state.campaign_id == campaign
        assert state.seq == session.seq
        assert state.records == result.ledger.records()
        # JSON decode yields lists where the snapshot held tuples, so
        # compare the canonical encodings.
        assert json.dumps(state.analysis, sort_keys=True) == \
            json.dumps(session.state.snapshot(), sort_keys=True)
