"""Fault injection and crash tolerance.

Two guarantees are pinned here:

* **Determinism under faults** — with a fault spec attached, the serial
  run, the fault-free 4-worker run, a worker-killed-and-respawned run,
  and a checkpoint-resumed run all produce byte-identical result digests
  (the acceptance property of the robustness layer).
* **Graceful degradation** — injected faults never raise and never leave
  silent holes: every lost packet, retry, abandoned send, deferred VP,
  dropped/delayed/duplicated log append is visible as a telemetry
  counter.

Plus the unit behaviour those guarantees rest on: keyed fault draws,
outage-window arithmetic, spec validation, supervisor policy, and the
checkpoint store's resume contract.
"""

import dataclasses
import json
import os

import pytest

from repro.core.checkpoint import CheckpointError, CheckpointStore
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.shard import (
    SupervisorPolicy,
    result_digest,
    run_sharded,
)
from repro.faults import FaultPlan, FaultSpec, OutageWindow

SEED = 77003

# Churn/outage windows are squeezed into the first virtual hour so they
# overlap the tiny config's short Phase I send span; the defaults target
# multi-day campaigns.
FULL_WEATHER = FaultSpec(
    seed=7,
    link_loss_rate=0.05,
    vp_churn_rate=0.4,
    vp_outage_horizon=3600.0,
    vp_outage_duration=(60.0, 900.0),
    honeypot_outages_per_site=2,
    log_delay_rate=0.1,
    log_duplicate_rate=0.05,
)


def _faulted_config(workers: int = 1) -> ExperimentConfig:
    config = ExperimentConfig.tiny(seed=SEED)
    config.workers = workers
    config.faults = FULL_WEATHER
    config.telemetry = True
    return config


@pytest.fixture(scope="module")
def serial_faulted():
    return Experiment(_faulted_config()).run()


@pytest.fixture(scope="module")
def sharded_faulted():
    return Experiment(_faulted_config(workers=4)).run()


@pytest.fixture(scope="module")
def killed_and_resumed(tmp_path_factory):
    """One 4-worker faulted run with a worker killed after Phase I and
    checkpoints flushed, then a resume of the same directory after its
    last two final payloads are deleted (simulating a crashed parent)."""
    checkpoint_dir = tmp_path_factory.mktemp("faults-ckpt")
    killed = run_sharded(
        _faulted_config(workers=4),
        checkpoint_dir=checkpoint_dir,
        supervision=SupervisorPolicy(kill_after_phase1=1),
    )
    os.remove(checkpoint_dir / "shard-02.final.bin")
    os.remove(checkpoint_dir / "shard-03.final.bin")
    resumed = run_sharded(resume_dir=checkpoint_dir)
    return killed, resumed


class TestDeterminismUnderFaults:
    def test_sharded_faulted_equals_serial_faulted(self, serial_faulted,
                                                   sharded_faulted):
        assert result_digest(sharded_faulted) == result_digest(serial_faulted)

    def test_worker_kill_respawn_equals_serial(self, serial_faulted,
                                               killed_and_resumed):
        killed, _ = killed_and_resumed
        assert result_digest(killed) == result_digest(serial_faulted)
        assert killed.timings["shard_respawns"] == 1.0

    def test_respawn_counted_once(self, serial_faulted, killed_and_resumed):
        """A respawned worker forks from the parent's registry; the
        respawn must still be counted once, and every other counter must
        merge to the serial total."""
        killed, _ = killed_and_resumed
        serial = serial_faulted.telemetry.metrics.snapshot()["counters"]
        merged = killed.telemetry.metrics.snapshot()["counters"]
        assert set(merged) == set(serial) | {"shard.respawns"}
        for name, counter in serial.items():
            assert merged[name]["value"] == counter["value"], name
        assert merged["shard.respawns"]["value"] == 1

    def test_resume_equals_serial(self, serial_faulted, killed_and_resumed):
        _, resumed = killed_and_resumed
        assert result_digest(resumed) == result_digest(serial_faulted)

    def test_fault_counters_merge_exactly(self, serial_faulted,
                                          sharded_faulted):
        serial = serial_faulted.telemetry.metrics.snapshot()["counters"]
        sharded = sharded_faulted.telemetry.metrics.snapshot()["counters"]
        for name in ("faults.packets_lost", "campaign.send_retries",
                     "faults.sends_abandoned", "faults.vp_churn_deferrals",
                     "faults.honeypot_dropped", "faults.log_delayed",
                     "faults.log_duplicated"):
            assert sharded[name]["value"] == serial[name]["value"], name

    def test_faults_actually_happened(self, serial_faulted):
        counters = serial_faulted.telemetry.metrics.snapshot()["counters"]
        for name in ("faults.packets_lost", "campaign.send_retries",
                     "faults.vp_churn_deferrals", "faults.honeypot_dropped",
                     "faults.log_delayed", "faults.log_duplicated"):
            assert counters[name]["value"] > 0, name

    def test_faulted_digest_differs_from_fault_free(self, serial_faulted):
        clean = ExperimentConfig.tiny(seed=SEED)
        fault_free = Experiment(clean).run()
        assert result_digest(fault_free) != result_digest(serial_faulted)


class TestGracefulDegradation:
    def test_heavy_loss_completes_and_counts_abandonment(self):
        config = ExperimentConfig.tiny(seed=SEED)
        config.faults = FaultSpec(seed=3, link_loss_rate=0.5, max_retries=2)
        config.telemetry = True
        result = Experiment(config).run()  # must not raise
        counters = result.telemetry.metrics.snapshot()["counters"]
        assert counters["faults.packets_lost"]["value"] > 0
        assert counters["campaign.send_retries"]["value"] > 0
        assert counters["faults.sends_abandoned"]["value"] > 0
        # Abandonment degrades results, never empties them.
        assert len(result.ledger) > 0

    def test_zero_rate_spec_is_identity(self):
        config = ExperimentConfig.tiny(seed=SEED)
        baseline = result_digest(Experiment(config).run())
        noop = ExperimentConfig.tiny(seed=SEED)
        noop.faults = FaultSpec(seed=99)
        assert result_digest(Experiment(noop).run()) == baseline


class TestFaultPlanUnits:
    def test_loss_draws_are_pure_functions_of_keys(self):
        spec = FaultSpec(seed=11, link_loss_rate=0.3)
        first = FaultPlan(spec)
        second = FaultPlan(spec)
        for domain in ("a.example", "b.example"):
            for attempt in range(3):
                assert (first.loss_link(domain, attempt, 8, 64)
                        == second.loss_link(domain, attempt, 8, 64))

    def test_retransmissions_get_fresh_loss_draws(self):
        plan = FaultPlan(FaultSpec(seed=11, link_loss_rate=0.5))
        draws = {plan.loss_link("x.example", attempt, 10, 64)
                 for attempt in range(8)}
        assert len(draws) > 1

    def test_loss_respects_ttl_reach(self):
        plan = FaultPlan(FaultSpec(seed=11, link_loss_rate=1.0))
        assert plan.loss_link("d", 0, 10, 64) == 1
        # A TTL-1 probe only crosses the access link.
        assert plan.loss_link("d", 0, 10, 1) == 1

    def test_zero_rate_never_loses(self):
        plan = FaultPlan(FaultSpec(seed=11))
        assert plan.loss_link("d", 0, 10, 64) is None

    def test_vp_outage_cached_and_deterministic(self):
        spec = FaultSpec(seed=5, vp_churn_rate=1.0)
        plan = FaultPlan(spec)
        window = plan.vp_outage("10.0.0.1")
        assert window is not None
        assert plan.vp_outage("10.0.0.1") is window
        assert FaultPlan(spec).vp_outage("10.0.0.1") == window

    def test_defer_past_vp_outage(self):
        plan = FaultPlan(FaultSpec(seed=5, vp_churn_rate=1.0))
        window = plan.vp_outage("10.0.0.2")
        inside = (window.start + window.end) / 2
        assert plan.defer_past_vp_outage("10.0.0.2", inside) == window.end
        assert plan.defer_past_vp_outage("10.0.0.2", window.end) == window.end
        before = window.start - 1.0
        assert plan.defer_past_vp_outage("10.0.0.2", before) == before

    def test_site_outages_sorted_and_counted(self):
        plan = FaultPlan(FaultSpec(seed=5, honeypot_outages_per_site=3))
        windows = plan.site_outages("US")
        assert len(windows) == 3
        assert list(windows) == sorted(windows, key=lambda w: w.start)
        assert plan.site_online("US", windows[0].start) is False
        assert plan.site_online("US", windows[0].end) in (True, False)

    def test_log_append_fault_keyed_by_content(self):
        spec = FaultSpec(seed=5, log_delay_rate=0.5, log_duplicate_rate=0.5)
        first = FaultPlan(spec)
        second = FaultPlan(spec)
        key = ("US", "dns", "192.0.2.1", "x.example", 100.0)
        assert first.log_append_fault(*key) == second.log_append_fault(*key)

    def test_retry_backoff_doubles(self):
        plan = FaultPlan(FaultSpec(seed=0, retry_backoff_base=2.0))
        assert [plan.retry_backoff(n) for n in range(4)] == [2.0, 4.0, 8.0, 16.0]

    def test_outage_window_validation(self):
        with pytest.raises(ValueError, match="end after it starts"):
            OutageWindow(5.0, 5.0)

    @pytest.mark.parametrize("bad", [
        dict(link_loss_rate=1.5),
        dict(vp_churn_rate=-0.1),
        dict(max_retries=-1),
        dict(retry_backoff_base=0.0),
        dict(honeypot_outages_per_site=-2),
        dict(vp_outage_duration=(0.0, 10.0)),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_any_faults_and_affects_log(self):
        assert not FaultSpec().any_faults
        assert FaultSpec(link_loss_rate=0.1).any_faults
        assert not FaultSpec(link_loss_rate=0.1).affects_log
        assert FaultSpec(log_delay_rate=0.1).affects_log


class TestSupervisorPolicy:
    def test_defaults_valid(self):
        policy = SupervisorPolicy()
        assert policy.worker_timeout > policy.heartbeat_interval
        assert policy.kill_after_phase1 is None

    @pytest.mark.parametrize("bad", [
        dict(heartbeat_interval=0.0),
        dict(worker_timeout=0.1, heartbeat_interval=0.5),
        dict(max_respawns=-1),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SupervisorPolicy(**bad)


class TestCheckpointStore:
    def test_resume_requires_meta(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="meta.json"):
            store.load_meta()

    def test_seed_mismatch_rejected(self, tmp_path):
        config = ExperimentConfig.tiny(seed=1)
        config.workers = 2
        CheckpointStore(tmp_path).save_run(config, 2)
        other = ExperimentConfig.tiny(seed=2)
        other.workers = 2
        with pytest.raises(CheckpointError, match="cannot resume"):
            run_sharded(other, resume_dir=tmp_path)

    def test_round_trips_config_and_payload_flags(self, tmp_path):
        config = ExperimentConfig.tiny(seed=9)
        config.workers = 3
        store = CheckpointStore(tmp_path)
        store.save_run(config, 3)
        assert store.load_config().seed == 9
        assert store.load_meta()["shard_count"] == 3
        assert store.completed_shards(3) == []
        assert not store.has_phase1(0)
        assert store.load_phase2_plan() is None

    def test_writes_are_atomic(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_phase2_plan([[], []])
        assert not list(tmp_path.glob("*.tmp"))
        assert store.load_phase2_plan() == [[], []]

    @pytest.mark.parametrize("length", [0, 10, 100])
    def test_truncated_config_is_a_checkpoint_error(self, tmp_path, length):
        config = ExperimentConfig.tiny(seed=3)
        config.workers = 2
        CheckpointStore(tmp_path).save_run(config, 2)
        config_path = tmp_path / "config.pkl"
        config_path.write_bytes(config_path.read_bytes()[:length])
        with pytest.raises(CheckpointError, match="config.pkl"):
            run_sharded(resume_dir=tmp_path)

    def test_corrupt_meta_is_a_checkpoint_error(self, tmp_path):
        (tmp_path / "meta.json").write_text('{"seed": 1, "shard')
        with pytest.raises(CheckpointError, match="meta.json"):
            CheckpointStore(tmp_path).load_meta()

    def test_other_format_rejected(self, tmp_path):
        # The format-4 layout: same meta.json keys, older payload blobs.
        (tmp_path / "meta.json").write_text(json.dumps(
            {"seed": 1, "shard_count": 2, "format": 4, "kind": "run"}))
        with pytest.raises(CheckpointError, match="format 4"):
            CheckpointStore(tmp_path).load_meta()

    def test_previous_format_rejected(self, tmp_path):
        # Format 7 stored wire v4 blobs, which this build cannot decode.
        (tmp_path / "meta.json").write_text(json.dumps(
            {"seed": 1, "shard_count": 2, "format": 7, "kind": "run"}))
        with pytest.raises(CheckpointError, match="format 7; this build "
                                                  "reads format 8"):
            CheckpointStore(tmp_path).load_meta()


class TestLostTransit:
    def test_lost_packet_seen_by_hops_before_the_lossy_link(self):
        from repro.core.campaign import Campaign
        from repro.core.ecosystem import build_ecosystem
        from repro.core.identifier import DecoyIdentity
        from repro.net.path import TransitOutcome

        eco = build_ecosystem(ExperimentConfig.tiny(seed=SEED))
        campaign = Campaign(eco)
        vp = eco.platform.vantage_points[0]
        destination = eco.dns_destinations[0]
        info = campaign.path_info(
            vp, destination.address,
            destination_asn=eco.directory.asn_of(destination.address) or 0,
            destination_country=destination.country,
            service_name=destination.name,
        )
        identity = DecoyIdentity(sent_at=0, vp_address=vp.address,
                                 dst_address=destination.address, ttl=64,
                                 sequence=1)
        packet = campaign.factory.build(identity, "dns").packet
        result = info.path.transit(packet, loss_at=2)
        assert result.outcome is TransitOutcome.LOST
        assert result.final_position == 1
        assert result.icmp is None
        assert not result.delivered
        # The access-link hop processed the packet before the fault.
        assert [position for position, _ in result.observed_by] == [1]
