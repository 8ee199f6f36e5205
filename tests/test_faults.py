"""Fault injection.

Two guarantees are pinned here:

* **Determinism under faults** — with a fault spec attached, the serial
  run and the 4-worker run produce byte-identical result digests, and
  every fault counter merges to the serial total.
* **Graceful degradation** — injected faults never raise and never leave
  silent holes: every lost packet, retry, abandoned send, deferred VP,
  dropped/delayed/duplicated log append is visible as a telemetry
  counter.

Plus the unit behaviour those guarantees rest on: keyed fault draws,
outage-window arithmetic and spec validation.
"""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.shard import result_digest
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


class TestDeterminismUnderFaults:
    def test_sharded_faulted_equals_serial_faulted(self, serial_faulted,
                                                   sharded_faulted):
        assert result_digest(sharded_faulted) == result_digest(serial_faulted)

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
