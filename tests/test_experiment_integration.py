"""Integration tests: the full two-phase pipeline on a tiny campaign."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment, ExperimentResult
from repro.datasets.resolvers import RESOLVER_H_NAMES
from repro.simkit.units import DAY, HOUR, MINUTE


@pytest.fixture(scope="module")
def result() -> ExperimentResult:
    return Experiment(ExperimentConfig.tiny(seed=20240301)).run()


class TestCampaignMechanics:
    def test_platform_recruited(self, result):
        assert len(result.eco.platform) > 0

    def test_decoys_sent_over_all_protocols(self, result):
        protocols = {record.protocol for record in result.ledger.records(phase=1)}
        assert protocols == {"dns", "http", "tls"}

    def test_every_dns_destination_targeted(self, result):
        names = {
            record.destination_name
            for record in result.ledger.records(phase=1)
            if record.protocol == "dns"
        }
        assert len(names) == 36

    def test_decoy_domains_unique(self, result):
        domains = [record.domain for record in result.ledger.records()]
        assert len(set(domains)) == len(domains)

    def test_honeypot_received_traffic(self, result):
        assert len(result.log) > 0

    def test_vetting_ran(self, result):
        assert result.vetting is not None
        # With interceptors enabled, the pair filter must catch someone
        # over a realistically-sized platform, or at least not crash.
        assert result.vetting.kept

    def test_no_intercepted_vps_remain(self, result):
        """Every kept VP's first hop must be interception-free."""
        campaign = result.campaign
        eco = result.eco
        assert campaign.known_paths()
        for info in campaign.known_paths():
            assert not info.has_interceptor
            assert eco.interceptor_at(info.path.hop_at(1).address) is None
        # The stronger check: no alt-resolver source addresses in the log.
        alt_sources = {
            entry.src_address
            for entry in result.log
            if (record := eco.directory.lookup(entry.src_address)) is not None
            and record.role == "alt-resolver"
        }
        assert alt_sources == set()


class TestClassification:
    def test_unsolicited_events_found(self, result):
        assert len(result.phase1.events) > 0

    def test_no_unknown_domains(self, result):
        """Everything the honeypot logged must decode to a known decoy."""
        assert result.phase1.unknown_domains == []

    def test_initial_arrivals_only_for_dns_decoys(self, result):
        for domain, entry in result.phase1.initial_arrivals.items():
            record = result.ledger.lookup(domain)
            assert record.protocol == "dns"
            assert entry.protocol == "dns"

    def test_event_deltas_nonnegative(self, result):
        assert all(event.delta >= 0 for event in result.phase1.events)

    def test_combo_labels_consistent(self, result):
        for event in result.phase1.events:
            decoy_label, request_label = event.combo.split("-")
            assert decoy_label == {"dns": "DNS", "http": "HTTP", "tls": "TLS"}[
                event.decoy.protocol
            ]
            assert request_label == {"dns": "DNS", "http": "HTTP",
                                     "https": "HTTPS"}[event.request.protocol]

    def test_self_built_resolver_not_problematic(self, result):
        """Section 4: the control resolver triggers nothing."""
        assert not any(
            event.decoy.destination_name == "SelfBuilt"
            for event in result.phase1.events
        )

    def test_roots_and_tlds_not_problematic(self, result):
        """Section 4: authoritative-server paths trigger nothing."""
        assert not any(
            "root" in event.decoy.destination_name
            or "tld" in event.decoy.destination_name
            for event in result.phase1.events
        )

    def test_resolver_h_most_problematic(self, result):
        """Resolver_h destinations must dominate DNS shadowing."""
        from collections import Counter
        counts = Counter(
            event.decoy.destination_name
            for event in result.phase1.events
            if event.decoy.protocol == "dns"
            and event.request.protocol in ("http", "https")
        )
        assert counts
        resolver_h_total = sum(
            count for name, count in counts.items() if name in RESOLVER_H_NAMES
        )
        other_total = sum(
            count for name, count in counts.items() if name not in RESOLVER_H_NAMES
        )
        assert resolver_h_total > other_total
        assert counts.most_common(1)[0][0] in RESOLVER_H_NAMES


class TestPhase2:
    def test_locations_produced(self, result):
        assert result.locations

    def test_dns_observers_mostly_at_destination(self, result):
        dns_located = [loc for loc in result.locations
                       if loc.protocol == "dns" and loc.located]
        assert dns_located
        at_destination = sum(1 for loc in dns_located if loc.at_destination)
        assert at_destination / len(dns_located) > 0.8

    def test_http_observers_mostly_on_the_wire(self, result):
        http_located = [loc for loc in result.locations
                        if loc.protocol == "http" and loc.located]
        if not http_located:
            pytest.skip("tiny campaign found no HTTP observers")
        on_wire = sum(1 for loc in http_located if not loc.at_destination)
        assert on_wire / len(http_located) > 0.5

    def test_trigger_ttl_within_path(self, result):
        for location in result.locations:
            if location.trigger_ttl is not None:
                assert 1 <= location.trigger_ttl <= location.path_length

    def test_observer_addresses_only_for_on_wire(self, result):
        for location in result.locations:
            if location.at_destination:
                assert location.observer_address is None

    def test_icmp_revealed_addresses_are_routers(self, result):
        topology = result.eco.topology
        for location in result.locations:
            if location.observer_address is not None:
                assert topology.known_router(location.observer_address) is not None

    def test_normalized_hops_in_range(self, result):
        for location in result.locations:
            normalized = location.normalized_hop()
            if normalized is not None:
                assert 1 <= normalized <= 10

    def test_phase2_probe_domains_differ_from_phase1(self, result):
        phase1_domains = {record.domain for record in result.ledger.records(phase=1)}
        phase2_domains = {record.domain for record in result.ledger.records(phase=2)}
        assert phase1_domains.isdisjoint(phase2_domains)


class TestDeterminism:
    def test_same_seed_same_results(self):
        config = ExperimentConfig.tiny(seed=777)
        first = Experiment(config).run()
        second = Experiment(ExperimentConfig.tiny(seed=777)).run()
        assert len(first.ledger) == len(second.ledger)
        assert len(first.log) == len(second.log)
        assert len(first.phase1.events) == len(second.phase1.events)
        first_combos = [event.combo for event in first.phase1.events]
        second_combos = [event.combo for event in second.phase1.events]
        assert first_combos == second_combos

    def test_different_seed_differs(self):
        first = Experiment(ExperimentConfig.tiny(seed=1)).run()
        second = Experiment(ExperimentConfig.tiny(seed=2)).run()
        assert (
            len(first.log) != len(second.log)
            or [event.combo for event in first.phase1.events]
            != [event.combo for event in second.phase1.events]
        )


class TestTimings:
    def test_timings_recorded(self, result):
        assert result.timings is not None
        for key in ("build", "phase1", "phase2", "correlate", "total",
                    "virtual_span"):
            assert key in result.timings
            assert result.timings[key] >= 0
        assert result.timings["total"] >= result.timings["phase1"]
        # The virtual campaign spans at least the observation window.
        assert result.timings["virtual_span"] >= \
            result.config.observation_window
