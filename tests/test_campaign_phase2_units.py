"""Focused unit tests for Campaign and HopByHopTracer internals."""

from collections import Counter

import pytest

import repro.core.campaign
from repro.core.campaign import Campaign
from repro.core.config import ExperimentConfig
from repro.core.correlate import Correlator
from repro.core.ecosystem import build_ecosystem
from repro.core.experiment import Experiment
from repro.core.phase2 import HopByHopTracer
from repro.core.shard import result_digest
from repro.datasets.resolvers import DESTINATIONS_BY_NAME
from repro.net.packet import Packet
from tests.make_pins import TINY_SEEDS, check, faulted_config


@pytest.fixture()
def eco():
    config = ExperimentConfig.tiny(seed=909090)
    config.interceptors_enabled = False
    return build_ecosystem(config)


@pytest.fixture()
def campaign(eco):
    return Campaign(eco)


def google_info(campaign, vp):
    destination = DESTINATIONS_BY_NAME["Google"]
    return campaign.path_info(vp, destination.address, 15169,
                              destination.country, service_name="Google")


class TestPathInfo:
    def test_cached_per_vp_destination_pair(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        first = google_info(campaign, vp)
        second = google_info(campaign, vp)
        assert first is second

    def test_instance_country_follows_anycast(self, campaign):
        cn_vp = next(vp for vp in campaign.eco.platform.vantage_points
                     if vp.country == "CN")
        global_vp = next(vp for vp in campaign.eco.platform.vantage_points
                         if vp.country not in ("CN", "US"))
        destination = DESTINATIONS_BY_NAME["114DNS"]
        cn_info = campaign.path_info(cn_vp, destination.address, 9808,
                                     "CN", service_name="114DNS")
        global_info = campaign.path_info(global_vp, destination.address, 9808,
                                         "CN", service_name="114DNS")
        assert cn_info.instance_country == "CN"
        assert global_info.instance_country == "US"

    def test_path_terminates_at_destination_address(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        info = google_info(campaign, vp)
        assert info.path.destination.address == "8.8.8.8"


class TestPathEviction:
    """The campaign's PathInfo LRU is the one path cache: an evicted pair
    is rebuilt as a fresh path with its taps attached once."""

    @pytest.mark.parametrize("seed", TINY_SEEDS)
    def test_evicting_every_path_keeps_the_pinned_result(self, monkeypatch,
                                                         seed):
        monkeypatch.setattr(repro.core.campaign, "_PATH_CACHE_LIMIT", 1)
        result = Experiment(ExperimentConfig.tiny(seed=seed)).run()
        check(f"tiny-{seed}-result", result_digest(result))

    def test_rebuilt_path_fires_each_tap_once(self, campaign, monkeypatch):
        monkeypatch.setattr(repro.core.campaign, "_PATH_CACHE_LIMIT", 1)
        deployment = campaign.eco.observer_deployment
        destinations = campaign.eco.web_destinations

        def info(vp, destination):
            return campaign.path_info(vp, destination.address,
                                      destination.asn, destination.country,
                                      service_name=destination.site)

        def sniffers(path):
            """Sniffer -> how many positions of ``path`` it taps."""
            return Counter(
                sniffer for sniffer in map(deployment.sniffer_for,
                                           path.hops[:-1])
                if sniffer is not None)

        vp, destination = next(
            (vp, destination)
            for vp in campaign.eco.platform.vantage_points
            for destination in destinations
            if sniffers(info(vp, destination).path))
        first = info(vp, destination)
        other = destinations[destinations.index(destination) - 1]
        info(vp, other)  # evicts the first pair
        rebuilt = info(vp, destination)
        assert rebuilt is not first and rebuilt.path is not first.path
        assert rebuilt.path.hops == first.path.hops
        expected = sniffers(rebuilt.path)
        before = {sniffer: sniffer.packets_seen for sniffer in expected}
        rebuilt.path.transit(Packet.udp(
            src=vp.address, dst=destination.address, ttl=64,
            src_port=40000, dst_port=80, payload=b"decoy"))
        assert {sniffer: sniffer.packets_seen - before[sniffer]
                for sniffer in expected} == expected


class TestSequences:
    def test_monotonic_per_pair(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        values = [campaign.next_sequence(vp, "8.8.8.8") for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_independent_across_pairs(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        campaign.next_sequence(vp, "8.8.8.8")
        assert campaign.next_sequence(vp, "9.9.9.9") == 0

    def test_wraps_at_10000(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        campaign._sequences[(vp.address, "8.8.8.8")] = 9999
        assert campaign.next_sequence(vp, "8.8.8.8") == 9999
        assert campaign.next_sequence(vp, "8.8.8.8") == 0


class TestSendDecoy:
    def test_dns_send_registers_and_delivers(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["Google"]
        info = google_info(campaign, vp)
        outcome = campaign.send_decoy(info, "dns", ttl=64, phase=1,
                                      destination=destination)
        assert outcome.transit.delivered
        assert campaign.ledger.lookup(outcome.record.domain) is outcome.record
        model = campaign.eco.resolver_models[destination.address]
        assert model.decoys_received == 1

    def test_low_ttl_probe_expires_with_icmp(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["Google"]
        info = google_info(campaign, vp)
        outcome = campaign.send_decoy(info, "dns", ttl=1, phase=2,
                                      destination=destination)
        assert not outcome.transit.delivered
        assert outcome.record.identity.ttl == 1

    def test_identity_encodes_vp_and_destination(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["Google"]
        info = google_info(campaign, vp)
        outcome = campaign.send_decoy(info, "dns", ttl=64, phase=1,
                                      destination=destination)
        identity = campaign.factory.codec.decode_domain(
            outcome.record.domain, campaign.config.zone
        )
        assert identity.vp_address == vp.address
        assert identity.dst_address == destination.address
        assert identity.ttl == 64

    def test_http_phase1_send_uses_handshake(self, campaign):
        """Phase I HTTP decoys ride an established TCP connection, so the
        payload packet that transits carries the handshake's sequencing."""
        vp = campaign.eco.platform.vantage_points[0]
        destination = campaign.eco.web_destinations[0]
        info = campaign.path_info(vp, destination.address, destination.asn,
                                  destination.country,
                                  service_name=destination.site)
        seen_flags = []
        info.path.add_tap(1, lambda position, hop, packet:
                          seen_flags.append(packet.transport.flags))
        outcome = campaign.send_decoy(info, "http", ttl=64, phase=1,
                                      destination=destination)
        assert outcome.transit.delivered
        from repro.net.packet import TCPSegment
        assert any(flags & TCPSegment.FLAG_SYN for flags in seen_flags)

    def test_http_phase2_send_skips_handshake(self, campaign):
        vp = campaign.eco.platform.vantage_points[1]
        destination = campaign.eco.web_destinations[0]
        info = campaign.path_info(vp, destination.address, destination.asn,
                                  destination.country,
                                  service_name=destination.site)
        seen_flags = []
        info.path.add_tap(1, lambda position, hop, packet:
                          seen_flags.append(packet.transport.flags))
        campaign.send_decoy(info, "http", ttl=2, phase=2,
                            destination=destination)
        from repro.net.packet import TCPSegment
        assert not any(flags & TCPSegment.FLAG_SYN for flags in seen_flags)


class TestTracer:
    def test_probe_count_equals_path_length(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["Google"]
        info = google_info(campaign, vp)
        tracer = HopByHopTracer(campaign)
        probe_set = tracer.schedule_traceroute(info, "dns", destination)
        campaign.eco.sim.run(until=campaign.eco.sim.now() + 3600)
        assert len(probe_set.domains_by_ttl) == info.path.length

    def test_icmp_reporters_cover_intermediate_hops(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["Google"]
        info = google_info(campaign, vp)
        tracer = HopByHopTracer(campaign)
        probe_set = tracer.schedule_traceroute(info, "dns", destination)
        campaign.eco.sim.run(until=campaign.eco.sim.now() + 3600)
        # Every responding intermediate hop reported exactly its address.
        for ttl, reporter in probe_set.icmp_reporters.items():
            assert info.path.hop_at(ttl).address == reporter
        assert info.path.length not in probe_set.icmp_reporters

    def test_locate_picks_minimal_triggering_ttl(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["Yandex"]
        info = campaign.path_info(vp, destination.address, 13238,
                                  destination.country, service_name="Yandex")
        tracer = HopByHopTracer(campaign)
        tracer.schedule_traceroute(info, "dns", destination)
        sim = campaign.eco.sim
        sim.run(until=sim.now() + campaign.config.phase2_observation_window)
        correlator = Correlator(campaign.ledger, zone=campaign.config.zone)
        phase2 = correlator.correlate(campaign.eco.deployment.log, phase=2)
        locations = tracer.locate(phase2)
        assert len(locations) == 1
        location = locations[0]
        # Yandex shadows at the destination: the probe that first triggers
        # is the one that reaches it.
        assert location.located
        assert location.at_destination
        assert location.observer_address is None

    def test_unlocated_when_nothing_triggers(self, campaign):
        vp = campaign.eco.platform.vantage_points[0]
        destination = DESTINATIONS_BY_NAME["SelfBuilt"]
        info = campaign.path_info(vp, destination.address, 64512,
                                  destination.country, service_name="SelfBuilt")
        tracer = HopByHopTracer(campaign)
        tracer.schedule_traceroute(info, "dns", destination)
        sim = campaign.eco.sim
        sim.run(until=sim.now() + 3600)
        correlator = Correlator(campaign.ledger, zone=campaign.config.zone)
        phase2 = correlator.correlate(campaign.eco.deployment.log, phase=2)
        locations = tracer.locate(phase2)
        assert not locations[0].located
        assert locations[0].normalized_hop() is None


class TestPhase1Scheduling:
    def test_rate_limit_spaces_sends_per_target(self, eco):
        """Ethics appendix: at most 2 decoys/second toward any target."""
        campaign = Campaign(eco)
        campaign.vet_platform()
        campaign.schedule_phase1()
        eco.sim.run(until=campaign.last_send_time)
        by_target = {}
        for record in campaign.ledger.records(phase=1):
            by_target.setdefault(record.destination_address, []).append(
                record.sent_at
            )
        for target, times in by_target.items():
            times.sort()
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(gap >= 0.499 for gap in gaps), target

    def test_multi_round_repeats_every_pair(self, eco):
        config = eco.config
        config.phase1_rounds = 2
        campaign = Campaign(eco)
        campaign.vet_platform()
        scheduled = campaign.schedule_phase1()
        eco.sim.run(until=campaign.last_send_time)
        records = campaign.ledger.records(phase=1)
        assert len(records) == scheduled
        pairs_round0 = {(record.vp_id, record.destination_address,
                         record.protocol)
                        for record in records if record.round_index == 0}
        pairs_round1 = {(record.vp_id, record.destination_address,
                         record.protocol)
                        for record in records if record.round_index == 1}
        assert pairs_round0 == pairs_round1

    def test_empty_platform_rejected(self, eco):
        campaign = Campaign(eco)
        eco.platform.replace_vps([])
        with pytest.raises(RuntimeError,
                           match="no vantage points left after vetting"):
            campaign.schedule_phase1()

    @pytest.mark.parametrize("make_config", [
        lambda: ExperimentConfig.tiny(seed=7),
        faulted_config,
    ], ids=["default", "faulted"])
    def test_every_send_queued_before_the_clock_starts(self, make_config):
        eco = build_ecosystem(make_config())
        campaign = Campaign(eco)
        campaign.vet_platform()
        campaign.schedule_phase1()
        assert eco.sim.pending == campaign.sends_scheduled
        assert campaign.sends_scheduled == campaign.sends_planned > 0

    def test_each_shard_queues_the_sends_it_owns(self):
        scheduled = []
        for index in range(2):
            eco = build_ecosystem(ExperimentConfig.tiny(seed=7))
            campaign = Campaign(eco, shard_index=index, shard_count=2)
            campaign.vet_platform()
            campaign.schedule_phase1()
            assert eco.sim.pending == campaign.sends_scheduled > 0
            scheduled.append(campaign.sends_scheduled)
        # Every shard walks the whole plan, so each counts every send.
        assert sum(scheduled) == campaign.sends_planned
