"""Tests for the synthetic topology and path construction."""

import pytest

from repro.datasets.asns import CN_BACKBONE_ASNS
from repro.simkit.rng import RandomRouter
from repro.topology.model import (
    AnycastPresence,
    Endpoint,
    TopologyConfig,
    TopologyModel,
)

VP = Endpoint(address="100.96.0.1", asn=64512, country="DE")
VP_CN = Endpoint(address="100.96.0.2", asn=64513, country="CN")
DEST = Endpoint(address="8.8.8.8", asn=15169, country="US")


def make_model(**config_kwargs) -> TopologyModel:
    return TopologyModel(RandomRouter(11), TopologyConfig(**config_kwargs))


class TestRouterFabric:
    def test_router_hop_is_cached(self):
        model = make_model()
        assert model.router_hop(4134, 0, "CN") is model.router_hop(4134, 0, "CN")

    def test_router_addresses_unique(self):
        model = make_model()
        addresses = {
            model.router_hop(asn, index, "US").address
            for asn in (100, 200, 300)
            for index in range(20)
        }
        assert len(addresses) == 60

    def test_router_addresses_deterministic_across_models(self):
        first = make_model().router_hop(4134, 3, "CN")
        second = make_model().router_hop(4134, 3, "CN")
        assert first.address == second.address

    def test_known_router_reverse_lookup(self):
        model = make_model()
        hop = model.router_hop(4134, 1, "CN")
        assert model.known_router(hop.address) is hop
        assert model.known_router("192.0.2.99") is None

    def test_some_routers_have_bgp_port(self):
        model = make_model(bgp_port_fraction=0.5)
        ports = [model.router_hop(100, index, "US").open_ports for index in range(40)]
        assert any(ports_tuple == (179,) for ports_tuple in ports)
        assert any(ports_tuple == () for ports_tuple in ports)

    def test_icmp_silent_fraction_zero_means_all_respond(self):
        model = make_model(icmp_silent_fraction=0.0)
        assert all(
            model.router_hop(100, index, "US").responds_icmp for index in range(30)
        )


class TestBackboneSelection:
    def test_cn_uses_chinanet(self):
        model = make_model()
        assert model.backbone_asn("CN", 0) in CN_BACKBONE_ASNS
        assert model.backbone_asn("CN", 1) in CN_BACKBONE_ASNS

    def test_named_backbone_override(self):
        model = make_model(named_backbones={"CA": (29988,)})
        assert model.backbone_asn("CA", 0) == 29988

    def test_other_countries_get_stable_synthetic(self):
        model = make_model()
        assert model.backbone_asn("DE", 0) == model.backbone_asn("DE", 1)
        assert model.backbone_asn("DE", 0) != model.backbone_asn("FR", 0)

    def test_transit_as_symmetric(self):
        model = make_model()
        assert model.transit_asn("DE", "US") == model.transit_asn("US", "DE")


class TestAnycast:
    def test_presence_instance_selection(self):
        presence = AnycastPresence(home="CN", countries=("CN", "US"))
        assert presence.instance_for("CN") == "CN"
        assert presence.instance_for("US") == "US"
        assert presence.instance_for("DE") == "US"

    def test_presence_without_us_falls_back_home(self):
        presence = AnycastPresence(home="RU", countries=("RU",))
        assert presence.instance_for("DE") == "RU"

    def test_model_unregistered_service_is_unicast(self):
        model = make_model()
        assert model.anycast_instance("Yandex", "RU", "CN") == "RU"

    def test_model_registered_service_routes_locally(self):
        model = make_model(anycast_presence={
            "114DNS": AnycastPresence(home="CN", countries=("CN", "US")),
        })
        assert model.anycast_instance("114DNS", "CN", "CN") == "CN"
        assert model.anycast_instance("114DNS", "CN", "DE") == "US"


class TestPathConstruction:
    def test_path_ends_at_destination(self):
        path = make_model().build_path(VP, DEST)
        assert path.destination.address == "8.8.8.8"
        assert path.destination.is_destination

    def test_path_deterministic_per_pair(self):
        model = make_model()
        first = model.build_path(VP, DEST)
        second = model.build_path(VP, DEST)
        assert [hop.address for hop in first.hops] == [hop.address for hop in second.hops]

    def test_different_pairs_get_different_paths(self):
        model = make_model()
        first = model.build_path(VP, DEST)
        second = model.build_path(VP_CN, DEST)
        assert [hop.address for hop in first.hops] != [hop.address for hop in second.hops]

    def test_first_hop_pinned_per_vp(self):
        model = make_model()
        to_google = model.build_path(VP, DEST)
        to_other = model.build_path(VP, Endpoint("9.9.9.9", 19281, "US"))
        assert to_google.hop_at(1).address == to_other.hop_at(1).address
        assert to_google.hop_at(1) is model.first_hop(VP)

    def test_uncached_build_is_not_kept(self):
        # add_routers walks a pair's path to create its routers and keeps
        # no path; build_path later builds the same hops.
        model = make_model()
        assert model.add_routers(VP, DEST)
        path = model.build_path(VP, DEST)
        assert [hop.address for hop in path.hops] == [
            hop.address for hop in make_model().build_path(VP, DEST).hops]

    def test_creates_routers_predicts_every_new_router(self, monkeypatch):
        # add_routers creates, in order, every router build_path creates,
        # and says False, deriving no stream, only when it created none.
        # Pools small enough to fill within the sweep; the transit pool is
        # larger than the access and backbone ones, so it stays open after
        # a VP's own pools are full.  The third VP shares the first one's
        # AS and country, so the two share segment tables.
        pools = dict(routers_per_access_as=2, routers_per_backbone_as=2,
                     routers_per_transit_as=6,
                     upstream_as_overrides={"198.18.0.7": 21859})
        probed, built = make_model(**pools), make_model(**pools)
        forks = []
        fork = RandomRouter.fork

        def counted_fork(router, name):
            forks.append(name)
            return fork(router, name)

        monkeypatch.setattr(RandomRouter, "fork", counted_fork)

        def routers(model):
            return [(key, hop.address, hop.country)
                    for key, hop in model._hops.items()]

        vps = (VP, VP_CN, Endpoint("100.96.0.3", 64512, "DE"))
        outcomes = []
        for index in range(60):
            destination = Endpoint(f"198.18.0.{index}", 64600 + index % 3,
                                   ("US", "DE", "JP")[index % 3])
            for vp in vps:
                before = len(probed._hops)
                forks.clear()
                walked = probed.add_routers(vp, destination)
                if not walked:
                    assert len(probed._hops) == before
                    assert forks == []
                outcomes.append(walked)
                built.build_path(vp, destination)
                assert routers(probed) == routers(built)
        assert any(outcomes) and not all(outcomes)
        assert any(asn == 21859 for asn, _ in probed._hops)

    def test_cross_country_path_includes_both_backbones(self):
        model = make_model()
        path = model.build_path(VP_CN, DEST)
        asns = {hop.asn for hop in path.hops}
        assert any(asn in CN_BACKBONE_ASNS for asn in asns)

    def test_same_country_path_is_shorter(self):
        model = make_model()
        domestic = model.build_path(VP, Endpoint("84.200.69.80", 31078, "DE"))
        international = model.build_path(VP, DEST)
        assert domestic.length <= international.length

    def test_upstream_override_changes_terminal_segment(self):
        model = make_model(upstream_as_overrides={"8.8.8.8": 21859})
        path = model.build_path(VP, DEST)
        # The hops just before the destination sit in the override AS.
        assert path.hops[-2].asn == 21859

    def test_destination_country_override(self):
        model = make_model()
        path = model.build_path(
            VP_CN, Endpoint("114.114.114.114", 9808, "CN"),
            destination_country_override="CN",
        )
        assert path.destination.country == "CN"


class TestNormalizedHop:
    def test_destination_maps_to_ten(self):
        assert TopologyModel.normalized_hop(12, 12) == 10

    def test_first_hop_maps_to_one(self):
        assert TopologyModel.normalized_hop(1, 12) == 1

    def test_midpoint(self):
        assert TopologyModel.normalized_hop(6, 11) == 5 or \
               TopologyModel.normalized_hop(6, 11) == 6

    def test_single_hop_path(self):
        assert TopologyModel.normalized_hop(1, 1) == 10

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            TopologyModel.normalized_hop(0, 5)
        with pytest.raises(ValueError):
            TopologyModel.normalized_hop(6, 5)

    def test_monotonic(self):
        values = [TopologyModel.normalized_hop(position, 14) for position in range(1, 15)]
        assert values == sorted(values)
        assert values[0] == 1
        assert values[-1] == 10
