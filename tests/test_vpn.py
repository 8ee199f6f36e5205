"""Tests for the VPN platform, scheduler, vetting, and survey."""

import pytest

from repro.datasets.providers import ALL_PROVIDERS, VpnProvider
from repro.datasets.resolvers import PUBLIC_RESOLVERS
from repro.simkit.rng import RandomRouter
from repro.vpn import (
    PLATFORM_SURVEY,
    RoundRobinScheduler,
    VantagePoint,
    VpnPlatform,
    pair_resolver_filter,
    survey_rows,
    vet_providers,
)
from repro.vpn.survey import meets_requirements
from repro.vpn.vetting import full_vetting


def make_platform(seed: int = 7, scale: float = 0.02) -> VpnPlatform:
    return VpnPlatform(RandomRouter(seed), vp_scale=scale)


class TestPlatform:
    def test_builds_vps_in_both_regions(self):
        platform = make_platform()
        assert platform.global_vps()
        assert platform.cn_vps()

    def test_deterministic(self):
        first = make_platform().vantage_points
        second = make_platform().vantage_points
        assert first == second

    def test_addresses_unique(self):
        platform = make_platform(scale=0.05)
        addresses = [vp.address for vp in platform.vantage_points]
        assert len(set(addresses)) == len(addresses)

    def test_cn_vps_have_provinces(self):
        platform = make_platform()
        assert all(vp.province is not None for vp in platform.cn_vps())
        assert all(vp.province is None for vp in platform.global_vps())

    def test_scale_changes_size(self):
        small = make_platform(scale=0.01)
        large = make_platform(scale=0.05)
        assert len(large) > len(small)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            make_platform(scale=0)

    def test_summary_rows_are_table1_shaped(self):
        rows = make_platform().summary()
        labels = [row.label for row in rows]
        assert labels == ["Global (excl. CN)", "China (CN mainland)", "Total"]
        total = rows[2]
        assert total.vps == rows[0].vps + rows[1].vps
        assert total.providers == rows[0].providers + rows[1].providers

    def test_summary_counts_provinces_for_cn(self):
        platform = make_platform(scale=0.05)
        cn_row = platform.summary()[1]
        provinces = {vp.province for vp in platform.cn_vps()}
        assert cn_row.countries == len(provinces)

    def test_full_scale_approximates_paper(self):
        platform = make_platform(scale=1.0)
        assert 4000 < len(platform) < 4800

    def test_residential_providers_never_recruited(self):
        residential = VpnProvider("ShadyResi", "global", "https://x", 0.5,
                                  datacenter=False)
        platform = VpnPlatform(
            RandomRouter(1), vp_scale=0.02,
            providers=list(ALL_PROVIDERS) + [residential],
        )
        assert all(vp.provider != "ShadyResi" for vp in platform.vantage_points)

    def test_endpoint_conversion(self):
        vp = make_platform().vantage_points[0]
        endpoint = vp.endpoint()
        assert endpoint.address == vp.address
        assert endpoint.asn == vp.asn
        assert endpoint.country == vp.country

    def test_region_property(self):
        platform = make_platform()
        assert all(vp.region == "cn" for vp in platform.cn_vps())
        assert all(vp.region == "global" for vp in platform.global_vps())


class TestScheduler:
    def test_rate_limit_spaces_sends(self):
        scheduler = RoundRobinScheduler(per_target_interval=0.5)
        first = scheduler.earliest_send_time("8.8.8.8", 10.0)
        second = scheduler.earliest_send_time("8.8.8.8", 10.1)
        third = scheduler.earliest_send_time("8.8.8.8", 12.0)
        assert first == 10.0
        assert second == 10.5
        assert third == 12.0

    def test_rate_limit_is_per_target(self):
        scheduler = RoundRobinScheduler(per_target_interval=1.0)
        scheduler.earliest_send_time("8.8.8.8", 10.0)
        assert scheduler.earliest_send_time("9.9.9.9", 10.0) == 10.0


class TestVetting:
    def make_vp(self, vp_id: str, resets_ttl: bool = False) -> VantagePoint:
        return VantagePoint(vp_id, "100.96.2.1", 64512, "US", "TestVPN",
                            resets_ttl=resets_ttl)

    def test_ttl_reset_providers_removed(self):
        vps = [self.make_vp("good"), self.make_vp("bad", resets_ttl=True)]
        report = vet_providers(vps)
        assert [vp.vp_id for vp in report.kept] == ["good"]
        assert [vp.vp_id for vp in report.removed_ttl_reset] == ["bad"]

    def test_pair_filter_removes_intercepted(self):
        vps = [self.make_vp("clean"), self.make_vp("intercepted")]

        def probe(vp, address):
            return vp.vp_id == "intercepted"

        report = pair_resolver_filter(vps, PUBLIC_RESOLVERS, probe)
        assert [vp.vp_id for vp in report.kept] == ["clean"]
        assert [vp.vp_id for vp in report.removed_intercepted] == ["intercepted"]

    def test_pair_filter_probes_pair_addresses_not_resolvers(self):
        probed = []

        def probe(vp, address):
            probed.append(address)
            return False

        pair_resolver_filter([self.make_vp("x")], PUBLIC_RESOLVERS, probe)
        resolver_addresses = {destination.address for destination in PUBLIC_RESOLVERS}
        assert probed
        assert not set(probed) & resolver_addresses

    def test_full_vetting_combines_both(self):
        vps = [
            self.make_vp("clean"),
            self.make_vp("resetter", resets_ttl=True),
            self.make_vp("intercepted"),
        ]
        report = full_vetting(vps, PUBLIC_RESOLVERS,
                              lambda vp, address: vp.vp_id == "intercepted")
        assert [vp.vp_id for vp in report.kept] == ["clean"]
        assert report.removed == 2

    def test_full_vetting_flags_are_independent(self):
        vps = [
            self.make_vp("clean"),
            self.make_vp("resetter", resets_ttl=True),
            self.make_vp("intercepted"),
        ]

        def run(**flags):
            report = full_vetting(vps, PUBLIC_RESOLVERS,
                                  lambda vp, address: vp.vp_id == "intercepted",
                                  **flags)
            return ([vp.vp_id for vp in report.kept],
                    [vp.vp_id for vp in report.removed_ttl_reset],
                    [vp.vp_id for vp in report.removed_intercepted])

        assert run(exclude_ttl_reset=False) == (
            ["clean", "resetter"], [], ["intercepted"])
        assert run(pair_filter=False) == (
            ["clean", "intercepted"], ["resetter"], [])
        assert run(exclude_ttl_reset=False, pair_filter=False) == (
            ["clean", "resetter", "intercepted"], [], [])


class TestSurvey:
    def test_only_this_work_and_similar_meet_requirements(self):
        qualifying = [
            platform.name for platform in PLATFORM_SURVEY
            if meets_requirements(platform)
        ]
        assert "This work" in qualifying
        # Crowdsourcing, ad, proxy and Tor platforms must all fail.
        for rejected in ("Ark", "Google Ads", "BrightData", "Tor", "OONI", "ICLab"):
            assert rejected not in qualifying

    def test_survey_rows_cover_all_platforms(self):
        rows = survey_rows()
        assert len(rows) == len(PLATFORM_SURVEY)
        assert all("meets_requirements" in row for row in rows)

    def test_this_work_vp_count_matches_table1(self):
        this_work = next(p for p in PLATFORM_SURVEY if p.name == "This work")
        assert this_work.vps == 4364
        assert this_work.countries == 82
        assert this_work.ases == 121
