"""Platform vetting on a built world: the pair probe and the two filters.

The pair probe reads the VP's pinned first hop and builds no path to
the pair address: it creates only the routers that path would create
(``TopologyModel.add_routers``).  Router addresses and countries depend
on creation order, so vetting must leave the same router table,
interceptors and verdicts as building every probe path does.
"""

import dataclasses

import pytest

from repro.core.campaign import Campaign
from repro.core.config import ExperimentConfig
from repro.core.ecosystem import build_ecosystem
from repro.datasets.resolvers import PUBLIC_RESOLVERS
from repro.topology.model import Endpoint, TopologyModel


def scale_shaped(vps: int = 300, seed: int = 1) -> ExperimentConfig:
    """perfbench's ``scale`` config at ``vps`` VPs: tiny per-VP work and
    two DNS destinations, so most VPs share their routers."""
    config = ExperimentConfig.tiny(seed=seed)
    config.vp_scale = vps / 4364
    config.dns_destination_count = 2
    config.telemetry = True
    return config


def vet(config: ExperimentConfig):
    eco = build_ecosystem(config)
    campaign = Campaign(eco)
    report = campaign.vet_platform()
    return eco, campaign, report


def fingerprint(eco, report) -> dict:
    """Everything vetting leaves behind that later results can read."""
    return {
        "routers": [
            (key, hop.address, hop.country, hop.responds_icmp, hop.open_ports)
            for key, hop in eco.topology._hops.items()
        ],
        "interceptors": [
            (address, None if found is None else found.alt_resolver_address)
            for address, found in eco.interceptors.items()
        ],
        "kept": [vp.vp_id for vp in report.kept],
        "removed_intercepted": [vp.vp_id for vp in report.removed_intercepted],
        "removed_ttl_reset": [vp.vp_id for vp in report.removed_ttl_reset],
    }


def probe_counts(eco):
    counters = eco.telemetry.counter_values()
    return counters["vetting.pair_probes"], counters["vetting.probe_paths_built"]


def probe_alone(self, vp, pair_address):
    """The reference pair probe: each probe builds its path through
    ``build_path``, then asks the first hop's interceptor, sharing nothing
    with the VP's other probes.  It counts the path as built when some
    pool on it was open before the build, which is when the shipped probe
    draws it."""
    topology = self.eco.topology
    source = vp.endpoint()
    self._m_pair_probes.inc()
    pair = Endpoint(address=pair_address, asn=topology.backbone_asn("US", 0),
                    country="US")
    if any(topology._filled.get(asn, 0) < pool for asn, _, pool, _
           in topology._segments(source, pair, pair.country)):
        self._m_probe_paths_built.inc()
    topology.build_path(source, pair)
    interceptor = self.eco.interceptor_at(topology.first_hop(source).address)
    return interceptor is not None and interceptor.answers_pair_probe()


def build_every_path(topology, vp, destination):
    """A stand-in for ``TopologyModel.add_routers`` that builds the whole
    path through ``build_path``."""
    topology.build_path(vp, destination)
    return True


class TestProbeSkipIsExact:
    @pytest.fixture(scope="class")
    def shipped(self):
        return vet(scale_shaped())

    @pytest.fixture(scope="class")
    def always_built(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TopologyModel, "add_routers", build_every_path)
            return vet(scale_shaped())

    def test_same_world_as_building_every_probe_path(self, shipped, always_built):
        eco, _, report = shipped
        reference_eco, _, reference_report = always_built
        assert fingerprint(eco, report) == fingerprint(reference_eco, reference_report)
        assert report.removed_intercepted

    @pytest.fixture(scope="class")
    def probed_alone(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Campaign, "_pair_probe", probe_alone)
            return vet(scale_shaped())

    def test_sharing_a_vps_verdict_changes_nothing(self, shipped, probed_alone):
        """Reusing a VP's endpoint and verdict across its probes, and
        building no probe path, leaves the world, the verdicts and the
        probe counts that building every path and looking the first hop
        up at every probe leaves."""
        eco, _, report = shipped
        alone_eco, _, alone_report = probed_alone
        assert fingerprint(eco, report) == fingerprint(alone_eco, alone_report)
        assert probe_counts(eco) == probe_counts(alone_eco)

    def test_both_branches_run(self, shipped, always_built):
        probes, built = probe_counts(shipped[0])
        assert 0 < built < probes
        assert probe_counts(always_built[0]) == (probes, probes)

    def test_no_path_cached(self, shipped):
        _, campaign, _ = shipped
        assert campaign.known_paths() == []


class TestVettingFlags:
    def test_pair_filter_runs_without_ttl_exclusion(self):
        config = scale_shaped()
        config.exclude_ttl_reset_providers = False
        eco = build_ecosystem(config)
        # Plant TTL-resetting VPs: with the exclusion off they stay unless
        # the pair filter removes them.
        vps = [dataclasses.replace(vp, resets_ttl=True) if position % 10 == 0
               else vp for position, vp in enumerate(eco.platform.vantage_points)]
        eco.platform.replace_vps(vps)
        campaign = Campaign(eco)
        report = campaign.vet_platform()
        answering = {
            vp.vp_id for vp in vps
            if any(campaign._pair_probe(vp, destination.pair_address)
                   for destination in PUBLIC_RESOLVERS)
        }
        assert answering
        assert {vp.vp_id for vp in report.removed_intercepted} == answering
        assert report.removed_ttl_reset == []
        assert [vp.vp_id for vp in report.kept] == [
            vp.vp_id for vp in vps if vp.vp_id not in answering]
        assert any(vp.resets_ttl for vp in report.kept)
