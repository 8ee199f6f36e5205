"""Tests for shadow policies, exhibitors, sniffers, resolver models."""

import random

import pytest

from repro.datasets.resolvers import DESTINATIONS_BY_NAME
from repro.honeypot.deployment import HoneypotDeployment
from repro.intel.blocklist import Blocklist
from repro.intel.directory import IpDirectory
from repro.net.packet import Packet
from repro.net.path import Hop
from repro.observers import (
    AddressAllocator,
    DnsInterceptor,
    GroundTruth,
    ObserverDeployment,
    OriginGroup,
    OriginPool,
    ResolverModel,
    ResolverProfile,
    ShadowExhibitor,
    ShadowPolicy,
    SnifferSpec,
    UnsolicitedEmitter,
    WireSniffer,
)
from repro.observers.onpath import extract_domain
from repro.observers.webdest import WebDestinationBehavior, WebDestinationModel
from repro.datasets.tranco import WebDestination
from repro.protocols.dns import make_query
from repro.protocols.http import make_get
from repro.protocols.tls import ClientHello, wrap_handshake
from repro.simkit.distributions import Constant
from repro.simkit.events import Simulator
from repro.simkit.rng import SubstreamFactory

ZONE = "www.experiment.domain"
DOMAIN = f"abcd1234-0001.{ZONE}"


def make_pool(name="test", blocklist=None, directory=None):
    return OriginPool(
        name=name,
        groups=[OriginGroup(asn=4134, country="CN", weight=1.0, blocklist_rate=0.0)],
        allocator=AddressAllocator(),
        directory=directory if directory is not None else IpDirectory(),
        blocklist=blocklist if blocklist is not None else Blocklist(),
        rng=random.Random(1),
    )


def make_policy(**overrides):
    defaults = dict(
        name="test-policy",
        delay=Constant(100.0),
        uses=Constant(2),
        protocol_weights={"dns": 1.0},
        origin_pool=make_pool(),
        observe_probability=1.0,
    )
    defaults.update(overrides)
    return ShadowPolicy(**defaults)


def make_exhibitor(policy=None, sim=None, deployment=None, ground_truth=None):
    sim = sim if sim is not None else Simulator()
    deployment = deployment if deployment is not None else HoneypotDeployment(zone=ZONE)
    emitter = UnsolicitedEmitter(deployment, sim, random.Random(2))
    exhibitor = ShadowExhibitor(
        policy=policy if policy is not None else make_policy(),
        sim=sim,
        emitter=emitter,
        rng=random.Random(3),
        ground_truth=ground_truth,
    )
    return exhibitor, sim, deployment


class TestOriginPool:
    def test_pick_returns_registered_address(self):
        directory = IpDirectory()
        pool = make_pool(directory=directory)
        address = pool.pick(random.Random(5), "dns")
        assert directory.asn_of(address) == 4134

    def test_blocklist_rate_one_lists_everything(self):
        blocklist = Blocklist()
        pool = OriginPool(
            name="all-bad",
            groups=[OriginGroup(1, "US", 1.0, blocklist_rate=1.0, address_count=5)],
            allocator=AddressAllocator(),
            directory=IpDirectory(),
            blocklist=blocklist,
            rng=random.Random(1),
        )
        assert all(address in blocklist for address in pool.all_addresses())

    def test_protocol_restriction_honoured(self):
        pool = OriginPool(
            name="split",
            groups=[
                OriginGroup(100, "US", 0.5, 0.0, protocols=("dns",)),
                OriginGroup(200, "DE", 0.5, 0.0, protocols=("https",)),
            ],
            allocator=AddressAllocator(),
            directory=(directory := IpDirectory()),
            blocklist=Blocklist(),
            rng=random.Random(1),
        )
        rng = random.Random(9)
        for _ in range(20):
            assert directory.asn_of(pool.pick(rng, "dns")) == 100
            assert directory.asn_of(pool.pick(rng, "https")) == 200

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            OriginPool("x", [], AddressAllocator(), IpDirectory(),
                       Blocklist(), random.Random(1))

    def test_allocator_is_stable(self):
        allocator = AddressAllocator()
        assert allocator.allocate("k") == allocator.allocate("k")
        assert allocator.allocate("k") != allocator.allocate("other")


class TestShadowPolicy:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            make_policy(observe_probability=1.5)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            make_policy(protocol_weights={"ftp": 1.0})

    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError):
            make_policy(protocol_weights={})

    def test_pick_protocol_respects_weights(self):
        policy = make_policy(protocol_weights={"dns": 0.0001, "http": 0.9999})
        rng = random.Random(4)
        picks = {policy.pick_protocol(rng) for _ in range(50)}
        assert "http" in picks


class TestShadowExhibitor:
    def test_observation_schedules_unsolicited_requests(self):
        exhibitor, sim, deployment = make_exhibitor()
        exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        assert sim.pending == 2  # uses = Constant(2)
        sim.run()
        assert len(deployment.log) == 2
        assert all(entry.domain == DOMAIN for entry in deployment.log)

    def test_delay_applied(self):
        exhibitor, sim, deployment = make_exhibitor()
        exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        sim.run()
        assert all(entry.time == 100.0 for entry in deployment.log)

    def test_zero_probability_never_leverages(self):
        exhibitor, sim, deployment = make_exhibitor(
            policy=make_policy(observe_probability=0.0)
        )
        for _ in range(10):
            exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        sim.run()
        assert len(deployment.log) == 0
        assert exhibitor.observed_count == 10
        assert exhibitor.leveraged_count == 0

    def test_http_unsolicited_reaches_honey_web(self):
        exhibitor, sim, deployment = make_exhibitor(
            policy=make_policy(protocol_weights={"http": 1.0})
        )
        exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        sim.run()
        assert all(entry.protocol == "http" for entry in deployment.log)
        assert all(entry.path is not None for entry in deployment.log)

    def test_https_unsolicited_logged_as_https(self):
        exhibitor, sim, deployment = make_exhibitor(
            policy=make_policy(protocol_weights={"https": 1.0})
        )
        exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        sim.run()
        assert all(entry.protocol == "https" for entry in deployment.log)

    def test_enumeration_rate_one_always_probes_paths(self):
        exhibitor, sim, deployment = make_exhibitor(
            policy=make_policy(protocol_weights={"http": 1.0},
                               http_enumeration_rate=1.0, uses=Constant(5))
        )
        exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        sim.run()
        assert all(entry.path != "/" for entry in deployment.log)

    def test_ground_truth_recorded(self):
        truth = GroundTruth()
        exhibitor, sim, _ = make_exhibitor(ground_truth=truth)
        exhibitor.observe(DOMAIN, observed_from="10.0.0.1")
        assert len(truth) == 1
        record = truth.observations[0]
        assert record.domain == DOMAIN
        assert record.leveraged
        assert record.scheduled_requests == 2

    def test_emit_unknown_protocol_raises(self):
        _, sim, deployment = make_exhibitor()
        emitter = UnsolicitedEmitter(deployment, sim, random.Random(1))
        with pytest.raises(ValueError):
            emitter.emit("gopher", DOMAIN, "1.2.3.4")

    def test_out_of_zone_http_request_is_dropped(self):
        _, sim, deployment = make_exhibitor()
        emitter = UnsolicitedEmitter(deployment, sim, random.Random(1))
        emitter.emit("http", "x.google.com", "1.2.3.4")
        assert len(deployment.log) == 0


class TestExtractDomain:
    def test_dns_packet(self):
        payload = make_query(DOMAIN, txid=1).encode()
        packet = Packet.udp("1.1.1.2", "8.8.8.8", 64, 1000, 53, payload)
        assert extract_domain(packet) == ("dns", DOMAIN)

    def test_http_packet(self):
        payload = make_get(DOMAIN).encode()
        packet = Packet.tcp("1.1.1.2", "2.2.2.2", 64, 1000, 80, payload)
        assert extract_domain(packet) == ("http", DOMAIN)

    def test_tls_packet(self):
        hello = ClientHello(server_name=DOMAIN, random=bytes(32))
        packet = Packet.tcp("1.1.1.2", "2.2.2.2", 64, 1000, 443,
                            wrap_handshake(hello.encode()))
        assert extract_domain(packet) == ("tls", DOMAIN)

    def test_wrong_port_not_parsed(self):
        payload = make_query(DOMAIN, txid=1).encode()
        packet = Packet.udp("1.1.1.2", "8.8.8.8", 64, 1000, 5353, payload)
        assert extract_domain(packet) is None

    def test_garbage_payload_returns_none(self):
        packet = Packet.tcp("1.1.1.2", "2.2.2.2", 64, 1000, 80, b"\x00\x01garbage")
        assert extract_domain(packet) is None

    def test_empty_payload_returns_none(self):
        packet = Packet.tcp("1.1.1.2", "2.2.2.2", 64, 1000, 80, b"")
        assert extract_domain(packet) is None


class TestWireSniffer:
    def make_sniffer(self, protocols=("dns", "http", "tls")):
        exhibitor, sim, deployment = make_exhibitor()
        hop = Hop(address="10.0.0.9", asn=4134, country="CN")
        sniffer = WireSniffer(hop, protocols, exhibitor, ZONE)
        return sniffer, exhibitor, sim

    def test_captures_in_zone_dns(self):
        sniffer, exhibitor, _ = self.make_sniffer()
        payload = make_query(DOMAIN, txid=1).encode()
        packet = Packet.udp("1.1.1.2", "8.8.8.8", 64, 1000, 53, payload)
        sniffer.tap(3, sniffer.hop, packet)
        assert sniffer.domains_captured == 1
        assert exhibitor.observed_count == 1

    def test_ignores_out_of_zone(self):
        sniffer, exhibitor, _ = self.make_sniffer()
        payload = make_query("www.google.com", txid=1).encode()
        packet = Packet.udp("1.1.1.2", "8.8.8.8", 64, 1000, 53, payload)
        sniffer.tap(3, sniffer.hop, packet)
        assert sniffer.domains_captured == 0
        assert exhibitor.observed_count == 0

    def test_protocol_filter(self):
        sniffer, exhibitor, _ = self.make_sniffer(protocols=("http",))
        payload = make_query(DOMAIN, txid=1).encode()
        packet = Packet.udp("1.1.1.2", "8.8.8.8", 64, 1000, 53, payload)
        sniffer.tap(3, sniffer.hop, packet)
        assert exhibitor.observed_count == 0


class TestObserverDeployment:
    def make_deployment(self, fraction):
        exhibitor, sim, _ = make_exhibitor()
        deployment = ObserverDeployment(
            specs=[SnifferSpec(4134, fraction, ("http",), "p")],
            exhibitors={"p": exhibitor},
            zone=ZONE,
            rng=random.Random(7),
        )
        return deployment

    def test_fraction_one_deploys_everywhere(self):
        deployment = self.make_deployment(1.0)
        hop = Hop(address="10.0.0.1", asn=4134, country="CN")
        assert deployment.sniffer_for(hop) is not None

    def test_fraction_zero_deploys_nowhere(self):
        deployment = self.make_deployment(0.0)
        hop = Hop(address="10.0.0.1", asn=4134, country="CN")
        assert deployment.sniffer_for(hop) is None

    def test_unlisted_as_gets_no_sniffer(self):
        deployment = self.make_deployment(1.0)
        hop = Hop(address="10.0.0.2", asn=9999, country="US")
        assert deployment.sniffer_for(hop) is None

    def test_decision_cached_per_router(self):
        deployment = self.make_deployment(0.5)
        hop = Hop(address="10.0.0.3", asn=4134, country="CN")
        assert deployment.sniffer_for(hop) is deployment.sniffer_for(hop)

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError):
            ObserverDeployment(
                specs=[SnifferSpec(1, 1.0, ("dns",), "missing")],
                exhibitors={},
                zone=ZONE,
                rng=random.Random(1),
            )

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SnifferSpec(1, 1.5, ("dns",), "p")


class TestResolverModel:
    def make_model(self, name="Google", shadow=None, shadow_countries=(),
                   retry_probability=0.0, recursive=True):
        sim = Simulator()
        deployment = HoneypotDeployment(zone=ZONE)
        exhibitor = None
        if shadow:
            emitter = UnsolicitedEmitter(deployment, sim, random.Random(2))
            exhibitor = ShadowExhibitor(make_policy(), sim, emitter, random.Random(3))
        profile = ResolverProfile(
            destination=DESTINATIONS_BY_NAME[name],
            asn=15169,
            recursive=recursive,
            retry_probability=retry_probability,
            shadow_exhibitor="test-policy" if shadow else None,
            shadow_countries=shadow_countries,
        )
        model = ResolverModel(profile, sim, deployment, exhibitor,
                              egress_address="100.88.0.1", rng=random.Random(4))
        return model, sim, deployment, exhibitor

    def test_recursion_reaches_honeypot(self):
        model, sim, deployment, _ = self.make_model()
        model.receive_decoy(DOMAIN, instance_country="US")
        sim.run()
        assert len(deployment.log) == 1
        entry = deployment.log.all()[0]
        assert entry.protocol == "dns"
        assert entry.src_address == "100.88.0.1"

    def test_non_recursive_never_contacts_honeypot(self):
        model, sim, deployment, _ = self.make_model(name="A-root", recursive=False)
        model.receive_decoy(DOMAIN, instance_country="US")
        sim.run()
        assert len(deployment.log) == 0

    def test_retries_produce_extra_queries(self):
        model, sim, deployment, _ = self.make_model(retry_probability=1.0)
        model.receive_decoy(DOMAIN, instance_country="US")
        sim.run()
        assert len(deployment.log) >= 2

    def test_shadowing_feeds_exhibitor(self):
        model, sim, _, exhibitor = self.make_model(shadow=True)
        model.receive_decoy(DOMAIN, instance_country="US")
        assert exhibitor.observed_count == 1

    def test_anycast_country_gate(self):
        model, sim, _, exhibitor = self.make_model(shadow=True,
                                                   shadow_countries=("CN",))
        model.receive_decoy(DOMAIN, instance_country="US")
        assert exhibitor.observed_count == 0
        model.receive_decoy(DOMAIN, instance_country="CN")
        assert exhibitor.observed_count == 1

    def test_profile_with_exhibitor_requires_binding(self):
        profile = ResolverProfile(
            destination=DESTINATIONS_BY_NAME["Google"], asn=15169,
            recursive=True, shadow_exhibitor="x",
        )
        with pytest.raises(ValueError):
            ResolverModel(profile, Simulator(), HoneypotDeployment(zone=ZONE),
                          None, "100.88.0.1", random.Random(1))


class TestDeriveOnlyWhereDrawn:
    """A keyed stream costs a sha256 and an MT19937 seeding, so a router
    or a resolver derives one only when a draw follows."""

    @pytest.fixture
    def derived(self, monkeypatch):
        """``(namespace, keys)`` of every ``SubstreamFactory.derive``."""
        calls = []
        original = SubstreamFactory.derive

        def counting(factory, *keys):
            calls.append((factory.namespace, keys))
            return original(factory, *keys)

        monkeypatch.setattr(SubstreamFactory, "derive", counting)
        return calls

    def test_hop_without_specs_derives_nothing(self, derived):
        exhibitor, _, _ = make_exhibitor()
        deployment = ObserverDeployment(
            specs=[SnifferSpec(4134, 0.5, ("http",), "p")],
            exhibitors={"p": exhibitor}, zone=ZONE, rng=random.Random(7),
            streams=SubstreamFactory(1, "sniffer.placement"))
        assert deployment.sniffer_for(Hop("10.0.0.2", 9999, "US")) is None
        assert derived == []
        deployment.sniffer_for(Hop("10.0.0.1", 4134, "CN"))
        assert derived == [("sniffer.placement", ("10.0.0.1",))]

    def test_non_recursive_delivery_derives_nothing(self, derived):
        streams = SubstreamFactory(1, "resolver.behavior")
        for name, recursive in (("A-root", False), ("Google", True)):
            profile = ResolverProfile(destination=DESTINATIONS_BY_NAME[name],
                                      asn=15169, recursive=recursive)
            model = ResolverModel(profile, Simulator(),
                                  HoneypotDeployment(zone=ZONE), None,
                                  "100.88.0.1", random.Random(4),
                                  streams=streams)
            model.receive_decoy(DOMAIN, instance_country="US")
            model.receive_decoy(DOMAIN, instance_country="US")
        # Only the recursive resolver derives, once per delivery, keyed by
        # the delivery's arrival index.
        assert derived == [("resolver.behavior", ("Google", DOMAIN, 0)),
                           ("resolver.behavior", ("Google", DOMAIN, 1))]

    def test_tiny_run_derives_no_idle_stream(self, derived, monkeypatch):
        from repro.core.config import ExperimentConfig
        from repro.core.experiment import Experiment

        asn_of = {}
        sniffer_for = ObserverDeployment.sniffer_for

        def recording(deployment, hop):
            asn_of[hop.address] = hop.asn
            return sniffer_for(deployment, hop)

        monkeypatch.setattr(ObserverDeployment, "sniffer_for", recording)
        eco = Experiment(ExperimentConfig.tiny(seed=20240301)).run().eco
        spec_asns = set(eco.observer_deployment._specs_by_asn)
        idle = {address for address, asn in asn_of.items()
                if asn not in spec_asns}
        placed = [keys[0] for namespace, keys in derived
                  if namespace == "sniffer.placement"]
        assert idle and len(placed) == len(set(placed))
        assert set(placed) == set(asn_of) - idle
        quiet = {model.name for model in eco.resolver_models.values()
                 if not model.profile.recursive and model.decoys_received}
        resolvers = {keys[0] for namespace, keys in derived
                     if namespace == "resolver.behavior"}
        assert quiet and resolvers and not quiet & resolvers


class TestWebDestinationModel:
    def make_model(self, tls_rate, http_rate=0.0):
        exhibitor, sim, deployment = make_exhibitor()
        behavior = WebDestinationBehavior(
            tls_shadow_rate_by_country={"CN": tls_rate},
            http_shadow_rate_by_country={"CN": http_rate},
        )
        model = WebDestinationModel(behavior, {"CN": exhibitor}, None,
                                    random.Random(5))
        destination = WebDestination(site="x.example", address="198.18.0.1",
                                     asn=100, country="CN", rank=1)
        return model, destination, exhibitor

    def test_rate_one_always_shadows(self):
        model, destination, exhibitor = self.make_model(1.0)
        assert model.receive_decoy(destination, "tls", DOMAIN)
        assert exhibitor.observed_count == 1

    def test_rate_zero_never_shadows(self):
        model, destination, exhibitor = self.make_model(0.0)
        assert not model.receive_decoy(destination, "tls", DOMAIN)

    def test_decision_is_sticky_per_destination(self):
        model, destination, _ = self.make_model(0.5)
        first = model.receive_decoy(destination, "tls", DOMAIN)
        for _ in range(5):
            assert model.receive_decoy(destination, "tls", DOMAIN) == first

    def test_rejects_dns_decoys(self):
        model, destination, _ = self.make_model(1.0)
        with pytest.raises(ValueError):
            model.receive_decoy(destination, "dns", DOMAIN)

    def test_country_without_exhibitor_does_not_shadow(self):
        model, _, _ = self.make_model(1.0)
        foreign = WebDestination(site="y.example", address="198.18.0.2",
                                 asn=100, country="US", rank=2)
        # Default rates are 0.0 -> never shadows; and no default exhibitor.
        assert not model.receive_decoy(foreign, "tls", DOMAIN)


class TestDnsInterceptor:
    def test_answers_pair_probe(self):
        sim = Simulator()
        interceptor = DnsInterceptor("10.0.0.1", "100.88.9.9", sim,
                                     HoneypotDeployment(zone=ZONE), random.Random(1))
        assert interceptor.answers_pair_probe()

    def test_redirection_recurses_and_retries(self):
        sim = Simulator()
        deployment = HoneypotDeployment(zone=ZONE)
        interceptor = DnsInterceptor("10.0.0.1", "100.88.9.9", sim, deployment,
                                     random.Random(1), retry_count=2)
        interceptor.on_query(DOMAIN)
        sim.run()
        assert len(deployment.log) == 3  # recursion + 2 retries
        assert all(entry.src_address == "100.88.9.9" for entry in deployment.log)
        assert interceptor.intercepted == 1
