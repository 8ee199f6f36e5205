"""Property-based tests on topology, scheduling, and parser invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.protocols.http import make_get
from repro.protocols.http.incremental import HttpRequestParser
from repro.simkit.rng import RandomRouter
from repro.topology.model import Endpoint, TopologyConfig, TopologyModel

countries = st.sampled_from(["US", "DE", "CN", "JP", "SG", "BR", "CA", "RU"])
octets = st.integers(0, 255)


@st.composite
def endpoints(draw, base):
    third = draw(octets)
    fourth = draw(octets)
    asn = draw(st.integers(1, 2**31))
    country = draw(countries)
    return Endpoint(address=f"{base}.{third}.{fourth}", asn=asn, country=country)


class TestTopologyProperties:
    @given(endpoints("100.96"), endpoints("198.18"), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_path_structural_invariants(self, vp, destination, seed):
        model = TopologyModel(RandomRouter(seed))
        path = model.build_path(vp, destination)
        # Ends at the destination, exactly one destination hop.
        assert path.destination.address == destination.address
        assert sum(1 for hop in path.hops if hop.is_destination) == 1
        # Bounded length given the default segment ranges.
        assert 3 <= path.length <= 12
        # Intermediate hops live in the router fabric (CGNAT space).
        for hop in path.hops[:-1]:
            assert hop.address.startswith("100.")

    @given(endpoints("100.96"), endpoints("198.18"), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_rebuild_gives_equal_hops_and_no_router(self, vp, destination,
                                                    seed):
        """A rebuild replays the pair's keyed stream over the routers the
        first build created: a new Path, the same hops, no new router."""
        model = TopologyModel(RandomRouter(seed))
        first = model.build_path(vp, destination)
        routers = dict(model._hops)
        second = model.build_path(vp, destination)
        assert second.hops == first.hops
        assert model._hops == routers

    @given(endpoints("100.96"), st.lists(endpoints("198.18"), min_size=2,
                                         max_size=4, unique_by=lambda e: e.address),
           st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_first_hop_shared_across_destinations(self, vp, destinations, seed):
        """The pair-resolver premise: one egress router per VP."""
        model = TopologyModel(RandomRouter(seed))
        first_hops = {
            model.build_path(vp, destination).hop_at(1).address
            for destination in destinations
        }
        assert len(first_hops) == 1

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=100)
    def test_normalized_hop_bounds_and_endpoints(self, position, length):
        if position > length:
            return
        normalized = TopologyModel.normalized_hop(position, length)
        assert 1 <= normalized <= 10
        if position == length:
            assert normalized == 10
        if position == 1 and length > 1:
            assert normalized == 1


class TestIncrementalParserProperties:
    @given(st.lists(st.from_regex(r"[a-z0-9-]{1,12}(\.[a-z0-9-]{1,12}){1,3}",
                                  fullmatch=True), min_size=1, max_size=5),
           st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_any_chunking_yields_same_requests(self, hosts, chunk):
        wire = b"".join(make_get(host).encode() for host in hosts)
        parser = HttpRequestParser()
        collected = []
        for start in range(0, len(wire), chunk):
            collected += parser.feed(wire[start:start + chunk])
        assert [request.host for request in collected] == hosts
        assert parser.buffered == 0
