"""Deterministic router fabric and path builder."""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.asns import CN_BACKBONE_ASNS, synthetic_asn
from repro.net.addr import ip_from_int
from repro.net.path import Hop, Path
from repro.records import frozen
from repro.simkit.rng import RandomRouter, randint, randrange

# Router addresses live in the lower quarter of 100.64.0.0/10 (CGNAT
# space): clearly synthetic, never colliding with the real destination
# addresses from the datasets nor with vantage points (allocated from
# 100.96.0.0 upwards by the VPN platform).
_ROUTER_SPACE_BASE = (100 << 24) | (64 << 16)
_ROUTER_SPACE_SIZE = 1 << 20


def _stable_hash(text: str) -> int:
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@frozen
class Endpoint:
    """A path endpoint: either a vantage point or a destination server."""

    address: str
    asn: int
    country: str


@frozen
class AnycastPresence:
    """Countries where an anycast service operates instances."""

    home: str
    countries: Tuple[str, ...]

    def instance_for(self, client_country: str) -> str:
        """Country of the instance a client in ``client_country`` reaches.

        Clients in a presence country hit the local instance; everyone else
        falls through to the US instance when one exists, else to home.
        This reproduces the paper's 114DNS case: CN VPs reach CN instances
        (which shadow) while global VPs reach US instances (which do not).
        """
        if client_country in self.countries:
            return client_country
        if "US" in self.countries:
            return "US"
        return self.home


@dataclass
class TopologyConfig:
    """Knobs controlling path shape and router pools."""

    routers_per_access_as: int = 8
    routers_per_backbone_as: int = 24
    routers_per_transit_as: int = 16
    access_hops: Tuple[int, int] = (1, 2)
    backbone_hops: Tuple[int, int] = (1, 2)
    transit_hops: Tuple[int, int] = (1, 2)
    destination_as_hops: Tuple[int, int] = (1, 2)
    icmp_silent_fraction: float = 0.06
    """Fraction of routers that never answer TTL expiry (paper limitation)."""
    bgp_port_fraction: float = 0.08
    """Fraction of backbone/transit routers with TCP/179 open — Section 5.2
    finds 92% of observers portless and BGP the top open port otherwise."""
    anycast_presence: Dict[str, AnycastPresence] = field(default_factory=dict)
    upstream_as_overrides: Dict[str, int] = field(default_factory=dict)
    """Destination address -> AS of its immediate upstream segment.  Lets
    specific services sit behind named networks (e.g. a resolver fronted
    by Zenlayer), placing on-path observers at near-destination hops."""
    named_backbones: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    """Country -> backbone ASNs.  Countries absent here get one synthetic
    backbone each; mainland China defaults to the Chinanet backbones."""


class TopologyModel:
    """Creates routers lazily and stitches paths deterministically.

    Routers are cached by (asn, index): the same logical device appears on
    every path that selects it, which is what lets a single on-path
    observer account for shadowing across many client-server paths
    (Table 3 counts observer IPs for this reason).
    """

    def __init__(self, router: RandomRouter, config: Optional[TopologyConfig] = None):
        self._router = router
        self.config = config if config is not None else TopologyConfig()
        self._hops: Dict[Tuple[int, int], Hop] = {}
        self._filled: Dict[int, int] = {}
        """ASN -> how many of its router indices, counted up from 0, exist.
        A pool ``(asn, size)`` is full once this reaches ``size``; routers
        are never dropped, so a full pool stays full."""
        self._addresses_in_use: set = set()
        self._backbone_asns: Dict[Tuple[str, int], int] = {}
        self._transit_asns: Dict[Tuple[str, str], int] = {}
        self._first_hop_hashes: Dict[str, int] = {}
        self._probe_segments: Dict[tuple, list] = {}
        """:meth:`add_routers`' segment tables, without their full
        trailing rows, by what :meth:`_segments` reads."""

    # -- router fabric -------------------------------------------------------

    def router_hop(self, asn: int, index: int, country: str) -> Hop:
        """The router ``index`` within ``asn``, created on first use."""
        key = (asn, index)
        hop = self._hops.get(key)
        if hop is not None:
            return hop
        offset = _stable_hash(f"router:{asn}:{index}") % _ROUTER_SPACE_SIZE
        while offset in self._addresses_in_use:
            offset = (offset + 1) % _ROUTER_SPACE_SIZE
        self._addresses_in_use.add(offset)
        address = ip_from_int(_ROUTER_SPACE_BASE + offset)
        # Two draws, once per router (routers are cached below), so the
        # generator is not kept for the rest of the run.
        rng = self._router.fresh_stream(f"router:{asn}:{index}")
        responds_icmp = rng.random() >= self.config.icmp_silent_fraction
        open_ports: Tuple[int, ...] = ()
        if rng.random() < self.config.bgp_port_fraction:
            open_ports = (179,)
        hop = Hop(
            address=address,
            asn=asn,
            country=country,
            responds_icmp=responds_icmp,
            open_ports=open_ports,
        )
        self._hops[key] = hop
        filled = self._filled.get(asn, 0)
        if index == filled:
            while (asn, filled) in self._hops:
                filled += 1
            self._filled[asn] = filled
        return hop

    def first_hop(self, vp: Endpoint) -> Hop:
        """The access router every path out of ``vp`` leaves through.

        Pinned per VP, so a VP's query to a target and to its pair
        resolver share the client-side hop where interception devices
        sit.  This is what makes the Appendix E pair-resolver heuristic
        sound.
        """
        digest = self._first_hop_hashes.get(vp.address)
        if digest is None:
            # Every path out of the VP asks, so hash its address once.
            digest = _stable_hash(f"firsthop:{vp.address}")
            self._first_hop_hashes[vp.address] = digest
        index = digest % self.config.routers_per_access_as
        return self.router_hop(vp.asn, index, vp.country)

    def known_router(self, address: str) -> Optional[Hop]:
        """Reverse lookup by address (used by observer port scans)."""
        for hop in self._hops.values():
            if hop.address == address:
                return hop
        return None

    # -- AS selection --------------------------------------------------------

    def backbone_asn(self, country: str, selector: int) -> int:
        """The backbone AS serving ``country``.

        Mainland China routes through the real Chinanet backbones; other
        countries get one synthetic backbone each unless the config names
        one (e.g. Rogers for CA).  Memoized: it is a pure function of its
        arguments and the config, asked for on every path and probe.
        """
        key = (country, selector)
        asn = self._backbone_asns.get(key)
        if asn is None:
            named = self.config.named_backbones.get(country)
            if named:
                asn = named[selector % len(named)]
            elif country == "CN":
                asn = CN_BACKBONE_ASNS[selector % len(CN_BACKBONE_ASNS)]
            else:
                asn = synthetic_asn(
                    10_000 + (_stable_hash(f"backbone:{country}") % 4096))
            self._backbone_asns[key] = asn
        return asn

    def transit_asn(self, src_country: str, dst_country: str) -> int:
        """A synthetic international transit AS between two countries
        (memoized, like :meth:`backbone_asn`)."""
        key = (src_country, dst_country)
        asn = self._transit_asns.get(key)
        if asn is None:
            pair = "|".join(sorted(key))
            asn = synthetic_asn(20_000 + (_stable_hash(f"transit:{pair}") % 4096))
            self._transit_asns[key] = asn
        return asn

    # -- anycast -------------------------------------------------------------

    def anycast_instance(self, service_name: str, home_country: str,
                         client_country: str) -> str:
        """Country of the anycast instance a client reaches.

        Services without a registered presence behave as unicast in their
        home country.
        """
        presence = self.config.anycast_presence.get(service_name)
        if presence is None:
            return home_country
        return presence.instance_for(client_country)

    # -- path construction ---------------------------------------------------

    def _segments(self, vp: Endpoint, destination: Endpoint,
                  dest_country: str) -> List[Tuple[int, str, int, Tuple[int, int]]]:
        """The router segments of a path after its pinned first hop.

        One ``(asn, country, pool size, hop-count range)`` row per segment,
        in path order.  A segment draws its hop count from the range, then
        one index in ``range(pool size)`` per hop.  The first hop counts
        toward the access range, so the access row draws one hop fewer:
        ``randint(low - 1, high - 1)`` is the draw ``randint(low, high) - 1``.
        """
        config = self.config
        low, high = config.access_hops
        rows = [
            (vp.asn, vp.country, config.routers_per_access_as, (low - 1, high - 1)),
            (self.backbone_asn(vp.country, 0), vp.country,
             config.routers_per_backbone_as, config.backbone_hops),
        ]
        if vp.country != dest_country:
            rows.append((self.transit_asn(vp.country, dest_country), vp.country,
                         config.routers_per_transit_as, config.transit_hops))
            rows.append((self.backbone_asn(dest_country, 1), dest_country,
                         config.routers_per_backbone_as, config.backbone_hops))
        upstream_asn = config.upstream_as_overrides.get(
            destination.address, destination.asn)
        rows.append((upstream_asn, dest_country, config.routers_per_transit_as,
                     config.destination_as_hops))
        return rows

    def add_routers(self, vp: Endpoint, destination: Endpoint) -> bool:
        """Create the routers :meth:`build_path` from ``vp`` to
        ``destination`` would create, in its order, and build no path.

        Returns False, deriving no stream, when every pool the path draws
        from is full: every index a path asks for (the first hop's, each
        draw and its re-pick ``(index + 1) % pool``) lies inside its
        segment's pool, so the path would create no router.  Otherwise
        draws as :meth:`build_path` does, up to the last open segment.
        A pool never empties, so full trailing rows leave the kept table.
        """
        key = (vp.asn, vp.country,
               self.config.upstream_as_overrides.get(
                   destination.address, destination.asn),
               destination.country)
        segments = self._probe_segments.get(key)
        if segments is None:
            segments = self._segments(vp, destination, destination.country)
            self._probe_segments[key] = segments
        filled = self._filled
        while segments and filled.get(segments[-1][0], 0) >= segments[-1][2]:
            segments.pop()
        if not segments:
            return False
        self._draw_routers(vp, destination, segments, None)
        return True

    def _draw_routers(self, vp: Endpoint, destination: Endpoint,
                      segments: list, hops: Optional[List[Hop]]) -> None:
        """Look the first hop up and draw each segment's routers, in path
        order.

        Appends every router to ``hops``.  With ``hops`` None, looks
        routers up only in pools that are still open: in a full pool
        every index exists, and :meth:`router_hop` on an existing router
        changes nothing.
        """
        pair_rng = self._router.fork(
            f"path:{vp.address}->{destination.address}"
        ).stream("hops")
        first = self.first_hop(vp)
        if hops is not None:
            hops.append(first)
        filled = self._filled
        for asn, country, pool, (low, high) in segments:
            look_up = hops is not None or filled.get(asn, 0) < pool
            previous = None
            for _ in range(randint(pair_rng, low, high)):
                index = randrange(pair_rng, pool)
                if index == previous:
                    # The hop before is this router (one index, one
                    # router, one address): take the next one.
                    index = (index + 1) % pool
                previous = index
                if look_up:
                    hop = self.router_hop(asn, index, country)
                    if hops is not None:
                        hops.append(hop)

    def build_path(self, vp: Endpoint, destination: Endpoint,
                   destination_country_override: Optional[str] = None,
                   destination_open_ports: Tuple[int, ...] = ()) -> Path:
        """A new :class:`Path` from ``vp`` to ``destination``, with no taps.

        Deterministic per (vp.address, destination.address) pair: a
        rebuild replays the same keyed per-pair stream and finds every
        router already in the table, so it gives the same hops and
        creates no router.
        ``destination_country_override`` places the terminal segment in an
        anycast instance's country rather than the service's home.
        """
        dest_country = destination_country_override or destination.country
        hops: List[Hop] = []
        self._draw_routers(vp, destination,
                           self._segments(vp, destination, dest_country), hops)
        hops.append(
            Hop(
                address=destination.address,
                asn=destination.asn,
                country=dest_country,
                is_destination=True,
                open_ports=destination_open_ports,
            )
        )
        return Path(hops)

    @staticmethod
    def normalized_hop(position: int, path_length: int) -> int:
        """Map a 1-indexed hop onto the paper's 1-10 scale (10 = destination)."""
        if not 1 <= position <= path_length:
            raise ValueError(
                f"position {position} outside path of length {path_length}"
            )
        if path_length == 1:
            return 10
        scaled = 1 + round(9 * (position - 1) / (path_length - 1))
        return int(scaled)
