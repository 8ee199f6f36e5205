"""Streaming analysis: shard-mergeable accumulators for every artifact.

The batch analyses (:mod:`repro.analysis.temporal`, ``combos``,
``origins``, ``landscape``, ``payloads``, ``landscape``-derived
geography) re-scan the full correlation output on every call; a report
over a 61-day log therefore costs a full pass per figure even though the
sharded executor already streamed every record once.  This module keeps
the batch code as the reference implementation and adds an *exact*
streaming mirror: a family of accumulator objects that

* consume :class:`~repro.core.correlate.ShadowingEvent` /
  :class:`~repro.core.correlate.DecoyRecord` /
  :class:`~repro.core.phase2.ObserverLocation` records one at a time,
* support ``merge(other)`` with the same per-field policy discipline as
  :mod:`repro.telemetry.registry` (sums for partitioned counts,
  set unions for distinct-entity sets, assert-same for replayed
  parameters),
* serialize to canonical JSON-able snapshots that ride the worker pipe
  and a bundle's ``analysis.json``.

Exactness contract
------------------

For any seed and any shard layout, every artifact derived from a merged
:class:`AnalysisState` is *bit-identical* (not approximately equal) to
the batch implementation run over the merged correlation — enforced by
``tests/test_streaming_analysis.py``.  Three properties make this
possible:

1. **Distinct-entity semantics.**  Every batch share is a ratio of set
   sizes or partitioned counts; the accumulators store the sets/counts
   themselves, so merged unions/sums reproduce the exact numerators and
   denominators (and therefore the exact float divisions).
2. **Order-free state.**  CDFs sort their samples at snapshot/render
   time, and every ranking the render applies uses content tie-breakers,
   so identical multisets give identical artifacts regardless of the
   order shards merged in (``merge`` is associative and commutative).
3. **Shard-local correlation.**  All honeypot log entries bearing a
   given decoy's data are produced by observers in the shard that owns
   the decoy's (VP, destination) pair, so per-shard correlation
   partitions the merged correlation exactly (see
   :mod:`repro.core.shard`).

Snapshots are canonical: keys sorted, sets emitted as sorted lists, all
mappings encoded as pair lists (JSON objects only allow string keys).
``AnalysisState.digest()`` hashes the canonical form, so equal states
have equal digests.
"""

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.combos import bucket_of
from repro.simkit.units import HOUR

GROUP_PROTOCOLS: Tuple[str, ...] = ("http", "tls")
"""Decoy protocols the observer-group accumulator tracks (Section 5.2
analyzes HTTP/TLS shadowing only; DNS events would bloat shard payloads
for an artifact that never reads them)."""


class AccumulatorMergeError(ValueError):
    """Two accumulators disagree on a merge="same" parameter."""


def _sorted_pairs(mapping: Dict) -> List[list]:
    """Canonical pair-list encoding of a tuple-keyed mapping."""
    return [[list(key), value] for key, value in sorted(mapping.items())]


def _sorted_set_pairs(mapping: Dict) -> List[list]:
    return [[list(key), sorted(values)] for key, values in sorted(mapping.items())]


def _merge_counts(target: Dict, source: Dict) -> None:
    for key, count in source.items():
        target[key] = target.get(key, 0) + count


def _merge_sets(target: Dict, source: Dict) -> None:
    for key, values in source.items():
        target.setdefault(key, set()).update(values)


class CdfAccumulator:
    """Delay samples for the Figure 4/7 retention CDFs.

    State is the exact multiset of per-event deltas, keyed by
    (decoy protocol, destination kind, destination name); merge is
    concatenation.  Samples sort at snapshot/render time, so a merged
    accumulator yields the same sorted tuple — hence the same
    :class:`~repro.analysis.temporal.Cdf` — as the serial one.
    """

    def __init__(self):
        self._samples: Dict[Tuple[str, str, str], List[float]] = {}

    def observe(self, event) -> None:
        decoy = event.decoy
        key = (decoy.protocol, decoy.destination_kind, decoy.destination_name)
        self._samples.setdefault(key, []).append(event.delta)

    def merge(self, other: "CdfAccumulator") -> None:
        for key, samples in other._samples.items():
            self._samples.setdefault(key, []).extend(samples)

    def deltas(self, decoy_protocols: Optional[Sequence[str]] = None,
               destination_kinds: Optional[Sequence[str]] = None,
               include_names: Optional[Sequence[str]] = None,
               exclude_names: Sequence[str] = ()) -> List[float]:
        """All samples matching the given filters (unsorted)."""
        protocols = set(decoy_protocols) if decoy_protocols is not None else None
        kinds = set(destination_kinds) if destination_kinds is not None else None
        included = set(include_names) if include_names is not None else None
        excluded = set(exclude_names)
        values: List[float] = []
        for (protocol, kind, name), samples in self._samples.items():
            if protocols is not None and protocol not in protocols:
                continue
            if kinds is not None and kind not in kinds:
                continue
            if included is not None and name not in included:
                continue
            if name in excluded:
                continue
            values.extend(samples)
        return values

    def snapshot(self) -> dict:
        return {"samples": [[list(key), sorted(samples)]
                            for key, samples in sorted(self._samples.items())]}

    @classmethod
    def from_snapshot(cls, data: dict) -> "CdfAccumulator":
        acc = cls()
        for key, samples in data["samples"]:
            acc._samples[tuple(key)] = list(samples)
        return acc


class ComboAccumulator:
    """Figure 5 state: sends per destination and decoys per
    (combo, latency bucket).

    ``sent`` counts partition across shards (each decoy is registered by
    exactly one shard) and merge by sum; the per-cell *decoy domain sets*
    merge by union, which is what makes the "a decoy contributes once per
    (combo, bucket) it appeared in" semantics exact across shards.
    """

    def __init__(self):
        self._sent: Dict[Tuple[str, str], int] = {}
        self._decoys: Dict[Tuple[str, str, str, str], Set[str]] = {}

    def observe_decoy(self, record) -> None:
        if record.phase != 1:
            return
        key = (record.protocol, record.destination_name)
        self._sent[key] = self._sent.get(key, 0) + 1

    def observe(self, event) -> None:
        record = event.decoy
        if record.phase != 1:
            return
        key = (record.protocol, record.destination_name, event.combo,
               bucket_of(event.delta))
        self._decoys.setdefault(key, set()).add(record.domain)

    def merge(self, other: "ComboAccumulator") -> None:
        _merge_counts(self._sent, other._sent)
        _merge_sets(self._decoys, other._decoys)

    def sent(self, protocol: str, destination_name: str) -> int:
        return self._sent.get((protocol, destination_name), 0)

    def decoy_union(self, protocol: str, destination_name: str,
                    combos: Optional[Sequence[str]] = None) -> Set[str]:
        """Distinct decoys to one destination across matching cells."""
        wanted = set(combos) if combos is not None else None
        union: Set[str] = set()
        for (decoy_protocol, name, combo, _), decoys in self._decoys.items():
            if decoy_protocol != protocol or name != destination_name:
                continue
            if wanted is not None and combo not in wanted:
                continue
            union |= decoys
        return union

    def snapshot(self) -> dict:
        return {"sent": _sorted_pairs(self._sent),
                "decoys": _sorted_set_pairs(self._decoys)}

    @classmethod
    def from_snapshot(cls, data: dict) -> "ComboAccumulator":
        acc = cls()
        for key, count in data["sent"]:
            acc._sent[tuple(key)] = count
        for key, decoys in data["decoys"]:
            acc._decoys[tuple(key)] = set(decoys)
        return acc


class OriginAsAccumulator:
    """Origin/observer network state: Figure 6, Table 3, Section 5.2,
    and the blocklist rates.

    Origin ASNs and blocklist membership are resolved *at observe time*
    (the worker holds the IP directory and blocklist), so rendering a
    restored snapshot needs neither.  Events count by sum; observer and
    origin addresses live in sets so distinct-address shares merge
    exactly; ``observer_of`` keys are (VP, destination, protocol) —
    owned by exactly one shard — and merge with assert-same discipline.
    """

    def __init__(self):
        self._origin_counts: Dict[Tuple[str, str, int], int] = {}
        """(destination name, request protocol, origin ASN) -> events."""
        self._addresses: Dict[Tuple[str, str], Set[str]] = {}
        """(request protocol, decoy protocol) -> distinct origin addrs."""
        self._listed: Dict[Tuple[str, str], Set[str]] = {}
        """Subset of ``_addresses`` on the blocklist."""
        self._observers: Dict[Tuple[str, int], Set[str]] = {}
        """(decoy protocol, observer ASN) -> distinct observer addrs."""
        self._observer_country: Dict[str, str] = {}
        self._observer_of: Dict[Tuple[str, str, str], int] = {}
        """(vp_id, destination address, protocol) -> observer ASN."""
        self._group_combos: Dict[Tuple[str, str, str, str], int] = {}
        """(vp_id, destination, decoy protocol, combo) -> events."""
        self._group_origin_asns: Dict[Tuple[str, str, str, Optional[int]], int] = {}
        """(vp_id, destination, decoy protocol, origin ASN) -> events."""

    def observe(self, event, directory, blocklist) -> None:
        decoy = event.decoy
        address = event.origin_address
        pair = (event.request.protocol, decoy.protocol)
        self._addresses.setdefault(pair, set()).add(address)
        if address in blocklist:
            self._listed.setdefault(pair, set()).add(address)
        asn = directory.asn_of(address)
        if decoy.protocol == "dns" and asn is not None:
            key = (decoy.destination_name, event.request.protocol, asn)
            self._origin_counts[key] = self._origin_counts.get(key, 0) + 1
        if decoy.protocol in GROUP_PROTOCOLS:
            path = (decoy.vp_id, decoy.destination_address, decoy.protocol)
            combo_key = path + (event.combo,)
            self._group_combos[combo_key] = self._group_combos.get(combo_key, 0) + 1
            asn_key = path + (asn,)
            self._group_origin_asns[asn_key] = self._group_origin_asns.get(asn_key, 0) + 1

    def observe_location(self, location) -> None:
        if location.observer_address is not None and location.observer_asn is not None:
            self._observers.setdefault(
                (location.protocol, location.observer_asn), set()
            ).add(location.observer_address)
        if location.observer_address is not None and location.observer_country:
            self._observer_country[location.observer_address] = location.observer_country
        if location.observer_asn is not None:
            key = (location.vp_id, location.destination_address, location.protocol)
            existing = self._observer_of.get(key)
            if existing is not None and existing != location.observer_asn:
                raise AccumulatorMergeError(
                    f"conflicting observer ASN for path {key}: "
                    f"{existing} != {location.observer_asn}"
                )
            self._observer_of[key] = location.observer_asn

    def merge(self, other: "OriginAsAccumulator") -> None:
        _merge_counts(self._origin_counts, other._origin_counts)
        _merge_sets(self._addresses, other._addresses)
        _merge_sets(self._listed, other._listed)
        _merge_sets(self._observers, other._observers)
        for address, country in other._observer_country.items():
            existing = self._observer_country.get(address)
            if existing is not None and existing != country:
                raise AccumulatorMergeError(
                    f"observer {address} located in both {existing} and {country}"
                )
            self._observer_country[address] = country
        for key, asn in other._observer_of.items():
            existing = self._observer_of.get(key)
            if existing is not None and existing != asn:
                raise AccumulatorMergeError(
                    f"conflicting observer ASN for path {key}: {existing} != {asn}"
                )
            self._observer_of[key] = asn
        _merge_counts(self._group_combos, other._group_combos)
        _merge_counts(self._group_origin_asns, other._group_origin_asns)

    # -- queries used by the from_accumulator constructors ----------------

    def origin_counts(self) -> Dict[Tuple[str, str, int], int]:
        return dict(self._origin_counts)

    def blocklist_rate(self, request_protocol: Optional[str] = None,
                       decoy_protocol: Optional[str] = None) -> float:
        addresses: Set[str] = set()
        listed: Set[str] = set()
        for (req_proto, dec_proto), values in self._addresses.items():
            if request_protocol is not None and req_proto != request_protocol:
                continue
            if decoy_protocol is not None and dec_proto != decoy_protocol:
                continue
            addresses |= values
            listed |= self._listed.get((req_proto, dec_proto), set())
        if not addresses:
            return 0.0
        return len(listed) / len(addresses)

    def observer_sets(self) -> Dict[Tuple[str, int], Set[str]]:
        return {key: set(values) for key, values in self._observers.items()}

    def observer_countries(self) -> Dict[str, str]:
        return dict(self._observer_country)

    def group_state(self, protocols: Sequence[str]) -> Tuple[
            Dict[Tuple[str, str, str], int],
            Dict[Tuple[str, str, str], Dict[str, int]],
            Dict[Tuple[str, str, str], Dict[Optional[int], int]]]:
        """(observer_of, per-path combo counts, per-path origin-ASN
        counts) restricted to the given decoy protocols."""
        unsupported = set(protocols) - set(GROUP_PROTOCOLS)
        if unsupported:
            raise ValueError(
                f"observer groups only accumulate {GROUP_PROTOCOLS}; "
                f"cannot render {sorted(unsupported)}"
            )
        wanted = set(protocols)
        observer_of = {key: asn for key, asn in self._observer_of.items()
                       if key[2] in wanted}
        combos: Dict[Tuple[str, str, str], Dict[str, int]] = {}
        for (vp_id, destination, protocol, combo), count in self._group_combos.items():
            if protocol in wanted:
                combos.setdefault((vp_id, destination, protocol), {})[combo] = count
        origins: Dict[Tuple[str, str, str], Dict[Optional[int], int]] = {}
        for (vp_id, destination, protocol, asn), count in self._group_origin_asns.items():
            if protocol in wanted:
                origins.setdefault((vp_id, destination, protocol), {})[asn] = count
        return observer_of, combos, origins

    def snapshot(self) -> dict:
        return {
            "origin_counts": _sorted_pairs(self._origin_counts),
            "addresses": _sorted_set_pairs(self._addresses),
            "listed": _sorted_set_pairs(self._listed),
            "observers": _sorted_set_pairs(self._observers),
            "observer_country": sorted(self._observer_country.items()),
            "observer_of": _sorted_pairs(self._observer_of),
            "group_combos": _sorted_pairs(self._group_combos),
            "group_origin_asns": [
                [list(key), value]
                for key, value in sorted(
                    self._group_origin_asns.items(),
                    key=lambda item: (item[0][:3], item[0][3] is not None, item[0][3] or 0),
                )
            ],
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "OriginAsAccumulator":
        acc = cls()
        for key, count in data["origin_counts"]:
            acc._origin_counts[tuple(key)] = count
        for key, values in data["addresses"]:
            acc._addresses[tuple(key)] = set(values)
        for key, values in data["listed"]:
            acc._listed[tuple(key)] = set(values)
        for key, values in data["observers"]:
            acc._observers[tuple(key)] = set(values)
        acc._observer_country = dict(data["observer_country"])
        for key, asn in data["observer_of"]:
            acc._observer_of[tuple(key)] = asn
        for key, count in data["group_combos"]:
            acc._group_combos[tuple(key)] = count
        for key, count in data["group_origin_asns"]:
            acc._group_origin_asns[tuple(key)] = count
        return acc


class MultiUseAccumulator:
    """Section 5.1: late unsolicited requests per decoy.

    ``after`` is a replayed parameter — every shard must run with the
    same threshold, so merge asserts equality (merge="same") instead of
    guessing.
    """

    def __init__(self, after: float = HOUR):
        self.after = after
        self._late: Dict[Tuple[str, str], int] = {}
        """(decoy protocol, decoy domain) -> requests with delta > after."""

    def observe(self, event) -> None:
        if event.delta > self.after:
            key = (event.decoy.protocol, event.decoy.domain)
            self._late[key] = self._late.get(key, 0) + 1

    def merge(self, other: "MultiUseAccumulator") -> None:
        if self.after != other.after:
            raise AccumulatorMergeError(
                f"multi-use thresholds disagree: {self.after} != {other.after}"
            )
        _merge_counts(self._late, other._late)

    def late_counts(self, protocol: str) -> Dict[str, int]:
        return {domain: count for (decoy_protocol, domain), count
                in self._late.items() if decoy_protocol == protocol}

    def snapshot(self) -> dict:
        return {"after": self.after, "late": _sorted_pairs(self._late)}

    @classmethod
    def from_snapshot(cls, data: dict) -> "MultiUseAccumulator":
        acc = cls(after=data["after"])
        for key, count in data["late"]:
            acc._late[tuple(key)] = count
        return acc


class LandscapeAccumulator:
    """Figure 3 path ratios, Table 2 hop table, and destination shares.

    Paths are (VP, destination address) pairs; each pair is owned by one
    shard, so the total/problematic sets partition and merge by union.
    The hop table and located/at-destination tallies are plain
    partitioned counts.
    """

    def __init__(self):
        self._totals: Dict[Tuple[str, str, str, str], Set[Tuple[str, str]]] = {}
        """(vp country, destination name, protocol, destination country)
        -> {(vp_id, destination address)} with at least one Phase I decoy."""
        self._problematic: Dict[Tuple[str, str, str, str], Set[Tuple[str, str]]] = {}
        self._hops: Dict[Tuple[str, int], int] = {}
        """(protocol, normalized hop 1-10) -> located observer count."""
        self._located: Dict[str, int] = {}
        self._at_destination: Dict[str, int] = {}

    def observe_decoy(self, record) -> None:
        if record.phase != 1:
            return
        key = (record.vp_country, record.destination_name, record.protocol,
               record.destination_country)
        self._totals.setdefault(key, set()).add(
            (record.vp_id, record.destination_address))

    def observe(self, event) -> None:
        record = event.decoy
        if record.phase != 1:
            return
        key = (record.vp_country, record.destination_name, record.protocol,
               record.destination_country)
        self._problematic.setdefault(key, set()).add(
            (record.vp_id, record.destination_address))

    def observe_location(self, location) -> None:
        normalized = location.normalized_hop()
        if normalized is not None:
            key = (location.protocol, normalized)
            self._hops[key] = self._hops.get(key, 0) + 1
        if location.located:
            self._located[location.protocol] = (
                self._located.get(location.protocol, 0) + 1)
            if location.at_destination:
                self._at_destination[location.protocol] = (
                    self._at_destination.get(location.protocol, 0) + 1)

    def merge(self, other: "LandscapeAccumulator") -> None:
        _merge_sets(self._totals, other._totals)
        _merge_sets(self._problematic, other._problematic)
        _merge_counts(self._hops, other._hops)
        _merge_counts(self._located, other._located)
        _merge_counts(self._at_destination, other._at_destination)

    def path_sets(self, group_by_vp_country: bool = True) -> Tuple[
            Dict[Tuple[str, str, str, str], Set[Tuple[str, str]]],
            Dict[Tuple[str, str, str, str], Set[Tuple[str, str]]]]:
        """(totals, problematic) path-pair sets, optionally collapsed to
        the "ALL" VP grouping.  Collapsing unions the per-country sets;
        the pairs are disjoint across VP countries (a VP has one
        country), so the union size equals the batch recount."""
        if group_by_vp_country:
            return ({key: set(paths) for key, paths in self._totals.items()},
                    {key: set(paths) for key, paths in self._problematic.items()})
        totals: Dict[Tuple[str, str, str, str], Set[Tuple[str, str]]] = {}
        problematic: Dict[Tuple[str, str, str, str], Set[Tuple[str, str]]] = {}
        for source, target in ((self._totals, totals),
                               (self._problematic, problematic)):
            for (_, name, protocol, country), paths in source.items():
                key = ("ALL", name, protocol, country)
                target.setdefault(key, set()).update(paths)
        return totals, problematic

    def hop_counts(self) -> Dict[str, Dict[int, int]]:
        table: Dict[str, Dict[int, int]] = {}
        for (protocol, hop), count in self._hops.items():
            table.setdefault(protocol, {})[hop] = count
        return table

    def destination_share(self, protocol: str) -> float:
        located = self._located.get(protocol, 0)
        if not located:
            return 0.0
        return self._at_destination.get(protocol, 0) / located

    def snapshot(self) -> dict:
        return {
            "totals": _sorted_set_pairs(self._totals),
            "problematic": _sorted_set_pairs(self._problematic),
            "hops": _sorted_pairs(self._hops),
            "located": sorted(self._located.items()),
            "at_destination": sorted(self._at_destination.items()),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "LandscapeAccumulator":
        acc = cls()
        for key, paths in data["totals"]:
            acc._totals[tuple(key)] = {tuple(pair) for pair in paths}
        for key, paths in data["problematic"]:
            acc._problematic[tuple(key)] = {tuple(pair) for pair in paths}
        for key, count in data["hops"]:
            acc._hops[tuple(key)] = count
        acc._located = dict(data["located"])
        acc._at_destination = dict(data["at_destination"])
        return acc


class IncentiveAccumulator:
    """Section 5.1/5.2 probing incentives over unsolicited HTTP(S)
    requests: payload verdicts, path popularity, origin blocklist rates.

    Verdicts are classified at observe time (the worker holds the
    signature database context), keyed by decoy protocol so the render
    can reproduce any ``decoy_protocol`` filter of the batch function.
    """

    def __init__(self):
        self._verdicts: Dict[Tuple[str, str], int] = {}
        """(decoy protocol, verdict name) -> requests."""
        self._paths: Dict[Tuple[str, str], int] = {}
        self._origins: Dict[Tuple[str, str], Set[str]] = {}
        """(decoy protocol, request protocol) -> distinct origin addrs."""
        self._listed: Dict[Tuple[str, str], Set[str]] = {}

    def observe(self, event, blocklist) -> None:
        from repro.intel.exploitdb import check_payload

        if event.request.protocol not in ("http", "https"):
            return
        decoy_protocol = event.decoy.protocol
        path = event.request.path or "/"
        verdict_key = (decoy_protocol, check_payload(path).name)
        self._verdicts[verdict_key] = self._verdicts.get(verdict_key, 0) + 1
        path_key = (decoy_protocol, path)
        self._paths[path_key] = self._paths.get(path_key, 0) + 1
        origin_key = (decoy_protocol, event.request.protocol)
        address = event.origin_address
        self._origins.setdefault(origin_key, set()).add(address)
        if address in blocklist:
            self._listed.setdefault(origin_key, set()).add(address)

    def merge(self, other: "IncentiveAccumulator") -> None:
        _merge_counts(self._verdicts, other._verdicts)
        _merge_counts(self._paths, other._paths)
        _merge_sets(self._origins, other._origins)
        _merge_sets(self._listed, other._listed)

    def verdict_counts(self, decoy_protocol: Optional[str] = None) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for (protocol, verdict), count in self._verdicts.items():
            if decoy_protocol is None or protocol == decoy_protocol:
                counts[verdict] = counts.get(verdict, 0) + count
        return counts

    def path_counts(self, decoy_protocol: Optional[str] = None) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for (protocol, path), count in self._paths.items():
            if decoy_protocol is None or protocol == decoy_protocol:
                counts[path] = counts.get(path, 0) + count
        return counts

    def blocklist_rate(self, request_protocol: str,
                       decoy_protocol: Optional[str] = None) -> float:
        addresses: Set[str] = set()
        listed: Set[str] = set()
        for (protocol, req_proto), values in self._origins.items():
            if req_proto != request_protocol:
                continue
            if decoy_protocol is not None and protocol != decoy_protocol:
                continue
            addresses |= values
            listed |= self._listed.get((protocol, req_proto), set())
        if not addresses:
            return 0.0
        return len(listed) / len(addresses)

    def snapshot(self) -> dict:
        return {
            "verdicts": _sorted_pairs(self._verdicts),
            "paths": _sorted_pairs(self._paths),
            "origins": _sorted_set_pairs(self._origins),
            "listed": _sorted_set_pairs(self._listed),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "IncentiveAccumulator":
        acc = cls()
        for key, count in data["verdicts"]:
            acc._verdicts[tuple(key)] = count
        for key, count in data["paths"]:
            acc._paths[tuple(key)] = count
        for key, values in data["origins"]:
            acc._origins[tuple(key)] = set(values)
        for key, values in data["listed"]:
            acc._listed[tuple(key)] = set(values)
        return acc


MATRIX_MITIGATIONS: Tuple[str, ...] = ("none", "ech", "doh")
"""Row order of the mitigation-vs-observer matrix."""

MATRIX_OBSERVER_CLASSES: Tuple[str, ...] = (
    "sni-dpi", "traffic-analysis", "dst-ip")
"""Column order: plaintext DPI sniffers, size/timing traffic analysis,
destination-IP correlation (see docs/OBSERVERS.md)."""


class MitigationMatrixAccumulator:
    """Which defense stops which observer class — the PR's deliverable.

    Rows are mitigations a decoy adopted on the wire, columns are
    observer classes; a cell counts the distinct Phase I decoy domains
    that class collected despite (or thanks to the absence of) that
    mitigation, over the domains sent with it.

    Everything is a domain *set*, so observations de-duplicate across
    retries, hops, and shards, and merge is plain union — order-free by
    construction.  The destination-IP column cannot decide per flow
    (linkage exists only once an address has been reused), so the
    accumulator stores per-(mitigation, destination) domain sets and
    applies ``link_threshold`` at render time: a destination counts as a
    flagged decoy sink when the union of domains it received — across
    all mitigations — reaches the threshold.

    ``enabled`` gates feeding: a default campaign keeps the matrix off,
    its snapshot key absent, and every pre-existing digest untouched.
    Merging adopts the enabled side's ``link_threshold`` (the disabled
    default state :meth:`AnalysisState.merged` folds from carries no
    information) and asserts equality when both sides are enabled.
    """

    def __init__(self, enabled: bool = False, link_threshold: int = 3):
        if link_threshold < 1:
            raise ValueError(
                f"link_threshold must be >= 1, got {link_threshold}")
        self.enabled = enabled
        self.link_threshold = link_threshold
        self._sent: Dict[str, Set[str]] = {}
        """Mitigation -> Phase I decoy domains sent with it."""
        self._classified: Dict[Tuple[str, str], Set[str]] = {}
        """(observer class, mitigation) -> domains that class collected
        (per-flow-decidable classes: sni-dpi, traffic-analysis)."""
        self._dst_domains: Dict[Tuple[str, str], Set[str]] = {}
        """(mitigation, destination address) -> domains carried there."""
        self._provenance: Dict[Tuple[str, str], int] = {}
        """(mitigation, provenance) -> correlated Phase I events."""

    def observe_sent(self, mitigation: str, domain: str) -> None:
        self._sent.setdefault(mitigation, set()).add(domain)

    def observe_classified(self, observer_class: str, mitigation: str,
                           domain: str) -> None:
        self._classified.setdefault(
            (observer_class, mitigation), set()).add(domain)

    def observe_flow(self, mitigation: str, domain: str, dst: str) -> None:
        self._dst_domains.setdefault((mitigation, dst), set()).add(domain)

    def observe_event(self, event) -> None:
        key = (event.decoy.mitigation, event.provenance)
        self._provenance[key] = self._provenance.get(key, 0) + 1

    def merge(self, other: "MitigationMatrixAccumulator") -> None:
        if other.enabled:
            if not self.enabled:
                self.enabled = True
                self.link_threshold = other.link_threshold
            elif self.link_threshold != other.link_threshold:
                raise AccumulatorMergeError(
                    f"matrix link thresholds disagree: "
                    f"{self.link_threshold} != {other.link_threshold}"
                )
        _merge_sets(self._sent, other._sent)
        _merge_sets(self._classified, other._classified)
        _merge_sets(self._dst_domains, other._dst_domains)
        _merge_counts(self._provenance, other._provenance)

    # -- render queries ----------------------------------------------------

    def flagged_destinations(self) -> Set[str]:
        """Destinations whose cross-mitigation domain reuse reaches the
        link threshold — the dst-ip correlator's decoy sinks."""
        totals: Dict[str, Set[str]] = {}
        for (_, dst), domains in self._dst_domains.items():
            totals.setdefault(dst, set()).update(domains)
        return {dst for dst, domains in totals.items()
                if len(domains) >= self.link_threshold}

    def rows(self) -> List[Tuple[str, int, Dict[str, int]]]:
        """(mitigation, sent count, {observer class -> classified count})
        in canonical row order, rows with no sends omitted."""
        flagged = self.flagged_destinations()
        out: List[Tuple[str, int, Dict[str, int]]] = []
        for mitigation in MATRIX_MITIGATIONS:
            sent = self._sent.get(mitigation)
            if not sent:
                continue
            linked: Set[str] = set()
            for (row_mitigation, dst), domains in self._dst_domains.items():
                if row_mitigation == mitigation and dst in flagged:
                    linked |= domains
            cells = {
                "sni-dpi": len(self._classified.get(
                    ("sni-dpi", mitigation), ())),
                "traffic-analysis": len(self._classified.get(
                    ("traffic-analysis", mitigation), ())),
                "dst-ip": len(linked),
            }
            out.append((mitigation, len(sent), cells))
        return out

    def provenance_counts(self) -> Dict[Tuple[str, str], int]:
        return dict(self._provenance)

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "link_threshold": self.link_threshold,
            "sent": [[mitigation, sorted(domains)]
                     for mitigation, domains in sorted(self._sent.items())],
            "classified": _sorted_set_pairs(self._classified),
            "dst_domains": _sorted_set_pairs(self._dst_domains),
            "provenance": _sorted_pairs(self._provenance),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "MitigationMatrixAccumulator":
        acc = cls(enabled=data["enabled"],
                  link_threshold=data["link_threshold"])
        for mitigation, domains in data["sent"]:
            acc._sent[mitigation] = set(domains)
        for key, domains in data["classified"]:
            acc._classified[tuple(key)] = set(domains)
        for key, domains in data["dst_domains"]:
            acc._dst_domains[tuple(key)] = set(domains)
        for key, count in data["provenance"]:
            acc._provenance[tuple(key)] = count
        return acc


STATE_FORMAT_VERSION = 1


class AnalysisState:
    """The full accumulator family plus run-level counts.

    A live state (constructed with the ecosystem's IP directory and
    blocklist) can *observe*; a state restored with
    :meth:`from_snapshot` can only merge and render — by then every
    external lookup has already been resolved into the accumulators.

    Feeding protocol (what the campaign/shard wiring does):

    * ``observe_decoy(record)`` for every decoy at send time,
    * ``observe_event(event)`` for every *Phase I* unsolicited request
      (the artifacts all read ``phase1.events``),
    * ``observe_location(location)`` for every Phase II verdict,
    * ``set_log_entries(len(log))`` once per shard.
    """

    def __init__(self, directory=None, blocklist=None,
                 matrix_enabled: bool = False, matrix_link_threshold: int = 3):
        self.cdf = CdfAccumulator()
        self.combos = ComboAccumulator()
        self.origins = OriginAsAccumulator()
        self.multi_use = MultiUseAccumulator()
        self.landscape = LandscapeAccumulator()
        self.incentives = IncentiveAccumulator()
        self.matrix = MitigationMatrixAccumulator(
            enabled=matrix_enabled, link_threshold=matrix_link_threshold)
        self.decoy_counts: Dict[int, int] = {}
        """Phase -> decoys registered."""
        self.log_entries = 0
        self.event_count = 0
        self._directory = directory
        self._blocklist = blocklist

    # -- observe -----------------------------------------------------------

    def _require_intel(self) -> None:
        if self._directory is None or self._blocklist is None:
            raise RuntimeError(
                "this AnalysisState was restored from a snapshot and "
                "cannot observe events (no IP directory/blocklist); "
                "restored states only merge and render"
            )

    def observe_decoy(self, record) -> None:
        self.decoy_counts[record.phase] = self.decoy_counts.get(record.phase, 0) + 1
        self.combos.observe_decoy(record)
        self.landscape.observe_decoy(record)
        if self.matrix.enabled and record.phase == 1:
            self.matrix.observe_sent(record.mitigation, record.domain)

    def observe_event(self, event) -> None:
        self._require_intel()
        self.event_count += 1
        self.cdf.observe(event)
        self.combos.observe(event)
        self.origins.observe(event, self._directory, self._blocklist)
        self.multi_use.observe(event)
        self.landscape.observe(event)
        self.incentives.observe(event, self._blocklist)
        if self.matrix.enabled:
            self.matrix.observe_event(event)

    def observe_flow_classified(self, observer_class: str, mitigation: str,
                                domain: str) -> None:
        """A per-flow-decidable observer class collected ``domain``."""
        if self.matrix.enabled:
            self.matrix.observe_classified(observer_class, mitigation, domain)

    def observe_flow(self, mitigation: str, domain: str, dst: str) -> None:
        """A ciphertext observer saw a flow for ``domain`` toward ``dst``
        (feeds the render-time destination-IP correlation column)."""
        if self.matrix.enabled:
            self.matrix.observe_flow(mitigation, domain, dst)

    def observe_events(self, events: Iterable) -> None:
        for event in events:
            self.observe_event(event)

    def observe_location(self, location) -> None:
        self.origins.observe_location(location)
        self.landscape.observe_location(location)

    def observe_locations(self, locations: Iterable) -> None:
        for location in locations:
            self.observe_location(location)

    def set_log_entries(self, count: int) -> None:
        self.log_entries = count

    # -- merge -------------------------------------------------------------

    def merge(self, other: "AnalysisState") -> "AnalysisState":
        self.cdf.merge(other.cdf)
        self.combos.merge(other.combos)
        self.origins.merge(other.origins)
        self.multi_use.merge(other.multi_use)
        self.landscape.merge(other.landscape)
        self.incentives.merge(other.incentives)
        self.matrix.merge(other.matrix)
        _merge_counts(self.decoy_counts, other.decoy_counts)
        self.log_entries += other.log_entries
        self.event_count += other.event_count
        return self

    @classmethod
    def merged(cls, states: Sequence["AnalysisState"]) -> "AnalysisState":
        result = cls()
        for state in states:
            result.merge(state)
        return result

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        snap = {
            "format": STATE_FORMAT_VERSION,
            "cdf": self.cdf.snapshot(),
            "combos": self.combos.snapshot(),
            "origins": self.origins.snapshot(),
            "multi_use": self.multi_use.snapshot(),
            "landscape": self.landscape.snapshot(),
            "incentives": self.incentives.snapshot(),
            "decoy_counts": sorted(self.decoy_counts.items()),
            "log_entries": self.log_entries,
            "event_count": self.event_count,
        }
        if self.matrix.enabled:
            # Key absent when the matrix is off: a default campaign's
            # snapshot — and thus its digest — is byte-identical to
            # what it was before the matrix existed.
            snap["matrix"] = self.matrix.snapshot()
        return snap

    @classmethod
    def from_snapshot(cls, data: dict, directory=None,
                      blocklist=None) -> "AnalysisState":
        if data.get("format") != STATE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported analysis-state format {data.get('format')!r}"
            )
        state = cls(directory=directory, blocklist=blocklist)
        state.cdf = CdfAccumulator.from_snapshot(data["cdf"])
        state.combos = ComboAccumulator.from_snapshot(data["combos"])
        state.origins = OriginAsAccumulator.from_snapshot(data["origins"])
        state.multi_use = MultiUseAccumulator.from_snapshot(data["multi_use"])
        state.landscape = LandscapeAccumulator.from_snapshot(data["landscape"])
        state.incentives = IncentiveAccumulator.from_snapshot(data["incentives"])
        if "matrix" in data:
            state.matrix = MitigationMatrixAccumulator.from_snapshot(
                data["matrix"])
        state.decoy_counts = {phase: count for phase, count in data["decoy_counts"]}
        state.log_entries = data["log_entries"]
        state.event_count = data["event_count"]
        return state

    def digest(self) -> str:
        """Content hash of the canonical snapshot; equal states hash
        equal regardless of observation or merge order."""
        canonical = json.dumps(self.snapshot(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
