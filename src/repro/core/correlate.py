"""Correlation of honeypot logs with decoys; unsolicited classification.

Section 3 defines an incoming request bearing decoy data as unsolicited
when:

 (i)  request and decoy protocols differ (that data was never sent over
      the request protocol); or
 (ii) the request protocol is HTTP or TLS (no HTTP/TLS decoys are ever
      sent *to the honeypots*); or
 (iii) the request protocol is DNS and the unique query name already
      appeared in an earlier DNS query — the initial decoy's recursive
      lookup.

The correlator decodes each logged domain's identifier, joins it to the
decoy ledger, applies the rules in arrival order, and emits
:class:`ShadowingEvent` records that every analysis consumes.
:class:`IncrementalCorrelator` is the only code that applies the rules
(and recovers aliased names); the batch :class:`Correlator` (serial runs,
shard workers and the sharded parent) and the serve daemon both feed log
entries through it.
"""

import weakref
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core import columnar
from repro.core.identifier import DecoyIdentity, IdentifierCodec, IdentifierError
from repro.honeypot.logstore import LoggedRequest, LogStore

_DECOY_LABELS = {"dns": "DNS", "http": "HTTP", "tls": "TLS"}
_REQUEST_LABELS = {"dns": "DNS", "http": "HTTP", "https": "HTTPS"}


@dataclass(frozen=True)
class DecoyRecord:
    """Ledger entry: one decoy as sent, with its path context."""

    identity: DecoyIdentity
    domain: str
    protocol: str
    vp_id: str
    vp_country: str
    vp_province: Optional[str]
    destination_address: str
    destination_name: str
    destination_kind: str
    """"dns" for resolver/root/TLD targets, "web" for Tranco-pool targets."""
    destination_country: str
    instance_country: str
    """Country of the anycast instance this decoy's path terminates in."""
    path_length: int
    sent_at: float
    phase: int
    delivered: bool = True
    round_index: int = 0
    """Which Phase I round-robin pass emitted this decoy (0-based)."""
    mitigation: str = "none"
    """Encryption mitigation the decoy adopted on the wire: ``"none"``,
    ``"ech"``, or ``"doh"``.  Excluded from result digests (the digest
    hashes ecosystem-observable columns only), but drives the
    mitigation-vs-observer matrix and event provenance."""


class DecoyLedger:
    """Every decoy sent during an experiment, indexed by domain.

    Storage is columnar: one ``array`` per :class:`DecoyRecord` field,
    with repeated strings (addresses, countries, protocol labels, VP and
    destination names) routed through a shared
    :class:`~repro.core.columnar.StringTable`.  A paper-scale campaign
    registers millions of decoys; columns keep that at tens of bytes per
    row instead of one 17-field dataclass instance each.  Rows
    materialize back into records through a weak-value cache, so any
    consumer holding a record (a correlation event, a payload snapshot)
    keeps getting the identical object from every lookup.

    The ledger also stores each registered decoy's deterministic
    merge-order key — ``(sent_at, phase, plan major, plan minor)`` —
    as four more columns (:meth:`set_key`/:meth:`key_of`): sorting any
    union of shard ledgers by this key reproduces the serial
    registration order.
    """

    def __init__(self):
        self._table = columnar.StringTable()
        self._row_by_domain: Dict[str, int] = {}
        self._domains: List[str] = []
        self._id_sent_at = array("q")
        self._id_ttls = array("i")
        self._id_sequences = array("i")
        self._id_vps = array("i")
        self._id_dsts = array("i")
        self._protocols = array("i")
        self._vp_ids = array("i")
        self._vp_countries = array("i")
        self._vp_provinces = array("i")
        self._dst_addresses = array("i")
        self._dst_names = array("i")
        self._dst_kinds = array("i")
        self._dst_countries = array("i")
        self._instance_countries = array("i")
        self._path_lengths = array("i")
        self._sent_ats = array("d")
        self._phases = array("b")
        self._delivered = array("b")
        self._round_indexes = array("i")
        self._mitigations = array("i")
        self._key_times = array("d")
        self._key_phases = array("b")
        """-1 marks "no merge key set" (e.g. ledgers rebuilt by the serve
        ingest path, which never merges shards)."""
        self._key_majors = array("q")
        self._key_minors = array("q")
        self._cache: "weakref.WeakValueDictionary[int, DecoyRecord]" = \
            weakref.WeakValueDictionary()

    def register(self, record: DecoyRecord) -> None:
        if record.domain in self._row_by_domain:
            raise ValueError(f"duplicate decoy domain {record.domain!r}")
        row = len(self._domains)
        table = self._table
        self._row_by_domain[record.domain] = row
        self._domains.append(record.domain)
        identity = record.identity
        self._id_sent_at.append(identity.sent_at)
        self._id_ttls.append(identity.ttl)
        self._id_sequences.append(identity.sequence)
        self._id_vps.append(table.intern(identity.vp_address))
        self._id_dsts.append(table.intern(identity.dst_address))
        self._protocols.append(table.intern(record.protocol))
        self._vp_ids.append(table.intern(record.vp_id))
        self._vp_countries.append(table.intern(record.vp_country))
        self._vp_provinces.append(table.intern_opt(record.vp_province))
        self._dst_addresses.append(table.intern(record.destination_address))
        self._dst_names.append(table.intern(record.destination_name))
        self._dst_kinds.append(table.intern(record.destination_kind))
        self._dst_countries.append(table.intern(record.destination_country))
        self._instance_countries.append(table.intern(record.instance_country))
        self._path_lengths.append(record.path_length)
        self._sent_ats.append(record.sent_at)
        self._phases.append(record.phase)
        self._delivered.append(1 if record.delivered else 0)
        self._round_indexes.append(record.round_index)
        self._mitigations.append(table.intern(record.mitigation))
        self._key_times.append(0.0)
        self._key_phases.append(-1)
        self._key_majors.append(0)
        self._key_minors.append(0)
        self._cache[row] = record

    def set_key(self, domain: str, key: Tuple[float, int, int, int]) -> None:
        """Attach the deterministic merge-order key of one registered decoy."""
        row = self._row_by_domain[domain]
        self._key_times[row] = key[0]
        self._key_phases[row] = key[1]
        self._key_majors[row] = key[2]
        self._key_minors[row] = key[3]

    def key_of(self, domain: str) -> Optional[Tuple[float, int, int, int]]:
        """The merge-order key of ``domain``, or None if never set."""
        row = self._row_by_domain.get(domain)
        if row is None or self._key_phases[row] < 0:
            return None
        return (self._key_times[row], self._key_phases[row],
                self._key_majors[row], self._key_minors[row])

    def _record(self, row: int) -> DecoyRecord:
        """Materialize row ``row`` (same object while any ref is live)."""
        record = self._cache.get(row)
        if record is not None:
            return record
        table = self._table
        record = DecoyRecord(
            identity=DecoyIdentity(
                sent_at=self._id_sent_at[row],
                vp_address=table.value(self._id_vps[row]),
                dst_address=table.value(self._id_dsts[row]),
                ttl=self._id_ttls[row],
                sequence=self._id_sequences[row],
            ),
            domain=self._domains[row],
            protocol=table.value(self._protocols[row]),
            vp_id=table.value(self._vp_ids[row]),
            vp_country=table.value(self._vp_countries[row]),
            vp_province=table.value_opt(self._vp_provinces[row]),
            destination_address=table.value(self._dst_addresses[row]),
            destination_name=table.value(self._dst_names[row]),
            destination_kind=table.value(self._dst_kinds[row]),
            destination_country=table.value(self._dst_countries[row]),
            instance_country=table.value(self._instance_countries[row]),
            path_length=self._path_lengths[row],
            sent_at=self._sent_ats[row],
            phase=self._phases[row],
            delivered=bool(self._delivered[row]),
            round_index=self._round_indexes[row],
            mitigation=table.value(self._mitigations[row]),
        )
        self._cache[row] = record
        return record

    def lookup(self, domain: str) -> Optional[DecoyRecord]:
        row = self._row_by_domain.get(domain)
        if row is None:
            return None
        return self._record(row)

    def phase_of(self, domain: str) -> Optional[int]:
        """The phase of ``domain``'s decoy, or None if unregistered — one
        column read, no record materialized."""
        row = self._row_by_domain.get(domain)
        return None if row is None else self._phases[row]

    def records(self, phase: Optional[int] = None) -> List[DecoyRecord]:
        if phase is None:
            return [self._record(row) for row in range(len(self._domains))]
        return [self._record(row) for row in range(len(self._domains))
                if self._phases[row] == phase]

    def records_from(self, start: int) -> Iterator[DecoyRecord]:
        """Records from registration position ``start`` onward.

        The ledger-tail path: a shard's final payload ships only the
        records Phase II appended, walked without materializing the full
        record list (registration order is insertion order)."""
        return (self._record(row) for row in range(start, len(self._domains)))

    def __len__(self) -> int:
        return len(self._domains)


@dataclass(frozen=True)
class ShadowingEvent:
    """One unsolicited request correlated back to its decoy."""

    decoy: DecoyRecord
    request: LoggedRequest
    combo: str
    """Decoy-Request protocol label, e.g. "DNS-HTTP"."""

    @property
    def delta(self) -> float:
        """Seconds between decoy emission and the unsolicited request."""
        return self.request.time - self.decoy.sent_at

    @property
    def origin_address(self) -> str:
        return self.request.src_address

    @property
    def provenance(self) -> str:
        """How the decoy's name could have been collected on the wire.

        ``"plaintext-read"`` for unencrypted decoys (QNAME, Host, or SNI
        was readable by any on-path device); ``"metadata-inferred"`` for
        ECH/DoH decoys, where no mid-path observer ever saw the name —
        any wire-side collection had to come from ciphertext metadata or
        from the terminating endpoint."""
        return ("plaintext-read" if self.decoy.mitigation == "none"
                else "metadata-inferred")


@dataclass
class CorrelationResult:
    """Everything a correlation pass produces."""

    events: List[ShadowingEvent] = field(default_factory=list)
    initial_arrivals: Dict[str, LoggedRequest] = field(default_factory=dict)
    """Per decoy domain, the first (solicited) DNS arrival, if any."""
    unknown_domains: List[str] = field(default_factory=list)
    """Logged domains whose identifier failed to decode (noise)."""

    def shadowed_domains(self) -> List[str]:
        seen = []
        observed = set()
        for event in self.events:
            if event.decoy.domain not in observed:
                observed.add(event.decoy.domain)
                seen.append(event.decoy.domain)
        return seen


class Correlator:
    """Joins honeypot logs to the decoy ledger and classifies arrivals.

    A batch pass is a replay: every logged request goes, in arrival
    order, through an :class:`IncrementalCorrelator` — the one
    implementation of the Section 3 rules and alias recovery — and the
    retained events come back in batch order (logged domains by first
    appearance, each domain's arrivals in order).
    """

    def __init__(self, ledger: DecoyLedger, zone: str,
                 codec: Optional[IdentifierCodec] = None):
        self._ledger = ledger
        self._zone = zone
        self._codec = codec if codec is not None else IdentifierCodec()

    def correlate(self, log: LogStore,
                  phase: Optional[int] = None) -> CorrelationResult:
        """Classify every logged request; optionally restrict to decoys of
        one experiment phase (see :func:`split_correlation`)."""
        incremental = IncrementalCorrelator(self._ledger, self._zone,
                                            codec=self._codec,
                                            retain_events=True)
        for entry in log:
            incremental.ingest(entry)
        result = incremental.result()
        if phase is None:
            return result
        return split_correlation(result, self._ledger, phase)

    @staticmethod
    def combo_label(decoy_protocol: str, request_protocol: str) -> str:
        try:
            return f"{_DECOY_LABELS[decoy_protocol]}-{_REQUEST_LABELS[request_protocol]}"
        except KeyError as exc:
            raise ValueError(
                f"unknown protocol pair ({decoy_protocol!r}, {request_protocol!r})"
            ) from exc


class IncrementalCorrelator:
    """Record-at-a-time correlation: the Section 3 rules, applied once.

    Classification state is per *logged domain* (its ledger resolution
    and whether its solicited initial DNS arrival was consumed), so each
    ingest is O(1) lookups and the log is never revisited.  The rules
    only look backwards — an entry's class depends on the entries before
    it, never on those after — so the live service and
    :meth:`Correlator.correlate` both classify through this class.

    With ``retain_events=True`` the correlator also keeps the logged
    domains in first-appearance order and, per logged domain, its events
    and initial arrival, and :meth:`result` walks them in batch order.
    ``retain_events=False`` (the service default) keeps only the
    O(domains) classification state.
    """

    def __init__(self, ledger: DecoyLedger, zone: str,
                 codec: Optional[IdentifierCodec] = None,
                 retain_events: bool = False):
        self._ledger = ledger
        self._zone = zone
        self._codec = codec if codec is not None else IdentifierCodec()
        self._resolutions: Dict[str, Optional[Tuple[str, bool]]] = {}
        """Logged domain -> (canonical ledger domain, aliased) or None
        for noise.  The decode attempt runs once per distinct domain."""
        self._initial_seen: Set[str] = set()
        """Domains whose solicited first DNS arrival was consumed."""
        self.event_count = 0
        self.unknown_count = 0
        """Distinct undecodable domains seen (the length of a
        ``phase=None`` correlation's ``unknown_domains``)."""
        self.initial_count = 0
        self._retain = retain_events
        self._domains: List[str] = []
        """Logged domains in first-appearance order (retained only)."""
        self._events: Dict[str, List[ShadowingEvent]] = {}
        self._arrivals: Dict[str, LoggedRequest] = {}
        self._unknown: List[str] = []

    def _recover_alias(self, domain: str) -> Optional[DecoyRecord]:
        """Map a mangled logged name back to its decoy, if possible.

        Shadowers sometimes prepend their own labels before replaying a
        name ("probe.<identifier>.<zone>"), so the raw domain misses the
        ledger.  The embedded identifier still survives: decode it from
        whichever label carries it, re-encode the canonical domain, and
        look that up.  Anything that still fails to decode is genuine
        noise and stays in ``unknown_domains``.
        """
        try:
            identity = self._codec.decode_domain(domain, self._zone)
        except IdentifierError:
            return None
        canonical = f"{self._codec.encode(identity)}.{self._zone}"
        if canonical == domain:
            return None
        return self._ledger.lookup(canonical)

    def _resolve(self, domain: str) -> Optional[Tuple[DecoyRecord, bool]]:
        cached = self._resolutions.get(domain, _UNRESOLVED)
        if cached is not _UNRESOLVED:
            if cached is None:
                return None
            canonical, aliased = cached
            record = self._ledger.lookup(canonical)
            return (record, aliased) if record is not None else None
        record = self._ledger.lookup(domain)
        aliased = False
        if record is None:
            record = self._recover_alias(domain)
            aliased = record is not None
        if record is not None and not aliased:
            try:
                self._codec.decode_domain(domain, self._zone)
            except IdentifierError:
                record = None
        if record is None:
            self._resolutions[domain] = None
            self.unknown_count += 1
            if self._retain:
                self._unknown.append(domain)
            return None
        self._resolutions[domain] = (record.domain, aliased)
        return record, aliased

    def ingest(self, entry: LoggedRequest) -> Optional[ShadowingEvent]:
        """Classify one appended log entry.

        Returns the :class:`ShadowingEvent` when the entry is
        unsolicited, or ``None`` when it is the decoy's own solicited
        initial arrival (rule iii) or undecodable noise.
        """
        domain = entry.domain
        if self._retain and domain not in self._resolutions:
            self._domains.append(domain)
        resolved = self._resolve(domain)
        if resolved is None:
            return None
        record, aliased = resolved
        if (not aliased and entry.protocol == "dns"
                and record.protocol == "dns"
                and domain not in self._initial_seen):
            # Rule (iii): the first DNS appearance of a DNS decoy's name
            # is the decoy itself recursing.  Aliased names never
            # qualify: the decoy's own recursion carries its exact
            # domain, so anything arriving under a mangled name is
            # third-party.
            self._initial_seen.add(domain)
            self.initial_count += 1
            if self._retain:
                self._arrivals[domain] = entry
            return None
        event = ShadowingEvent(
            decoy=record,
            request=entry,
            combo=Correlator.combo_label(record.protocol, entry.protocol),
        )
        self.event_count += 1
        if self._retain:
            self._events.setdefault(domain, []).append(event)
        return event

    def result(self) -> CorrelationResult:
        """The batch-ordered correlation of everything ingested so far
        (requires ``retain_events=True``): logged domains by first
        appearance, each domain's events in arrival order.

        :meth:`LogStore.append` only accepts time-ordered entries, so
        first-appearance order is the log's ``(time, index)`` order."""
        if not self._retain:
            raise RuntimeError(
                "this IncrementalCorrelator was built with "
                "retain_events=False and keeps no event lists; only "
                "counts and classification state are available"
            )
        result = CorrelationResult(unknown_domains=list(self._unknown))
        for domain in self._domains:
            result.events.extend(self._events.get(domain, ()))
            arrival = self._arrivals.get(domain)
            if arrival is not None:
                result.initial_arrivals[domain] = arrival
        return result


_UNRESOLVED = object()
"""Sentinel distinguishing "never looked up" from "resolved to noise"."""


def split_correlation(result: CorrelationResult, ledger: DecoyLedger,
                      phase: int) -> CorrelationResult:
    """Restrict a ``phase=None`` correlation to one phase, matching what
    ``Correlator.correlate(log, phase=phase)`` would have produced.

    Events and arrivals filter by their decoy's phase.  Unknown domains
    keep ledger misses unconditionally; a ledger *hit* that still went
    unknown (identifier decode failure) only surfaces in the pass whose
    phase filter admits its record, mirroring the batch control flow
    (the phase check runs before the decode check).
    """
    split = CorrelationResult()
    split.events = [event for event in result.events
                    if event.decoy.phase == phase]
    for domain, entry in result.initial_arrivals.items():
        if ledger.phase_of(domain) == phase:
            split.initial_arrivals[domain] = entry
    for domain in result.unknown_domains:
        if ledger.phase_of(domain) in (None, phase):
            split.unknown_domains.append(domain)
    return split
