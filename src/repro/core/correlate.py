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

The correlator joins each logged domain to the decoy ledger, accepts a
hit only when the name carries a decodable identifier (a name equal to
its decoy's own encoding carries one by construction, so only other
names are decoded), applies the rules in arrival order, and emits
:class:`ShadowingEvent` records that every analysis consumes.
:class:`IncrementalCorrelator` is the only code that applies the rules
(and recovers aliased names); the batch :class:`Correlator` (serial runs,
shard workers and the sharded parent) and the serve daemon both feed log
entries through it.
"""

from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.identifier import DecoyIdentity, IdentifierCodec, IdentifierError
from repro.honeypot.logstore import LoggedRequest, LogStore
from repro.net.addr import InvalidAddressError
from repro.records import frozen

_DECOY_LABELS = {"dns": "DNS", "http": "HTTP", "tls": "TLS"}
_REQUEST_LABELS = {"dns": "DNS", "http": "HTTP", "https": "HTTPS"}


@frozen
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

    The ledger holds the :class:`DecoyRecord` objects it is given, in
    registration order, so every lookup returns the very object that was
    registered.  It also stores each registered decoy's deterministic
    merge-order key — ``(sent_at, phase, plan major, plan minor)`` — as
    four ``array`` columns (:meth:`set_key`/:meth:`key_of`): sorting any
    union of shard ledgers by this key reproduces the serial
    registration order.
    """

    def __init__(self):
        self._row_by_domain: Dict[str, int] = {}
        self._records: List[DecoyRecord] = []
        self._key_times = array("d")
        self._key_phases = array("b")
        """-1 marks "no merge key set" (e.g. ledgers rebuilt by the serve
        ingest path, which never merges shards)."""
        self._key_majors = array("q")
        self._key_minors = array("q")

    def register(self, record: DecoyRecord) -> None:
        if record.domain in self._row_by_domain:
            raise ValueError(f"duplicate decoy domain {record.domain!r}")
        self._row_by_domain[record.domain] = len(self._records)
        self._records.append(record)
        self._key_times.append(0.0)
        self._key_phases.append(-1)
        self._key_majors.append(0)
        self._key_minors.append(0)

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

    def lookup(self, domain: str) -> Optional[DecoyRecord]:
        row = self._row_by_domain.get(domain)
        return None if row is None else self._records[row]

    def phase_of(self, domain: str) -> Optional[int]:
        """The phase of ``domain``'s decoy, or None if unregistered."""
        record = self.lookup(domain)
        return None if record is None else record.phase

    def records(self, phase: Optional[int] = None) -> List[DecoyRecord]:
        if phase is None:
            return list(self._records)
        return [record for record in self._records if record.phase == phase]

    def records_from(self, start: int) -> Iterator[DecoyRecord]:
        """Records from registration position ``start`` onward.

        The ledger-tail path: a shard's final payload ships only the
        records Phase II appended, walked without copying the full
        record list (registration order is insertion order)."""
        return islice(self._records, start, None)

    def __len__(self) -> int:
        return len(self._records)


@frozen
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
        self._zone_suffix = "." + zone.rstrip(".").lower()
        """The zone as :meth:`IdentifierCodec.decode_domain` compares it."""
        self._codec = codec if codec is not None else IdentifierCodec()
        self._resolutions: Dict[str, Optional[DecoyRecord]] = {}
        """Logged domain -> its decoy's record (aliased when
        ``record.domain != domain``) or None for noise.  Each distinct
        domain is resolved once."""
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

    def _is_canonical(self, domain: str, record: DecoyRecord) -> bool:
        """True when ``domain`` is ``record``'s own identifier label under
        the zone, normalized as :meth:`IdentifierCodec.decode_domain`
        normalizes it.  Such a name decodes by construction, so a ledger
        hit on it needs no decode.  An identity that does not encode (a
        fed address that is not IPv4) leaves its name to the decoder."""
        try:
            label = self._codec.encode(record.identity)
        except (InvalidAddressError, ValueError):
            return False
        return domain.rstrip(".").lower() == label + self._zone_suffix

    def _resolve(self, domain: str) -> Optional[DecoyRecord]:
        """Resolve a first-seen logged domain to its decoy, or None.

        A ledger hit counts only when its name carries a decodable
        identifier; every name that is not its record's canonical
        encoding is checked by decoding it.  A miss may still be an
        aliased name (:meth:`_recover_alias`)."""
        record = self._ledger.lookup(domain)
        if record is None:
            record = self._recover_alias(domain)
        elif not self._is_canonical(domain, record):
            try:
                self._codec.decode_domain(domain, self._zone)
            except IdentifierError:
                record = None
        self._resolutions[domain] = record
        if record is None:
            self.unknown_count += 1
            if self._retain:
                self._unknown.append(domain)
        return record

    def ingest(self, entry: LoggedRequest) -> Optional[ShadowingEvent]:
        """Classify one appended log entry.

        Returns the :class:`ShadowingEvent` when the entry is
        unsolicited, or ``None`` when it is the decoy's own solicited
        initial arrival (rule iii) or undecodable noise.
        """
        domain = entry.domain
        record = self._resolutions.get(domain, _UNRESOLVED)
        if record is _UNRESOLVED:
            if self._retain:
                self._domains.append(domain)
            record = self._resolve(domain)
        if record is None:
            return None
        if (entry.protocol == "dns" and record.protocol == "dns"
                and record.domain == domain
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
