"""Unified, append-only request log shared by all honeypot services.

The store keeps the :class:`LoggedRequest` objects it is given, in one
list in arrival order, so every read returns the very object that was
appended.  Arrival order is time order, so time windows bisect the list;
per-domain and per-protocol queries scan it.
"""

import bisect
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.columnar import merged_order
from repro.records import frozen
from repro.telemetry.registry import NULL_REGISTRY, labeled

PROTOCOL_DNS = "dns"
PROTOCOL_HTTP = "http"
PROTOCOL_HTTPS = "https"
KNOWN_PROTOCOLS = (PROTOCOL_DNS, PROTOCOL_HTTP, PROTOCOL_HTTPS)


@frozen
class LoggedRequest:
    """One request that arrived at a honeypot.

    ``domain`` is the experiment name the request carried (QNAME, Host, or
    SNI); correlation decodes the identifier embedded in it.
    """

    time: float
    site: str
    protocol: str
    src_address: str
    domain: str
    path: Optional[str] = None
    """Request path for HTTP(S); None for DNS."""
    qtype: Optional[int] = None
    """Query type for DNS; None otherwise."""
    user_agent: Optional[str] = None

    def __post_init__(self):
        if self.protocol not in KNOWN_PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")


class LogStore:
    """Append-only log with by-domain, by-protocol and by-time retrieval.

    Entries are appended in event order (the simulator guarantees
    monotonic time), so time-windowed queries can bisect.
    """

    def __init__(self, metrics=None):
        self._entries: List[LoggedRequest] = []
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_requests = {
            protocol: metrics.counter(
                labeled("honeypot.requests", protocol=protocol)
            )
            for protocol in KNOWN_PROTOCOLS
        }

    @classmethod
    def merged(cls, shard_entries: Sequence[Sequence[LoggedRequest]]) -> "LogStore":
        """Deterministically interleave per-shard logs into one store.

        Entries order by (time, shard position, within-shard position):
        each shard's simulator already guarantees monotonic time, and the
        shard position breaks cross-shard ties stably — so the merged
        order depends only on the inputs, never on worker completion
        order.  Routing through :meth:`append` checks that the merged
        order is time order, so windowed and filtered queries on the
        merged store match a serially-built one exactly.

        The merged store is deliberately un-instrumented: each entry was
        already counted by the live (per-shard) store it arrived at, and
        counting replays here would double telemetry totals.
        """
        store = cls()
        shard_entries = [list(entries) for entries in shard_entries]
        for position, index in merged_order(
            [[entry.time for entry in entries] for entries in shard_entries]
        ):
            store.append(shard_entries[position][index])
        return store

    def append(self, entry: LoggedRequest) -> None:
        entries = self._entries
        if entries and entry.time < entries[-1].time:
            raise ValueError(
                f"log must be appended in time order: {entry.time} after "
                f"{entries[-1].time}"
            )
        entries.append(entry)
        self._m_requests[entry.protocol].inc()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LoggedRequest]:
        return iter(self._entries)

    def all(self) -> Tuple[LoggedRequest, ...]:
        return tuple(self._entries)

    def for_domain(self, domain: str) -> List[LoggedRequest]:
        """All requests bearing ``domain``, in arrival order."""
        return [entry for entry in self._entries if entry.domain == domain]

    def domains(self) -> List[str]:
        """Every distinct domain, in order of first arrival."""
        return list(dict.fromkeys(entry.domain for entry in self._entries))

    def between(self, start: float, end: float) -> List[LoggedRequest]:
        """Entries in the half-open window ``start <= time < end``.

        ``end`` is *exclusive*: an entry stamped exactly ``end`` is NOT
        returned.  (The pre-bisection linear scan used ``<=`` on both
        bounds; the bisect rewrite settled on half-open because it
        composes — ``between(a, b) + between(b, c) == between(a, c)``
        with no entry duplicated at the seam.  Pinned by
        ``tests/test_honeypot.py``.)  O(log n + k) via bisection over the
        append-ordered entries.
        """
        entries, time = self._entries, attrgetter("time")
        low = bisect.bisect_left(entries, start, key=time)
        high = bisect.bisect_left(entries, end, key=time)
        return entries[low:high]

    def tail(self, cursor: int = 0) -> Tuple[List[LoggedRequest], int]:
        """(entries appended at or after ``cursor``, new cursor).

        The cursor is a count of entries already consumed, so the window
        is half-open just like :meth:`between`: ``tail(0)`` yields the
        whole log, a second call with the returned cursor yields only
        what arrived in the meantime, and consecutive calls tile the log
        with no entry duplicated or skipped — the live-ingest contract
        :mod:`repro.serve` relies on (pinned by ``tests/test_honeypot``).
        O(k) in the tail length; never rescans consumed entries.
        """
        if cursor < 0:
            raise ValueError(f"tail cursor must be >= 0, got {cursor}")
        return self._entries[cursor:], len(self._entries)

    def by_protocol(self, protocol: str) -> List[LoggedRequest]:
        """All requests of one protocol, in arrival order."""
        return [entry for entry in self._entries
                if entry.protocol == protocol]
