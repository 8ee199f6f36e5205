"""One campaign's live state: ledger, correlator, accumulators, cache.

A :class:`CampaignSession` is the serve-side mirror of what
:mod:`repro.core.campaign` does at batch time — the feeding contract is
identical (``observe_decoy`` per registered decoy, ``observe_event`` per
Phase I unsolicited request, ``observe_location`` per Phase II verdict,
``set_log_entries`` with the total log length), so after N ingested
records ``state.digest()`` equals the batch digest over the same N and
the rendered report is byte-identical.  Everything mutable is guarded by
one re-entrant lock; readers (report/telemetry endpoints) take the same
lock, so a report never observes a half-applied batch.

Report renders are cached keyed by the accumulator digest.  The digest
itself is also cached behind a dirty flag flipped on ingest — so a read
of an unchanged session is two dict lookups, never a re-hash and never
a re-render.
"""

import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.analysis.paperreport import full_report_from_state
from repro.analysis.streaming import AnalysisState
from repro.core.correlate import DecoyLedger, IncrementalCorrelator
from repro.core.wire import FeedBatch
from repro.intel.blocklist import Blocklist
from repro.intel.directory import IpDirectory
from repro.telemetry.registry import NULL_REGISTRY, labeled

REPORT_TITLE = "Traffic shadowing measurement report"
"""Default title for live-served reports — deliberately the
:func:`full_report_from_state` default, so the daemon's text artifact
byte-matches ``repro report --title`` over the same records."""


class ReportCache:
    """Digest-keyed render cache with a monotonically versioned artifact.

    One entry suffices: the session only ever renders its *current*
    state, and a new digest invalidates the old artifact.  ``version``
    counts distinct renders since session start, so API consumers can
    cheaply detect "the report changed" without diffing text.
    """

    def __init__(self, metrics=None, campaign_id: str = ""):
        self._digest: Optional[str] = None
        self._text: Optional[str] = None
        self.version = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = metrics.counter(
            labeled("serve.report.cache_hits", campaign=campaign_id))
        self._m_misses = metrics.counter(
            labeled("serve.report.cache_misses", campaign=campaign_id))
        self.hits = 0
        self.misses = 0

    def get(self, digest: str, render) -> Tuple[str, int]:
        """(report text, version) — calling ``render()`` only on miss."""
        if digest == self._digest:
            self.hits += 1
            self._m_hits.inc()
            return self._text, self.version
        text = render()
        self._digest = digest
        self._text = text
        self.version += 1
        self.misses += 1
        self._m_misses.inc()
        return text, self.version

    def current(self, digest: str) -> bool:
        """True when the cached artifact was rendered from ``digest``."""
        return digest == self._digest

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CampaignSession:
    """Incremental analysis for one campaign behind one lock."""

    def __init__(self, campaign_id: str, zone: str, directory: IpDirectory,
                 blocklist: Blocklist, metrics=None,
                 report_title: str = REPORT_TITLE):
        self.campaign_id = campaign_id
        self.zone = zone
        self.report_title = report_title
        self.ledger = DecoyLedger()
        self.state = AnalysisState(directory=directory, blocklist=blocklist)
        self.correlator = IncrementalCorrelator(self.ledger, zone)
        self.lock = threading.RLock()
        self.seq = 0
        """High-water applied batch sequence (registration is seq 0)."""
        self.log_records = 0
        self.location_count = 0
        self._dirty = True
        self._digest: Optional[str] = None
        self._cache = ReportCache(metrics=metrics, campaign_id=campaign_id)
        self.ingest_seconds = 0.0
        self._unjournaled: List[bytes] = []
        """Frames of applied batches not yet appended to the journal."""
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_batches = metrics.counter(
            labeled("serve.ingest.batches", campaign=campaign_id))
        self._m_records = metrics.counter(
            labeled("serve.ingest.log_records", campaign=campaign_id))
        self._m_duplicates = metrics.counter(
            labeled("serve.ingest.duplicate_batches", campaign=campaign_id))
        self._m_events = metrics.counter(
            labeled("serve.ingest.events", campaign=campaign_id))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_context(cls, campaign_id: str, context: dict,
                     metrics=None) -> "CampaignSession":
        """Build a fresh session from registration context (the
        ``context`` dict of a registration :class:`FeedBatch`): zone,
        IP-directory rows, and blocklist addresses."""
        directory = IpDirectory()
        for row in context.get("directory", ()):
            directory.register(address=row["address"], asn=row["asn"],
                               country=row["country"], role=row["role"])
        blocklist = Blocklist()
        for address in context.get("blocklist", ()):
            blocklist.add(address)
        return cls(campaign_id, context["zone"], directory, blocklist,
                   metrics=metrics)

    # -- ingest ------------------------------------------------------------

    def ingest_batch(self, batch: FeedBatch,
                     frame: Optional[bytes] = None) -> dict:
        """Fold one feed batch in; idempotent on ``seq``.

        A batch at or below the high-water mark is acknowledged without
        effect — that is what makes at-least-once feed delivery (resend
        after a daemon restart) safe.  Within a batch, decoys apply
        before log entries, so an entry never references an unregistered
        decoy of the same batch.  ``frame`` is the batch as the journal
        stores it; an applied batch's frame is held for
        :meth:`state_blob` until :meth:`journaled` is called.
        """
        with self.lock:
            if batch.seq <= self.seq:
                self._m_duplicates.inc()
                return self._ack(applied=False)
            started = perf_counter()
            events_before = self.correlator.event_count
            for record in batch.records:
                self.ledger.register(record)
                self.state.observe_decoy(record)
            for entry in batch.log_entries:
                self.log_records += 1
                event = self.correlator.ingest(entry)
                if event is not None and event.decoy.phase == 1:
                    self.state.observe_event(event)
            for location in batch.locations:
                self.location_count += 1
                self.state.observe_location(location)
            self.state.set_log_entries(self.log_records)
            self.seq = batch.seq
            self._dirty = True
            if frame is not None:
                self._unjournaled.append(frame)
            self.ingest_seconds += perf_counter() - started
            self._m_batches.inc()
            self._m_records.inc(len(batch.log_entries))
            self._m_events.inc(self.correlator.event_count - events_before)
            return self._ack(applied=True)

    def _ack(self, applied: bool) -> dict:
        return {
            "campaign": self.campaign_id,
            "seq": self.seq,
            "applied": applied,
            "log_records": self.log_records,
            "events": self.correlator.event_count,
        }

    # -- reads -------------------------------------------------------------

    def digest(self) -> str:
        """The accumulator digest, re-hashed only after an ingest."""
        with self.lock:
            if self._dirty:
                self._digest = self.state.digest()
                self._dirty = False
            return self._digest

    def report(self) -> Tuple[str, str, int]:
        """(text, digest, version) — rendered only when the digest moved."""
        with self.lock:
            digest = self.digest()
            text, version = self._cache.get(
                digest,
                lambda: full_report_from_state(self.state,
                                               title=self.report_title))
            return text, digest, version

    def version_info(self) -> dict:
        """The report's change-detection handle, without rendering.

        ``digest`` identifies the accumulator state; ``version`` is the
        last *rendered* artifact's counter and ``current`` says whether
        that artifact still matches the digest.  A poller can watch this
        endpoint (two dict lookups per call on an idle session) and
        fetch the full report only when the digest moves.
        """
        with self.lock:
            digest = self.digest()
            return {
                "campaign": self.campaign_id,
                "seq": self.seq,
                "digest": digest,
                "version": self._cache.version,
                "current": self._cache.current(digest),
            }

    def telemetry(self) -> dict:
        with self.lock:
            rate = (self.log_records / self.ingest_seconds
                    if self.ingest_seconds > 0 else 0.0)
            return {
                "campaign": self.campaign_id,
                "seq": self.seq,
                "decoys": len(self.ledger),
                "log_records": self.log_records,
                "locations": self.location_count,
                "events": self.correlator.event_count,
                "initial_arrivals": self.correlator.initial_count,
                "unknown_domains": self.correlator.unknown_count,
                "ingest": {
                    "seconds": self.ingest_seconds,
                    "records_per_second": rate,
                },
                "report": {
                    "version": self._cache.version,
                    "cache_hits": self._cache.hits,
                    "cache_misses": self._cache.misses,
                    "cache_hit_ratio": self._cache.hit_ratio,
                },
            }

    def summary(self) -> dict:
        with self.lock:
            return {
                "campaign": self.campaign_id,
                "seq": self.seq,
                "decoys": len(self.ledger),
                "log_records": self.log_records,
                "events": self.correlator.event_count,
                "digest": self.digest(),
            }

    # -- checkpointing -----------------------------------------------------

    def state_blob(self) -> bytes:
        """The frames of applied batches not yet in the journal, in
        apply order, consistent under the session lock."""
        with self.lock:
            return b"".join(self._unjournaled)

    def journaled(self) -> None:
        """Mark every frame :meth:`state_blob` returned as appended."""
        with self.lock:
            self._unjournaled.clear()
