"""Multi-tenant session registry with journaled checkpoints.

The :class:`MeasurementService` is the daemon's core, independent of any
transport: the socket feed (:mod:`repro.serve.feed`) and the HTTP API
(:mod:`repro.serve.httpapi`) both call straight into it.  It owns

* the campaign-id → :class:`~repro.serve.session.CampaignSession` map,
  guarded for registration races (per-campaign ingest is serialized by
  the session's own lock);
* the structured error vocabulary — ingest for an unregistered campaign
  raises :class:`UnknownCampaignError`, never a bare ``KeyError``, and
  transports render ``error.to_payload()`` verbatim;
* checkpointing: with a
  :class:`~repro.core.checkpoint.ServeCheckpointStore`, a campaign's
  registration frame starts its journal and each applied data batch's
  frame is appended under the session lock before the batch is
  acknowledged, so an ack means the batch survives a hard kill.  A
  restart replays the journals through the sessions' ingest.
"""

import re
import threading
import time
from typing import Dict, List, Optional

from repro.core.checkpoint import ServeCheckpointStore
from repro.core.wire import FeedBatch, encode_feed_batch, framed
from repro.serve.session import CampaignSession
from repro.telemetry.registry import MetricsRegistry

_CAMPAIGN_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")
"""Campaign ids become checkpoint file names — keep them path-safe."""


class ServeError(RuntimeError):
    """A structured, transport-renderable service error."""

    code = "serve_error"

    def to_payload(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


class UnknownCampaignError(ServeError):
    """Ingest or read addressed a campaign id nobody registered."""

    code = "unknown_campaign"

    def __init__(self, campaign_id: str, known: List[str]):
        super().__init__(
            f"campaign {campaign_id!r} is not registered; known campaigns: "
            f"{known if known else '(none)'}"
        )
        self.campaign_id = campaign_id
        self.known = known

    def to_payload(self) -> dict:
        payload = super().to_payload()
        payload["error"]["campaign"] = self.campaign_id
        payload["error"]["known"] = self.known
        return payload


class InvalidCampaignError(ServeError):
    """A campaign id failed validation (unsafe as a checkpoint name)."""

    code = "invalid_campaign_id"


class RegistrationError(ServeError):
    """A registration batch was malformed or conflicted."""

    code = "registration_error"


class InvalidBatchError(ServeError):
    """A data batch that cannot apply; none of it was applied."""

    code = "invalid_batch"


class JournalError(ServeError):
    """An applied batch could not be appended to its campaign's journal."""

    code = "journal_error"


class MeasurementService:
    """Campaign registry + ingest router + journaling checkpointer."""

    def __init__(self, checkpoint_dir=None,
                 metrics: Optional[MetricsRegistry] = None,
                 clock=time.monotonic):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._sessions: Dict[str, CampaignSession] = {}
        self._registry_lock = threading.Lock()
        self._store: Optional[ServeCheckpointStore] = None
        if checkpoint_dir is not None:
            self._store = ServeCheckpointStore(checkpoint_dir)
            self._store.save_meta()
        self.started_at = clock()
        self._m_checkpoints = self.metrics.counter("serve.checkpoints")

    # -- restore -----------------------------------------------------------

    @classmethod
    def restore(cls, checkpoint_dir, metrics=None,
                clock=time.monotonic) -> "MeasurementService":
        """Resume every campaign journaled in a serve checkpoint directory.

        Each journal replays through the session's ingest: its
        registration frame builds the session and every data frame
        applies again, so the restored session is at the last
        acknowledged batch.
        """
        ServeCheckpointStore(checkpoint_dir).load_meta()
        service = cls(checkpoint_dir=checkpoint_dir, metrics=metrics,
                      clock=clock)
        for campaign_id in service._store.campaign_ids():
            registration, *batches = service._store.load_journal(campaign_id)
            session = CampaignSession.from_context(
                campaign_id, registration.context, metrics=service.metrics)
            for batch in batches:
                session.ingest_batch(batch)
            service._sessions[campaign_id] = session
        return service

    # -- registry ----------------------------------------------------------

    def campaign_ids(self) -> List[str]:
        with self._registry_lock:
            return sorted(self._sessions)

    def session(self, campaign_id: str) -> CampaignSession:
        with self._registry_lock:
            session = self._sessions.get(campaign_id)
        if session is None:
            raise UnknownCampaignError(campaign_id, self.campaign_ids())
        return session

    def register(self, batch: FeedBatch, blob: Optional[bytes] = None) -> dict:
        """Create a session from a registration batch (idempotent).

        Re-registering an existing campaign is acknowledged without
        effect when the zone agrees (the normal feeder-restart case) and
        rejected as a conflict when it does not.  With checkpointing, a
        new campaign is registered only once its journal has begun.
        """
        if batch.context is None:
            raise RegistrationError(
                f"registration for {batch.campaign_id!r} carries no context"
            )
        if not _CAMPAIGN_ID.match(batch.campaign_id):
            raise InvalidCampaignError(
                f"campaign id {batch.campaign_id!r} must match "
                f"{_CAMPAIGN_ID.pattern}"
            )
        problem = _context_problem(batch.context)
        if problem is not None:
            raise RegistrationError(
                f"registration for {batch.campaign_id!r} refused: {problem}; "
                "nothing was registered"
            )
        with self._registry_lock:
            existing = self._sessions.get(batch.campaign_id)
            if existing is not None:
                if existing.zone != batch.context["zone"]:
                    raise RegistrationError(
                        f"campaign {batch.campaign_id!r} already registered "
                        f"with zone {existing.zone!r}; refusing context with "
                        f"zone {batch.context['zone']!r}"
                    )
                return {"campaign": batch.campaign_id, "seq": existing.seq,
                        "applied": False, "registered": True}
            session = CampaignSession.from_context(
                batch.campaign_id, batch.context, metrics=self.metrics)
            if self._store is not None:
                try:
                    self._store.start_journal(batch.campaign_id,
                                              _frame(batch, blob))
                except OSError as exc:
                    raise JournalError(
                        f"campaign {batch.campaign_id!r} not registered: "
                        f"cannot start its journal ({exc})"
                    ) from exc
            self._sessions[batch.campaign_id] = session
        return {"campaign": batch.campaign_id, "seq": 0, "applied": True,
                "registered": True}

    # -- ingest ------------------------------------------------------------

    def ingest(self, batch: FeedBatch, blob: Optional[bytes] = None) -> dict:
        """Route one feed batch: registration or data.

        ``blob`` is the batch's wire encoding as the feed socket
        received it, which the journal stores verbatim; without one the
        batch is encoded.  A data batch is acknowledged only once its
        frame, and any frame an earlier failed append left behind, is in
        the journal.
        """
        if batch.context is not None:
            return self.register(batch, blob)
        session = self.session(batch.campaign_id)
        with session.lock:
            if batch.seq > session.seq:
                _check_decoys(session, batch)
            frame = _frame(batch, blob) if self._store is not None else None
            ack = session.ingest_batch(batch, frame)
            self.checkpoint(batch.campaign_id)
        return ack

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self, campaign_id: str) -> bool:
        """Append the campaign's unjournaled frames; True if any were.

        A failed append raises :class:`JournalError` and keeps the
        frames, so the campaign's next ingest (a resend included) or
        :meth:`flush_all` retries them.
        """
        if self._store is None:
            return False
        session = self.session(campaign_id)
        with session.lock:
            blob = session.state_blob()
            if not blob:
                return False
            try:
                self._store.save_state_blob(campaign_id, blob)
            except OSError as exc:
                raise JournalError(
                    f"campaign {campaign_id!r} is at seq {session.seq} but "
                    f"its journal append failed ({exc}); resend the batch "
                    "to retry"
                ) from exc
            session.journaled()
        self._m_checkpoints.inc()
        return True

    def flush_all(self) -> int:
        """Append every campaign's unjournaled frames (shutdown path)."""
        flushed = 0
        for campaign_id in self.campaign_ids():
            if self.checkpoint(campaign_id):
                flushed += 1
        return flushed

    # -- reads -------------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": self._clock() - self.started_at,
            "campaigns": len(self._sessions),
            "checkpointing": self._store is not None,
        }

    def summaries(self) -> List[dict]:
        return [self.session(campaign_id).summary()
                for campaign_id in self.campaign_ids()]

    def telemetry(self, campaign_id: str) -> dict:
        data = self.session(campaign_id).telemetry()
        data["checkpoint"] = {
            "enabled": self._store is not None,
            "flushes": self._m_checkpoints.value,
            "journal_bytes": (self._store.journal_bytes(campaign_id)
                              if self._store is not None else 0),
        }
        return data


def _frame(batch: FeedBatch, blob: Optional[bytes]) -> bytes:
    """The journal frame of ``batch``: its received blob, length-prefixed."""
    return framed(blob if blob is not None else encode_feed_batch(batch))


_DIRECTORY_FIELDS = (("address", str), ("asn", int), ("country", str),
                     ("role", str))
"""The fields of a registration context's directory row, by JSON type."""


def _context_problem(context) -> Optional[str]:
    """What makes a registration context unusable, or None.

    Checked before a session is built from it: a JSON object with a
    string ``zone`` of at least one label (not only dots); ``directory``,
    if present, a list of :data:`_DIRECTORY_FIELDS` rows that agree on
    each address's AS and country, as
    :class:`~repro.intel.directory.IpDirectory` requires; ``blocklist``,
    if present, a list of address strings.
    """
    if not isinstance(context, dict):
        return f"context is a JSON {type(context).__name__}, not an object"
    zone = context.get("zone")
    if type(zone) is not str or not zone.strip("."):
        return f"zone must be a string with at least one label, got {zone!r}"
    directory = context.get("directory", [])
    if type(directory) is not list:
        return "directory must be a list of rows"
    placed = {}
    for index, row in enumerate(directory):
        if type(row) is not dict or any(type(row.get(name)) is not kind
                                        for name, kind in _DIRECTORY_FIELDS):
            return (f"directory row {index} must be an object with "
                    + ", ".join(f"{name} ({kind.__name__})"
                                for name, kind in _DIRECTORY_FIELDS))
        place = placed.setdefault(row["address"],
                                  (row["asn"], row["country"]))
        if place != (row["asn"], row["country"]):
            return (f"directory rows for {row['address']} conflict: "
                    f"AS{place[0]} in {place[1]} vs AS{row['asn']} in "
                    f"{row['country']}")
    blocklist = context.get("blocklist", [])
    if type(blocklist) is not list or any(type(address) is not str
                                          for address in blocklist):
        return "blocklist must be a list of address strings"
    return None


def _check_decoys(session: CampaignSession, batch: FeedBatch) -> None:
    """Reject a new data batch that would register a decoy twice, before
    any of it applies (the ledger refuses a duplicate domain)."""
    seen = set()
    for record in batch.records:
        domain = record.domain
        if session.ledger.phase_of(domain) is not None:
            raise InvalidBatchError(
                f"batch seq {batch.seq} for campaign {batch.campaign_id!r} "
                f"re-registers decoy {domain!r}, already in the ledger; "
                "nothing was applied"
            )
        if domain in seen:
            raise InvalidBatchError(
                f"batch seq {batch.seq} for campaign {batch.campaign_id!r} "
                f"registers decoy {domain!r} twice; nothing was applied"
            )
        seen.add(domain)
