"""Serve checkpoints: one append-only feed journal per campaign.

:class:`ServeCheckpointStore` keeps, per campaign, the feed frames the
daemon applied, in order, so a checkpoint costs one append of the batch
just received and a restart replays the journal.  ``meta.json`` and each
journal's first frame are written atomically (temp file +
:func:`os.replace` in the same directory), so a crash mid-write leaves
the previous file or none — never a torn one.

Campaign runs keep no checkpoints: a run is a pure function of its seed
and config, so a failed run is re-run (see :mod:`repro.core.shard`).
"""

import json
import os
from pathlib import Path
from typing import Dict, List

from repro.core.wire import FRAME_HEADER, FeedBatch, WireError, decode_feed_batch

_META = "meta.json"

CHECKPOINT_FORMAT = 8
"""Format 8 stores wire v5 blobs (fixed-width rows).  It was also the
last format of the run checkpoints sharded runs once kept, and now names
only the serve layout.  Format 7 replaced the serve store's per-campaign
context and state blobs with one append-only feed journal per campaign.
Format 6 stored wire v4 shard blobs (Phase I payloads without vetting
counts).  Format 5 stored wire v3 shard blobs (final payloads no longer
decode against their Phase I payload) and dropped the never-read
``analysis.json``.  Format 4 added a ``kind`` discriminator to
``meta.json`` (``"run"`` for phase-boundary shard checkpoints,
``"serve"`` for the continuous checkpoints of :mod:`repro.serve`) so the
two layouts cannot be resumed into each other.  As with every bump,
older directories are rejected up front instead of failing on a missing
file later."""

_KIND = "serve"
_RESTART_HINT = "start the daemon on a fresh checkpoint directory"
"""What to do instead when a directory cannot be read."""


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable for the requested operation."""


class ServeCheckpointStore:
    """Append-only feed journals for the always-on service.

    Layout under one directory:

    * ``meta.json`` — format + ``kind: "serve"``;
    * ``campaign-<id>.journal.bin`` — the campaign's feed frames, each a
      4-byte big-endian length prefix and a
      :class:`~repro.core.wire.FeedBatch` blob, byte for byte as the feed
      socket received them: the registration frame first (written
      atomically when the campaign registers), then each applied data
      batch, appended before the batch is acknowledged.

    A restart replays the journal, so a hard kill loses no acknowledged
    batch.  A kill mid-append leaves a torn final frame, which
    :meth:`load_journal` drops and truncates away: that batch was never
    acknowledged, so the feeder resends it (see docs/SERVICE.md).
    """

    _JOURNAL_SUFFIX = ".journal.bin"

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._journal_bytes: Dict[str, int] = {}
        """Campaign id -> journal length through its last whole frame."""

    def _write_bytes(self, name: str, payload: bytes) -> None:
        target = self.directory / name
        temp = self.directory / (name + ".tmp")
        temp.write_bytes(payload)
        os.replace(temp, target)

    def save_meta(self) -> None:
        self._write_bytes(_META, json.dumps({
            "format": CHECKPOINT_FORMAT,
            "kind": _KIND,
        }, indent=2).encode())

    def load_meta(self) -> Dict:
        path = self.directory / _META
        if not path.exists():
            raise CheckpointError(f"{self.directory} has no {_META}; "
                                  "not a checkpoint directory")
        try:
            meta = json.loads(path.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"{path} is not valid JSON ({exc}); {_RESTART_HINT}"
            ) from exc
        if not isinstance(meta, dict):
            raise CheckpointError(
                f"{path} holds a JSON {type(meta).__name__}, not an "
                f"object; {_RESTART_HINT}"
            )
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{self.directory} is checkpoint format "
                f"{meta.get('format')!r}; this build reads format "
                f"{CHECKPOINT_FORMAT} — {_RESTART_HINT}"
            )
        if meta.get("kind") != _KIND:
            raise CheckpointError(
                f"{self.directory} holds {meta.get('kind')!r} checkpoints; "
                f"this store reads {_KIND!r} checkpoints — "
                f"{_RESTART_HINT}"
            )
        return meta

    def _journal(self, campaign_id: str) -> Path:
        return self.directory / f"campaign-{campaign_id}{self._JOURNAL_SUFFIX}"

    def start_journal(self, campaign_id: str, frame: bytes) -> None:
        """Begin ``campaign_id``'s journal with its registration frame."""
        self._write_bytes(self._journal(campaign_id).name, frame)
        self._journal_bytes[campaign_id] = len(frame)

    def save_state_blob(self, campaign_id: str, blob: bytes) -> None:
        """Append ``blob``, one or more whole frames, to the journal.

        The write starts where the last whole frame ends, so bytes that
        a failed append left behind are overwritten, never extended."""
        size = self._journal_bytes[campaign_id]
        with open(self._journal(campaign_id), "r+b") as handle:
            handle.seek(size)
            handle.write(blob)
            handle.truncate()
        self._journal_bytes[campaign_id] = size + len(blob)

    def journal_bytes(self, campaign_id: str) -> int:
        return self._journal_bytes.get(campaign_id, 0)

    def load_journal(self, campaign_id: str) -> List[FeedBatch]:
        """The journaled batches, registration first.

        A torn final frame is dropped and truncated away.  A whole frame
        that does not decode (its checksum fails) raises
        :class:`CheckpointError` naming the file and the frame's offset.
        """
        path = self._journal(campaign_id)
        data = path.read_bytes()
        batches: List[FeedBatch] = []
        offset = 0
        while offset + FRAME_HEADER.size <= len(data):
            (length,) = FRAME_HEADER.unpack_from(data, offset)
            start = offset + FRAME_HEADER.size
            if start + length > len(data):
                break
            try:
                batches.append(decode_feed_batch(data[start:start + length]))
            except WireError as exc:
                raise CheckpointError(
                    f"{path}: frame at byte {offset} is corrupt ({exc}); "
                    f"{_RESTART_HINT}"
                ) from exc
            offset = start + length
        if not batches or batches[0].context is None:
            raise CheckpointError(
                f"{path} does not begin with a registration frame; "
                f"{_RESTART_HINT}"
            )
        if offset < len(data):
            with open(path, "r+b") as handle:
                handle.truncate(offset)
        self._journal_bytes[campaign_id] = offset
        return batches

    def campaign_ids(self) -> List[str]:
        """Journaled campaigns, sorted for determinism."""
        prefix, suffix = "campaign-", self._JOURNAL_SUFFIX
        return sorted(
            path.name[len(prefix):-len(suffix)]
            for path in self.directory.glob(f"{prefix}*{suffix}")
        )
