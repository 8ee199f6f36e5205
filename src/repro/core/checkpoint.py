"""Checkpoints: phase boundaries of sharded runs, feed journals of serve.

The supervisor (:mod:`repro.core.shard`) flushes each shard's payload to
disk the moment it arrives — Phase I payloads after the first round of
the worker protocol, final payloads after the second — so a run killed at
any point can resume with ``run --resume DIR``: shards whose final
payload is on disk are never re-simulated, and shards that only reached
Phase I skip nothing but re-derive their (deterministic) simulator state
by replay.

Every run checkpoint write is atomic (temp file + :func:`os.replace` in
the same directory), so a crash mid-flush leaves either the previous
checkpoint or none — never a torn file.  Shard payloads and the Phase II
plan are stored as the same wire-format blobs that crossed the worker
pipe (:mod:`repro.core.wire`) — the supervisor writes the received bytes
verbatim, so checkpointing costs one file write, not a re-serialization,
and the blob checksum doubles as on-disk corruption detection.  Every
blob decodes on its own.  ``meta.json`` carries the human-readable run
identity (seed, shard count) used to reject resuming with a mismatched
config.

The serve store (:class:`ServeCheckpointStore`) keeps one append-only
journal per campaign instead: the feed frames the daemon applied, in
order, so a checkpoint costs one append of the batch just received and a
restart replays the journal.
"""

import json
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.wire import (
    FRAME_HEADER,
    FeedBatch,
    WireError,
    decode_feed_batch,
    decode_final_payload,
    decode_phase1_payload,
    decode_plan_slices,
    encode_plan_slices,
)

_META = "meta.json"
_CONFIG = "config.pkl"
_PLAN = "phase2_plan.bin"

CHECKPOINT_FORMAT = 8
"""Format 8 stores wire v5 blobs (fixed-width rows) in run checkpoints
and serve journals alike, since both keep blobs verbatim.  Format 7
replaced the serve store's per-campaign context and state blobs with
one append-only feed journal per campaign.  Format 6 stored wire v4
shard blobs (Phase I payloads without vetting counts).  Format 5
stored wire v3 shard blobs (final payloads no longer decode against
their Phase I payload) and dropped the never-read ``analysis.json``.
Format 4 added a ``kind`` discriminator to ``meta.json`` (``"run"`` for
phase-boundary shard checkpoints, ``"serve"`` for the continuous
checkpoints of :mod:`repro.serve`) so the two layouts cannot be resumed
into each other.  As with every bump, older directories are rejected up
front instead of failing on a missing file later."""

KIND_RUN = "run"
KIND_SERVE = "serve"


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable for the requested operation."""


class CheckpointStore:
    """Atomic wire-blob/JSON persistence under one checkpoint directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- low-level atomic writes ------------------------------------------

    def _write_bytes(self, name: str, payload: bytes) -> None:
        target = self.directory / name
        temp = self.directory / (name + ".tmp")
        temp.write_bytes(payload)
        os.replace(temp, target)

    def _read_bytes(self, name: str) -> bytes:
        return (self.directory / name).read_bytes()

    def _write_pickle(self, name: str, value) -> None:
        self._write_bytes(name, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def _read_pickle(self, name: str):
        with open(self.directory / name, "rb") as handle:
            return pickle.load(handle)

    # -- run identity ------------------------------------------------------

    KIND = KIND_RUN
    RESTART_HINT = "re-run the campaign instead of resuming"
    """What to do instead when a directory cannot be read."""

    def save_run(self, config, shard_count: int) -> None:
        self._write_pickle(_CONFIG, config)
        self._write_bytes(_META, json.dumps({
            "seed": config.seed,
            "shard_count": shard_count,
            "format": CHECKPOINT_FORMAT,
            "kind": self.KIND,
        }, indent=2).encode())

    def load_meta(self) -> Dict:
        path = self.directory / _META
        if not path.exists():
            raise CheckpointError(f"{self.directory} has no {_META}; "
                                  "not a checkpoint directory")
        try:
            meta = json.loads(path.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path} is not valid JSON: {exc}") from exc
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{self.directory} is checkpoint format "
                f"{meta.get('format')!r}; this build reads format "
                f"{CHECKPOINT_FORMAT} — {self.RESTART_HINT}"
            )
        if meta.get("kind", KIND_RUN) != self.KIND:
            raise CheckpointError(
                f"{self.directory} holds {meta.get('kind')!r} checkpoints; "
                f"this store reads {self.KIND!r} checkpoints — "
                f"{self.RESTART_HINT}"
            )
        return meta

    def load_config(self):
        try:
            return self._read_pickle(_CONFIG)
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"{self.directory} has no {_CONFIG}"
            ) from exc
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError) as exc:
            # The failures the pickle module documents for damaged input.
            raise CheckpointError(
                f"{self.directory / _CONFIG} is truncated or corrupt: {exc}"
            ) from exc

    # -- phase payloads ----------------------------------------------------

    @staticmethod
    def _phase1_name(shard_index: int) -> str:
        return f"shard-{shard_index:02d}.phase1.bin"

    @staticmethod
    def _final_name(shard_index: int) -> str:
        return f"shard-{shard_index:02d}.final.bin"

    def save_phase1_blob(self, shard_index: int, blob: bytes) -> None:
        self._write_bytes(self._phase1_name(shard_index), blob)

    def load_phase1(self, shard_index: int):
        name = self._phase1_name(shard_index)
        try:
            return decode_phase1_payload(self._read_bytes(name))
        except WireError as exc:
            raise CheckpointError(f"{self.directory / name}: {exc}") from exc

    def has_phase1(self, shard_index: int) -> bool:
        return (self.directory / self._phase1_name(shard_index)).exists()

    def save_phase2_plan(self, slices: List[list]) -> None:
        self._write_bytes(_PLAN, encode_plan_slices(slices))

    def load_phase2_plan(self) -> Optional[List[list]]:
        try:
            blob = self._read_bytes(_PLAN)
        except FileNotFoundError:
            return None
        try:
            return decode_plan_slices(blob)
        except WireError as exc:
            raise CheckpointError(f"{self.directory / _PLAN}: {exc}") from exc

    def save_final_blob(self, shard_index: int, blob: bytes) -> None:
        self._write_bytes(self._final_name(shard_index), blob)

    def load_final(self, shard_index: int):
        name = self._final_name(shard_index)
        try:
            return decode_final_payload(self._read_bytes(name))
        except WireError as exc:
            raise CheckpointError(f"{self.directory / name}: {exc}") from exc

    def has_final(self, shard_index: int) -> bool:
        return (self.directory / self._final_name(shard_index)).exists()

    def completed_shards(self, shard_count: int) -> List[int]:
        """Shards whose final payload is already flushed."""
        return [index for index in range(shard_count) if self.has_final(index)]


class ServeCheckpointStore(CheckpointStore):
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

    KIND = KIND_SERVE
    RESTART_HINT = "start the daemon on a fresh checkpoint directory"

    _JOURNAL_SUFFIX = ".journal.bin"

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self._journal_bytes: Dict[str, int] = {}
        """Campaign id -> journal length through its last whole frame."""

    def save_meta(self) -> None:
        self._write_bytes(_META, json.dumps({
            "format": CHECKPOINT_FORMAT,
            "kind": self.KIND,
        }, indent=2).encode())

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
                    f"{self.RESTART_HINT}"
                ) from exc
            offset = start + length
        if not batches or batches[0].context is None:
            raise CheckpointError(
                f"{path} does not begin with a registration frame; "
                f"{self.RESTART_HINT}"
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
