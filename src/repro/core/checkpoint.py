"""Phase-boundary checkpoints for the sharded executor.

The supervisor (:mod:`repro.core.shard`) flushes each shard's payload to
disk the moment it arrives — Phase I payloads after the first round of
the worker protocol, final payloads after the second — so a run killed at
any point can resume with ``run --resume DIR``: shards whose final
payload is on disk are never re-simulated, and shards that only reached
Phase I skip nothing but re-derive their (deterministic) simulator state
by replay.

Every write is atomic (temp file + :func:`os.replace` in the same
directory), so a crash mid-flush leaves either the previous checkpoint or
none — never a torn file.  Shard payloads and the Phase II plan are
stored as the same wire-format blobs that crossed the worker pipe
(:mod:`repro.core.wire`) — the supervisor writes the received bytes
verbatim, so checkpointing costs one file write, not a re-serialization,
and the blob checksum doubles as on-disk corruption detection.  Every
blob decodes on its own.  ``meta.json`` carries the human-readable run
identity (seed, shard count) used to reject resuming with a mismatched
config.
"""

import json
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.wire import (
    WireError,
    decode_final_payload,
    decode_phase1_payload,
    decode_plan_slices,
    encode_plan_slices,
)

_META = "meta.json"
_CONFIG = "config.pkl"
_PLAN = "phase2_plan.bin"

CHECKPOINT_FORMAT = 6
"""Format 6 stores wire v4 shard blobs (Phase I payloads without vetting
counts).  Format 5 stored wire v3 shard blobs (final payloads no longer
decode against their Phase I payload) and dropped the never-read
``analysis.json``.  Format 4 added a ``kind`` discriminator to
``meta.json`` (``"run"`` for phase-boundary shard checkpoints,
``"serve"`` for the continuous watermark checkpoints of
:mod:`repro.serve`) so the two layouts cannot be resumed into each
other.  As with every bump, older directories are rejected up front
instead of failing on a missing file later."""

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
                f"{CHECKPOINT_FORMAT} — re-run the campaign instead of "
                "resuming"
            )
        if meta.get("kind", KIND_RUN) != self.KIND:
            raise CheckpointError(
                f"{self.directory} holds {meta.get('kind')!r} checkpoints; "
                f"this store reads {self.KIND!r} checkpoints"
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
    """Continuous watermark checkpoints for the always-on service.

    Layout under one directory (all writes atomic, same discipline as
    the run store):

    * ``meta.json`` — format + ``kind: "serve"``;
    * ``campaign-<id>.context.bin`` — the campaign's registration
      :class:`~repro.core.wire.FeedBatch` blob, stored **verbatim** as
      received (written once, at registration);
    * ``campaign-<id>.state.bin`` — the latest
      :class:`~repro.core.wire.ServeCampaignState` blob, rewritten at
      every record-count/wall-clock watermark and on graceful shutdown.

    A kill between watermarks loses at most the un-flushed tail; the
    feed protocol's idempotent sequence numbers let a feeder resend from
    its last acknowledged batch (see docs/SERVICE.md).
    """

    KIND = KIND_SERVE

    _CONTEXT_SUFFIX = ".context.bin"
    _STATE_SUFFIX = ".state.bin"

    def save_meta(self) -> None:
        self._write_bytes(_META, json.dumps({
            "format": CHECKPOINT_FORMAT,
            "kind": self.KIND,
        }, indent=2).encode())

    @staticmethod
    def _campaign_file(campaign_id: str, suffix: str) -> str:
        return f"campaign-{campaign_id}{suffix}"

    def save_context_blob(self, campaign_id: str, blob: bytes) -> None:
        self._write_bytes(self._campaign_file(campaign_id,
                                              self._CONTEXT_SUFFIX), blob)

    def load_context(self, campaign_id: str):
        from repro.core.wire import WireError, decode_feed_batch

        name = self._campaign_file(campaign_id, self._CONTEXT_SUFFIX)
        try:
            return decode_feed_batch(self._read_bytes(name))
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"{self.directory} has no registration blob for campaign "
                f"{campaign_id!r}"
            ) from exc
        except WireError as exc:
            raise CheckpointError(f"{self.directory / name}: {exc}") from exc

    def save_state_blob(self, campaign_id: str, blob: bytes) -> None:
        self._write_bytes(self._campaign_file(campaign_id,
                                              self._STATE_SUFFIX), blob)

    def load_state(self, campaign_id: str):
        from repro.core.wire import WireError, decode_serve_state

        name = self._campaign_file(campaign_id, self._STATE_SUFFIX)
        try:
            return decode_serve_state(self._read_bytes(name))
        except FileNotFoundError:
            return None
        except WireError as exc:
            raise CheckpointError(f"{self.directory / name}: {exc}") from exc

    def campaign_ids(self) -> List[str]:
        """Registered campaigns, by context blob, sorted for determinism."""
        prefix, suffix = "campaign-", self._CONTEXT_SUFFIX
        return sorted(
            path.name[len(prefix):-len(suffix)]
            for path in self.directory.glob(f"{prefix}*{suffix}")
        )
