"""The live record feed: framing, socket transport, and replay sources.

Feeders push :class:`~repro.core.wire.FeedBatch` blobs to the daemon
over a local TCP socket.  Frames are 4-byte big-endian length prefixes
followed by the wire blob (requests) or a UTF-8 JSON document (acks) —
the blob itself already carries magic, version, and CRC, so the frame
adds nothing but a read boundary.

Delivery is at-least-once: every batch carries a per-campaign sequence
number, sessions skip anything at or below their high-water mark, and
the ack echoes the applied high-water — so a feeder that reconnects
after a daemon restart simply resends from its last acknowledged batch
and the duplicates are absorbed (see docs/SERVICE.md).

Replay sources turn an in-memory :class:`ExperimentResult` or an
exported bundle directory into a registration batch plus time-ordered
data batches.  The merge order matters: decoy registrations interleave
with log entries by simulated time, decoys first on ties, so no log
entry ever reaches the correlator before the decoy it references —
the invariant that lets the incremental resolver cache "noise" verdicts
permanently.
"""

import dataclasses
import json
import socket
import threading
from typing import Iterator, List, Optional

from repro.core.wire import (
    FRAME_HEADER,
    FeedBatch,
    WireError,
    decode_feed_batch,
    encode_feed_batch,
    framed,
)
from repro.serve.service import MeasurementService, ServeError

MAX_FRAME = 64 * 1024 * 1024
"""Upper bound on one frame — far above any sane batch, low enough that
a corrupt length prefix cannot trigger a multi-gigabyte allocation."""

DEFAULT_BATCH_SIZE = 500


class FeedError(RuntimeError):
    """Transport-level feed failure (framing, socket, oversized frame)."""


# -- framing ---------------------------------------------------------------

def send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise FeedError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME}")
    sock.sendall(framed(payload))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """One frame payload, or ``None`` on orderly EOF at a boundary."""
    header = _recv_exact(sock, FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FeedError(f"incoming frame claims {length} bytes "
                        f"(max {MAX_FRAME}); stream corrupt?")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FeedError("connection closed mid-frame")
    return payload


# -- server ----------------------------------------------------------------

class FeedServer:
    """Threaded TCP acceptor feeding a :class:`MeasurementService`.

    One thread per connection; each decoded batch goes straight to
    ``service.ingest`` together with the blob it was decoded from (which
    the journal stores verbatim), and the resulting ack (or a structured
    error payload) is framed back.  Errors never kill the daemon: a
    :class:`~repro.serve.service.ServeError` is reported and the
    connection stays open (the feeder may switch campaigns); a wire
    decode failure is reported and the connection dropped (the stream
    can no longer be trusted).
    """

    def __init__(self, service: MeasurementService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    def start(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-feed-accept", daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name="repro-feed-conn", daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    blob = recv_frame(conn)
                except (FeedError, OSError):
                    return
                if blob is None:
                    return
                try:
                    batch = decode_feed_batch(blob)
                except WireError as exc:
                    self._reply(conn, {"error": {
                        "code": "wire_error", "message": str(exc)}})
                    return
                try:
                    ack = self.service.ingest(batch, blob)
                except ServeError as exc:
                    ack = exc.to_payload()
                if not self._reply(conn, ack):
                    return

    @staticmethod
    def _reply(conn: socket.socket, payload: dict) -> bool:
        try:
            send_frame(conn, json.dumps(payload, sort_keys=True).encode())
            return True
        except OSError:
            return False

    def stop(self) -> None:
        self._stopping.set()
        # On Linux, close() alone does not wake a thread blocked in
        # accept(); shutdown() does (accept raises EINVAL at once).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)


# -- client ----------------------------------------------------------------

class FeedClient:
    """Blocking feed connection: ``send`` one batch, get one ack."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def send(self, batch: FeedBatch) -> dict:
        """Ship one batch; returns the ack dict.

        A structured service error comes back as ``{"error": {...}}`` —
        raised here as :class:`FeedError` so feeders fail loudly instead
        of silently dropping records.
        """
        send_frame(self._sock, encode_feed_batch(batch))
        reply = recv_frame(self._sock)
        if reply is None:
            raise FeedError("feed connection closed before ack")
        ack = json.loads(reply.decode())
        if "error" in ack:
            raise FeedError(
                f"feed rejected batch seq {batch.seq} for campaign "
                f"{batch.campaign_id!r}: {ack['error']}"
            )
        return ack

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FeedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- replay sources --------------------------------------------------------

def _context(zone: str, directory, blocklist_addresses) -> dict:
    return {
        "zone": zone,
        "directory": [dataclasses.asdict(record) for record in directory],
        "blocklist": sorted(blocklist_addresses),
    }


def context_from_result(result) -> dict:
    """Registration context from an in-memory
    :class:`~repro.core.experiment.ExperimentResult`."""
    return _context(result.config.zone, result.eco.directory,
                    result.eco.blocklist.addresses())


def context_from_bundle(bundle) -> dict:
    """Registration context from a loaded
    :class:`~repro.core.persist.AnalysisBundle`."""
    return _context(bundle.meta["config"]["zone"], bundle.directory,
                    bundle.blocklist.addresses())


def _timeline_batches(campaign_id: str, context: dict, records, entries,
                      locations, batch_size: int) -> Iterator[FeedBatch]:
    """Registration batch, then chunked time-ordered data batches.

    Ledger registration order is send order (monotonic ``sent_at``) and
    the log is monotonic in ``time``, so a two-pointer merge suffices;
    decoys win ties so a same-timestamp initial arrival never precedes
    its decoy.  Locations are Phase II products and ship last.
    """
    yield FeedBatch(campaign_id=campaign_id, seq=0, context=context)

    merged: List[tuple] = []  # (kind, payload); kind 0 = decoy, 1 = entry
    record_list, entry_list = list(records), list(entries)
    ri = ei = 0
    while ri < len(record_list) or ei < len(entry_list):
        take_record = ei >= len(entry_list) or (
            ri < len(record_list)
            and record_list[ri].sent_at <= entry_list[ei].time)
        if take_record:
            merged.append((0, record_list[ri]))
            ri += 1
        else:
            merged.append((1, entry_list[ei]))
            ei += 1

    seq = 0
    for start in range(0, len(merged), batch_size):
        seq += 1
        batch = FeedBatch(campaign_id=campaign_id, seq=seq)
        for kind, payload in merged[start:start + batch_size]:
            (batch.records if kind == 0 else batch.log_entries).append(payload)
        yield batch
    location_list = list(locations)
    for start in range(0, len(location_list), batch_size):
        seq += 1
        yield FeedBatch(campaign_id=campaign_id, seq=seq,
                        locations=location_list[start:start + batch_size])


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def feed_batches_from_result(result, campaign_id: str,
                             batch_size: int = DEFAULT_BATCH_SIZE,
                             ) -> Iterator[FeedBatch]:
    """Replay an in-memory experiment result as a live feed."""
    _check_batch_size(batch_size)
    return _timeline_batches(campaign_id, context_from_result(result),
                             result.ledger.records(), result.log,
                             result.locations, batch_size)


def feed_batches_from_bundle(bundle_dir, campaign_id: str,
                             batch_size: int = DEFAULT_BATCH_SIZE,
                             ) -> Iterator[FeedBatch]:
    """Replay an exported bundle directory as a live feed."""
    from repro.core.persist import load_bundle

    _check_batch_size(batch_size)
    bundle = load_bundle(bundle_dir)
    return _timeline_batches(campaign_id, context_from_bundle(bundle),
                             bundle.ledger.records(), bundle.log.all(),
                             bundle.locations, batch_size)
