"""Daemon wiring for ``repro serve``: feed + HTTP + checkpoints + signals.

The daemon is deliberately thin: construct (or restore) a
:class:`~repro.serve.service.MeasurementService`, bind the feed socket
and the HTTP API, then park until SIGTERM/SIGINT.  Every acknowledged
batch is already in its campaign's journal, so a restart after a
graceful stop or a hard kill alike resumes at the last ack; shutdown
stops accepting, then retries any append that failed.

``ready_file`` solves the bound-port discovery race for harnesses (CI,
tests) that start the daemon with ephemeral ports: once both servers are
listening, the daemon atomically writes a small JSON file with the
actual ports and its pid.
"""

import json
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.checkpoint import CheckpointError
from repro.serve.feed import FeedServer
from repro.serve.httpapi import ReportApiServer
from repro.serve.service import MeasurementService


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    http_port: int = 0
    feed_port: int = 0
    checkpoint_dir: Optional[str] = None
    ready_file: Optional[str] = None


class ServeDaemon:
    """Owns the service and both transports for one daemon lifetime."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.service = self._build_service(config)
        self.feed = FeedServer(self.service, host=config.host,
                               port=config.feed_port)
        self.http = ReportApiServer(self.service, host=config.host,
                                    port=config.http_port)
        self._shutdown = threading.Event()

    @staticmethod
    def _build_service(config: ServeConfig) -> MeasurementService:
        if config.checkpoint_dir is not None:
            try:
                return MeasurementService.restore(config.checkpoint_dir)
            except CheckpointError:
                # Empty or brand-new directory: start fresh (the store
                # writes its meta on construction).  A directory with a
                # meta.json holds checkpoints this build cannot read (a
                # mismatched format or kind, a corrupt journal): re-raise
                # its message for the caller to surface.
                if (Path(config.checkpoint_dir) / "meta.json").exists():
                    raise
        return MeasurementService(checkpoint_dir=config.checkpoint_dir)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.feed.start()
        self.http.start()
        if self.config.ready_file:
            self._write_ready_file()

    def _write_ready_file(self) -> None:
        target = Path(self.config.ready_file)
        temp = target.with_name(target.name + ".tmp")
        temp.write_text(json.dumps({
            "pid": os.getpid(),
            "host": self.config.host,
            "http_port": self.http.port,
            "feed_port": self.feed.port,
            "campaigns": self.service.campaign_ids(),
        }, indent=2))
        os.replace(temp, target)

    def stop(self) -> None:
        """Graceful shutdown: quiesce transports, then retry any journal
        append that failed."""
        self.feed.stop()
        self.http.stop()
        self.service.flush_all()

    def request_shutdown(self, *_signal_args) -> None:
        self._shutdown.set()

    def run_forever(self) -> None:
        """Foreground mode: park until SIGTERM/SIGINT, then stop()."""
        signal.signal(signal.SIGTERM, self.request_shutdown)
        signal.signal(signal.SIGINT, self.request_shutdown)
        self.start()
        self._shutdown.wait()
        self.stop()
