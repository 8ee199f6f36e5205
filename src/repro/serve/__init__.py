"""Always-on measurement service: live ingest, incremental analysis,
cached report API.

The batch CLI (``repro run`` / ``repro report``) reproduces the paper's
offline workflow; this package turns the same pipeline into a product.
A long-running daemon (``repro serve``) tails honeypot log records as
they arrive — over a local socket feed speaking the
:mod:`repro.core.wire` codec, or from an in-process
:class:`~repro.honeypot.logstore.LogStore` tail cursor — folds each
record incrementally into per-campaign analysis accumulators with zero
re-scans, appends each applied batch to a per-campaign checkpoint
journal before acknowledging it, and serves versioned report artifacts
plus telemetry over a small threaded HTTP API.  See docs/SERVICE.md.

Layer map:

* :mod:`repro.serve.session`  — one campaign's incremental state
  (ledger, correlator, analysis accumulators, report cache);
* :mod:`repro.serve.service`  — the multi-tenant session registry with
  journaled checkpoints and structured errors;
* :mod:`repro.serve.feed`     — record-feed framing, socket server and
  client, bundle replay;
* :mod:`repro.serve.httpapi`  — the JSON/text report API;
* :mod:`repro.serve.daemon`   — wiring + signal handling behind the
  ``repro serve`` subcommand.
"""

from repro.serve.feed import (
    FeedClient,
    FeedError,
    FeedServer,
    context_from_result,
    feed_batches_from_bundle,
    feed_batches_from_result,
)
from repro.serve.httpapi import ReportApiServer
from repro.serve.service import (
    MeasurementService,
    ServeError,
    UnknownCampaignError,
)
from repro.serve.session import CampaignSession, ReportCache

__all__ = [
    "CampaignSession",
    "FeedClient",
    "FeedError",
    "FeedServer",
    "MeasurementService",
    "ReportApiServer",
    "ReportCache",
    "ServeError",
    "UnknownCampaignError",
    "context_from_result",
    "feed_batches_from_bundle",
    "feed_batches_from_result",
]
