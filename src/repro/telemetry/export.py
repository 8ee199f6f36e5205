"""Run-level telemetry container and its on-disk format.

One :class:`RunTelemetry` travels on every :class:`~repro.core.
experiment.ExperimentResult`.  ``repro run --telemetry DIR`` writes it
as two files:

* ``telemetry.json`` — metadata + the merged metrics snapshot + span
  summaries, one self-contained JSON document;
* ``spans.jsonl`` — one span per line, convenient for streaming tools.

``repro telemetry <file>`` renders either back into tables
(:mod:`repro.telemetry.render`).
"""

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.telemetry.registry import MetricsRegistry, NULL_REGISTRY
from repro.telemetry.spans import Span

TELEMETRY_FILENAME = "telemetry.json"
SPANS_FILENAME = "spans.jsonl"


@dataclass
class RunTelemetry:
    """Everything one run's instrumentation produced."""

    metrics: object = NULL_REGISTRY
    """A :class:`MetricsRegistry` (or the null backend when disabled)."""
    spans: List[Span] = field(default_factory=list)
    enabled: bool = False
    meta: Dict[str, object] = field(default_factory=dict)
    """Run identity: seed, workers, config class — whatever the caller
    wants alongside the numbers."""

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "meta": dict(self.meta),
            "metrics": self.metrics.snapshot(),
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunTelemetry":
        """The inverse of :meth:`to_dict`.  A TypeError when ``enabled`` is
        not a bool or ``meta`` not an object."""
        enabled = data.get("enabled", False)
        if not isinstance(enabled, bool):
            raise TypeError(f"enabled must be true or false, got {enabled!r}")
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError(f"meta must be an object, got {meta!r}")
        return cls(
            metrics=MetricsRegistry.from_snapshot(data.get("metrics", {})),
            spans=[Span.from_dict(entry) for entry in data.get("spans", [])],
            enabled=enabled,
            meta=dict(meta),
        )


def write_telemetry(telemetry: RunTelemetry,
                    directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write ``telemetry.json`` + ``spans.jsonl`` under ``directory``."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    document = telemetry.to_dict()
    (out / TELEMETRY_FILENAME).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    with (out / SPANS_FILENAME).open("w") as stream:
        for span in telemetry.spans:
            stream.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    return out / TELEMETRY_FILENAME


def load_telemetry(path: Union[str, pathlib.Path]) -> RunTelemetry:
    """Load telemetry from a directory, ``telemetry.json``, or a spans file."""
    target = pathlib.Path(path)
    if target.is_dir():
        target = target / TELEMETRY_FILENAME
    if not target.exists():
        raise FileNotFoundError(f"no telemetry file at {target}")
    if target.suffix == ".jsonl":
        spans = [
            _built(Span.from_dict, line, f"{target} line {number}")
            for number, line in enumerate(target.read_text().splitlines(), 1)
            if line.strip()
        ]
        return RunTelemetry(spans=spans, enabled=True)
    return _built(RunTelemetry.from_dict, target.read_text(), target)


def _built(build, text: str, where):
    """``build`` of the JSON object ``text``.  A parse error, a value
    that is not an object, or one ``build`` cannot read is a ValueError
    naming ``where``."""
    try:
        data = json.loads(text)
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{where}: not a JSON object")
    try:
        return build(data)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"{where}: malformed telemetry ({type(error).__name__}: "
            f"{error})") from None
