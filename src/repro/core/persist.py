"""Persistence: export a finished experiment to JSONL and reload it.

A field deployment of this methodology accumulates honeypot logs for
months and analyzes them offline; this module provides the same workflow
for simulated campaigns.  ``export_result`` writes a directory bundle
(ledger, honeypot log, correlated events, observer locations, IP
directory, blocklist, metadata, and the run's analysis state) and
``load_bundle`` reconstructs typed objects that every function in
:mod:`repro.analysis` accepts.
"""

import dataclasses
import json
import pathlib
import typing
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple, Union

from repro.core.correlate import (
    CorrelationResult,
    Correlator,
    DecoyLedger,
    DecoyRecord,
    split_correlation,
)
from repro.core.experiment import ExperimentResult
from repro.core.identifier import DecoyIdentity
from repro.core.phase2 import ObserverLocation
from repro.honeypot.logstore import LoggedRequest, LogStore
from repro.intel.blocklist import Blocklist
from repro.intel.directory import IpDirectory

BUNDLE_FORMAT_VERSION = 1

_PATHS = {
    "meta": "meta.json",
    "ledger": "ledger.jsonl",
    "log": "honeypot_log.jsonl",
    "events": "events.jsonl",
    "locations": "locations.jsonl",
    "directory": "ip_directory.jsonl",
    "blocklist": "blocklist.txt",
    "analysis": "analysis.json",
}


@dataclass
class AnalysisBundle:
    """Everything the analysis layer needs, reloaded from disk."""

    meta: Dict
    ledger: DecoyLedger
    log: LogStore
    phase1: CorrelationResult
    phase2: CorrelationResult
    locations: List[ObserverLocation]
    directory: IpDirectory
    blocklist: Blocklist
    analysis: object
    """The run's :class:`~repro.analysis.streaming.AnalysisState`:
    restored from ``analysis.json``, or rebuilt from the bundle's
    records when that file is absent."""


def _write_jsonl(path: pathlib.Path, rows) -> None:
    # One encoder per file, not per row; a fresh row cannot hold a cycle.
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    with path.open("w") as handle:
        for row in rows:
            handle.write(encode(row) + "\n")


@lru_cache(maxsize=None)
def _row_reader(kind) -> Callable[[object], dict]:
    """A function that copies the fields of a ``kind`` dataclass into a
    new dict, in field order: one dict display of attribute reads, built
    from source the way ``dataclasses`` builds its methods.  (Records are
    slotted, so there is no ``vars()`` to copy; ``dict(zip(names,
    attrgetter(*names)(record)))`` measured twice as slow as this.)"""
    reads = ", ".join(f"{item.name!r}: record.{item.name}"
                      for item in dataclasses.fields(kind))
    namespace = {}
    exec(f"def row(record):\n return {{{reads}}}\n", {}, namespace)
    return namespace["row"]


def _row(record) -> dict:
    """``dataclasses.asdict`` without its deep copy, for a dataclass of
    plain values."""
    return _row_reader(type(record))(record)


def _json(text: str, where) -> object:
    """``json.loads``; a parse error is a ValueError naming ``where``."""
    try:
        return json.loads(text)
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None


def _admitted(annotation) -> Tuple[type, ...]:
    """The JSON value types a field of type ``annotation`` admits: a float
    field also an int, a nested dataclass an object, any other exactly its
    own type (so ``true`` is no int)."""
    if annotation is float:
        return (float, int)
    if dataclasses.is_dataclass(annotation):
        return (dict,)
    return (annotation,)


@lru_cache(maxsize=None)
def _schema(target) -> Dict[str, Tuple[type, ...]]:
    """Field name -> the JSON value types it admits, from the annotations
    of a dataclass or of a function's parameters (``Optional`` admits
    null)."""
    schema = {}
    for name, annotation in typing.get_type_hints(target).items():
        if name == "return":
            continue
        options = (typing.get_args(annotation)
                   if typing.get_origin(annotation) is Union else (annotation,))
        schema[name] = tuple(kind for option in options
                             for kind in _admitted(option))
    return schema


def _check_types(row: dict, target, prefix: str = "") -> None:
    """A ValueError for the first value of ``row`` whose type its field
    in ``target`` does not admit.  Unknown fields pass: the function that
    builds the record rejects them by name."""
    schema = _schema(target)
    for name, value in row.items():
        admitted = schema.get(name)
        if admitted is not None and type(value) not in admitted:
            expected = " or ".join(
                "null" if kind is type(None) else
                "object" if kind is dict else kind.__name__ for kind in admitted)
            raise ValueError(f"{prefix}{name} must be {expected}, got {value!r}")


def _read_jsonl(path: pathlib.Path, build, record_type=None):
    """``build(**row)`` for each row of a JSONL file.  A line that is not
    JSON, or a row ``build`` rejects (not an object, a field missing or
    unknown) or with a value whose type its field does not admit, is a
    ValueError naming the file and line.  The field types are those of
    ``record_type``, or of ``build``'s parameters when that is None."""
    target = build if record_type is None else record_type
    with path.open() as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            where = f"{path} line {number}"
            row = _json(line, where)
            if not isinstance(row, dict):
                raise ValueError(f"{where}: not a JSON object")
            try:
                _check_types(row, target)
                built = build(**row)
            except (TypeError, ValueError) as error:
                raise ValueError(f"{where}: {error}") from None
            yield built


def _decoy_record(identity, **fields) -> DecoyRecord:
    _check_types(identity, DecoyIdentity, "identity.")
    return DecoyRecord(identity=DecoyIdentity(**identity), **fields)


def export_result(result: ExperimentResult, directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write the full bundle; returns the bundle directory."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "config": dataclasses.asdict(result.config),
        "vantage_points": len(result.eco.platform),
        "decoys": len(result.ledger),
        "log_entries": len(result.log),
        "phase1_events": len(result.phase1.events),
        "phase2_events": len(result.phase2.events),
        "locations": len(result.locations),
        "timings": result.timings or {},
    }
    (out / _PATHS["meta"]).write_text(json.dumps(meta, indent=2, sort_keys=True))

    _write_jsonl(out / _PATHS["ledger"], (
        {**_row(record), "identity": _row(record.identity)}
        for record in result.ledger.records_from(0)
    ))
    _write_jsonl(out / _PATHS["log"], map(_row, result.log))
    _write_jsonl(out / _PATHS["locations"], map(_row, result.locations))
    _write_jsonl(out / _PATHS["directory"], map(_row, result.eco.directory))
    listed = sorted(
        record.address for record in result.eco.directory
        if record.address in result.eco.blocklist
    )
    (out / _PATHS["blocklist"]).write_text("\n".join(listed) + ("\n" if listed else ""))
    # Events are re-derivable from ledger + log, so they are stored only
    # as a consistency cross-check.
    _write_jsonl(out / _PATHS["events"], (
        {"domain": event.decoy.domain, "time": event.request.time,
         "protocol": event.request.protocol, "combo": event.combo,
         "origin": event.origin_address, "phase": event.decoy.phase}
        for event in list(result.phase1.events) + list(result.phase2.events)
    ))
    analysis = getattr(result, "analysis", None)
    if analysis is not None:
        # Digest first, so export never holds two snapshots at once.
        (out / _PATHS["analysis"]).write_text(json.dumps(
            {"digest": analysis.digest(), "state": analysis.snapshot()},
            sort_keys=True,
        ))
    return out


def load_analysis_state(directory: Union[str, pathlib.Path]):
    """Load just the stored analysis state from a bundle, or None.

    This is the fast path behind ``repro report``: it reads one JSON
    file — no ledger reload, no log replay, no re-correlation — and
    verifies the stored content digest.  A file of the wrong shape, or
    whose digest does not match, is a ValueError naming it.
    """
    from repro.analysis.streaming import AnalysisState

    path = pathlib.Path(directory) / _PATHS["analysis"]
    if not path.exists():
        return None
    payload = _json(path.read_text(), path)
    if (not isinstance(payload, dict)
            or not isinstance(payload.get("state"), dict)
            or not isinstance(payload.get("digest"), str)):
        raise ValueError(
            f"{path}: not an object with a \"state\" object and a "
            f"\"digest\" string")
    try:
        state = AnalysisState.from_snapshot(payload["state"])
        digest = state.digest()
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError(
            f"{path}: malformed analysis state "
            f"({type(error).__name__}: {error})") from None
    if digest != payload["digest"]:
        raise ValueError(
            f"analysis state in {path} is corrupt: digest mismatch"
        )
    return state


def load_bundle(directory: Union[str, pathlib.Path]) -> AnalysisBundle:
    """Reload a bundle and re-run correlation over the stored log."""
    src = pathlib.Path(directory)
    meta_path = src / _PATHS["meta"]
    meta = _json(meta_path.read_text(), meta_path)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: not a JSON object")
    if meta.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported bundle format {meta.get('format_version')!r}"
        )
    config = meta.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{meta_path}: config must be an object, "
                         f"got {config!r}")
    if not isinstance(config.get("zone"), str):
        raise ValueError(f"{meta_path}: config.zone must be a string, "
                         f"got {config.get('zone')!r}")

    ledger = DecoyLedger()
    for record in _read_jsonl(src / _PATHS["ledger"], _decoy_record, DecoyRecord):
        ledger.register(record)

    log = LogStore()
    for entry in _read_jsonl(src / _PATHS["log"], LoggedRequest):
        log.append(entry)

    locations = list(_read_jsonl(src / _PATHS["locations"], ObserverLocation))

    directory_obj = IpDirectory()
    for _ in _read_jsonl(src / _PATHS["directory"], directory_obj.register):
        pass

    blocklist = Blocklist()
    blocklist_path = src / _PATHS["blocklist"]
    if blocklist_path.exists():
        for line in blocklist_path.read_text().splitlines():
            if line.strip():
                blocklist.add(line.strip())

    full = Correlator(ledger, zone=config["zone"]).correlate(log)
    phase1 = split_correlation(full, ledger, 1)
    phase2 = split_correlation(full, ledger, 2)

    stored_events = sum(1 for _ in _read_jsonl(src / _PATHS["events"], dict))
    recomputed = len(phase1.events) + len(phase2.events)
    if stored_events != recomputed:
        raise ValueError(
            f"bundle inconsistent: stored {stored_events} events, "
            f"recomputed {recomputed}"
        )

    analysis = load_analysis_state(src)
    if analysis is None:
        # Rebuild the state from what the campaign fed as it ran: every
        # decoy, every Phase I event, every Phase II location and the
        # final log length (the accumulators are order-free, so the
        # state equals the run's).  The mitigation-vs-observer matrix is
        # fed at tap time only, so a rebuilt state has none.
        from repro.analysis.streaming import AnalysisState

        analysis = AnalysisState(directory=directory_obj, blocklist=blocklist)
        for record in ledger.records():
            analysis.observe_decoy(record)
        analysis.observe_events(phase1.events)
        analysis.observe_locations(locations)
        analysis.set_log_entries(len(log))
    return AnalysisBundle(
        meta=meta,
        ledger=ledger,
        log=log,
        phase1=phase1,
        phase2=phase2,
        locations=locations,
        directory=directory_obj,
        blocklist=blocklist,
        analysis=analysis,
    )
