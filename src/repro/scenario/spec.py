"""Versioned declarative scenario specification.

A :class:`Scenario` names one complete simulated ecosystem — topology
shape, observer population and mix, retention distributions, fault plan,
VP fleet scale, and engine knobs — as plain data.  It round-trips
canonically through dicts and JSON (``parse_scenario(spec.to_dict()) ==
spec`` for every valid spec) and every malformed input fails with a
structured :class:`ScenarioError` naming the offending field path —
never a bare ``KeyError`` or ``TypeError``.

The spec layer is deliberately dumb: no randomness, no defaults hidden
in code paths, no I/O beyond JSON.  Interpretation lives in
:mod:`repro.scenario.compiler`, which lowers a spec into one
:class:`~repro.core.config.ExperimentConfig` with a full provenance
trace.
"""

import dataclasses
import json
import hashlib
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.records import frozen

SCENARIO_FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """One or more invalid scenario fields, each named by dotted path."""

    def __init__(self, problems: Union[str, List[str]]):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__(
            "invalid scenario: " + "; ".join(self.problems)
        )


# -- section dataclasses ----------------------------------------------------
#
# Every field is a scalar (int/float/bool/str or Optional[int]) so that
# the fuzzer's shrinking-by-field-reset operates on a flat, enumerable
# field space and canonical JSON stays trivially diffable.

@frozen
class FleetSpec:
    """VP fleet scale and vetting policy."""

    vp_scale: float = 0.02
    exclude_ttl_reset_providers: bool = True
    pair_resolver_filter: bool = True


@frozen
class TopologySpec:
    """Destination pools and the (VP, destination) pairing shape."""

    web_site_count: int = 120
    web_destination_count: int = 48
    web_vps_per_destination: int = 12
    dns_vps_per_destination: Optional[int] = None


@frozen
class ObserverSpec:
    """Observer population and mix."""

    interceptors_enabled: bool = True
    interceptor_asn_fraction: float = 0.08
    sniffer_density_scale: float = 1.0
    ech_adoption: float = 0.0
    cache_refreshing_resolvers: bool = False
    doh_adoption: float = 0.0
    ciphertext_observer_share: float = 0.0
    ciphertext_threshold: float = 0.6
    ciphertext_fpr: float = 0.0
    ciphertext_link_threshold: int = 3
    nod_noise_rate: float = 0.0


@frozen
class RetentionSpec:
    """Per-observer-class retention capacities (None = unbounded)."""

    onpath_capacity: Optional[int] = None
    resolver_capacity: Optional[int] = None
    destination_capacity: Optional[int] = None


@frozen
class TimingSpec:
    """Campaign cadence and Phase II shape (windows in virtual days)."""

    send_spacing: float = 0.5
    phase1_rounds: int = 1
    round_interval_days: float = 2.0
    observation_window_days: float = 30.0
    phase2_observation_window_days: float = 12.0
    phase2_max_ttl: int = 64
    phase2_paths_per_destination: int = 12
    wildcard_record_ttl: int = 3600


@frozen
class FaultsSpec:
    """Fault plan rates; all-zero means fair weather (no plan compiled)."""

    seed: int = 0
    link_loss_rate: float = 0.0
    vp_churn_rate: float = 0.0
    honeypot_outages_per_site: int = 0
    log_delay_rate: float = 0.0
    log_duplicate_rate: float = 0.0


@frozen
class EngineSpec:
    """Execution-engine knobs (never change measured behaviour)."""

    workers: int = 1
    telemetry: bool = False


@frozen
class Scenario:
    """One named, fully declarative ecosystem + campaign description."""

    name: str
    description: str = ""
    seed: int = 20240301
    zone: str = "www.experiment.domain"
    fleet: FleetSpec = FleetSpec()
    topology: TopologySpec = TopologySpec()
    observers: ObserverSpec = ObserverSpec()
    retention: RetentionSpec = RetentionSpec()
    timing: TimingSpec = TimingSpec()
    faults: FaultsSpec = FaultsSpec()
    engine: EngineSpec = EngineSpec()

    def to_dict(self) -> dict:
        """The canonical fully-explicit dict form (every field present)."""
        payload = {
            "format": SCENARIO_FORMAT_VERSION,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "zone": self.zone,
        }
        for section_name, _ in _SECTIONS:
            payload[section_name] = dataclasses.asdict(getattr(self, section_name))
        return payload

    def digest(self) -> str:
        """Content hash of the canonical compact JSON form."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_SECTIONS: Tuple[Tuple[str, type], ...] = (
    ("fleet", FleetSpec),
    ("topology", TopologySpec),
    ("observers", ObserverSpec),
    ("retention", RetentionSpec),
    ("timing", TimingSpec),
    ("faults", FaultsSpec),
    ("engine", EngineSpec),
)

# Field kind table: how each scalar parses.  Derived from the dataclass
# defaults once at import; Optional[...] fields are listed explicitly
# because a None default erases the underlying type.
_OPTIONAL_INT_FIELDS = {
    ("topology", "dns_vps_per_destination"),
    ("retention", "onpath_capacity"),
    ("retention", "resolver_capacity"),
    ("retention", "destination_capacity"),
}


def _field_kind(section_name: str, spec_field: dataclasses.Field) -> str:
    if (section_name, spec_field.name) in _OPTIONAL_INT_FIELDS:
        return "optional_int"
    default = spec_field.default
    if isinstance(default, bool):
        return "bool"
    if isinstance(default, int):
        return "int"
    if isinstance(default, float):
        return "float"
    if isinstance(default, str):
        return "str"
    raise AssertionError(
        f"unsupported spec field type for {section_name}.{spec_field.name}"
    )


def _coerce(value, kind: str, path: str, problems: List[str]):
    """Coerce one JSON scalar to its spec kind, or record a problem."""
    if kind == "optional_int" and value is None:
        return None
    if kind == "bool":
        if isinstance(value, bool):
            return value
    elif kind in ("int", "optional_int"):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == "str":
        if isinstance(value, str):
            return value
    expected = {"optional_int": "integer or null", "int": "integer",
                "float": "number", "bool": "boolean", "str": "string"}[kind]
    problems.append(f"{path}: expected {expected}, got {value!r}")
    return None


def _parse_section(cls, data: object, path: str, problems: List[str]):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        problems.append(f"{path}: expected an object, got {data!r}")
        return cls()
    known = {f.name: f for f in dataclasses.fields(cls)}
    for unknown in sorted(set(data) - set(known)):
        problems.append(f"{path}.{unknown}: unknown field")
    kwargs = {}
    for name, spec_field in known.items():
        if name not in data:
            continue
        before = len(problems)
        value = _coerce(data[name], _field_kind(path.split(".")[-1], spec_field),
                        f"{path}.{name}", problems)
        if len(problems) == before:
            kwargs[name] = value
    return cls(**kwargs)


def parse_scenario(data: object) -> Scenario:
    """Build a :class:`Scenario` from its dict form, strictly.

    Unknown keys, missing required keys, wrong types, and unsupported
    format versions all raise :class:`ScenarioError` with one problem
    line per offence.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"top level: expected an object, got {data!r}")
    problems: List[str] = []
    known_top = {"format", "name", "description", "seed", "zone"}
    known_top.update(name for name, _ in _SECTIONS)
    for unknown in sorted(set(data) - known_top):
        problems.append(f"{unknown}: unknown field")

    version = data.get("format", SCENARIO_FORMAT_VERSION)
    if version != SCENARIO_FORMAT_VERSION:
        problems.append(
            f"format: unsupported scenario format {version!r}; this build "
            f"reads format {SCENARIO_FORMAT_VERSION}"
        )
    if "name" not in data:
        problems.append("name: required field is missing")
        name = ""
    else:
        name = _coerce(data["name"], "str", "name", problems) or ""
        if not problems[-1:] or not problems[-1].startswith("name:"):
            if not name:
                problems.append("name: must be a non-empty string")
    description = _coerce(data.get("description", ""), "str", "description",
                          problems) or ""
    seed = data.get("seed", 20240301)
    seed = _coerce(seed, "int", "seed", problems)
    zone = _coerce(data.get("zone", "www.experiment.domain"), "str", "zone",
                   problems)
    sections = {}
    for section_name, cls in _SECTIONS:
        sections[section_name] = _parse_section(
            cls, data.get(section_name), section_name, problems)
    if problems:
        raise ScenarioError(problems)
    return Scenario(name=name, description=description, seed=seed, zone=zone,
                    **sections)


def serialize_scenario(spec: Scenario) -> str:
    """The canonical JSON text form (stable key order, trailing newline)."""
    return json.dumps(spec.to_dict(), sort_keys=True, indent=2) + "\n"


def loads_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; malformed JSON is a :class:`ScenarioError`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    return parse_scenario(data)


def load_scenario_file(path: Union[str, pathlib.Path]) -> Scenario:
    """Load one scenario from a JSON file on disk."""
    file_path = pathlib.Path(path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {file_path}: {exc}") from exc
    try:
        return loads_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(
            [f"{file_path}: {problem}" for problem in exc.problems]
        ) from exc


# -- flat field access (shrinking support) ----------------------------------

def flat_fields() -> List[str]:
    """Every shrinkable dotted field path, top-level scalars included.

    ``name``/``description`` are identity, not behaviour, so they are
    excluded — resetting them could never flip an invariant.
    """
    paths = ["seed", "zone"]
    for section_name, cls in _SECTIONS:
        paths.extend(f"{section_name}.{f.name}"
                     for f in dataclasses.fields(cls))
    return paths


def get_field(spec: Scenario, path: str):
    """Read one dotted field path from a spec."""
    target = spec
    for part in path.split("."):
        target = getattr(target, part)
    return target


def with_field(spec: Scenario, path: str, value) -> Scenario:
    """A copy of ``spec`` with one dotted field replaced."""
    parts = path.split(".")
    if len(parts) == 1:
        return dataclasses.replace(spec, **{parts[0]: value})
    if len(parts) != 2:
        raise ScenarioError(f"{path}: not a scenario field path")
    section_name, field_name = parts
    section = getattr(spec, section_name)
    return dataclasses.replace(
        spec, **{section_name: dataclasses.replace(section,
                                                   **{field_name: value})})
