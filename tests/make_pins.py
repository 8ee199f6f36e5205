"""Regenerate ``tests/pins.json``: every digest tests and CI compare against.

The pins are the repository's results contract: a change that moves one
changes what the reproduction computes.  Each pin is computed by one
function, ``result_digest`` or one of the ``*_pin`` functions below, on
a config built here.  The tier-1 tests call the same function on their
own runs and compare with :func:`check`, so the writer and the checker
cannot drift:

* ``tiny-<seed>-result`` and ``tiny-<seed>-report`` for the three tiny
  seeds, serial and on 4 workers (``tests/test_streaming_analysis.py``);
* ``fig4``, ``table2``, ``table3`` and ``matrix``, the golden artifacts
  of tiny seed 20240301, and ``medium`` (serial and 2 workers) and
  ``faulted-tiny-7`` (``tests/test_analysis.py``);
* ``refresh-tiny-7``, ``backoff-tiny-7`` and ``rounds-tiny-7``, tiny seed
  7 where an event handler's follow-up or a later round can land on the
  same instant as a Phase I send, so the digest depends on which of the
  two fires first (``tests/test_analysis.py``);
* ``bundle-tiny-20240301``, the bytes of the bundle ``export_result``
  writes for tiny seed 20240301 (``tests/test_persist_cli.py``);
* ``pcap-tiny-20240301``, the bytes of the decoy capture
  (``capture_pcap``) of tiny seed 20240301: every decoy's wire bytes,
  ClientHello randoms, DNS transaction ids and ports included
  (``tests/test_pcap_incremental.py``);
* ``feed-tiny-20240301``, the bytes of the live feed a feeder sends for
  tiny seed 20240301 (``repro feed``'s framed ``FeedBatch`` blobs), which
  guards the wire format (``tests/test_serve.py``);
* ``scale-1000`` and ``scale-10000``, the digests
  ``benchmarks/_scale_point.py`` prints, are checked by CI's
  ``campaign-scale-smoke`` job only (the 10,000-VP point takes about
  20 s on a 2-vCPU VM).

The benchmark keeps its own per-seed pins in ``perfbench/pins.json``
(``perfbench/make_pins.py``).  Re-run this script only when a change is
meant to alter results, and say so in the change:

    PYTHONPATH=src python3 tests/make_pins.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict

from repro.analysis.landscape import observer_location_table
from repro.analysis.origins import top_observer_ases
from repro.analysis.paperreport import full_report
from repro.analysis.temporal import DEFAULT_THRESHOLDS, dns_delay_cdfs
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.persist import export_result
from repro.core.shard import result_digest
from repro.core.wire import encode_feed_batch, framed
from repro.faults import FaultSpec
from repro.serve.feed import feed_batches_from_result

PINS_FILE = pathlib.Path(__file__).resolve().with_name("pins.json")
ROOT = PINS_FILE.parent.parent

TINY_SEEDS = (20240301, 7, 1234)
GOLDEN_SEED = 20240301
"""The seed of the golden artifacts, ``medium`` and ``matrix``."""
SCALE_POINTS = (1000, 10000)


# -- configs ---------------------------------------------------------------

def medium_config(workers: int = 1) -> ExperimentConfig:
    return ExperimentConfig.medium(seed=GOLDEN_SEED, workers=workers)


def faulted_config() -> ExperimentConfig:
    """Tiny seed 7 under the fault knobs of CI's ``fault-smoke`` job, whose
    link loss drops decoys mid-path."""
    config = ExperimentConfig.tiny(seed=7)
    config.faults = FaultSpec(
        seed=3, link_loss_rate=0.05, vp_churn_rate=0.2,
        honeypot_outages_per_site=2, log_delay_rate=0.1,
        log_duplicate_rate=0.05,
    )
    config.validate()
    return config


def refresh_config() -> ExperimentConfig:
    """Tiny seed 7 with cache-refreshing resolvers: each refresh fires
    exactly one wildcard TTL after a send on the 0.5 s send grid."""
    config = ExperimentConfig.tiny(seed=7)
    config.cache_refreshing_resolvers = True
    config.validate()
    return config


def backoff_config() -> ExperimentConfig:
    """Tiny seed 7 with lossy links and long retry backoffs: a lost decoy
    retries after 30, 60, 120 and 240 s, each a whole number of send
    slots."""
    config = ExperimentConfig.tiny(seed=7)
    config.faults = FaultSpec(seed=3, link_loss_rate=0.1, max_retries=4,
                              retry_backoff_base=30.0)
    config.validate()
    return config


def rounds_config() -> ExperimentConfig:
    """Tiny seed 7 with three Phase I rounds 600 s apart.  A round lasts
    about 670 s, so each round starts before the last one's tail."""
    config = ExperimentConfig.tiny(seed=7)
    config.phase1_rounds = 3
    config.round_interval = 600.0
    config.validate()
    return config


TIE_CONFIGS = {
    "refresh-tiny-7": refresh_config,
    "backoff-tiny-7": backoff_config,
    "rounds-tiny-7": rounds_config,
}
"""The tie-order pins: configs whose events can share an instant with a
Phase I send."""


def ciphertext_config(seed: int = GOLDEN_SEED,
                      workers: int = 1) -> ExperimentConfig:
    """The encrypted-transport reference config: DoH and ECH adopted,
    ciphertext observers deployed, scanner noise on."""
    config = ExperimentConfig.tiny(seed=seed)
    config.doh_adoption = 0.4
    config.ech_adoption = 0.5
    config.ciphertext_observer_share = 0.6
    config.ciphertext_fpr = 0.02
    config.nod_noise_rate = 0.2
    config.workers = workers
    return config


# -- one function per pin --------------------------------------------------

def _sha256_json(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_pin(result) -> str:
    return hashlib.sha256(full_report(result).encode()).hexdigest()


def fig4_pin(cdfs) -> str:
    """Figure 4: each resolver's retention CDF series."""
    return _sha256_json(sorted((name, cdf.series(DEFAULT_THRESHOLDS))
                               for name, cdf in cdfs.items()))


def table2_pin(table) -> str:
    """Table 2: the normalized observer-hop distribution."""
    return _sha256_json(sorted((protocol, sorted(per_hop.items()))
                               for protocol, per_hop in table.items()))


def table3_pin(rows) -> str:
    """Table 3: the top observer ASes."""
    return _sha256_json([[row.protocol, row.asn, row.as_name, row.observers,
                          row.share] for row in rows])


def matrix_pin(matrix) -> str:
    """The mitigation-vs-observer matrix: per-mitigation sent and
    classified domain counts for every observer class, and the visit
    provenance counts."""
    return _sha256_json({
        "rows": [[mitigation, sent, sorted(cells.items())]
                 for mitigation, sent, cells in matrix.rows()],
        "provenance": sorted(
            [list(key), count]
            for key, count in matrix.provenance_counts().items()),
    })


def bundle_pin(directory) -> str:
    """An exported bundle's bytes: sha256 over its files in name order,
    each entered as its name, its length and its bytes.  ``meta.json``
    enters without its wall-clock ``timings``, re-serialized as
    ``export_result`` writes it."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(directory).iterdir()):
        data = path.read_bytes()
        if path.name == "meta.json":
            meta = json.loads(data)
            del meta["timings"]
            data = json.dumps(meta, indent=2, sort_keys=True).encode()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def tiny_capture(directory) -> pathlib.Path:
    """Run tiny seed 20240301 with the decoy capture on; returns the
    capture's path inside ``directory``."""
    path = pathlib.Path(directory) / "decoys.pcap"
    config = ExperimentConfig.tiny(seed=GOLDEN_SEED)
    config.capture_pcap = str(path)
    Experiment(config).run()
    return path


def pcap_pin(path) -> str:
    """A decoy capture's bytes: the sha256 of the pcap file."""
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def feed_pin(result) -> str:
    """The live feed's bytes: the sha256 of the frames
    ``feed_batches_from_result(result, "ci", 500)`` yields, each encoded
    and framed as a feeder sends it."""
    digest = hashlib.sha256()
    for batch in feed_batches_from_result(result, "ci", 500):
        digest.update(framed(encode_feed_batch(batch)))
    return digest.hexdigest()


def scale_point(vp_count: int) -> dict:
    """Run ``benchmarks/_scale_point.py`` in its own process, as CI does,
    and return the JSON object it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    output = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "_scale_point.py"),
         str(vp_count)],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


# -- the registry ----------------------------------------------------------

def pinned(name: str) -> str:
    pins = json.loads(PINS_FILE.read_text())
    if name not in pins:
        raise KeyError(f"no pin {name!r} in tests/pins.json; "
                       "re-run tests/make_pins.py")
    return pins[name]


def check(name: str, computed: str) -> None:
    """Fail unless ``computed`` is the pin ``name``, naming the pin."""
    expected = pinned(name)
    if computed != expected:
        raise AssertionError(
            f"pin {name!r} moved: computed {computed}, tests/pins.json has "
            f"{expected}.  If the change is meant to alter results, re-run "
            "tests/make_pins.py and say so.")


def compute() -> Dict[str, str]:
    pins = {}
    for seed in TINY_SEEDS:
        result = Experiment(ExperimentConfig.tiny(seed=seed)).run()
        pins[f"tiny-{seed}-result"] = result_digest(result)
        pins[f"tiny-{seed}-report"] = report_pin(result)
        if seed == GOLDEN_SEED:
            pins["fig4"] = fig4_pin(dns_delay_cdfs(result.phase1.events))
            pins["table2"] = table2_pin(
                observer_location_table(result.locations))
            pins["table3"] = table3_pin(top_observer_ases(result.locations))
            with tempfile.TemporaryDirectory() as bundle:
                pins[f"bundle-tiny-{seed}"] = bundle_pin(
                    export_result(result, bundle))
            with tempfile.TemporaryDirectory() as capture:
                pins[f"pcap-tiny-{seed}"] = pcap_pin(tiny_capture(capture))
            pins[f"feed-tiny-{seed}"] = feed_pin(result)
    pins["medium"] = result_digest(Experiment(medium_config()).run())
    pins["faulted-tiny-7"] = result_digest(
        Experiment(faulted_config()).run())
    for name, make_config in TIE_CONFIGS.items():
        pins[name] = result_digest(Experiment(make_config()).run())
    pins["matrix"] = matrix_pin(
        Experiment(ciphertext_config()).run().analysis.matrix)
    for vp_count in SCALE_POINTS:
        pins[f"scale-{vp_count}"] = scale_point(vp_count)["digest"]
    return pins


def main() -> None:
    started = time.monotonic()
    pins = compute()
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} digests in {time.monotonic() - started:.0f} s"
          f" -> {PINS_FILE}")


if __name__ == "__main__":
    main()
