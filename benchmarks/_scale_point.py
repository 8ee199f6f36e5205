"""One campaign_scale measurement point, run in its own process.

``ru_maxrss`` is a per-process high-water mark that never comes back
down, so every scale point must be its own interpreter.  The script
prints one JSON object: VPs, decoys, wall clock, peak RSS and the result
digest.  CI's ``campaign-scale-smoke`` job runs it at 1,000 and 10,000
VPs (through ``tests/make_pins.py``'s ``scale_point``) and checks both
digests against ``tests/pins.json``, the 384 MB RSS budget and the
10x-per-decade growth bound.  perfbench's ``scale`` workloads run a
copy of ``scale_config`` at 2,000 VPs.

Usage: python benchmarks/_scale_point.py <vp_count>
"""

import json
import resource
import sys
import time

PAPER_VPS = 4364
"""The paper's platform size; ``vp_scale`` is expressed against it."""


def scale_config(vp_count: int):
    """The campaign_scale config: plan size proportional to VP count.

    Based on tiny (smallest per-VP work), with the resolver pool capped
    at 2 so the DNS plan is ~2 sends per VP, and short observation
    windows — the curve measures planner/store scaling, not correlation
    depth.  Every point uses the same seed, so points differ only in
    ``vp_scale``.
    """
    from repro.core.config import ExperimentConfig

    config = ExperimentConfig.tiny(seed=20240301)
    config.vp_scale = vp_count / PAPER_VPS
    config.dns_destination_count = 2
    config.observation_window = 3600.0
    config.phase2_observation_window = 3600.0
    return config


def main() -> None:
    vp_count = int(sys.argv[1])

    from repro.core.experiment import Experiment
    from repro.core.shard import result_digest

    started = time.perf_counter()
    result = Experiment(scale_config(vp_count)).run()
    elapsed = time.perf_counter() - started
    # Linux reports ru_maxrss in KiB.
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    decoys = len(result.ledger)
    print(json.dumps({
        "vp_count": vp_count,
        "vps_recruited": len(result.eco.platform.vantage_points),
        "decoys": decoys,
        "log_entries": len(result.log),
        "seconds": round(elapsed, 3),
        "decoys_per_sec": round(decoys / elapsed, 1),
        "peak_rss_mb": round(maxrss_kib / 1024.0, 1),
        "digest": result_digest(result),
    }))


if __name__ == "__main__":
    main()
