"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     — execute a full campaign, print/save the paper-style report,
  optionally export the result bundle for offline analysis.
* ``report``  — regenerate the report from a previously exported bundle.
* ``platform`` — build and summarize the VPN platform (Table 1) without
  running a campaign.
* ``telemetry`` — render a telemetry capture written by ``run --telemetry``
  as human-readable tables (see docs/OBSERVABILITY.md).
* ``serve``   — run the always-on measurement daemon: live ingest over a
  socket feed, journaled checkpoints, HTTP report API (docs/SERVICE.md).
* ``feed``    — replay an exported bundle into a running daemon.
* ``scenario`` — the declarative scenario layer: list/show/compile the
  named ecosystem library, run a campaign from a scenario spec, or fuzz
  generated scenarios against the pipeline invariants
  (docs/SCENARIOS.md).
"""

import argparse
import os
import pathlib
import sys
from typing import List, Optional

from repro.analysis.paperreport import full_report, full_report_from_state
from repro.analysis.report import render_table
from repro.core.config import ConfigError, ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.persist import export_result, load_bundle
from repro.simkit.rng import RandomRouter
from repro.telemetry import load_telemetry, render_telemetry, write_telemetry
from repro.vpn.platform import VpnPlatform


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulation-backed reproduction of the IMC'24 traffic-"
                    "shadowing measurement.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a full two-phase campaign")
    run.add_argument("--seed", type=int, default=20240301)
    run.add_argument("--vp-scale", type=float, default=0.02,
                     help="fraction of the paper's 4,364 VPs (default 0.02)")
    run.add_argument("--web-destinations", type=int, default=48,
                     help="HTTP/TLS decoy targets sampled from the pool")
    run.add_argument("--tiny", action="store_true",
                     help="use the fast test-sized configuration")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="shard the campaign across N worker processes; "
                          "results are deterministically merged and equal "
                          "to the serial run (default 1)")
    run.add_argument("--digest", metavar="FILE",
                     help="write the run's result digest (shard.result_digest) "
                          "to FILE, for serial-vs-sharded comparison")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="seed for the fault-injection plan (default 0)")
    run.add_argument("--fault-loss", type=float, default=0.0, metavar="RATE",
                     help="per-link decoy packet loss probability")
    run.add_argument("--fault-churn", type=float, default=0.0, metavar="RATE",
                     help="fraction of VPs given a disconnect window")
    run.add_argument("--fault-outages", type=int, default=0, metavar="N",
                     help="injected outage windows per honeypot site")
    run.add_argument("--fault-log-delay", type=float, default=0.0,
                     metavar="RATE", help="probability a log append lands late")
    run.add_argument("--fault-log-dup", type=float, default=0.0,
                     metavar="RATE",
                     help="probability a log append is duplicated")
    run.add_argument("--doh-adoption", type=float, default=0.0,
                     metavar="SHARE",
                     help="fraction of DNS decoys tunneled over DoH "
                          "(constant-SNI TLS to the resolver frontend); "
                          "enables the mitigation-vs-observer matrix")
    run.add_argument("--ciphertext-observers", type=float, default=0.0,
                     metavar="SHARE",
                     help="deployment share of ciphertext-metadata "
                          "observers on high-centrality hops; enables "
                          "the mitigation-vs-observer matrix")
    run.add_argument("--export", metavar="DIR",
                     help="also export the result bundle to DIR")
    run.add_argument("--telemetry", metavar="DIR",
                     help="collect run telemetry and write telemetry.json "
                          "+ spans.jsonl to DIR (render later with "
                          "'repro telemetry DIR')")
    run.add_argument("--profile", action="store_true",
                     help="print a per-stage cumulative-time profile "
                          "(derived from telemetry spans) to stderr after "
                          "the run")
    run.add_argument("--output", metavar="FILE",
                     help="write the report to FILE instead of stdout")

    report = commands.add_parser("report",
                                 help="re-render the report from a bundle")
    report.add_argument("bundle", help="directory written by 'run --export'")
    report.add_argument("--output", metavar="FILE")
    report.add_argument("--title",
                        help="override the report title (default names the "
                             "bundle; pass the serve default to byte-compare "
                             "against a live-served report.txt)")

    serve = commands.add_parser(
        "serve", help="run the always-on measurement daemon")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for both servers (default loopback)")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="HTTP API port (default 0 = ephemeral)")
    serve.add_argument("--feed-port", type=int, default=0, metavar="PORT",
                       help="record-feed socket port (default 0 = ephemeral)")
    serve.add_argument("--checkpoint", metavar="DIR",
                       help="journal every acknowledged batch to DIR and "
                            "restore from it on startup")
    serve.add_argument("--ready-file", metavar="FILE",
                       help="write bound ports + pid to FILE once listening "
                            "(for harnesses using ephemeral ports)")

    feed = commands.add_parser(
        "feed", help="replay an exported bundle into a running daemon")
    feed.add_argument("bundle", help="directory written by 'run --export'")
    feed.add_argument("--campaign", default="default", metavar="ID",
                      help="campaign id to register/ingest as (default "
                           "'default')")
    feed.add_argument("--host", default="127.0.0.1")
    feed.add_argument("--port", type=int, required=True, metavar="PORT",
                      help="the daemon's feed port (see its ready file)")
    feed.add_argument("--batch-size", type=int, default=500, metavar="N",
                      help="records per feed batch (default 500)")

    scenario = commands.add_parser(
        "scenario", help="declarative scenarios: library, compiler, fuzzer")
    scenario_commands = scenario.add_subparsers(dest="scenario_command",
                                                required=True)
    scenario_commands.add_parser(
        "list", help="list the named scenario library")
    show = scenario_commands.add_parser(
        "show", help="print a scenario's canonical JSON")
    show.add_argument("scenario",
                      help="library name or path to a scenario JSON file")
    compile_cmd = scenario_commands.add_parser(
        "compile", help="lower a scenario to its ExperimentConfig")
    compile_cmd.add_argument("scenario",
                             help="library name or path to a scenario "
                                  "JSON file")
    compile_cmd.add_argument("--trace", action="store_true",
                             help="also print each config field's "
                                  "provenance (the spec field or pinned "
                                  "default it came from)")
    scenario_run = scenario_commands.add_parser(
        "run", help="run a full campaign from a scenario")
    scenario_run.add_argument("scenario",
                              help="library name or path to a scenario "
                                   "JSON file")
    scenario_run.add_argument("--workers", type=int, default=None, metavar="N",
                              help="override the scenario's engine.workers")
    scenario_run.add_argument("--digest", metavar="FILE",
                              help="write the run's result digest to FILE")
    scenario_run.add_argument("--export", metavar="DIR",
                              help="also export the result bundle to DIR")
    scenario_run.add_argument("--output", metavar="FILE",
                              help="write the report to FILE instead of "
                                   "stdout")
    fuzz = scenario_commands.add_parser(
        "fuzz", help="generate random scenarios and check every pipeline "
                     "invariant against them")
    fuzz.add_argument("--samples", type=int, default=20, metavar="N",
                      help="number of generated scenarios (default 20)")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="fuzz population seed; the same seed always "
                           "generates the same scenarios (default 7)")
    fuzz.add_argument("--workers", type=int, default=2, metavar="N",
                      help="worker count for the sharded leg of the "
                           "serial-equals-sharded invariant (default 2)")
    fuzz.add_argument("--json", metavar="FILE",
                      help="write the machine-readable fuzz report to FILE")
    fuzz.add_argument("--stop-on-failure", action="store_true",
                      help="stop at the first failing sample instead of "
                           "completing the run")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip shrinking failing samples to their "
                           "minimal field sets")

    platform = commands.add_parser("platform",
                                   help="summarize the VPN platform (Table 1)")
    platform.add_argument("--seed", type=int, default=20240301)
    platform.add_argument("--vp-scale", type=float, default=1.0)

    telemetry = commands.add_parser(
        "telemetry", help="render a telemetry capture as tables")
    telemetry.add_argument(
        "capture",
        help="directory (or telemetry.json file) written by 'run --telemetry'")
    telemetry.add_argument("--output", metavar="FILE")
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        pathlib.Path(output).write_text(text)
        print(f"report written to {output}")
    else:
        print(text)


def _destinations_writable(args: argparse.Namespace) -> bool:
    """Check a run's outputs before the campaign starts: ``--export`` and
    ``--telemetry`` name directories, ``--digest`` and ``--output`` files.
    Prints ``cannot write <path>: <reason>`` for the first that is not."""
    for option, directory in (("export", True), ("telemetry", True),
                              ("digest", False), ("output", False)):
        path = getattr(args, option, None)
        if path and pathlib.Path(path).exists() \
                and pathlib.Path(path).is_dir() != directory:
            reason = ("exists and is not a directory" if directory
                      else "is a directory")
            print(f"cannot write {path}: {reason}", file=sys.stderr)
            return False
    return True


def _command_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if not _destinations_writable(args):
        return 2
    try:
        if args.tiny:
            config = ExperimentConfig.tiny(seed=args.seed)
            config.workers = args.workers
        else:
            # Validates on construction, hence inside the try.
            config = ExperimentConfig(
                seed=args.seed,
                vp_scale=args.vp_scale,
                web_destination_count=args.web_destinations,
                workers=args.workers,
            )
        config.telemetry = bool(args.telemetry)
        config.doh_adoption = args.doh_adoption
        config.ciphertext_observer_share = args.ciphertext_observers
        fault_knobs = (args.fault_loss, args.fault_churn,
                       args.fault_outages, args.fault_log_delay,
                       args.fault_log_dup)
        if any(knob for knob in fault_knobs):
            from repro.faults import FaultSpec
            try:
                config.faults = FaultSpec(
                    seed=args.fault_seed,
                    link_loss_rate=args.fault_loss,
                    vp_churn_rate=args.fault_churn,
                    honeypot_outages_per_site=args.fault_outages,
                    log_delay_rate=args.fault_log_delay,
                    log_duplicate_rate=args.fault_log_dup,
                )
            except ValueError as error:
                raise ConfigError([f"faults: {error}"]) from None
        config.validate()
    except ConfigError as error:
        for problem in error.problems:
            print(f"invalid configuration: {problem}", file=sys.stderr)
        return 2
    result = Experiment(config).run()
    if args.digest:
        from repro.core.shard import result_digest
        digest_path = pathlib.Path(args.digest)
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(result_digest(result) + "\n")
        print(f"digest written to {args.digest}", file=sys.stderr)
    if args.export:
        bundle = export_result(result, args.export)
        print(f"bundle exported to {bundle}", file=sys.stderr)
    if args.telemetry:
        capture = write_telemetry(result.telemetry, args.telemetry)
        print(f"telemetry written to {capture}", file=sys.stderr)
    if args.profile:
        from repro.telemetry.render import render_profile
        print(render_profile(result.telemetry.spans), file=sys.stderr)
    _emit(full_report(result, include_validation=True), args.output)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.core.persist import load_analysis_state

    title = args.title or f"Report (reloaded from {args.bundle})"
    # The bundle's analysis.json when present; else the state rebuilt
    # from its records, which renders the same bytes.
    try:
        state = load_analysis_state(args.bundle)
        if state is None:
            state = load_bundle(args.bundle).analysis
    except (OSError, ValueError) as error:
        print(f"cannot read {args.bundle}: {error}", file=sys.stderr)
        return 2
    _emit(full_report_from_state(state, title=title), args.output)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import CheckpointError
    from repro.serve.daemon import ServeConfig, ServeDaemon

    try:
        daemon = ServeDaemon(ServeConfig(
            host=args.host,
            http_port=args.port,
            feed_port=args.feed_port,
            checkpoint_dir=args.checkpoint,
            ready_file=args.ready_file,
        ))
    except CheckpointError as error:
        print(f"cannot restore: {error}", file=sys.stderr)
        return 2
    print(f"repro serve: http on {args.host}:{daemon.http.port}, "
          f"feed on {args.host}:{daemon.feed.port}"
          + (f", checkpoints in {args.checkpoint}" if args.checkpoint else ""),
          file=sys.stderr)
    daemon.run_forever()
    return 0


def _command_feed(args: argparse.Namespace) -> int:
    from repro.serve.feed import FeedClient, FeedError, feed_batches_from_bundle

    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    # Read the whole bundle before connecting: a bad one sends nothing.
    try:
        batches = feed_batches_from_bundle(args.bundle, args.campaign,
                                           batch_size=args.batch_size)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.bundle}: {error}", file=sys.stderr)
        return 2
    try:
        with FeedClient(host=args.host, port=args.port) as client:
            ack = None
            sent = 0
            for batch in batches:
                ack = client.send(batch)
                sent += 1
    except (FeedError, OSError) as error:
        print(f"feed failed: {error}", file=sys.stderr)
        return 2
    summary = (f"fed {sent} batches as campaign {args.campaign!r}"
               + (f"; daemon at seq {ack['seq']} with "
                  f"{ack['log_records']} log records" if ack
                  and "log_records" in ack else ""))
    print(summary, file=sys.stderr)
    return 0


def _command_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError

    handlers = {
        "list": _scenario_list,
        "show": _scenario_show,
        "compile": _scenario_compile,
        "run": _scenario_run,
        "fuzz": _scenario_fuzz,
    }
    try:
        return handlers[args.scenario_command](args)
    except ScenarioError as error:
        for problem in error.problems:
            print(f"scenario error: {problem}", file=sys.stderr)
        return 2


def _scenario_list(args: argparse.Namespace) -> int:
    from repro.scenario import load_library

    rows = [(name, spec.digest()[:12], spec.description)
            for name, spec in sorted(load_library().items())]
    print(render_table(("scenario", "digest", "description"), rows,
                       title="Named scenario library"))
    return 0


def _scenario_show(args: argparse.Namespace) -> int:
    from repro.scenario import resolve_scenario, serialize_scenario

    print(serialize_scenario(resolve_scenario(args.scenario)), end="")
    return 0


def _scenario_compile(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.scenario import compile_with_trace, resolve_scenario

    spec = resolve_scenario(args.scenario)
    config, trace = compile_with_trace(spec)
    print(f"scenario {spec.name!r} (digest {spec.digest()[:12]}) "
          "compiles to:")
    for config_field in sorted(f.name for f in dataclasses.fields(config)):
        line = f"  {config_field} = {getattr(config, config_field)!r}"
        if args.trace:
            line += f"    <- {trace[config_field]}"
        print(line)
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    from repro.scenario import compile_scenario, resolve_scenario

    if not _destinations_writable(args):
        return 2
    spec = resolve_scenario(args.scenario)
    config = compile_scenario(spec)
    if args.workers is not None:
        config.workers = args.workers
        try:
            config.validate()
        except ConfigError as error:
            for problem in error.problems:
                print(f"invalid configuration: {problem}", file=sys.stderr)
            return 2
    print(f"running scenario {spec.name!r} "
          f"(digest {spec.digest()[:12]}, workers={config.workers})",
          file=sys.stderr)
    result = Experiment(config).run()
    if args.digest:
        from repro.core.shard import result_digest
        digest_path = pathlib.Path(args.digest)
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(result_digest(result) + "\n")
        print(f"digest written to {args.digest}", file=sys.stderr)
    if args.export:
        bundle = export_result(result, args.export)
        print(f"bundle exported to {bundle}", file=sys.stderr)
    _emit(full_report(result, include_validation=True), args.output)
    return 0


def _scenario_fuzz(args: argparse.Namespace) -> int:
    from repro.scenario import run_fuzz
    from repro.scenario.fuzz import check_invariants, shrink

    if args.samples < 1 or args.seed < 0 or args.workers < 1:
        print("fuzz needs --samples >= 1, --seed >= 0, --workers >= 1",
              file=sys.stderr)
        return 2

    def progress(sample):
        verdict = "ok" if sample.ok else "FAIL"
        print(f"sample {sample.index:3d} [{verdict}] "
              f"spec={sample.spec_digest[:12]} "
              f"result={str(sample.serial_digest)[:12]} "
              f"({sample.scenario.name})", file=sys.stderr)
        for failure in [] if sample.ok else sorted(
                k for k, v in sample.checks.items() if v.startswith("FAIL")):
            print(f"    {failure}: {sample.checks[failure]}", file=sys.stderr)

    report = run_fuzz(args.samples, args.seed, workers=args.workers,
                      progress=progress,
                      stop_on_failure=args.stop_on_failure)
    if args.json:
        json_path = pathlib.Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(report.to_json())
        print(f"fuzz report written to {args.json}", file=sys.stderr)
    failing = [sample for sample in report.samples if not sample.ok]
    print(f"fuzz seed {report.seed}: {len(report.samples)} samples, "
          f"{len(failing)} failing, run digest {report.run_digest()}")
    if not failing:
        return 0
    if not args.no_shrink:
        worst = failing[0]
        print(f"shrinking sample {worst.index} "
              f"(spec {worst.spec_digest[:12]})...", file=sys.stderr)
        shrunk, minimal_fields = shrink(
            worst.scenario,
            lambda candidate: not check_invariants(
                candidate, workers=args.workers).ok)
        print(f"sample {worst.index} minimal failing field set: "
              + (", ".join(minimal_fields) or "(empty: fails at defaults)"))
        for check, verdict in sorted(
                check_invariants(shrunk, workers=args.workers).checks.items()):
            if verdict.startswith("FAIL"):
                print(f"  {check}: {verdict}")
    return 1


def _command_platform(args: argparse.Namespace) -> int:
    try:
        platform = VpnPlatform(RandomRouter(args.seed), vp_scale=args.vp_scale)
    except ValueError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    print(render_table(
        ("segment", "providers", "VPs", "ASes", "locations"),
        [(row.label, row.providers, row.vps, row.ases, row.countries)
         for row in platform.summary()],
        title="VPN measurement platform (cf. Table 1)",
    ))
    return 0


def _command_telemetry(args: argparse.Namespace) -> int:
    try:
        telemetry = load_telemetry(args.capture)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.capture}: {error}", file=sys.stderr)
        return 2
    _emit(render_telemetry(telemetry), args.output)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "report": _command_report,
        "serve": _command_serve,
        "feed": _command_feed,
        "scenario": _command_scenario,
        "platform": _command_platform,
        "telemetry": _command_telemetry,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Whoever read stdout stopped (``repro scenario list | head``):
        # end quietly, and point stdout at devnull so that the
        # interpreter's own flush at exit cannot fail again.
        try:
            descriptor = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), descriptor)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
