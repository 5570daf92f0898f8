"""Command-line interface.

Usage::

    python -m repro list                     # catalog of experiments
    python -m repro run fig11 [--quick]      # one experiment, printed
    python -m repro run fig13c --jobs 8      # parallel launch cells
    python -m repro run fig11 --no-cache     # ignore the result cache
    python -m repro run scale --shards 8     # sharded cluster simulation
    python -m repro run scale --hosts 48 --placement round-robin --json out.json
    python -m repro launch fastiov -c 200    # raw concurrent launch
    python -m repro profile fig11 --quick    # cProfile an experiment
    python -m repro profile fig11 --hot      # cProfile its heaviest cell
    python -m repro trace fig13c --out trace.json   # Perfetto timeline
    python -m repro trace scale --shards 4   # + dual-clock wallclock file
    python -m repro top scale --shards 8 --rate 200  # live engine view

``run`` caches per-launch summaries under ``.repro-cache/`` (override
with ``REPRO_CACHE_DIR``), keyed by source digest + host spec + cell
parameters, so repeated runs after unrelated edits stay fast while any
simulator change invalidates stale entries automatically.
"""

import argparse
import sys

from repro.core import PRESETS, build_host
from repro.experiments import get_experiment, list_experiments


def shard_count(value):
    """argparse type for ``--shards``: a positive int or ``auto``.

    ``auto`` defers to :func:`repro.cluster.sharded.resolve_shards`,
    which splits only when each shard keeps enough hosts to beat the
    worker spawn/barrier overhead (small cells run single-process).
    """
    if value == "auto":
        return "auto"
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"shards must be >= 1 or 'auto', got {value}"
        )
    return count


def cmd_list(_args):
    print("Experiments (paper artifacts):")
    for exp_id, title in list_experiments():
        print(f"  {exp_id:12s} {title}")
    print("\nSolution presets:")
    for name, config in sorted(PRESETS.items()):
        print(f"  {name:14s} {config.description}")
    return 0


def cmd_run(args):
    experiment = get_experiment(args.experiment)
    experiment.configure(
        hosts=args.hosts,
        placement=args.placement,
        shards=args.shards,
        rate=args.rate,
    )
    result = experiment.run(
        quick=args.quick,
        seed=args.seed,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    print(result.render())
    print()
    print(result.comparison_table())
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.data, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"result data written to {args.json}")
    return 0


def cmd_profile(args):
    """cProfile one experiment and print the top cumulative offenders.

    ``--hot`` profiles the experiment's single heaviest launch cell
    instead of the whole run: one simulator, no harness overhead, so the
    top of the listing is the engine/model hot path a perf PR should
    attack.  Experiments without launch cells fall back to a full run.
    ``--hot`` also prints the cell simulator's timing-wheel statistics
    (max bucket occupancy, spill re-bucketing count, cancelled-timer
    compactions, ...) after the profile listing.  Both modes print the
    cyclic collector's time and collection counts per generation
    (:class:`~repro.obs.runtime.CollectorMeter`).
    """
    import cProfile
    import pstats
    import time

    from repro.obs.runtime import CollectorMeter

    experiment = get_experiment(args.experiment)
    experiment.configure(
        hosts=args.hosts,
        placement=args.placement,
        shards=args.shards,
        rate=args.rate,
    )
    target_label = f"experiment {args.experiment!r}"
    if args.hot:
        from repro.experiments.parallel import run_cell

        cells = experiment._cells(quick=args.quick, seed=args.seed)
        if cells:
            cell = max(cells, key=lambda c: (c.concurrency, c.hosts))
            target_label = f"hot cell {cell}"

            def target():
                run_cell(cell)
        else:
            print(f"{args.experiment}: no launch cells; profiling the "
                  f"full run instead")

            def target():
                experiment.run(quick=args.quick, seed=args.seed,
                               jobs=1, use_cache=False)
    else:
        def target():
            experiment.run(quick=args.quick, seed=args.seed,
                           jobs=1, use_cache=False)

    profiler = cProfile.Profile()
    with CollectorMeter() as collector:
        began = time.perf_counter()
        profiler.enable()
        target()
        profiler.disable()
        wall_s = time.perf_counter() - began
    print(f"profile of {target_label}, top {args.top} by cumulative time:")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    # The profile charges collector time to whatever frame allocated
    # when a collection fired; report it on its own.
    print("cyclic garbage collector during the profiled run:")
    for line in collector.lines(wall_s):
        print(line)
    if args.hot:
        from repro.experiments import parallel

        engine = parallel.LAST_ENGINE_STATS
        if engine:
            print("engine statistics for the profiled cell:")
            for key, value in engine.items():
                print(f"  {key:22s} {value}")
    if args.output:
        stats.dump_stats(args.output)
        print(f"profile data written to {args.output}")
    return 0


def _pick_trace_cell(args):
    """The experiment's heaviest cell, with the CLI's cluster knobs
    applied — shared by ``trace`` and ``top``."""
    import dataclasses

    experiment = get_experiment(args.experiment)
    experiment.configure(
        hosts=args.hosts,
        placement=args.placement,
        shards=args.shards,
        rate=args.rate,
    )
    cells = experiment._cells(quick=args.quick, seed=args.seed)
    if not cells:
        return None
    cell = max(cells, key=lambda c: (c.concurrency, c.hosts))
    replacements = {"trace": getattr(args, "trace", True)}
    if args.shards is not None and cell.kind == "cluster":
        replacements["shards"] = args.shards
    return dataclasses.replace(cell, **replacements)


class _armed_probes:
    """Context manager: force runtime probes on for one traced run."""

    def __enter__(self):
        import os

        self._previous = os.environ.get("REPRO_RUNTIME_PROBES")
        os.environ["REPRO_RUNTIME_PROBES"] = "1"
        return self

    def __exit__(self, *exc_info):
        import os

        if self._previous is None:
            os.environ.pop("REPRO_RUNTIME_PROBES", None)
        else:
            os.environ["REPRO_RUNTIME_PROBES"] = self._previous


def cmd_trace(args):
    """Run one experiment cell with the flight recorder and export it.

    Picks the experiment's heaviest cell (same choice as ``profile
    --hot``), re-runs it with ``trace=True``, and writes the resulting
    timeline as Chrome trace-event JSON — load it at https://ui.perfetto.dev
    — plus an optional flat metrics dump.  Tracing never changes the
    cell's summary; the traced run bypasses the result cache.

    Cluster cells additionally run with runtime probes on and get a
    *dual-clock* companion file (``--wallclock``, default
    ``<out>.wallclock.json``): the same virtual tracks grouped under
    the worker process that simulated them, side by side with each
    process's wall-clock phase spans and the coordinator's
    wait/place/reduce occupancy — which is how the once opt-in
    coordinator track is now part of the default trace output.  The
    ``--out`` file itself stays byte-identical across shard counts and
    probes on/off (the trace-determinism CI gate diffs it), which is
    why wall-clock data lives in its own file.  ``--no-wallclock`` skips the probes entirely.
    """
    from repro.experiments import parallel
    from repro.experiments.parallel import run_cell
    from repro.obs.export import (render_span_summary, write_chrome_trace,
                                  write_dual_clock_trace, write_metrics)

    cell = _pick_trace_cell(args)
    if cell is None:
        print(f"{args.experiment}: no launch cells to trace", file=sys.stderr)
        return 1
    wallclock = not args.no_wallclock and cell.kind == "cluster"
    print(f"tracing cell {cell}")
    if wallclock:
        with _armed_probes():
            run_cell(cell)
    else:
        run_cell(cell)
    bundle = parallel.LAST_TRACE
    if not bundle:
        print("no trace produced", file=sys.stderr)
        return 1
    write_chrome_trace(bundle, args.out)
    events = sum(len(track) for track in bundle["tracks"].values())
    print(f"{len(bundle['tracks'])} tracks, {events} events "
          f"written to {args.out} (open in https://ui.perfetto.dev)")
    telemetry = parallel.LAST_TELEMETRY
    if wallclock and telemetry:
        wallclock_path = args.wallclock or f"{args.out}.wallclock.json"
        write_dual_clock_trace(telemetry, wallclock_path, bundle=bundle)
        print(f"dual-clock trace ({len(telemetry['processes'])} process "
              f"groups) written to {wallclock_path}")
        if args.telemetry:
            import json

            with open(args.telemetry, "w") as handle:
                json.dump(telemetry, handle, sort_keys=True, indent=2)
                handle.write("\n")
            print(f"telemetry snapshot written to {args.telemetry}")
    if args.metrics:
        write_metrics(bundle, args.metrics)
        print(f"metrics written to {args.metrics}")
    print()
    print(render_span_summary(bundle))
    return 0


def cmd_top(args):
    """Run one experiment cell with the live engine dashboard.

    Same cell choice as ``trace``, with runtime probes forced on and a
    ``repro top`` terminal view repainting while the cell runs: per-
    process step rate, wire throughput, and phase occupancy, plus the
    coordinator's placement progress and ETA.  The
    final frame and the cell summary print when the run completes.
    """
    from repro.experiments import parallel
    from repro.experiments.parallel import run_cell
    from repro.obs.live import LiveView, render

    cell = _pick_trace_cell(args)
    if cell is None:
        print(f"{args.experiment}: no launch cells to watch",
              file=sys.stderr)
        return 1
    if cell.kind != "cluster":
        print(f"{args.experiment}: heaviest cell is not a cluster cell; "
              "repro top needs the sharded runner", file=sys.stderr)
        return 1
    print(f"watching cell {cell}")
    with _armed_probes():
        with LiveView(interval_s=args.interval):
            summary = run_cell(cell)
    from repro.obs.runtime import TelemetryAggregator

    telemetry = parallel.LAST_TELEMETRY
    if telemetry:
        # Re-render the final frame from the finished snapshot so the
        # last state stays on screen after the live region clears.
        aggregator = TelemetryAggregator()
        for record in telemetry["processes"].values():
            aggregator._ingest_one(record)
        if telemetry.get("progress"):
            aggregator.note_progress(*telemetry["progress"])
        print(render(aggregator))
        print()
    for key in ("count", "mean", "p50", "p99"):
        if isinstance(summary, dict) and key in summary:
            print(f"  {key:5s} {summary[key]:.3f}"
                  if isinstance(summary[key], float)
                  else f"  {key:5s} {summary[key]}")
    return 0


def cmd_launch(args):
    host = build_host(args.preset, seed=args.seed)
    result = host.launch(args.concurrency)
    summary = result.startup_times(args.preset).summary()
    print(f"{args.preset}: {args.concurrency} containers")
    for key in ("mean", "p50", "p99", "min", "max"):
        print(f"  {key:5s} {summary[key]:.3f} s")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog experiments and presets")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment")
    run_p.add_argument("--quick", action="store_true")
    run_p.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for independent launch cells "
             "(default: $REPRO_JOBS or 1)",
    )
    run_p.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the result cache",
    )
    run_p.add_argument(
        "--hosts", type=int, default=None,
        help="cluster size for experiments that take one "
             "(scale: default 8 quick / 48 full; churn: 1 host)",
    )
    run_p.add_argument(
        "--placement", choices=("least-loaded", "round-robin"), default=None,
        help="cluster placement policy (default least-loaded)",
    )
    run_p.add_argument(
        "--shards", type=shard_count, default=None,
        help="split the cluster over this many shard simulators, one "
             "worker process each (default 1 = single-process; results "
             "are byte-identical across shard counts); 'auto' splits "
             "only when each shard keeps enough hosts to pay for its "
             "worker",
    )
    run_p.add_argument(
        "--rate", type=float, default=None, metavar="PER_S",
        help="arrival rate for experiments that take one (scale: 0 = "
             "simultaneous burst; positive rates spread arrivals and "
             "drive the epoch protocol)",
    )
    run_p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also dump the experiment's structured data (sorted keys) "
             "to this file — the sharded-determinism gate diffs these",
    )

    trace_p = sub.add_parser(
        "trace", help="flight-record one experiment cell (Perfetto JSON)"
    )
    trace_p.add_argument("experiment")
    trace_p.add_argument("--quick", action="store_true")
    trace_p.add_argument(
        "--hosts", type=int, default=None,
        help="cluster size for experiments that take one",
    )
    trace_p.add_argument(
        "--placement", choices=("least-loaded", "round-robin"), default=None,
        help="cluster placement policy (default least-loaded)",
    )
    trace_p.add_argument(
        "--shards", type=shard_count, default=None,
        help="shard simulators for cluster cells ('auto' splits only "
             "when hosts-per-shard clears the overhead threshold); "
             "traces of burst and round-robin cells are byte-identical "
             "across shard counts",
    )
    trace_p.add_argument(
        "--rate", type=float, default=None, metavar="PER_S",
        help="arrival rate for experiments that take one; positive "
             "rates spread arrivals so the traced cell exercises the "
             "epoch protocol and exports its sync counters",
    )
    trace_p.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output (default trace.json)",
    )
    trace_p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also dump the flat metrics registry (counters/gauges/"
             "histograms) to this file",
    )
    trace_p.add_argument(
        "--wallclock", default=None, metavar="PATH",
        help="dual-clock companion trace for cluster cells (default "
             "<out>.wallclock.json): wall-clock phase spans per "
             "process, coordinator occupancy, and the virtual tracks "
             "grouped under their owning worker",
    )
    trace_p.add_argument(
        "--no-wallclock", action="store_true",
        help="skip runtime probes and the dual-clock companion file",
    )
    trace_p.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="also dump the raw wall-clock telemetry snapshot (JSON) "
             "alongside the dual-clock trace",
    )

    top_p = sub.add_parser(
        "top", help="live dashboard of a running cluster cell"
    )
    top_p.add_argument("experiment")
    top_p.add_argument("--quick", action="store_true")
    top_p.add_argument(
        "--hosts", type=int, default=None,
        help="cluster size for experiments that take one",
    )
    top_p.add_argument(
        "--placement", choices=("least-loaded", "round-robin"), default=None,
        help="cluster placement policy (default least-loaded)",
    )
    top_p.add_argument(
        "--shards", type=shard_count, default=None,
        help="shard simulators for the watched cluster cell",
    )
    top_p.add_argument(
        "--rate", type=float, default=None, metavar="PER_S",
        help="arrival rate; positive rates spread arrivals so there "
             "is an epoch frontier to watch",
    )
    top_p.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="dashboard repaint interval (default 0.5s)",
    )
    top_p.set_defaults(trace=False)

    launch_p = sub.add_parser("launch", help="concurrent container launch")
    launch_p.add_argument("preset", choices=sorted(PRESETS))
    launch_p.add_argument("-c", "--concurrency", type=int, default=50)

    profile_p = sub.add_parser("profile", help="cProfile one experiment")
    profile_p.add_argument("experiment")
    profile_p.add_argument("--quick", action="store_true")
    profile_p.add_argument(
        "--hosts", type=int, default=None,
        help="cluster size for experiments that take one",
    )
    profile_p.add_argument(
        "--placement", choices=("least-loaded", "round-robin"), default=None,
        help="cluster placement policy (default least-loaded)",
    )
    profile_p.add_argument(
        "--shards", type=shard_count, default=None,
        help="shard simulators for cluster cells ('auto' splits only "
             "when hosts-per-shard clears the overhead threshold)",
    )
    profile_p.add_argument(
        "--rate", type=float, default=None, metavar="PER_S",
        help="arrival rate for experiments that take one; positive "
             "rates spread arrivals and drive the epoch protocol",
    )
    profile_p.add_argument(
        "--hot", action="store_true",
        help="profile only the experiment's heaviest launch cell "
             "(one simulator, no harness overhead)",
    )
    profile_p.add_argument("--top", type=int, default=20,
                           help="rows of cumulative-time stats to print")
    profile_p.add_argument("-o", "--output", default=None,
                           help="also dump raw pstats data to this file")

    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "launch": cmd_launch,
        "profile": cmd_profile,
        "trace": cmd_trace,
        "top": cmd_top,
    }
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
