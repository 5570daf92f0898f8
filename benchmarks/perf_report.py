"""Wall-clock performance report for the simulator fast path.

Times a fixed set of experiments end-to-end (quick scale, cache off) —
including the quick scale experiment re-run over 4 cluster shards and
a spread-arrival sharded cell at 4 and 8 shards (``scale_spread4`` /
``scale_spread8``: the lockstep epoch protocol over a flat star of
worker processes, riding the baseline ratio gate) —
measures raw event-engine throughput with three synthetic storms (a
dispatch-heavy mix, a timer-dense churn shape also run against the
retained heap scheduler, and an idle-daemon tick storm run with and
without the aggregated DaemonTicker), and writes
``BENCH_wallclock.json`` next to this file plus a runstamped
``BENCH_<runstamp>.json`` (a flat metric -> value map for downstream
tooling; CI uploads it as an artifact) at the repo root::

    python benchmarks/perf_report.py                 # measure + write
    python benchmarks/perf_report.py --check         # compare vs baseline
    python benchmarks/perf_report.py --jobs 4        # parallel cells
    python benchmarks/perf_report.py --sharded-speedup
                                   # heavy 48-host cell, 1 vs 8 shards
    python benchmarks/perf_report.py --compare BENCH_a.json BENCH_b.json
                                   # delta table between two runs

``--check`` compares against the committed baseline and exits non-zero
if any experiment regressed by more than ``--threshold`` (default 20%)
or either engine storm's events/sec dropped by more than the same
threshold, which is what CI runs.  After an intentional perf change,
regenerate the baseline with ``--update-baseline``.

The sharded quick scale is also timed with runtime probes armed
(``scale_probes4`` — the wall-clock telemetry plane of ``repro trace
--wallclock`` / ``repro top``), and ``--check`` gates it against the
probes-off twin: telemetry must stay in the measurement noise.
``--compare A.json B.json`` diffs two runstamped flat metric files
(older run first): every shared metric prints with its delta,
>threshold moves in the worse direction are flagged, and a flagged
move on a gated key (experiment timings, engine storms) exits
non-zero — the ad-hoc bisection tool the baseline gate is too coarse
for.

``--sharded-speedup`` is the headline number of the sharded runner: one
heavy cluster cell (48 hosts, 2000 startups) timed single-process and at
8 shards/8 worker processes, with the two summaries asserted identical.
It needs the cores to show a speedup, so it is reported, not gated.

``--smoke`` runs a 100,000-host spread-arrival cell to completion and
records its wall-clock, step count and the coordinator occupancy
figures (wait/place/reduce seconds, placement heap ops) — the scale
headline of the sharded runner (reported; takes minutes at the default
size, rescalable with ``--smoke-hosts`` / ``--smoke-concurrent`` up to
the 1,000,000-host headline run, and gated by wall clock only when
``--smoke-ceiling-s`` is set, as the weekly CI leg does).
"""

import argparse
import json
import os
import pathlib
import platform
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # for tests.reference_scheduler (oracle)

REPORT_PATH = HERE / "BENCH_wallclock.json"
BASELINE_PATH = HERE / "wallclock_baseline.json"

#: Experiments timed by the report (quick scale).
EXPERIMENTS = ("fig1", "fig11", "fig13c", "scale")

#: Shard count for the gated sharded quick-scale timing.
GATE_SHARDS = 4

#: Shard count of the wider gated spread-arrival timing: 8 workers in
#: a flat star, twice the coordinator fan-out of the 4-shard cell.
WIDE_SHARDS = 8

#: Arrival rate for the spread-arrival timings: spread arrivals drive
#: the epoch protocol (a burst places everything in epoch 0 and never
#: exercises the per-epoch steps).
GATE_RATE = 150.0


def engine_events_per_sec(procs=200, rounds=200, repeats=5):
    """Raw dispatch throughput of the discrete-event engine.

    A synthetic storm with the simulator's real event mix: zero-delay
    resumes (the ready-ring fast path), mutex hand-offs, and short
    heap-scheduled timeouts.  Model callbacks are trivial, so this
    isolates the engine — `Simulator.run` dispatch, `schedule`, the
    Process trampoline, and the sync grant path.  Returns the
    best-of-``repeats`` events/sec (best-of defuses scheduler noise).
    """
    from repro.sim import Mutex, Simulator, Timeout

    def one_run():
        sim = Simulator()
        lock = Mutex(sim, name="bench")

        def worker(index):
            for _ in range(rounds):
                yield Timeout(0.0)
                yield lock.acquire()
                yield Timeout(1e-6)
                lock.release()
                yield Timeout((index % 7) * 1e-5)

        for index in range(procs):
            sim.spawn(worker(index))
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
        return sim.events_dispatched / elapsed

    return max(one_run() for _ in range(repeats))


def _noop():
    return None


def engine_timer_events_per_sec(procs=4000, rounds=25, repeats=3,
                                sim_factory=None):
    """Dispatch throughput under a *timer-dense* storm (churn shape).

    Every worker arms a retry timer and a deadline watchdog a few
    milliseconds out and cancels both after a couple of short sleeps —
    the retry/deadline pattern of the cluster churn driver, where the
    timers are always ahead of the typical completion but the clock
    soon passes them.  Two hundred thousand timers are armed and
    cancelled without ever firing; the heap engine must carry every
    tombstone until the clock reaches its timestamp and then heappop it
    individually (O(log n) in a heap bloated with the others), while
    the timing wheel sweeps them out in bulk compactions and keeps its
    per-op structures a bucket wide.  ``sim_factory`` selects the
    engine (default: the production wheel; the report also runs
    ``tests.reference_scheduler`` for comparison).
    """
    from repro.sim import Simulator, Timeout

    make_sim = sim_factory or Simulator

    def one_run():
        sim = make_sim()

        def worker(index):
            for _ in range(rounds):
                # ~10x the event timescale: cancelled before firing,
                # but the clock passes their slots a few rounds later.
                retry = sim.call_later(
                    0.0015 + (index % 17) * 1e-4, _noop
                )
                deadline = sim.call_later(
                    0.002 + (index % 40) * 1e-4, _noop
                )
                yield Timeout(1e-4 + (index % 13) * 1e-5)
                yield Timeout(0.0)
                retry.cancel()
                deadline.cancel()

        for index in range(procs):
            sim.spawn(worker(index))
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
        return sim.events_dispatched / elapsed

    return max(one_run() for _ in range(repeats))


def engine_daemon_tick_events_per_sec(daemons=200, ticks=1000,
                                      interval=0.004, busy_every=50,
                                      aggregated=True, repeats=3):
    """Throughput on a cluster cell's dominant event population:
    periodic daemon scan ticks that are almost always idle.

    ``daemons`` scanner loops tick every ``interval`` of virtual time;
    a driver hands a small rotating subset of them work between ticks
    (1 in ``busy_every`` per tick), so the overwhelming majority of
    ticks are no-ops — the fastiovd shape on a mostly idle cell.  With
    ``aggregated=True`` the scanners park on a shared
    :class:`~repro.sim.ticker.DaemonTicker` (one event per cell per
    tick, idle members swept with a predicate call); with False each
    scanner arms its own ``Timeout`` — the pre-ticker engine's
    behavior.  ``events_dispatched`` is identical in both modes (the
    ticker compensates for the events it elides), so the reported
    *logical* events/sec are directly comparable.
    """
    from repro.sim import DaemonTicker, Simulator, Timeout

    def one_run():
        sim = Simulator()
        work = [False] * daemons
        ticker = DaemonTicker(sim, interval) if aggregated else None

        def scanner(index):
            if ticker is not None:
                park = ticker.park(lambda: work[index])
                while True:
                    yield park
                    work[index] = False
            else:
                while True:
                    yield Timeout(interval)
                    if work[index]:
                        work[index] = False

        def driver():
            # Off-phase by half an interval so flag writes never share
            # a timestamp with scanner ticks — both modes then see the
            # exact same flag values at every tick.
            yield Timeout(interval / 2)
            for step in range(ticks):
                for j in range((step * 7) % busy_every, daemons, busy_every):
                    work[j] = True
                yield Timeout(interval)

        for index in range(daemons):
            sim.spawn(scanner(index), daemon=True)
        sim.spawn(driver())
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
        return sim.events_dispatched / elapsed

    return max(one_run() for _ in range(repeats))


def _timed_run(factory, jobs, repeats):
    best = None
    for _ in range(repeats):
        experiment = factory()
        started = time.perf_counter()
        result = experiment.run(quick=True, jobs=jobs, use_cache=False)
        elapsed = time.perf_counter() - started
        assert result.comparisons()
        if best is None or elapsed < best:
            best = elapsed
    return round(best, 4)


def measure(experiment_ids, jobs=None, repeats=2):
    """Time each experiment end-to-end; best-of-``repeats`` per id.

    One-shot timings of 1-3 s experiments swing by 20%+ on shared CI
    runners; the minimum of two runs is what the machine can actually
    do and keeps the regression gate quiet.

    Besides the plain experiments, the quick scale run is repeated with
    the cluster split over :data:`GATE_SHARDS` shard worker processes
    (``scale_shards4``).  That timing rides the same >threshold gate, so
    a regression in shard spawn/merge overhead fails CI even on runners
    where sharding cannot be faster than single-process.
    """
    from repro.experiments import get_experiment

    timings = {}
    for experiment_id in experiment_ids:
        timings[experiment_id] = _timed_run(
            lambda: get_experiment(experiment_id), jobs, repeats
        )
        print(f"{experiment_id:14s} {timings[experiment_id]:8.3f} s")
    label = f"scale_shards{GATE_SHARDS}"
    timings[label] = _timed_run(
        lambda: get_experiment("scale").configure(shards=GATE_SHARDS),
        jobs, repeats,
    )
    print(f"{label:14s} {timings[label]:8.3f} s")
    # The same sharded run again, immediately, with runtime probes
    # armed (``repro.obs.runtime``): the telemetry plane's overhead
    # rides the baseline ratio gate, and --check additionally gates it
    # against the probes-off twin just measured — wall-clock spans
    # around every epoch-loop phase must stay in the noise, or the
    # plane is too expensive to leave on for ``repro trace`` /
    # ``repro top``.  The pair is timed back to back (not with the
    # probed leg at the end of the schedule) so both legs fork their
    # workers from the same parent-heap state; anything else charges
    # unrelated allocator growth to the probes.
    label = f"scale_probes{GATE_SHARDS}"
    previous = os.environ.get("REPRO_RUNTIME_PROBES")
    os.environ["REPRO_RUNTIME_PROBES"] = "1"
    try:
        timings[label] = _timed_run(
            lambda: get_experiment("scale").configure(shards=GATE_SHARDS),
            jobs, repeats,
        )
    finally:
        if previous is None:
            os.environ.pop("REPRO_RUNTIME_PROBES", None)
        else:
            os.environ["REPRO_RUNTIME_PROBES"] = previous
    overhead = timings[label] / timings[f"scale_shards{GATE_SHARDS}"] - 1.0
    print(f"{label:14s} {timings[label]:8.3f} s  "
          f"(probe overhead {overhead * 100:+5.1f}%)")
    # The same quick scale run with spread arrivals, at 4 and 8 shards:
    # one step per epoch that has arrivals, over a flat star of 4 or 8
    # workers.  Both ride the baseline ratio gate, so a regression in
    # per-step protocol overhead fails CI even on runners where sharding
    # cannot be faster than single-process.
    for shards in (GATE_SHARDS, WIDE_SHARDS):
        label = f"scale_spread{shards}"
        timings[label] = _timed_run(
            lambda shards=shards: get_experiment("scale").configure(
                shards=shards, rate=GATE_RATE,
            ),
            jobs, repeats,
        )
        print(f"{label:14s} {timings[label]:8.3f} s")
    return timings


def measure_smoke(hosts=100000, concurrency=5000, rate=500.0, shards=4,
                  seed=0, ceiling_s=None, live=False):
    """Completion smoke: a 100k-host-and-up spread-arrival cell over
    ``shards`` worker processes.

    The cell is sized for feasibility, not realism: 2 VFs per host
    instead of the NIC's 256 (the pool dominates per-host memory) and
    a daemon scan interval that stretches with the cell
    (``0.5 s * max(1, hosts // 100000)`` — at 0.004 s, 100k mostly-idle
    hosts would spend the whole run ticking).  What it proves: the
    protocol drives a cluster three-plus orders of magnitude past the
    paper testbed to completion, with the step count and the
    coordinator-occupancy figures (wait/place/reduce seconds, heap
    ops) exported.  ``--smoke-hosts`` / ``--smoke-concurrent`` rescale
    the cell (the default takes minutes; a 10k/500 smoke fits a coffee
    break; 1M hosts is the headline run).  With ``ceiling_s`` set the
    smoke *fails* (AssertionError) if the wall clock exceeds it — the
    weekly CI leg pins a ceiling on a fixed cell size so a scaling
    regression shows up as a red run, while ad-hoc headline runs stay
    unceilinged.  Returns ``(elapsed_s, counters)``.
    """
    import dataclasses

    from repro.cluster.churn import cluster_arrivals
    from repro.cluster.sharded import run_sharded_cluster
    from repro.spec import PAPER_TESTBED

    scan_interval = 0.5 * max(1, hosts // 100000)
    spec = dataclasses.replace(
        PAPER_TESTBED, fastiovd_scan_interval_s=scan_interval
    )
    stats = {}

    def drive():
        return run_sharded_cluster(
            "fastiov", concurrency, hosts=hosts, seed=seed, shards=shards,
            vf_count=2, spec=spec, arrivals=cluster_arrivals(seed, rate),
            engine_stats=stats, telemetry={} if live else None,
        )

    started = time.perf_counter()
    if live:
        # ``--top``: repaint the live engine dashboard while the smoke
        # runs (wall-clock telemetry only; the counters and the
        # summary below are byte-identical with the dashboard off).
        from repro.obs.live import LiveView

        with LiveView():
            summary = drive()
    else:
        summary = drive()
    elapsed = time.perf_counter() - started
    assert summary["count"] == concurrency, "smoke cell lost containers"
    counters = {
        "epochs": stats["sync_epochs"],
        "placement_heap_ops": stats["sync_placement_heap_ops"],
    }
    for key in ("coordinator_wait_s", "coordinator_place_s",
                "coordinator_reduce_s"):
        counters[key] = round(stats[f"sync_{key}"], 4)
    print(f"{'smoke':14s} {elapsed:8.3f} s  "
          f"({hosts} hosts, {concurrency} containers, "
          f"{counters['epochs']} steps)")
    print(f"{'  coordinator':14s} wait {counters['coordinator_wait_s']:.3f} s  "
          f"place {counters['coordinator_place_s']:.3f} s  "
          f"reduce {counters['coordinator_reduce_s']:.3f} s  "
          f"heap-ops {counters['placement_heap_ops']:,}")
    if ceiling_s is not None:
        assert elapsed <= ceiling_s, (
            f"smoke took {elapsed:.1f} s, over the {ceiling_s:.0f} s "
            f"wall-clock ceiling — the cell's scaling regressed"
        )
    return round(elapsed, 4), counters


def measure_sharded_speedup(shards=8, hosts=48, concurrency=2000):
    """Wall-clock speedup of one heavy cluster cell from sharding.

    Runs the same fastiov 48-host burst cell single-process and split
    over ``shards`` shard simulators in ``shards`` worker processes, and
    asserts the two summaries are identical (burst placement is
    byte-deterministic across shard counts).  Returns
    ``(t_single, t_sharded, speedup)``.
    """
    from repro.cluster.churn import run_cluster_cell

    def run(n_shards):
        started = time.perf_counter()
        summary = run_cluster_cell(
            "fastiov", concurrency, hosts=hosts, shards=n_shards
        )
        return time.perf_counter() - started, summary

    t_single, single = run(1)
    print(f"{'1 shard':14s} {t_single:8.3f} s")
    t_sharded, sharded = run(shards)
    print(f"{f'{shards} shards':14s} {t_sharded:8.3f} s")
    assert sharded == single, "sharded summary diverged from single-process"
    speedup = t_single / t_sharded
    print(f"{'speedup':14s} {speedup:8.2f} x")
    return round(t_single, 4), round(t_sharded, 4), round(speedup, 2)


#: Keys the regression gate requires in the baseline file.  A baseline
#: missing any of them predates the current report schema, and silently
#: gating against it would skip exactly the newest metrics.
REQUIRED_BASELINE_KEYS = (
    "timings",
    "engine_events_per_sec",
    "engine_timer_events_per_sec",
    "engine_daemon_tick_events_per_sec",
)

#: Timings the baseline's ``timings`` map must itself contain; a
#: baseline predating any of them would silently skip exactly those
#: gates.
REQUIRED_BASELINE_TIMINGS = (
    "scale",
    f"scale_shards{GATE_SHARDS}",
    f"scale_spread{GATE_SHARDS}",
    f"scale_spread{WIDE_SHARDS}",
    f"scale_probes{GATE_SHARDS}",
)


def check(timings, engine_rates, threshold):
    """Compare against the committed baseline; returns failures.

    ``engine_rates`` maps baseline key -> measured events/sec; each is
    gated the same way: a drop of more than ``threshold`` fails.
    Beyond the baseline ratios, the probes-on timing is gated against
    its probes-off twin.

    A missing or schema-stale baseline is itself a failure — a gate
    that silently skips is indistinguishable from a gate that passed.
    Regenerate with ``--update-baseline`` after intentional changes.
    """
    if not BASELINE_PATH.is_file():
        print(
            f"ERROR: no baseline at {BASELINE_PATH} — the regression "
            f"gate cannot run; regenerate with --update-baseline",
            file=sys.stderr,
        )
        return [("baseline", "missing", str(BASELINE_PATH), 0.0)]
    baseline = json.loads(BASELINE_PATH.read_text())
    missing = [key for key in REQUIRED_BASELINE_KEYS if key not in baseline]
    missing += [
        f"timings.{key}" for key in REQUIRED_BASELINE_TIMINGS
        if key not in baseline.get("timings", {})
    ]
    if missing:
        print(
            f"ERROR: baseline {BASELINE_PATH} is schema-stale (missing "
            f"{', '.join(missing)}) — regenerate with --update-baseline",
            file=sys.stderr,
        )
        return [("baseline", "schema-stale", ", ".join(missing), 0.0)]
    failures = []
    for experiment_id, elapsed in timings.items():
        base = baseline["timings"].get(experiment_id)
        if base is None:
            continue
        ratio = elapsed / base
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append((experiment_id, base, elapsed, ratio))
        print(
            f"{experiment_id:8s} baseline {base:7.3f} s  now {elapsed:7.3f} s "
            f"({ratio * 100:5.1f}%)  {status}"
        )
    for key, events_per_sec in engine_rates.items():
        base_eps = baseline.get(key)
        if not base_eps:
            continue
        ratio = events_per_sec / base_eps
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append((key, base_eps, events_per_sec, ratio))
        print(
            f"{key:8s} baseline {base_eps:9,.0f} ev/s  "
            f"now {events_per_sec:9,.0f} ev/s ({ratio * 100:5.1f}%)  {status}"
        )
    # Probes-on vs probes-off twin: the telemetry plane's per-run cost,
    # gated so probe instrumentation creep fails CI even when the
    # absolute timing still clears its baseline ratio.
    plain = timings.get(f"scale_shards{GATE_SHARDS}")
    probed = timings.get(f"scale_probes{GATE_SHARDS}")
    if plain and probed:
        ratio = probed / plain
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(
                ("probes-vs-plain", plain, probed, ratio)
            )
        print(
            f"{'probe-gate':8s} plain {plain:7.3f} s  "
            f"probed {probed:7.3f} s ({ratio * 100:5.1f}%)  {status}"
        )
    return failures


def _metric_direction(key):
    """Whether a flat BENCH metric is better high, better low, or
    informational: ``_s`` suffixes are wall-clock (lower is better),
    ``_per_sec``/``_x``/``_rate`` are throughput-like (higher is
    better), anything else is a counter (reported, never gated)."""
    if key.endswith("_s"):
        return "lower"
    if key.endswith("_per_sec") or key.endswith("_x") \
            or key.endswith("_rate"):
        return "higher"
    return "info"


#: Flat-metric keys whose regression fails ``--compare`` with a
#: nonzero exit (the same quantities the baseline gate holds):
#: the gated experiment timings and the engine throughput storms.
GATED_COMPARE_KEYS = tuple(
    f"{name}_s" for name in REQUIRED_BASELINE_TIMINGS
) + (
    "engine_events_per_sec",
    "engine_timer_events_per_sec",
    "engine_daemon_tick_events_per_sec",
)


def compare(path_a, path_b, threshold):
    """Delta table between two runstamped BENCH metric files.

    ``A`` is the reference (older) run, ``B`` the candidate.  Every
    shared key prints with its delta; moves beyond ``threshold`` in
    the *worse* direction are marked ``REGRESSION`` (better ones
    ``improved``).  Returns the regressed keys that are *gated*
    (:data:`GATED_COMPARE_KEYS`) — the caller exits nonzero on any.
    """
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    shared = sorted(set(a) & set(b))
    only = sorted(set(a) ^ set(b))
    width = max((len(key) for key in shared), default=10)
    gated_failures = []
    print(f"{'metric':{width}s} {'A':>12s} {'B':>12s} {'delta':>8s}")
    print("-" * (width + 36))
    for key in shared:
        va, vb = a[key], b[key]
        if not isinstance(va, (int, float)) \
                or not isinstance(vb, (int, float)):
            continue
        delta = (vb - va) / va if va else 0.0
        direction = _metric_direction(key)
        status = ""
        if direction != "info" and abs(delta) > threshold:
            worse = delta > 0 if direction == "lower" else delta < 0
            status = "  REGRESSION" if worse else "  improved"
            if worse and key in GATED_COMPARE_KEYS:
                gated_failures.append((key, va, vb, delta))
        print(f"{key:{width}s} {va:12,.4g} {vb:12,.4g} "
              f"{delta * 100:+7.1f}%{status}")
    for key in only:
        source = "A" if key in a else "B"
        print(f"{key}: only in {source}")
    if gated_failures:
        print(f"\n{len(gated_failures)} gated regression(s) beyond "
              f"{threshold * 100:.0f}%:")
        for key, va, vb, delta in gated_failures:
            print(f"  {key}: {va:,.4g} -> {vb:,.4g} ({delta * 100:+.1f}%)")
    return gated_failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--check", action="store_true",
                        help="fail on >threshold regression vs baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional slowdown (default 0.20)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the measured timings as the new baseline")
    parser.add_argument("--sharded-speedup", action="store_true",
                        help="also time a heavy 48-host cell at 1 vs 8 "
                             "shards (needs cores; reported, not gated)")
    parser.add_argument("--smoke", action="store_true",
                        help="also run the 100,000-host completion smoke "
                             "(minutes; reported, not gated unless "
                             "--smoke-ceiling-s is set)")
    parser.add_argument("--smoke-hosts", type=int, default=100000,
                        help="host count for --smoke (default 100000)")
    parser.add_argument("--smoke-concurrent", type=int, default=5000,
                        help="container count for --smoke "
                             "(default 5000)")
    parser.add_argument("--smoke-ceiling-s", type=float, default=None,
                        help="fail the smoke if it exceeds this wall-clock "
                             "budget in seconds (the weekly CI leg sets "
                             "one; default: no ceiling)")
    parser.add_argument("--top", action="store_true",
                        help="repaint the repro top live dashboard while "
                             "--smoke runs (telemetry only; results "
                             "unchanged)")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("A.json", "B.json"),
                        help="diff two runstamped BENCH metric files "
                             "(A = reference, B = candidate) instead of "
                             "measuring; >threshold moves are "
                             "highlighted and a regression on a gated "
                             "key exits nonzero")
    args = parser.parse_args(argv)

    if args.compare:
        failures = compare(args.compare[0], args.compare[1],
                           args.threshold)
        return 1 if failures else 0

    events_per_sec = round(engine_events_per_sec())
    print(f"{'engine':14s} {events_per_sec:9,} events/s")
    timer_eps = round(engine_timer_events_per_sec())
    print(f"{'engine-timer':14s} {timer_eps:9,} events/s")
    # The retained heap scheduler under the same timer-dense storm:
    # reported (not gated) so the wheel's advantage stays visible.
    from tests.reference_scheduler import ReferenceHeapSimulator

    timer_eps_heap = round(
        engine_timer_events_per_sec(sim_factory=ReferenceHeapSimulator)
    )
    wheel_speedup = round(timer_eps / timer_eps_heap, 2)
    print(f"{'  (heap ref)':14s} {timer_eps_heap:9,} events/s  "
          f"wheel speedup {wheel_speedup:.2f}x")
    daemon_eps = round(engine_daemon_tick_events_per_sec())
    print(f"{'engine-daemon':14s} {daemon_eps:9,} events/s")
    # The same tick storm with one private timer per daemon — the
    # pre-ticker engine's behavior; reported (not gated) so the
    # aggregation multiple stays visible.
    daemon_eps_per_timer = round(
        engine_daemon_tick_events_per_sec(aggregated=False)
    )
    ticker_speedup = round(daemon_eps / daemon_eps_per_timer, 2)
    print(f"{'  (per-timer)':14s} {daemon_eps_per_timer:9,} events/s  "
          f"ticker speedup {ticker_speedup:.2f}x")
    timings = measure(EXPERIMENTS, jobs=args.jobs)
    probe_overhead = round(
        timings[f"scale_probes{GATE_SHARDS}"]
        / timings[f"scale_shards{GATE_SHARDS}"] - 1.0, 4
    )
    report = {
        "timings": timings,
        "probe_overhead_frac": probe_overhead,
        "engine_events_per_sec": events_per_sec,
        "engine_timer_events_per_sec": timer_eps,
        "engine_timer_events_per_sec_heap_ref": timer_eps_heap,
        "timer_wheel_speedup_x": wheel_speedup,
        "engine_daemon_tick_events_per_sec": daemon_eps,
        "engine_daemon_tick_events_per_sec_per_timer": daemon_eps_per_timer,
        "daemon_ticker_speedup_x": ticker_speedup,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "jobs": args.jobs or 1,
    }
    if args.sharded_speedup:
        t_single, t_sharded, speedup = measure_sharded_speedup()
        report["sharded_speedup"] = {
            "single_s": t_single,
            "sharded_s": t_sharded,
            "speedup_x": speedup,
            "cpus": os.cpu_count(),
        }
    if args.smoke:
        smoke_s, smoke_counters = measure_smoke(
            hosts=args.smoke_hosts, concurrency=args.smoke_concurrent,
            ceiling_s=args.smoke_ceiling_s, live=args.top,
        )
        report["smoke"] = {
            "elapsed_s": smoke_s,
            "cpus": os.cpu_count(),
            **smoke_counters,
        }
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REPORT_PATH}")

    # Flat metric -> seconds (or events/sec) map, runstamped, written at
    # the repo root for downstream tooling that trends numbers across
    # runs (CI uploads it as a build artifact).
    runstamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    metrics = {f"{name}_s": elapsed for name, elapsed in timings.items()}
    metrics["engine_events_per_sec"] = events_per_sec
    metrics["engine_timer_events_per_sec"] = timer_eps
    metrics["engine_timer_events_per_sec_heap_ref"] = timer_eps_heap
    metrics["timer_wheel_speedup_x"] = wheel_speedup
    metrics["engine_daemon_tick_events_per_sec"] = daemon_eps
    metrics["engine_daemon_tick_events_per_sec_per_timer"] = (
        daemon_eps_per_timer
    )
    metrics["daemon_ticker_speedup_x"] = ticker_speedup
    metrics["probe_overhead_frac"] = probe_overhead
    speedup = report.get("sharded_speedup")
    if speedup:
        metrics["sharded_cell_single_s"] = speedup["single_s"]
        metrics["sharded_cell_sharded_s"] = speedup["sharded_s"]
        metrics["sharded_cell_speedup_x"] = speedup["speedup_x"]
    smoke = report.get("smoke")
    if smoke:
        metrics["smoke_100k_s"] = smoke["elapsed_s"]
        metrics["smoke_epochs"] = smoke["epochs"]
        metrics["smoke_coordinator_wait_s"] = smoke["coordinator_wait_s"]
        metrics["smoke_placement_heap_ops"] = smoke["placement_heap_ops"]
    stamped_path = ROOT / f"BENCH_{runstamp}.json"
    stamped_path.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {stamped_path}")
    # Keep only the fresh runstamped report: CI uploads it as the run's
    # artifact, so stale ones from earlier local runs would just pile up
    # at the repo root (and confuse "latest" globs downstream).
    for stale in ROOT.glob("BENCH_*.json"):
        if stale != stamped_path:
            stale.unlink()
            print(f"pruned {stale.name}")

    if args.update_baseline:
        BASELINE_PATH.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {BASELINE_PATH}")
    if args.check:
        failures = check(
            timings,
            {
                "engine_events_per_sec": events_per_sec,
                "engine_timer_events_per_sec": timer_eps,
                "engine_daemon_tick_events_per_sec": daemon_eps,
            },
            args.threshold,
        )
        if failures:
            print(f"{len(failures)} wall-clock regression(s) detected")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
