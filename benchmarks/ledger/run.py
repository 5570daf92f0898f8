"""Cost-ledger benchmark of the FastIOV simulator.

Suite (every workload in its own fresh child process, then one table)::

    python benchmarks/ledger/run.py [--seed S] [--trace] [--sets N]
                                    [--seconds T] [--out FILE]

One workload, the form ``BENCHMARK.json`` declares; the last line of
stdout is one JSON object (``correct``/``attempted``/``failed``/
``metrics``), end-to-end metrics with ``--trace 0`` and per-layer
metrics with ``--trace 1``::

    python benchmarks/ledger/run.py --workload cluster_churn --seed 3 \
        --seconds 30 --trace 0

Regenerate the seed-0/1 goldens (only for a change that is meant to
move the model's outputs)::

    python benchmarks/ledger/run.py --update-golden

See README.md next to this file for the metrics and why each workload
exists.
"""

import argparse
import contextlib
import functools
import gc
import heapq
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

from workloads import VIRTUAL_METRICS, WORKLOADS, golden_mismatches

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Profile dumps of shard workers during traced runs (git-ignored).
PROFILE_DIR = HERE / ".profiles"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7
#: Share of ``--seconds`` a traced run spends on untraced iterations;
#: the rest goes to profiled ones.
TRACED_UNTRACED_SHARE = 0.3
#: End-to-end metrics that are deterministic for a seed: two runs of
#: one commit must agree on them exactly.
EXACT_METRICS = ("startup_p50_vs", "startup_p99_vs")
#: Line prefix of the detail record a child prints before its result.
DETAIL_PREFIX = "LEDGER "
#: The reference kernel timed between cells (see ``reference_seconds``):
#: its size, and its time on a quiet 2-vCPU Intel Xeon KVM guest, the
#: speed host times are reported at.
REFERENCE_EVENTS = 300_000
REFERENCE_NOMINAL_S = 0.18
#: How strongly host times follow the reference kernel.  On that guest
#: a cell slowed by about half as much as the tight kernel loop did, in
#: log terms (fitted exponents 0.2 to 0.7).  Over four sets of ten runs,
#: correcting with 0.5 gave the smallest worst-case throughput spread:
#: 15% against 26% uncorrected and 21% fully corrected.
DRIFT_EXPONENT = 0.5


def require_source():
    """Put ``src`` on the path, or exit 2 when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no simulator sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


@functools.lru_cache(maxsize=None)
def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def declared_metrics(benchmark):
    """name -> declaration, over end-to-end and per-layer metrics."""
    return {entry["name"]: entry
            for entry in benchmark["end_to_end"] + benchmark["per_layer"]}


def load_golden():
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN) as handle:
        return json.load(handle)


def quartiles(values):
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def median_iqr(values):
    q1, median, q3 = quartiles(values)
    return median, q3 - q1


def cpu_seconds():
    """CPU time of this process plus its reaped children."""
    times = os.times()
    return (times.user + times.system + times.children_user
            + times.children_system)


def peak_rss_mb():
    """Peak resident set of this process or any reaped child, MiB."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class Ledger:
    """Runs cells of one workload and books their correctness."""

    def __init__(self, workload, seed, golden):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, label, **observe):
        """One cell; returns ``(cell, wall_s, cpu_s)``, cell None on failure."""
        began_cpu = cpu_seconds()
        began = time.perf_counter()
        try:
            cell = self.workload.run(self.seed, **observe)
        except Exception as exc:  # noqa: BLE001 - booked as a failed cell
            wall = time.perf_counter() - began
            self.attempted += self.workload.lifecycles
            self.failed += self.workload.lifecycles
            self.problems.append(f"{label}: {exc!r}")
            return None, wall, cpu_seconds() - began_cpu
        wall = time.perf_counter() - began
        cpu = cpu_seconds() - began_cpu
        self.attempted += self.workload.lifecycles
        found = [f"{label}: {problem}"
                 for problem in self.workload.problems(cell)]
        if self.golden is not None:
            found.extend(f"{label}: golden {problem}" for problem
                         in golden_mismatches(self.golden, cell.summary))
        if self.reference is None:
            self.reference = cell
        else:
            found.extend(
                f"{label}: differs from the first cell: {problem}"
                for problem in golden_mismatches(self.reference.summary,
                                                 cell.summary))
        if found:
            self.failed += self.workload.lifecycles
            self.problems.extend(found)
        return cell, wall, cpu


def time_setup(name, seed):
    """Seconds from launching a fresh interpreter to its hosts built."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", name,
         "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - began


def reference_kernel(events):
    """A fixed miniature event loop: heap-ordered generator resumes with
    dict and float work, the operations the simulator's engine runs."""
    def process(ident, counts):
        total = 0.0
        while True:
            delay = yield
            total += delay * 1.000001
            counts[ident] = counts.get(ident, 0) + 1

    counts = {}
    processes = []
    for ident in range(256):
        proc = process(ident, counts)
        next(proc)
        processes.append(proc)
    heap = [(0.001 * ident, ident) for ident in range(256)]
    heapq.heapify(heap)
    for seq in range(events):
        when, ident = heapq.heappop(heap)
        processes[ident].send(when)
        heapq.heappush(heap, (when + 0.001 + (seq % 7) * 1e-4, ident))
    return sum(counts.values())


def reference_seconds():
    """How fast this machine runs Python right now: one timed run of the
    reference kernel, after the previous cell's garbage is collected."""
    gc.collect()
    began = time.perf_counter()
    reference_kernel(REFERENCE_EVENTS)
    return time.perf_counter() - began


def iterate(ledger, deadline, label, observe=dict, around=None):
    """Cells until the next one would end past ``deadline`` (at least one).

    ``observe()`` gives each cell's observation arguments and ``around``
    is a context manager entered around each cell.  The reference kernel
    is timed before the first cell and after each one; a cell's
    reference time is the mean of the two around it.  Returns ``(walls,
    refs, cpus, cells, last observation arguments)``."""
    walls, refs, cpus, cells = [], [], [], []
    before = reference_seconds()
    while True:
        # Garbage of the previous cell is collected outside the timing.
        gc.collect()
        kwargs = observe()
        with around if around is not None else contextlib.nullcontext():
            cell, wall, cpu = ledger.run(label, **kwargs)
        after = reference_seconds()
        walls.append(wall)
        refs.append((before + after) / 2)
        before = after
        cpus.append(cpu)
        cells.append(cell)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return walls, refs, cpus, cells, kwargs


def measure(workload, seed, seconds, traced, golden=None):
    """Run one workload; returns ``(result, detail)``.

    ``golden`` is the summary the cells must reproduce exactly (None
    for seeds without one)."""
    ledger = Ledger(workload, seed, golden)
    setup_ref = reference_seconds()
    setup = [time_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    setup_ref = (setup_ref + reference_seconds()) / 2

    # Warm-up: fills caches and finishes lazy imports.  The sharded
    # workload warms up under conservative sync, which must match the
    # timed "auto" cells exactly; a traced run reads the virtual-time
    # ledger from the warm-up.
    warm = {"sync": workload.warmup_sync} if workload.warmup_sync else {}
    warm_cell, _wall, _cpu = ledger.run(
        "warm-up", trace={} if traced else None, **warm)

    started = time.perf_counter()
    detail = {"workload": workload.name, "seed": seed, "trace": int(traced)}
    if not traced:
        walls, refs, _cpus, cells, _ = iterate(ledger, started + seconds,
                                               "timed")
        metrics = end_to_end(workload, walls, refs, setup, setup_ref, cells)
        # The unscaled throughput and the machine speed behind it.
        detail["wall_lifecycles_per_s"] = (workload.lifecycles
                                           / statistics.median(walls))
        detail["reference_s"] = statistics.median(refs)
    else:
        metrics = per_layer(workload, ledger, started, seconds, warm_cell)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": entry["value"], "unit": entry["unit"]}
                    for key, entry in metrics.items()},
    }
    detail.update(metrics=metrics, problems=ledger.problems)
    return result, detail


def _metric(name, value, iqr=0.0, n=1):
    unit = declared_metrics(load_benchmark())[name]["unit"]
    return {"value": value, "unit": unit, "iqr": iqr, "n": n}


def drift(ref):
    """How much slower than nominal the machine ran, as it affects the
    simulator: the reference kernel's slowdown to ``DRIFT_EXPONENT``."""
    return (ref / REFERENCE_NOMINAL_S) ** DRIFT_EXPONENT


def end_to_end(workload, walls, refs, setup, setup_ref, cells):
    """The end-to-end metrics.  Host times are corrected for the
    machine's drift in speed between runs: each cell's wall time, and
    the set-up probes', is divided by :func:`drift` of the reference
    kernel's time around it."""
    rates = [workload.lifecycles * drift(ref) / wall
             for wall, ref in zip(walls, refs)]
    rate, rate_iqr = median_iqr(rates)
    setup_s, setup_iqr = median_iqr(
        [probe / drift(setup_ref) for probe in setup])
    good = [cell for cell in cells if cell is not None]
    p50, p99 = workload.startup(good[0]) if good else (0.0, 0.0)
    return {
        "lifecycles_per_s": _metric("lifecycles_per_s", rate, rate_iqr,
                                    len(rates)),
        "setup_s": _metric("setup_s", setup_s, setup_iqr, len(setup)),
        "peak_rss_mb": _metric("peak_rss_mb", peak_rss_mb()),
        "startup_p50_vs": _metric("startup_p50_vs", p50, n=len(good)),
        "startup_p99_vs": _metric("startup_p99_vs", p99, n=len(good)),
    }


def per_layer(workload, ledger, started, seconds, warm_cell):
    """The traced run: untraced cells (with the runner's own telemetry),
    then cProfile'd cells, folded into the per-layer ledger."""
    import layers
    from tracing import TreeProfiler

    walls, _refs, cpus, cells, observed = iterate(
        ledger, started + TRACED_UNTRACED_SHARE * seconds, "untraced",
        observe=lambda: {"engine_stats": {}, "telemetry": {}},
    )
    profiler = TreeProfiler(PROFILE_DIR)
    profiled, _refs, _cpus, _cells, _ = iterate(
        ledger, started + seconds, "profiled", around=profiler)
    self_s, calls = layers.fold(profiler.stats(), SRC / "repro")

    lifecycles = workload.lifecycles
    total = sum(self_s.values()) or 1.0
    values = {}
    for layer in layers.LAYERS:
        values[f"{layer}.self_frac"] = self_s[layer] / total
        values[f"{layer}.calls_per_lifecycle"] = (
            calls[layer] / (lifecycles * len(profiled)))
    untraced = statistics.median(walls)
    good = [cell for cell in cells if cell is not None]
    events = good[0].events if good else 0
    values["sim.events_per_lifecycle"] = events / lifecycles
    values["sim.ns_per_event"] = untraced / events * 1e9 if events else 0.0
    values.update(sharding_metrics(observed["engine_stats"],
                                   observed["telemetry"]))
    values["process.cpu_s_per_lifecycle"] = (
        statistics.median(cpus) / lifecycles)
    virtual = warm_cell.virtual if warm_cell is not None else {}
    for key in VIRTUAL_METRICS + ("fidelity_mae_pp",):
        values[key] = virtual.get(key, 0.0)
    values["trace.overhead_x"] = statistics.median(profiled) / untraced
    return {key: _metric(key, value) for key, value in values.items()}


def sharding_metrics(engine_stats, telemetry):
    """Sharded-runner metrics from ``run_cluster_cell``'s own
    ``engine_stats=`` and ``telemetry=`` outputs (0 when unsharded)."""
    processes = telemetry.get("processes", {})
    workers = [record for ident, record in processes.items()
               if ident.startswith("worker")]

    def phase(record, *names):
        return sum(record["phases"].get(name, (0.0, 0))[0]
                   for name in names)

    up = sum(record["up_s"] for record in workers)
    compute = [phase(record, "compute", "speculate") for record in workers]
    coordinator = processes.get("coordinator")
    epochs = engine_stats.get("sync_epochs", 0)
    rollbacks = engine_stats.get("sync_rollbacks", 0)
    commits = engine_stats.get("sync_speculation_commits", 0)
    wire_bytes = 0
    if coordinator is not None:
        wire_bytes = sum(entry[1]
                         for direction in coordinator["wire"].values()
                         for entry in direction.values())
    return {
        "shard.compute_frac": sum(compute) / up if up else 0.0,
        "shard.barrier_wait_frac": (
            sum(phase(record, "barrier_wait") for record in workers) / up
            if up else 0.0),
        "shard.ipc_frac": (
            sum(phase(record, "ipc_send", "ipc_recv") for record in workers)
            / up if up else 0.0),
        "shard.imbalance_x": (
            max(compute) / statistics.mean(compute)
            if compute and sum(compute) else 0.0),
        "wire.bytes_per_epoch": wire_bytes / epochs if epochs else 0.0,
        "coordinator.wait_frac": (
            phase(coordinator, "wait") / coordinator["up_s"]
            if coordinator is not None and coordinator["up_s"] else 0.0),
        "coordinator.place_s": engine_stats.get("sync_coordinator_place_s",
                                                0.0),
        "sync.epochs": epochs,
        "sync.rollbacks": rollbacks,
        "sync.commit_rate": (commits / (commits + rollbacks)
                             if commits + rollbacks else 0.0),
        "sync.replayed_per_rollback": (
            engine_stats.get("sync_replayed_events", 0) / rollbacks
            if rollbacks else 0.0),
    }


def per_layer_names():
    """Every per-layer metric name, in table order."""
    import layers

    names = []
    for layer in layers.LAYERS:
        names += [f"{layer}.self_frac", f"{layer}.calls_per_lifecycle"]
    names += ["sim.events_per_lifecycle", "sim.ns_per_event"]
    names += list(sharding_metrics({}, {}))
    names += ["process.cpu_s_per_lifecycle"]
    names += list(VIRTUAL_METRICS)
    names += ["fidelity_mae_pp", "trace.overhead_x"]
    return names


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def child_run(name, seed, seconds, traced):
    """One workload in a fresh interpreter; returns its detail record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced))]
    completed = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                               text=True)
    lines = completed.stdout.splitlines()
    detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
    detail["result"] = json.loads(lines[-1])
    return detail


def print_table(title, rows, header):
    widths = [max(len(str(row[index])) for row in rows + [header])
              for index in range(len(header))]
    print(f"\n{title}")
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end_rows(details):
    rows = []
    for name, detail in details.items():
        result = detail["result"]
        for key, entry in detail["metrics"].items():
            rows.append((name, key, entry["unit"], _fmt(entry["value"]),
                         _fmt(entry["iqr"]), entry["n"]))
        rows.append((name, "failed_frac", "fraction",
                     _fmt(result["failed"] / result["attempted"]), "0", 1))
    return rows


def agreement(sets, benchmark):
    """Each later set against the first: relative difference vs bound."""
    bounds = {entry["name"]: entry["bound"]
              for entry in benchmark["end_to_end"]}
    rows = []
    ok = True
    first = sets[0]
    for index, other in enumerate(sets[1:], start=2):
        for name in first:
            for key in first[name]["metrics"]:
                a = first[name]["metrics"][key]["value"]
                b = other[name]["metrics"][key]["value"]
                bound = 0.0 if key in EXACT_METRICS else bounds[key]
                diff = abs(b - a) / abs(a) if a else float(a != b)
                within = diff <= bound
                ok = ok and within
                rows.append((f"1 vs {index}", name, key, _fmt(a), _fmt(b),
                             f"{diff:.2%}",
                             "exact" if key in EXACT_METRICS
                             else f"{bound:.0%}",
                             "ok" if within else "OUTSIDE"))
    return rows, ok


def suite(args):
    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    sets = []
    correct = True
    for number in range(1, args.sets + 1):
        details = {name: child_run(name, args.seed, seconds, False)
                   for name in WORKLOADS}
        sets.append(details)
        print_table(
            f"set {number}: end-to-end metrics (seed {args.seed}, "
            f"{seconds} s per workload; median, IQR, samples)",
            end_to_end_rows(details),
            ("workload", "metric", "unit", "median", "IQR", "n"),
        )
        for name, detail in details.items():
            correct = correct and detail["result"]["correct"]
            for problem in detail["problems"]:
                print(f"  {name}: {problem}")
        for name, detail in details.items():
            print(f"{name}: {detail['wall_lifecycles_per_s']:.6g} "
                  "lifecycles/s unscaled, reference kernel "
                  f"{detail['reference_s']:.4g} s (nominal "
                  f"{REFERENCE_NOMINAL_S} s)")
        rates = {name: detail["metrics"]["lifecycles_per_s"]["value"]
                 for name, detail in details.items()}
        print(f"\nsharded / single-process lifecycles_per_s: "
              f"{rates['cluster_churn_sharded'] / rates['cluster_churn']:.3f}"
              " (2 shards vs 1, not gated)")
    ok = True
    if len(sets) > 1:
        rows, ok = agreement(sets, benchmark)
        print_table("agreement between sets (relative difference vs bound)",
                    rows, ("sets", "workload", "metric", "first", "other",
                           "diff", "bound", "verdict"))
    if args.trace:
        for name in WORKLOADS:
            detail = child_run(name, args.seed, seconds, True)
            correct = correct and detail["result"]["correct"]
            metrics = detail["metrics"]
            rows = [(key, entry["unit"], _fmt(entry["value"]))
                    for key, entry in metrics.items()]
            total = sum(entry["value"] for key, entry in metrics.items()
                        if key.endswith(".self_frac"))
            print_table(f"{name}: per-layer ledger (self_frac sums to "
                        f"{total:.4f})", rows, ("metric", "unit", "value"))
            for problem in detail["problems"]:
                print(f"  {name}: {problem}")
    if args.out:
        record_sets(args.out, args.seed, sets)
    return 0 if correct and ok else 1


def record_sets(path, seed, sets):
    """Append the sets to ``path`` (the input format of compare.py)."""
    path = pathlib.Path(path)
    document = {"sets": []}
    if path.is_file():
        with open(path) as handle:
            document = json.load(handle)
    for details in sets:
        document["sets"].append({
            "seed": seed,
            "workloads": {
                name: {key: entry["value"]
                       for key, entry in detail["metrics"].items()}
                for name, detail in details.items()
            },
        })
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def update_golden():
    golden = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in (0, 1):
            cell = workload.run(seed)
            problems = workload.problems(cell)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            golden[name][str(seed)] = cell.summary
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer ledger from a profiled run")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the suite N times and check agreement")
    parser.add_argument("--out", help="append the sets to this JSON file")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()

    if args.setup_probe:
        WORKLOADS[args.setup_probe].setup(args.seed)
        # Skip interpreter teardown: set-up ends when the hosts exist.
        os._exit(0)
    if args.update_golden:
        update_golden()
        return 0
    if args.workload:
        seconds = args.seconds or load_benchmark()["run_seconds"]
        golden = load_golden().get(args.workload, {}).get(str(args.seed))
        result, detail = measure(WORKLOADS[args.workload], args.seed,
                                 seconds, bool(args.trace), golden)
        for problem in detail["problems"]:
            print(f"ledger: {problem}", file=sys.stderr)
        print(DETAIL_PREFIX + json.dumps(detail))
        print(json.dumps(result))
        return 0
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
