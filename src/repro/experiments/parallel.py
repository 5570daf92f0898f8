"""Parallel, cached execution of experiment launch cells.

The figure experiments are embarrassingly parallel at the *cell* level:
each ``launch_preset(preset, concurrency, memory, seed)`` call builds
its own host and simulator and shares no state with any other cell.
:class:`CellRunner` exploits that — it collects an experiment's cells
up front, satisfies what it can from the result cache, and fans the
misses out over a ``multiprocessing`` pool.

Workers return a plain-JSON *summary* (startup distribution + VF-related
mean), never simulator objects, so results are cheap to pickle and safe
to cache.  Each worker recomputes nothing the parent already knows: the
jitter streams are seeded by CRC forks, so a cell's numbers are
identical whether it ran in-process, in a worker, or came from cache.
"""

import dataclasses
import multiprocessing
import os

from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.runs import launch_preset
from repro.spec import PAPER_TESTBED

#: Environment variable providing the default worker count.
JOBS_ENV = "REPRO_JOBS"


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent launch: the unit of parallelism and caching.

    ``kind`` selects the cell body: "launch" is a single-host
    ``launch_preset`` run; "cluster" is a multi-host churn burst
    (``repro.cluster.churn.run_cluster_cell``) over ``hosts`` hosts;
    "churn" is the sustained single-host Poisson lifecycle study
    (``repro.experiments.churn.run_churn_cell``).

    Every field participates in the cache key (via :meth:`as_dict`):
    anything that can change a cell's semantics — including ``hosts``,
    ``placement``, ``shards``, and ``rate_per_s`` — must live here, not
    in runner state.  ``shards`` changes only wall-clock for round-robin
    and burst cells but changes teardown visibility for spread-arrival
    least-loaded cells, so it keys too.
    """

    preset: str
    concurrency: int
    memory_bytes: int = None
    seed: int = 0
    kind: str = "launch"
    hosts: int = 0
    placement: str = "least-loaded"
    shards: int = 1
    rate_per_s: float = 0.0
    #: Record a flight-recorder trace (``repro.obs``) while running.
    #: Tracing never changes a cell's summary, but it keys the cache
    #: anyway (as_dict) so traced runs never serve or pollute the cache
    #: entries of untraced ones.
    trace: bool = False

    def as_dict(self):
        return dataclasses.asdict(self)


def summarize_launch(result):
    """Reduce a LaunchResult to the plain floats experiments consume."""
    summary = result.startup_times().summary()
    vf_times = result.vf_related_times()
    return {
        "count": summary["count"],
        "mean": summary["mean"],
        "p50": summary["p50"],
        "p99": summary["p99"],
        "min": summary["min"],
        "max": summary["max"],
        "vf_related_mean": sum(vf_times) / len(result.records),
    }


#: Engine statistics (:meth:`repro.sim.core.Simulator.wheel_stats`) of
#: the most recent :func:`run_cell` in this process.  Diagnostic only —
#: read by ``repro profile --hot`` after profiling a cell; never part
#: of a cell's summary, so caches and worker pipes are unaffected.
LAST_ENGINE_STATS = None

#: Flight-recorder bundle (``repro.obs`` tracks + metrics) of the most
#: recent *traced* :func:`run_cell` in this process, None otherwise.
#: Same contract as LAST_ENGINE_STATS: diagnostic side channel for the
#: CLI (``repro trace``), never part of a summary.
LAST_TRACE = None

#: Wall-clock telemetry snapshot (``repro.obs.runtime``) of the most
#: recent cluster :func:`run_cell` with runtime probes enabled
#: (``REPRO_RUNTIME_PROBES=1``), None otherwise.  Same contract as
#: LAST_TRACE: read by ``repro trace --wallclock`` and ``repro top``
#: after the run, never part of a summary.
LAST_TELEMETRY = None


def run_cell(cell):
    """Execute one cell in this process; returns its summary."""
    global LAST_ENGINE_STATS, LAST_TRACE, LAST_TELEMETRY
    stats = {}
    trace = {} if cell.trace else None
    telemetry = None
    if cell.kind == "cluster":
        from repro.cluster.churn import run_cluster_cell
        from repro.obs import runtime

        telemetry = {} if runtime.probes_enabled() else None
        summary = run_cluster_cell(
            cell.preset,
            cell.concurrency,
            hosts=cell.hosts,
            seed=cell.seed,
            placement=cell.placement,
            shards=cell.shards,
            rate_per_s=cell.rate_per_s,
            engine_stats=stats,
            trace=trace,
            telemetry=telemetry,
        )
    elif cell.kind == "churn":
        from repro.experiments.churn import run_churn_cell

        summary = run_churn_cell(
            cell.preset, cell.concurrency, cell.rate_per_s, cell.seed,
            engine_stats=stats, trace=trace,
        )
    else:
        recorder = None
        if cell.trace:
            from repro.obs.recorder import TraceRecorder

            recorder = TraceRecorder()
        host, result = launch_preset(
            cell.preset,
            cell.concurrency,
            memory_bytes=cell.memory_bytes,
            seed=cell.seed,
            trace=recorder,
        )
        stats.update(host.sim.wheel_stats())
        if recorder is not None:
            # launch_preset already finalized the host (which ingests the
            # wheel stats — a standalone host owns its simulator).
            trace = recorder.dump()
        summary = summarize_launch(result)
    LAST_ENGINE_STATS = stats or None
    LAST_TRACE = trace or None
    LAST_TELEMETRY = telemetry or None
    return summary


def _worker(cell):
    # Module-level so the pool can pickle it; echoes the cell back
    # because imap_unordered loses submission order.
    return cell, run_cell(cell)


def resolve_jobs(jobs):
    """Worker count: explicit argument, else $REPRO_JOBS, else 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "")
        jobs = int(env) if env else 1
    return max(1, int(jobs))


class CellRunner:
    """Runs cells with caching and an optional process pool.

    Args:
        jobs: Worker processes (None = ``$REPRO_JOBS`` or 1; 1 means
            everything runs in-process).
        cache: A :class:`ResultCache`, or None to disable caching.
        spec: HostSpec the cells run under (cache-key ingredient).
    """

    def __init__(self, jobs=None, cache=None, spec=None):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.spec = spec if spec is not None else PAPER_TESTBED
        self._summaries = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def prefetch(self, cells):
        """Compute (or load) every cell's summary before first use.

        This is where the fan-out happens: call it with the full cell
        list so misses run concurrently instead of one by one.
        """
        misses = []
        for cell in cells:
            if cell in self._summaries:
                continue
            hit = self._cache_get(cell)
            if hit is not None:
                self._summaries[cell] = hit
            elif cell not in misses:
                misses.append(cell)
        if not misses:
            return self
        # A sharded cell fans out its *own* worker processes (one per
        # shard), and pool workers are daemonic so they could not fork
        # them — keep sharded cells in the parent, pool the rest.
        pooled = [cell for cell in misses if cell.shards <= 1]
        sharded = [cell for cell in misses if cell.shards > 1]
        if self.jobs > 1 and len(pooled) > 1:
            workers = min(self.jobs, len(pooled))
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                for cell, summary in pool.imap_unordered(_worker, pooled):
                    self._store(cell, summary)
        else:
            for cell in pooled:
                self._store(cell, run_cell(cell))
        for cell in sharded:
            self._store(cell, run_cell(cell))
        return self

    def summary(self, preset, concurrency, memory_bytes=None, seed=0):
        """The summary for one single-host launch cell."""
        return self.cell_summary(Cell(preset, concurrency, memory_bytes, seed))

    def cell_summary(self, cell):
        """The summary for any cell (computed now if not prefetched)."""
        if cell not in self._summaries:
            hit = self._cache_get(cell)
            if hit is not None:
                self._summaries[cell] = hit
            else:
                self._store(cell, run_cell(cell))
        return self._summaries[cell]

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _key(self, cell):
        return cell_key(cell.as_dict(), self.spec)

    def _cache_get(self, cell):
        if self.cache is None:
            return None
        hit = self.cache.get(self._key(cell))
        if hit is not None:
            self.cache_hits += 1
        return hit

    def _store(self, cell, summary):
        self._summaries[cell] = summary
        self.cache_misses += 1
        if self.cache is not None:
            self.cache.put(self._key(cell), cell.as_dict(), summary)

    def __repr__(self):
        return (
            f"<CellRunner jobs={self.jobs} cells={len(self._summaries)} "
            f"hits={self.cache_hits} misses={self.cache_misses}>"
        )


def default_cache(use_cache=None):
    """The cache to use given an explicit flag or the environment.

    ``use_cache=None`` consults ``$REPRO_CACHE`` (off unless set to a
    non-empty value other than "0" — library and test runs stay
    hermetic; the CLI turns caching on explicitly).
    """
    if use_cache is None:
        use_cache = os.environ.get("REPRO_CACHE", "") not in ("", "0")
    return ResultCache() if use_cache else None
