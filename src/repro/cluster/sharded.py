r"""Sharded cluster simulation: one logical timeline over many cores.

The single-process :class:`~repro.cluster.cluster.Cluster` puts N hosts
on one simulator, so a 10,000-startup storm is one serial event stream
on one core.  Hosts in the model are almost perfectly independent —
per-host locks, CPUs, DRAM, VF pools — and interact only through
*placement*, which is exactly the structure this module exploits: the
cluster's hosts are partitioned into K contiguous shards, each simulated
by its own :class:`~repro.cluster.shard.ClusterShard` (optionally in its
own worker process), and a deterministic placement protocol stitches
the shards into one logical timeline.

Round-robin: zero synchronization
---------------------------------

Round-robin placement is a pure function of arrival order (container
``n`` lands on host ``n % H``), and arrival order is a pure function of
the arrival schedule, which is known before the simulation starts.  The
whole placement plan is therefore computed up front and shipped in one
``step(0.0, 0.0, batches)``, and the shards run to completion with no
barriers at all.  Because a host's event stream does not depend on which
simulator it shares (per-host jitter forks ``host-i``, per-host state),
the merged result is **byte-identical** to the single-process run for
every shard count.

Least-loaded: one lockstep step per epoch that has arrivals
-----------------------------------------------------------

Least-loaded placement needs cross-shard load knowledge: the pick for an
arrival at time *t* depends on every placement and teardown before *t*.
Placements are made centrally (the coordinator walks arrivals in
schedule order), so the only information that must flow between shards
is *teardown times* — and those become known only as each shard
simulates.  Virtual time is cut into a fixed grid of epochs of width
``L`` (the lookahead, derived from the minimum possible startup latency,
:func:`min_startup_lookahead`), and the coordinator sends one message
per epoch that has arrivals:

1. it places the arrivals of epoch ``[kL, (k+1)L)`` in (time, index)
   order against its load tracker;
2. it sends every worker ``("step", kL, until, batches)``, where
   ``until`` is the barrier of the *next* epoch that has arrivals (or
   ``(k+1)L`` after the last one);
3. every shard advances to ``kL``, spawns its batch, advances to
   ``until``, and replies with a load digest: how many containers left
   each of its hosts since the previous step.

The visibility rule: a teardown is visible to an arrival iff it
happened at or before the start of the arrival's epoch.  This is a
*conservative* view (the load vector briefly overestimates), but one
defined purely on the grid, so the placement sequence is a
deterministic function of the arrival schedule and per-host teardown
times — both independent of the shard count and of how shards map to
worker processes.  Results are therefore invariant to K and
``workers``.  Empty epochs cost nothing: a step runs straight to the
next barrier that matters, and the teardowns it reports all have time
<= that barrier, exactly what visiting each empty barrier in turn would
have reported.  For a simultaneous burst every arrival lands in epoch 0
before any teardown exists, the pick sequence cycles exactly like
round-robin, and the K > 1 result is byte-identical to the
single-process run for this case too.

Workers form a flat star around the coordinator: one pipe per worker,
at most one outstanding request on each.  The hot messages speak the
struct-packed framing of :mod:`repro.cluster.wire`; a worker that dies
mid-run surfaces as a :class:`RuntimeError` naming its index and
shards, and the group reaps every child before the error propagates.

``shards=1`` requests are routed by :func:`~repro.cluster.churn.run_cluster_cell`
to the single-process :class:`Cluster` path — with continuous (not
epoch-quantized) teardown visibility.

End-of-run alignment
--------------------

After the last lifecycle finishes, shards have reached *different* local
end times, but background daemons (the fastiovd scanner) tick for as
long as the shared timeline stays alive in a single-process run.  The
coordinator therefore collects every shard's local end time and advances
the stragglers to the global maximum, so merged event counts match the
single-process run exactly.
"""

import multiprocessing
import os
import sys
import time
import traceback

from repro.cluster import wire
from repro.cluster.placement import make_load_tracker
from repro.cluster.shard import ClusterShard
from repro.metrics.stats import Distribution
from repro.obs import runtime
from repro.obs.runtime import RuntimeProbe, TelemetryAggregator
from repro.spec import PAPER_TESTBED
from repro.workloads.generator import ArrivalPattern


#: Below this many hosts per shard, worker spawn and the per-epoch
#: steps cost more wall-clock than the split saves: the quick scale
#: cell (8 hosts) measured 3.7 s at ``--shards 4`` against 2.3 s
#: single-process.  ``resolve_shards("auto", ...)`` never splits finer.
#: A 16-host spread cell (500 arrivals at 100/s) ran faster at two
#: shards than at one in 10 of 10 alternating pairs on a 2-core box
#: (DESIGN.md §7), so one floor serves every placement plan.
MIN_HOSTS_PER_SHARD = 8


def resolve_shards(shards, hosts):
    """Resolve a shard request — ``None``, an int, or ``"auto"`` — to a
    concrete shard count for a ``hosts``-host cell.

    ``"auto"`` picks the widest split that keeps
    :data:`MIN_HOSTS_PER_SHARD` hosts per shard, bounded by the CPU
    count.  A cell below the floor falls back to the in-process
    single-shard path (with a note on stderr).  Explicit integer counts
    are honored (clamped to ``hosts``) — the caller asked for that
    split, overhead and all.  Results are byte-identical across shard
    counts, so this is purely a wall-clock decision.
    """
    if shards is None:
        return 1
    if shards == "auto":
        resolved = max(1, min(os.cpu_count() or 1,
                              hosts // MIN_HOSTS_PER_SHARD))
        if resolved == 1 and hosts < 2 * MIN_HOSTS_PER_SHARD:
            print(
                f"shards=auto: {hosts}-host cell is below "
                f"{MIN_HOSTS_PER_SHARD} hosts/shard at any split; "
                f"using the in-process single-shard path",
                file=sys.stderr,
            )
        return resolved
    return max(1, min(int(shards), hosts))


def partition_hosts(hosts, shards):
    """Contiguous balanced host ranges: ``[(start, stop), ...]``.

    The first ``hosts % shards`` shards get one extra host.  With
    round-robin placement a burst spreads uniformly over hosts, so
    contiguous ranges balance container counts too.
    """
    if hosts <= 0:
        raise ValueError(f"hosts must be positive, got {hosts}")
    if not 1 <= shards <= hosts:
        raise ValueError(
            f"shards must be in [1, hosts={hosts}], got {shards}"
        )
    base, extra = divmod(hosts, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def min_startup_lookahead(spec=None):
    """Epoch width: a lower-ish bound on the placement->teardown gap.

    Every lifecycle serially spends at least the VM-create and
    guest-boot base costs between placement and teardown; half of that
    floor absorbs the multiplicative (log-normal, unit-mean) jitter in
    practice.  The protocol is deterministic and K-invariant for *any*
    positive epoch width — a smaller value only tightens how stale the
    conservative load vector can get, at the cost of more steps.
    """
    spec = spec if spec is not None else PAPER_TESTBED
    return (spec.vm_create_base_s + spec.guest_boot_base_s) / 2.0


def peak_concurrency(spans):
    """Peak overlap of ``[(start, end), ...]``, starts before ends on ties.

    This is how the merged run recovers the cluster-wide realized
    startup concurrency the single-process driver counts incrementally:
    at equal timestamps an arrival's resume event always carries a
    smaller sequence number than a completion scheduled later, so
    arrivals are counted first.
    """
    events = []
    for start, end in spans:
        events.append((start, 0))
        events.append((end, 1))
    events.sort()
    current = peak = 0
    for _time, kind in events:
        if kind == 0:
            current += 1
            if current > peak:
                peak = current
        else:
            current -= 1
    return peak


# ----------------------------------------------------------------------
# the shards one process simulates
# ----------------------------------------------------------------------
class _ShardSet:
    """The shards one process simulates, serving the protocol's ops.

    Used directly as the shard group when everything runs in-process
    (``workers=0``, or inside a daemonic pool worker), and wrapped by
    :func:`_worker_main` in each worker process — so both transports
    execute the identical step/drain/finish code.
    """

    #: In-process shards never block on a pipe.
    barrier_wait_s = 0.0

    def __init__(self, shard_specs):
        self.shards = {
            shard_id: ClusterShard(**spec) for shard_id, spec in shard_specs
        }
        # Wall-clock plane: let each engine publish its live frontier.
        # Telemetry-only — the probe never feeds back into the sim.
        probe = runtime.get_probe()
        if probe is not None:
            for shard in self.shards.values():
                shard.sim.runtime_probe = probe

    def step(self, barrier, until, batches):
        """Spawn ``batches`` at ``barrier``, advance every shard to
        ``until``; returns the load digest of the teardowns on the way."""
        deltas = []
        for shard_id, shard in self.shards.items():
            deltas.extend(shard.step(barrier, until, batches.get(shard_id)))
        return wire.digest_deltas(deltas)

    def drain(self):
        """Run every lifecycle to completion: ``{shard_id: end time}``."""
        return {
            shard_id: shard.drain() for shard_id, shard in self.shards.items()
        }

    def finish(self, horizon):
        """Align every shard to ``horizon``: ``{shard_id: result}``."""
        results = {}
        for shard_id, shard in self.shards.items():
            if shard.sim.now < horizon:
                shard.sim.run_until(horizon)
            results[shard_id] = shard.result()
        return results

    def close(self):
        self.shards = {}


def _worker_main(conn, shard_specs):
    """Worker entry: build the assigned shards and serve the protocol.

    Blocked time on the pipe counts as barrier wait; each op's own
    work counts as compute.  Any exception ships to the coordinator as
    an ``error`` reply carrying the traceback.
    """
    try:
        probe = None
        if runtime.probes_enabled():
            name = multiprocessing.current_process().name
            probe = RuntimeProbe(
                name.replace("repro-shard-", "") or "worker",
                hosts=sorted(
                    [spec["host_start"], spec["host_stop"]]
                    for _sid, spec in shard_specs
                ),
            )
            runtime.set_probe(probe)
            wire.set_probe(probe)
        shards = _ShardSet(shard_specs)
        wait_s = 0.0
        while True:
            waited = time.perf_counter()
            if probe is not None:
                # Separate the blocked wait from the decode: poll first
                # so barrier_wait covers only the blocking, and
                # wire.recv's internal ipc_recv lap only the decode.
                conn.poll(None)
                probe.lap("barrier_wait", waited)
            message = wire.recv(conn)
            wait_s += time.perf_counter() - waited
            op = message[0]
            began = probe.begin() if probe is not None else 0.0
            if op == "step":
                reply = ("loads", shards.step(*message[1:]))
            elif op == "drain":
                reply = ("ok", shards.drain())
            elif op == "finish":
                reply = ("ok", {"results": shards.finish(message[1]),
                                "wait_s": wait_s})
            elif op == "stop":
                wire.send(conn, ("ok", None), piggyback=True)
                return
            else:
                raise ValueError(f"unknown op {op!r}")
            if probe is not None:
                probe.lap("compute", began)
                if op == "step":
                    probe.count("epochs")
            wire.send(conn, reply, piggyback=True)
    except Exception as exc:  # noqa: BLE001 - ship it to the parent
        try:
            wire.send(
                conn, ("error", f"{exc!r}\n{traceback.format_exc()}")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass


class _WorkerGroup:
    """Shards spread over ``workers`` forked processes, a flat star.

    Shard-to-process mapping is a pure convenience: every shard is a
    deterministic object, so results are invariant to how many processes
    serve them.  A broken pipe or an early EOF on any worker's pipe
    becomes a :class:`RuntimeError` naming the worker and its shards.
    """

    def __init__(self, shard_specs, workers):
        context = multiprocessing.get_context("fork")
        self._procs = []
        self._conns = []
        self._shard_ids = []
        self._owner = {}
        #: Blocked-on-pipe seconds summed over workers (set by finish).
        self.barrier_wait_s = 0.0
        try:
            for index in range(workers):
                chunk = shard_specs[index::workers]
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main, args=(child_conn, chunk),
                    name=f"repro-shard-worker-{index}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
                self._shard_ids.append([shard_id for shard_id, _ in chunk])
                for shard_id, _ in chunk:
                    self._owner[shard_id] = index
        except BaseException:
            self.close()
            raise

    def _reply(self, index):
        """Worker ``index``'s reply payload; a shipped error or a dead
        pipe becomes a RuntimeError naming the worker's shards."""
        who = f"shard worker {index} (shards {self._shard_ids[index]})"
        try:
            status, payload = wire.recv(self._conns[index])
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"{who} died: {exc!r}") from exc
        if status == "error":
            raise RuntimeError(f"{who} failed:\n{payload}")
        return payload

    def _exchange(self, messages):
        """Send one message per worker, then collect every reply."""
        for index, message in enumerate(messages):
            try:
                wire.send(self._conns[index], message)
            except OSError:
                # The worker is gone: read its shipped error, if any,
                # or the EOF its exit left behind.
                self._reply(index)
                raise
        return [self._reply(index) for index in range(len(self._conns))]

    def step(self, barrier, until, batches):
        routed = [{} for _ in self._conns]
        for shard_id, batch in batches.items():
            routed[self._owner[shard_id]][shard_id] = batch
        pairs = []
        for digest in self._exchange(
            [("step", barrier, until, payload) for payload in routed]
        ):
            pairs.extend(digest)
        return pairs

    def drain(self):
        ends = {}
        for payload in self._exchange([("drain",)] * len(self._conns)):
            ends.update(payload)
        return ends

    def finish(self, horizon):
        results = {}
        for payload in self._exchange(
            [("finish", horizon)] * len(self._conns)
        ):
            results.update(payload["results"])
            self.barrier_wait_s += payload["wait_s"]
        return results

    def close(self):
        """Stop every worker and reap it; leaves no child process."""
        for conn in self._conns:
            try:
                wire.send(conn, ("stop",))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []


def _make_group(shard_specs, workers):
    if workers is None:
        workers = len(shard_specs)
    # A multiprocessing.Pool worker is daemonic and may not fork
    # children; sharded cells that land there degrade to in-process.
    if multiprocessing.current_process().daemon:
        workers = 0
    if workers < 1:
        return _ShardSet(shard_specs)
    return _WorkerGroup(shard_specs, min(workers, len(shard_specs)))


# ----------------------------------------------------------------------
# the sharded run
# ----------------------------------------------------------------------
def run_sharded_cluster(preset, concurrency, hosts, seed=0, shards=2,
                        placement="least-loaded", app_name=None,
                        teardown=True, memory_bytes=None, spec=None,
                        vf_count=None, arrivals=None, workers=None,
                        name_prefix="w", trace=None, engine_stats=None,
                        telemetry=None):
    """Run one cluster churn burst over K shards; returns the summary.

    The summary has exactly the shape (and, for round-robin and for
    burst arrivals, exactly the bytes) of the single-process
    :func:`~repro.cluster.churn.run_cluster_cell`.

    Args:
        shards: Number of shards K (clamped to ``hosts``).
        workers: OS processes serving the shards.  None = one per
            shard (the parallel fast path); 0 = everything in-process
            (useful under pool workers and in tests).  Results are
            invariant to this knob.
        arrivals: :class:`ArrivalPattern` (default: simultaneous burst).
        trace: Optional dict, filled with the merged flight-recorder
            bundle (``repro.obs``): each shard records its own hosts
            and the merge is a disjoint union of host-unique tracks.
            The returned summary never contains trace data.
        engine_stats: Optional dict, filled with the shards' summed
            engine stats plus the protocol counters: ``sync_epochs``
            (steps sent), ``sync_barrier_wait_s``, the coordinator's
            ``sync_coordinator_{wait,place,reduce}_s`` and
            ``sync_placement_heap_ops``.
        telemetry: Optional dict, filled with the wall-clock telemetry
            snapshot (``repro.obs.runtime``): per-process phase
            totals, spans and wire accounting for the coordinator and
            every worker.  Passing it (or setting
            ``REPRO_RUNTIME_PROBES=1``) enables the probes; either way
            results stay byte-identical.
        Other arguments: as for ``run_cluster_cell``.
    """
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    shards = min(shards, hosts)
    bounds = partition_hosts(hosts, shards)
    if arrivals is None:
        arrivals = ArrivalPattern("burst")
    offsets = arrivals.offsets(concurrency)
    # Arrival order: schedule time, ties by submission index — exactly
    # the order the single-process simulator resumes them in.
    order = sorted(range(concurrency), key=lambda n: (offsets[n], n))

    shard_specs = [
        (shard_id, {
            "preset_or_config": preset,
            "host_start": start,
            "host_stop": stop,
            "spec": spec,
            "seed": seed,
            "vf_count": vf_count,
            "app_name": app_name,
            "teardown": teardown,
            "memory_bytes": memory_bytes,
            "trace": trace is not None,
        })
        for shard_id, (start, stop) in enumerate(bounds)
    ]

    # Host -> shard map, filled range by range (O(hosts), not
    # O(hosts x shards) — at 1M hosts the difference is the build).
    host_shard = [0] * hosts
    for shard_id, (start, stop) in enumerate(bounds):
        for host_index in range(start, stop):
            host_shard[host_index] = shard_id

    lookahead = min_startup_lookahead(spec)
    probes = telemetry is not None or runtime.probes_enabled()
    prev_probes_env = os.environ.get("REPRO_RUNTIME_PROBES")
    aggregator = None
    coord_probe = None
    if probes:
        # Workers decide from the environment (inherited across fork),
        # so an explicit ``telemetry=`` request must arm it before the
        # group spawns; restored below.
        os.environ["REPRO_RUNTIME_PROBES"] = "1"
        aggregator = TelemetryAggregator()
        coord_probe = RuntimeProbe("coordinator")
        aggregator.attach_local(coord_probe)
        runtime.set_aggregator(aggregator)
        runtime.set_probe(coord_probe)
        wire.set_probe(coord_probe)
        wire.set_telemetry_sink(aggregator.ingest)
    stats = _CoordinatorStats(probe=coord_probe)
    tracker = None
    group = None
    try:
        group = _make_group(shard_specs, workers)
        if placement == "round-robin":
            _place_round_robin(group, order, offsets, hosts, host_shard,
                               stats)
        else:
            tracker = make_load_tracker(placement, hosts)
            _place_least_loaded(group, order, offsets, host_shard, tracker,
                                lookahead, stats)
        ends = group.drain()
        results = group.finish(max(ends.values()))
    finally:
        if group is not None:
            group.close()
        if probes:
            wire.set_probe(None)
            wire.set_telemetry_sink(None)
            runtime.set_probe(None)
            runtime.set_aggregator(None)
            if prev_probes_env is None:
                os.environ.pop("REPRO_RUNTIME_PROBES", None)
            else:
                os.environ["REPRO_RUNTIME_PROBES"] = prev_probes_env
    results = [results[shard_id] for shard_id in sorted(results)]
    if telemetry is not None and aggregator is not None:
        snapshot = aggregator.snapshot()
        snapshot["mode"] = "sharded"
        snapshot["shards"] = shards
        snapshot["lookahead"] = lookahead
        telemetry.update(snapshot)
    sync_stats = {
        "epochs": stats.steps,
        "barrier_wait_s": group.barrier_wait_s,
        "coordinator_wait_s": stats.wait_s,
        "coordinator_place_s": stats.place_s,
        "coordinator_reduce_s": stats.reduce_s,
        "placement_heap_ops": tracker.heap_ops if tracker is not None else 0,
    }
    shard_engines = [result.pop("engine_stats") for result in results]
    if engine_stats is not None:
        for key in shard_engines[0]:
            engine_stats[key] = sum(engine[key] for engine in shard_engines)
        engine_stats["shards"] = shards
        for key, value in sync_stats.items():
            engine_stats[f"sync_{key}"] = value
    if trace is not None:
        from repro.obs.metrics import MetricsRegistry, merge_metrics
        from repro.obs.recorder import merge_dumps

        trace.update(
            merge_dumps([result.pop("trace") for result in results])
        )
        # Protocol counters ride the merged bundle's metrics (flat
        # metrics JSON / --metrics export), never its tracks — the
        # Perfetto trace stays byte-identical across shard counts.
        registry = MetricsRegistry()
        registry.ingest_sync_stats(sync_stats)
        trace["metrics"] = merge_metrics(
            [trace["metrics"], registry.snapshot()]
        )
    return _merge(results, hosts, concurrency)


class _CoordinatorStats:
    """Wall-clock occupancy of the placement coordinator.

    Splits the coordinator's epoch-loop time into three buckets —
    ``wait`` (blocked on shard replies), ``place`` (walking arrivals
    against the load tracker), ``reduce`` (applying reply digests to
    the tracker) — exported through the sync stats as
    ``coordinator_*_s`` gauges, and counts the steps sent.  With
    runtime probes on, every bucket is also a span on the
    coordinator's :class:`~repro.obs.runtime.RuntimeProbe`, which
    carries it into the telemetry snapshot and the dual-clock trace.
    """

    __slots__ = ("wait_s", "place_s", "reduce_s", "steps", "_probe")

    def __init__(self, probe=None):
        self.wait_s = 0.0
        self.place_s = 0.0
        self.reduce_s = 0.0
        self.steps = 0
        self._probe = probe

    def note(self, kind, began):
        """Account one ``kind`` span from ``began`` to now; returns now."""
        now = time.perf_counter()
        setattr(self, kind + "_s", getattr(self, kind + "_s") + now - began)
        if self._probe is not None:
            self._probe.lap(kind, began, now)
        return now


def _place_round_robin(group, order, offsets, hosts, host_shard, stats):
    """The sync-free plan: container n -> host n % H, one step."""
    batches = {}
    for position, n in enumerate(order):
        host_index = position % hosts
        batches.setdefault(host_shard[host_index], []).append(
            (n, offsets[n], host_index)
        )
    stats.steps += 1
    group.step(0.0, 0.0, batches)


def _place_least_loaded(group, order, offsets, host_shard, tracker,
                        lookahead, stats):
    """One step per epoch that has arrivals (see module docstring)."""
    # Epochs are tracked by integer index so barrier times are always
    # the product ``k * lookahead`` — products of increasing integers
    # with the same positive float are monotonic, so shard clocks never
    # step backwards even when ``start + lookahead`` would round
    # differently from ``(k + 1) * lookahead``.
    position = 0
    count = len(order)
    epoch = int(offsets[order[0]] // lookahead)
    while position < count:
        epoch_end = (epoch + 1) * lookahead
        batches = {}
        began = time.perf_counter()
        while position < count and offsets[order[position]] < epoch_end:
            n = order[position]
            position += 1
            host_index = tracker.pick()
            batches.setdefault(host_shard[host_index], []).append(
                (n, offsets[n], host_index)
            )
        stats.note("place", began)
        runtime.note_progress(position, count, epoch)
        # Run straight to the next barrier that has arrivals: the
        # teardowns reported on the way all precede it, so the next
        # placement sees exactly what the epoch grid makes visible.
        if position < count:
            next_epoch = int(offsets[order[position]] // lookahead)
            until = next_epoch * lookahead
        else:
            next_epoch = epoch + 1
            until = epoch_end
        stats.steps += 1
        began = time.perf_counter()
        digest = group.step(epoch * lookahead, until, batches)
        began = stats.note("wait", began)
        for host_index, freed in digest:
            tracker.release(host_index, freed)
        stats.note("reduce", began)
        epoch = next_epoch


def _merge(results, hosts, concurrency):
    """Stitch shard results into the single-process summary shape."""
    records = []
    for result in results:
        records.extend(result["records"])
    records.sort()
    if len(records) != concurrency:
        raise RuntimeError(
            f"lost containers: {len(records)} records for "
            f"{concurrency} submissions"
        )
    summary = Distribution(
        [record[3] for record in records]
    ).summary()
    peak_loads = {}
    free_vfs = {}
    for result in results:
        peak_loads.update(result["peak_loads"])
        free_vfs.update(result["free_vfs"])
    if any(free_vfs[index] is None for index in free_vfs):
        free_total = None
    else:
        free_total = sum(free_vfs[index] for index in sorted(free_vfs))
    return {
        "count": summary["count"],
        "mean": summary["mean"],
        "p50": summary["p50"],
        "p99": summary["p99"],
        "min": summary["min"],
        "max": summary["max"],
        "hosts": hosts,
        "peak_in_flight": peak_concurrency(
            [(record[1], record[2]) for record in records]
        ),
        "events": sum(result["events"] for result in results),
        "free_vfs_total": free_total,
        "peak_load_per_host": [
            peak_loads[index] for index in range(hosts)
        ],
    }
