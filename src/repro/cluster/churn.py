"""Serverless churn driver for cluster-scale startup storms.

Drives the full secure-container lifecycle — place, start, (optionally)
run a SeBS app, tear down — across every host of a
:class:`~repro.cluster.cluster.Cluster`, at burst sizes far beyond what
a single host's 256-VF pool could absorb.  This is the Quark-style
workload the ROADMAP points at: thousands of concurrent microVM
startups arriving nearly simultaneously.

Placement happens at *arrival* time (after the arrival offset elapses),
so least-loaded placement sees the load that actually exists when the
invocation lands, and the whole schedule remains a deterministic
function of the seed.
"""

from repro.containers.engine import ContainerRequest
from repro.metrics.stats import Distribution
from repro.metrics.timeline import StartupRecord
from repro.obs import runtime
from repro.sim.core import Timeout
from repro.workloads.generator import ArrivalPattern
from repro.workloads.serverless import make_app


class ClusterChurnDriver:
    """Submits container lifecycles to a cluster and collects records.

    Args:
        cluster: The target :class:`Cluster`.
        app_name: Optional SeBS app (``repro.workloads.serverless``)
            each container runs after startup.
        teardown: Remove each container after it completes, recycling
            its VF and memory (the churn part of the workload).
        startup_deadline_s: Per-container startup watchdog (virtual
            seconds; None disables).  Each lifecycle arms a cancellable
            engine timer at placement and cancels it the moment the
            container is running, so a healthy storm pays O(1) per
            container and the watchdog never dispatches an event (the
            default is far above any modeled startup, keeping result
            byte-identity).  A blown deadline only increments
            ``deadline_misses`` — a liveness canary for pathological
            configurations, not a behavior change.
    """

    #: Generous default: the slowest modeled startups (vanilla SR-IOV at
    #: 10k concurrency) stay well under a minute of virtual time.
    STARTUP_DEADLINE_S = 900.0

    def __init__(self, cluster, app_name=None, teardown=True,
                 startup_deadline_s=STARTUP_DEADLINE_S):
        self.cluster = cluster
        self.app_name = app_name
        self.teardown = teardown
        self.startup_deadline_s = startup_deadline_s
        self.records = []
        #: Containers currently between arrival and readiness.
        self.in_flight = 0
        #: Peak of ``in_flight`` — the realized startup concurrency.
        self.peak_in_flight = 0
        #: Startups that outlived the watchdog deadline.
        self.deadline_misses = 0

    def submit(self, count, arrivals=None, memory_bytes=None,
               name_prefix="w"):
        """Spawn ``count`` lifecycles; returns their StartupRecords.

        Args:
            count: Number of invocations.
            arrivals: :class:`ArrivalPattern` (default: simultaneous
                burst, matching the paper's startup storms).
            memory_bytes: Per-container memory (None = spec default).
            name_prefix: Container name prefix (names must be unique
                across the cluster's lifetime).
        """
        if arrivals is None:
            arrivals = ArrivalPattern("burst")
        offsets = arrivals.offsets(count)
        records = []
        cluster = self.cluster
        for index, offset in enumerate(offsets):
            name = f"{name_prefix}{index}"
            record = StartupRecord(name)
            records.append(record)
            cluster.sim.spawn(
                self._lifecycle(name, record, offset, memory_bytes),
                name=f"churn-{name}",
            )
        self.records.extend(records)
        return records

    def _lifecycle(self, name, record, offset, memory_bytes):
        if offset:
            yield Timeout(offset)
        cluster = self.cluster
        index = cluster.place()
        host = cluster.hosts[index]
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        app = make_app(self.app_name) if self.app_name else None
        request = ContainerRequest(name, memory_bytes=memory_bytes, app=app)
        watchdog = None
        if self.startup_deadline_s:
            watchdog = cluster.sim.call_later(
                self.startup_deadline_s, self._deadline_missed, name
            )
        try:
            try:
                yield from host.engine.run_container(request, record)
            finally:
                if watchdog is not None:
                    watchdog.cancel()
                self.in_flight -= 1
            if self.teardown:
                yield from host.engine.remove_container(name)
        finally:
            cluster.unplace(index)

    def _deadline_missed(self, name):
        self.deadline_misses += 1

    def run(self, until=None):
        """Execute the simulation; returns the collected records."""
        self.cluster.sim.run(until=until)
        return self.records

    def startup_times(self, label=""):
        return Distribution(
            [record.startup_time for record in self.records], label=label
        )

    def __repr__(self):
        return (
            f"<ClusterChurnDriver n={len(self.records)} "
            f"app={self.app_name!r} peak={self.peak_in_flight}>"
        )


def cluster_arrivals(seed, rate_per_s=0.0):
    """The arrival schedule for one cluster cell.

    ``rate_per_s == 0`` is the paper's simultaneous burst; a positive
    rate is Poisson with a jitter stream forked from the *cluster* seed,
    so the schedule is identical whether the cell runs single-process or
    sharded (the sharded coordinator recomputes it and never perturbs
    any host's ``host-i`` stream).
    """
    if rate_per_s:
        from repro.sim.rng import Jitter

        return ArrivalPattern(
            "poisson", rate_per_s=rate_per_s,
            jitter=Jitter(seed).fork("arrivals"),
        )
    return ArrivalPattern("burst")


#: The sync-mode names ``run_cluster_cell`` still accepts (see there).
_SYNC_NAMES = (None, "conservative", "optimistic", "hierarchical", "auto")


def run_cluster_cell(preset, concurrency, hosts, seed=0, app_name=None,
                     placement="least-loaded", teardown=True, shards=1,
                     workers=None, rate_per_s=0.0, engine_stats=None,
                     trace=None, sync=None, telemetry=None):
    """One cluster-scale launch cell; returns a plain-JSON summary.

    The cluster analogue of ``launch_preset`` + ``summarize_launch``:
    pure in (preset, concurrency, hosts, seed, placement, rate), so it
    is safe to run in a worker process and to cache.  ``shards > 1``
    routes to the sharded runner (:mod:`repro.cluster.sharded`):
    round-robin and burst-arrival cells come back byte-identical to the
    single-process run; spread-arrival least-loaded cells follow the
    deterministic lockstep epoch protocol.  ``workers`` never changes
    results.

    ``sync`` selects nothing.  The sharded runner once offered three
    sync protocols that all committed the same timeline; only the
    lockstep one remains, and the old names (``"conservative"``,
    ``"optimistic"``, ``"hierarchical"``, ``"auto"``) are accepted so
    existing callers keep working.  Anything else raises
    :class:`ValueError`.

    ``engine_stats``, if given, is a dict filled with the simulator's
    :meth:`~repro.sim.core.Simulator.stats` for diagnostics —
    single-process engine stats, or the shards' summed stats plus
    the protocol counters (steps, barrier wait, coordinator
    occupancy); it is never part of the returned summary.

    ``trace``, if given, is a dict filled with the flight-recorder
    bundle (``repro.obs``): single-process runs record on one shared
    recorder; sharded runs record per shard and merge by track.  Never
    part of the returned summary, so the summary stays byte-identical
    with tracing on or off.

    ``telemetry``, if given, is a dict filled with the wall-clock
    telemetry snapshot (``repro.obs.runtime``): per-process phase
    totals, spans and wire accounting.  Sharded runs probe the
    coordinator and every worker; a single-process run gets one
    ``main`` probe timing the whole drive.  Same contract as
    ``trace``: never part of the summary.
    """
    if sync not in _SYNC_NAMES:
        raise ValueError(f"unknown sync mode {sync!r}")
    from repro.cluster.sharded import resolve_shards

    shards = resolve_shards(shards, hosts)
    if shards > 1:
        from repro.cluster.sharded import run_sharded_cluster

        return run_sharded_cluster(
            preset, concurrency, hosts, seed=seed, shards=shards,
            placement=placement, app_name=app_name, teardown=teardown,
            arrivals=cluster_arrivals(seed, rate_per_s), workers=workers,
            trace=trace, engine_stats=engine_stats, telemetry=telemetry,
        )
    from repro.cluster.cluster import Cluster

    recorder = None
    if trace is not None:
        from repro.obs.recorder import TraceRecorder

        recorder = TraceRecorder()
    probe = None
    aggregator = None
    if telemetry is not None or runtime.probes_enabled():
        from repro.obs.runtime import RuntimeProbe, TelemetryAggregator

        aggregator = TelemetryAggregator()
        probe = RuntimeProbe("main", hosts=[[0, hosts]])
        aggregator.attach_local(probe)
        runtime.set_aggregator(aggregator)
        runtime.set_probe(probe)
    cluster = Cluster(preset, hosts=hosts, seed=seed, placement=placement,
                      trace=recorder)
    driver = ClusterChurnDriver(cluster, app_name=app_name, teardown=teardown)
    driver.submit(concurrency, arrivals=cluster_arrivals(seed, rate_per_s))
    try:
        if probe is not None:
            cluster.sim.runtime_probe = probe
            began = probe.begin()
            driver.run()
            probe.lap("compute", began)
        else:
            driver.run()
    finally:
        if probe is not None:
            runtime.set_probe(None)
            runtime.set_aggregator(None)
    if telemetry is not None and aggregator is not None:
        snapshot = aggregator.snapshot()
        snapshot["mode"] = "single"
        snapshot["shards"] = 1
        telemetry.update(snapshot)
    if engine_stats is not None:
        engine_stats.update(cluster.sim.stats())
    if recorder is not None:
        for host in cluster.hosts:
            host.finalize_trace()
        recorder.registry.ingest_engine_stats(cluster.sim.stats())
        recorder.registry.ingest_ticker_stats(cluster.ticker.stats())
        trace.update(recorder.dump())
    summary = driver.startup_times().summary()
    return {
        "count": summary["count"],
        "mean": summary["mean"],
        "p50": summary["p50"],
        "p99": summary["p99"],
        "min": summary["min"],
        "max": summary["max"],
        "hosts": hosts,
        "peak_in_flight": driver.peak_in_flight,
        "events": cluster.sim.events_dispatched,
        "free_vfs_total": cluster.free_vf_total(),
        "peak_load_per_host": list(cluster.peak_loads),
    }
