"""One shard of a sharded cluster: a host slice on its own simulator.

A :class:`ClusterShard` owns a contiguous range of the cluster's hosts
— built with exactly the seeds (``Jitter(seed).fork("host-i")``) and
names (``host{i}``) the single-process :class:`~repro.cluster.cluster.Cluster`
would give them — on a private :class:`~repro.sim.core.Simulator`.
Because hosts only interact through placement, a host's event stream is
bit-identical whether it shares a simulator with 47 peers or sits in a
shard with 5: locks, CPUs, DRAM bandwidth, the VF pool, and the jitter
streams are all per-host.  The shard therefore needs only two inputs
from the outside world:

* *assignments* — which containers land on its hosts, and when they
  arrive (global index, arrival time, global host index); and
* *barrier times* — how far to advance virtual time before the next
  exchange (see :mod:`repro.cluster.sharded` for the protocol).

and it produces the per-container records, per-host load peaks, VF
counts, and the teardown times the coordinator's least-loaded placement
needs.  Everything it returns is plain data, safe to ship over a pipe
from a worker process.
"""

from repro.containers.engine import ContainerRequest
from repro.core.host import Host
from repro.core.presets import get_preset
from repro.metrics.timeline import StartupRecord
from repro.sim.core import Simulator, Timeout
from repro.sim.rng import Jitter
from repro.sim.ticker import DaemonTicker
from repro.spec import PAPER_TESTBED
from repro.workloads.serverless import make_app


class ClusterShard:
    """Hosts ``[host_start, host_stop)`` of a cluster, on one simulator.

    Args:
        preset_or_config: Solution preset name (or SolutionConfig), as
            for :class:`~repro.cluster.cluster.Cluster`.
        host_start, host_stop: Global host-index range this shard owns.
        spec: Per-host HostSpec (default: paper testbed).
        seed: The *cluster* seed; per-host streams are CRC-forked from
            it with the global host index, so the shard split never
            perturbs a host's draws.
        vf_count: VFs to pre-create per host (default: NIC maximum).
        app_name: Optional SeBS app each container runs after startup.
        teardown: Remove each container after it completes.
        memory_bytes: Per-container memory (None = spec default).
    """

    def __init__(self, preset_or_config, host_start, host_stop, spec=None,
                 seed=0, vf_count=None, app_name=None, teardown=True,
                 memory_bytes=None, trace=False):
        if not 0 <= host_start < host_stop:
            raise ValueError(
                f"empty or negative host range [{host_start}, {host_stop})"
            )
        if isinstance(preset_or_config, str):
            config = get_preset(preset_or_config)
        else:
            config = preset_or_config
        self.config = config
        self.host_start = host_start
        self.host_stop = host_stop
        self.app_name = app_name
        self.teardown = teardown
        self.memory_bytes = memory_bytes
        self.sim = Simulator()
        #: Per-shard flight recorder (``trace=True``); its dump ships
        #: with :meth:`result` and the coordinator merges the shards'
        #: tracks into one logical timeline by global host index.
        self.trace = None
        if trace:
            from repro.obs.recorder import TraceRecorder

            self.trace = TraceRecorder()
            self.trace.bind(self.sim)
        #: Shard-wide aggregated scan tick (mirrors Cluster.ticker): the
        #: shard's hosts share one scan-tick event per interval.
        host_spec = spec if spec is not None else PAPER_TESTBED
        self.ticker = DaemonTicker(
            self.sim, host_spec.fastiovd_scan_interval_s
        )
        base = Jitter(seed)
        #: Hosts keyed by *global* index.
        self.hosts = {
            index: Host(
                config,
                spec=spec,
                seed=base.fork(f"host-{index}").seed,
                vf_count=vf_count,
                sim=self.sim,
                name=f"host{index}",
                trace=self.trace,
                ticker=self.ticker,
            )
            for index in range(host_start, host_stop)
        }
        self.loads = {index: 0 for index in self.hosts}
        self.peak_loads = {index: 0 for index in self.hosts}
        #: (arrival_time, done_time, startup_time) keyed by global
        #: container index, filled as lifecycles complete.
        self.records = {}
        #: Teardown load deltas (time, global host index) not yet
        #: handed to the coordinator.
        self._teardowns = []
        #: Startup-watchdog expiries (mirrors ClusterChurnDriver).
        self.deadline_misses = 0

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def submit(self, assignments, name_prefix="w"):
        """Spawn lifecycles for ``[(global_index, arrival_time, host_index)]``.

        Arrival times are absolute virtual times; each lifecycle sleeps
        ``arrival - now`` so the container arrives at exactly the same
        instant it would in the single-process run.
        """
        now = self.sim.now
        for global_index, arrival, host_index in assignments:
            name = f"{name_prefix}{global_index}"
            self.sim.spawn(
                self._lifecycle(global_index, name, arrival - now, host_index),
                name=f"churn-{name}",
            )

    def _lifecycle(self, global_index, name, offset, host_index):
        # Mirrors ClusterChurnDriver._lifecycle yield-for-yield so the
        # sharded event stream is the single-process one, minus the
        # other shards' hosts.
        if offset:
            yield Timeout(offset)
        sim = self.sim
        host = self.hosts[host_index]
        record = StartupRecord(name)
        arrival_time = sim.now
        load = self.loads[host_index] + 1
        self.loads[host_index] = load
        if load > self.peak_loads[host_index]:
            self.peak_loads[host_index] = load
        app = make_app(self.app_name) if self.app_name else None
        request = ContainerRequest(
            name, memory_bytes=self.memory_bytes, app=app
        )
        # Same startup watchdog as ClusterChurnDriver._lifecycle (armed
        # and cancelled at the same yield points, so the per-shard event
        # stream matches the single-process one exactly).
        from repro.cluster.churn import ClusterChurnDriver

        watchdog = sim.call_later(
            ClusterChurnDriver.STARTUP_DEADLINE_S,
            self._deadline_missed, name,
        )
        try:
            try:
                yield from host.engine.run_container(request, record)
            finally:
                watchdog.cancel()
            self.records[global_index] = (
                arrival_time, sim.now, record.startup_time
            )
            if self.teardown:
                yield from host.engine.remove_container(name)
        finally:
            self.loads[host_index] -= 1
            self._teardowns.append((sim.now, host_index))

    def _deadline_missed(self, name):
        self.deadline_misses += 1

    def step(self, barrier, until, batch):
        """One protocol step: spawn ``batch`` at ``barrier``, advance to
        ``until``; returns the teardown deltas recorded since the last
        step.

        Every delta returned has time <= ``until`` — the epoch grid's
        visibility rule (see :mod:`repro.cluster.sharded`).  The clock
        only moves forward: a shard already at ``barrier`` spawns right
        there, and ``until == barrier`` (the round-robin plan's single
        step) spawns without dispatching anything.
        """
        sim = self.sim
        if batch:
            if sim.now < barrier:
                sim.run_until(barrier)
            self.submit(batch)
        if sim.now < until:
            sim.run_until(until)
        deltas, self._teardowns = self._teardowns, []
        return deltas

    def drain(self):
        """Run until every lifecycle finished; returns the local end time.

        Daemon work scheduled past the last lifecycle's completion stays
        pending — exactly as in a single-process run, where it only
        executes while *some* host still has live work.  The coordinator
        turns the per-shard end times into a global horizon and advances
        every shard to it, so each shard's background daemons tick as
        far as they would have on the shared timeline.
        """
        self.sim.run()
        return self.sim.now

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result(self):
        """Plain-data summary of this shard (pickles cheaply)."""
        free_vfs = {
            index: getattr(host.cni, "free_vf_count", None)
            for index, host in self.hosts.items()
        }
        result = {
            "records": sorted(
                (index,) + data for index, data in self.records.items()
            ),
            "loads": dict(self.loads),
            "peak_loads": dict(self.peak_loads),
            "free_vfs": free_vfs,
            "events": self.sim.events_dispatched,
            "now": self.sim.now,
            "engine_stats": self.sim.stats(),
        }
        if self.trace is not None:
            for host in self.hosts.values():
                host.finalize_trace()
            self.trace.registry.ingest_engine_stats(self.sim.stats())
            self.trace.registry.ingest_ticker_stats(self.ticker.stats())
            result["trace"] = self.trace.dump()
        return result

    def __repr__(self):
        return (
            f"<ClusterShard hosts=[{self.host_start},{self.host_stop}) "
            f"{self.config.name!r} records={len(self.records)}>"
        )
