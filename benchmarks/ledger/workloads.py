"""The ledger's three workloads: seeded inputs, one cell, its checks.

Load is a closed loop of one client: the harness runs one cell at a
time and starts the next only after the previous returned.  Inside a
cell, arrivals follow the model's own virtual-time schedule (a
simultaneous burst on one host, or a 400/s Poisson process over 64
hosts), drawn from the seed and nothing else.

Every repository import happens inside the functions, so a set-up
probe pays for exactly the modules its workload needs.
"""

#: The cluster cells (both cluster workloads).
CLUSTER_PRESET = "fastiov"
CLUSTER_RATE_PER_S = 400
#: Per-host VF pool of the modeled NIC; with teardown on, every VF is
#: back in its pool when a cluster cell ends.
VFS_PER_HOST = 256

#: Summary fields a golden pins.  ``events`` is left out on purpose so
#: a change that collapses unobservable event sequences still passes.
CLUSTER_GOLDEN_FIELDS = ("count", "mean", "p50", "p99", "min", "max",
                         "peak_in_flight", "free_vfs_total",
                         "peak_load_per_host")
STORM_GOLDEN_FIELDS = ("count", "mean", "p50", "p99", "min", "max",
                       "free_vfs_total")

#: Virtual-time per-layer metrics (identical for a given seed on every
#: commit that only speeds up the simulator).
STEP_NAMES = ("0-cgroup", "1-dma-ram", "2-virtiofs", "3-dma-image",
              "4-vfio-dev", "5-vf-driver", "others")
VIRTUAL_METRICS = tuple(f"step.{name}_vs" for name in STEP_NAMES) + (
    "vfio.bytes_zeroed_per_lifecycle",
    "kvm.ept_faults_per_lifecycle",
    "fastiovd.background_zeroed_frac",
    "lock.devset_wait_vs_per_lifecycle",
)


def deadline_s():
    """The churn driver's startup watchdog: a startup longer than this
    is a deadline miss."""
    from repro.cluster.churn import ClusterChurnDriver

    return ClusterChurnDriver.STARTUP_DEADLINE_S


class Cell:
    """What one cell produced: golden-comparable summary plus extras."""

    def __init__(self, summary, events, virtual=None):
        #: Plain-JSON summary restricted to the golden fields.
        self.summary = summary
        self.events = events
        #: Virtual-time metrics (dict), when the cell could read them.
        self.virtual = virtual


# ----------------------------------------------------------------------
# host_storm
# ----------------------------------------------------------------------
class HostStorm:
    """Every Fig. 11 preset launches ``concurrency`` containers on a
    fresh host (200 in the benchmark; tests shrink it)."""

    name = "host_storm"
    warmup_sync = None

    def __init__(self, concurrency=200):
        self.concurrency = concurrency

    @property
    def lifecycles(self):
        from repro.core.presets import FIG11_PRESETS

        return len(FIG11_PRESETS) * self.concurrency

    def setup(self, seed):
        from repro.core import build_host
        from repro.core.presets import FIG11_PRESETS

        return [build_host(preset, seed=seed) for preset in FIG11_PRESETS]

    def run(self, seed, trace=None, **_cluster_only):
        """One sweep.  ``trace`` (a dict, as for the cluster cells) asks
        for the virtual-time ledger, which is read from the host objects
        here rather than from a flight recorder."""
        from repro.core.presets import FIG11_PRESETS
        from repro.experiments.runs import launch_preset

        summary = {}
        totals = _VirtualTotals() if trace is not None else None
        events = 0
        for preset in FIG11_PRESETS:
            host, result = launch_preset(preset, self.concurrency,
                                         seed=seed)
            summary[preset] = _storm_summary(host, result)
            if totals is not None:
                totals.add_host(host, result.records)
            events += host.sim.events_dispatched
        virtual = None
        if totals is not None:
            virtual = totals.metrics(self.lifecycles)
            virtual["fidelity_mae_pp"] = fidelity_mae_pp(summary)
        return Cell(summary, events, virtual)

    def problems(self, cell):
        found = []
        for preset, row in cell.summary.items():
            if row["count"] != self.concurrency:
                found.append(f"{preset}: {row['count']} of "
                             f"{self.concurrency} containers started")
            elif row["max"] > deadline_s():
                found.append(f"{preset}: deadline miss (max "
                             f"{row['max']!r} s)")
        return found

    def startup(self, cell):
        row = cell.summary["fastiov"]
        return row["p50"], row["p99"]


def _storm_summary(host, result):
    from repro.metrics.stats import Distribution

    done = [record.startup_time for record in result.records
            if record.failed is None and record.t_ready is not None]
    row = {"count": len(done)}
    if done:
        stats = Distribution(done).summary()
        row.update({key: stats[key]
                    for key in ("mean", "p50", "p99", "min", "max")})
    row["free_vfs_total"] = getattr(host.cni, "free_vf_count", None)
    return {key: row.get(key) for key in STORM_GOLDEN_FIELDS}


def fidelity_mae_pp(summary):
    """Mean absolute error, in percentage points, of the Fig. 11
    variant reductions vs vanilla against the paper's."""
    from repro.experiments.fig11 import PAPER_VARIANT_REDUCTIONS

    vanilla = summary["vanilla"]["mean"]
    errors = [
        abs((1.0 - summary[preset]["mean"] / vanilla) - paper)
        for preset, paper in PAPER_VARIANT_REDUCTIONS.items()
    ]
    return 100.0 * sum(errors) / len(errors)


class _VirtualTotals:
    """Sums of the virtual-time ledger over hosts and containers."""

    def __init__(self):
        self.steps = dict.fromkeys(STEP_NAMES[:-1], 0.0)
        self.startup = 0.0
        self.bytes_zeroed = 0
        self.ept_faults = 0
        self.background_pages = 0
        self.fault_pages = 0
        self.devset_wait = 0.0

    def add_host(self, host, records):
        for record in records:
            if record.t_ready is None:
                continue
            self.startup += record.startup_time
            for step in self.steps:
                self.steps[step] += record.step_time(step)
        self.bytes_zeroed += host.vfio.bytes_zeroed_total
        self.ept_faults += host.kvm.ept_faults_serviced
        if host.fastiovd is not None:
            self.background_pages += host.fastiovd.stats.background_zeroed_pages
            self.fault_pages += host.fastiovd.stats.fault_zeroed_pages
        # Devset locks report as "<devset>/<lock>"; the host-global
        # primitives (cgroup mutex, rtnl, PF mailbox) carry no slash.
        self.devset_wait += sum(
            stats.total_wait
            for key, stats in host.contention_report().items()
            if "/" in key
        )

    def metrics(self, lifecycles):
        means = {step: total / lifecycles
                 for step, total in self.steps.items()}
        metrics = {f"step.{step}_vs": value for step, value in means.items()}
        metrics["step.others_vs"] = (self.startup / lifecycles
                                     - sum(means.values()))
        zeroed = self.background_pages + self.fault_pages
        metrics.update({
            "vfio.bytes_zeroed_per_lifecycle": self.bytes_zeroed / lifecycles,
            "kvm.ept_faults_per_lifecycle": self.ept_faults / lifecycles,
            "fastiovd.background_zeroed_frac": (
                self.background_pages / zeroed if zeroed else 0.0),
            "lock.devset_wait_vs_per_lifecycle": self.devset_wait / lifecycles,
        })
        return metrics


# ----------------------------------------------------------------------
# cluster_churn and cluster_churn_sharded
# ----------------------------------------------------------------------
class ClusterChurn:
    """The spread-arrival churn cell (2000 lifecycles over 64 hosts in
    the benchmark; tests shrink it), single process."""

    name = "cluster_churn"
    shard_args = {"shards": 1}
    warmup_sync = None

    def __init__(self, concurrency=2000, hosts=64):
        self.lifecycles = concurrency
        self.hosts = hosts

    def setup(self, seed):
        from repro.cluster.cluster import Cluster

        return Cluster(CLUSTER_PRESET, hosts=self.hosts, seed=seed)

    def run(self, seed, sync=None, trace=None, engine_stats=None,
            telemetry=None):
        """One cell; ``sync`` overrides the sharded workload's protocol,
        the rest are ``run_cluster_cell``'s observation arguments."""
        from repro.cluster.churn import run_cluster_cell

        args = dict(self.shard_args)
        if sync is not None and args["shards"] > 1:
            args["sync"] = sync
        result = run_cluster_cell(
            CLUSTER_PRESET, self.lifecycles, hosts=self.hosts,
            seed=seed, rate_per_s=CLUSTER_RATE_PER_S, trace=trace,
            engine_stats=engine_stats, telemetry=telemetry, **args,
        )
        summary = {key: result[key] for key in CLUSTER_GOLDEN_FIELDS}
        virtual = None
        if trace is not None:
            virtual = bundle_metrics(trace, summary["mean"], self.lifecycles)
        return Cell(summary, result["events"], virtual)

    def problems(self, cell):
        row = cell.summary
        found = []
        if row["count"] != self.lifecycles:
            found.append(f"{row['count']} of {self.lifecycles} "
                         "lifecycles completed")
        if row["free_vfs_total"] != self.hosts * VFS_PER_HOST:
            found.append(f"free VFs {row['free_vfs_total']} after "
                         f"teardown, expected {self.hosts * VFS_PER_HOST}")
        if row["max"] > deadline_s():
            found.append(f"deadline miss (max {row['max']!r} s)")
        return found

    def startup(self, cell):
        return cell.summary["p50"], cell.summary["p99"]


class ClusterChurnSharded(ClusterChurn):
    """The same cell over 2 shards in 2 worker processes, ``sync="auto"``
    (hierarchical).  Its warm-up runs ``sync="conservative"``, which must
    produce the identical summary."""

    name = "cluster_churn_sharded"
    shard_args = {"shards": 2, "workers": 2, "sync": "auto"}
    warmup_sync = "conservative"

    def setup(self, seed):
        from repro.cluster.shard import ClusterShard
        from repro.cluster.sharded import partition_hosts

        return [
            ClusterShard(CLUSTER_PRESET, start, stop, seed=seed)
            for start, stop in partition_hosts(self.hosts, 2)
        ]


def bundle_metrics(bundle, mean_startup, lifecycles):
    """Virtual-time metrics from a flight-recorder bundle (``trace=``).

    Step times come from the containers' span tracks.  EPT faults and
    fastiovd page counts are the last samples of the hosts' pull
    probes, which sample at step ends — so they read the counters as of
    each host's last startup step, not at the end of the run.
    """
    from repro.metrics.timeline import PAPER_STEPS

    steps = dict.fromkeys(PAPER_STEPS, 0.0)
    last = {}
    for track, events in bundle["tracks"].items():
        # Steps run on the container's track, except work a container
        # spawned into its own process (the asynchronous VF init).
        stack = []
        for event in events:
            if event[0] == "B":
                stack.append((event[2], event[1]))
            elif event[0] == "E":
                name, began = stack.pop()
                if name in steps:
                    steps[name] += event[1] - began
            elif event[0] == "C":
                last[(track, event[2])] = event[3]

    def probe_total(suffix, series):
        return sum(value for (track, name), value in last.items()
                   if track.endswith(suffix) and name == series)

    counters = bundle["metrics"]["counters"]
    bytes_zeroed = sum(value for key, value in counters.items()
                       if key.endswith("/vfio/bytes_zeroed_total"))
    # lock/<host>/<devset>/<lock>/total_wait: devset locks have one more
    # path component than the host-global lock/<host>/<name>/total_wait.
    devset_wait = sum(
        value for key, value in counters.items()
        if key.startswith("lock/") and key.endswith("/total_wait")
        and key.count("/") == 4
    )
    background = probe_total("/fastiovd", "background_zeroed_pages")
    fault = probe_total("/fastiovd", "fault_zeroed_pages")
    means = {name: total / lifecycles for name, total in steps.items()}
    metrics = {f"step.{name}_vs": value for name, value in means.items()}
    metrics["step.others_vs"] = mean_startup - sum(means.values())
    metrics.update({
        "vfio.bytes_zeroed_per_lifecycle": bytes_zeroed / lifecycles,
        "kvm.ept_faults_per_lifecycle":
            probe_total("/kvm", "ept_faults") / lifecycles,
        "fastiovd.background_zeroed_frac": (
            background / (background + fault) if background + fault
            else 0.0),
        "lock.devset_wait_vs_per_lifecycle": devset_wait / lifecycles,
    })
    return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (HostStorm(), ClusterChurn(), ClusterChurnSharded())
}


# ----------------------------------------------------------------------
# goldens
# ----------------------------------------------------------------------
def golden_mismatches(expected, actual, path=""):
    """Every field where ``actual`` differs from ``expected``, exactly
    (floats compare bit for bit; JSON keeps their full repr)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                found.append(f"{path}{key}: missing on one side")
            else:
                found.extend(golden_mismatches(expected[key], actual[key],
                                               f"{path}{key}."))
        return found
    if expected == actual:
        return []
    return [f"{path.rstrip('.')}: {actual!r} != golden {expected!r}"]
