"""Extension experiment: cluster-scale startup storms.

The paper stops at 200 concurrent startups on one server; production
serverless platforms (the Quark regime) see bursts orders of magnitude
larger, spread across a fleet (the LiveStack regime of cluster-scale
full-stack simulation).  This experiment sweeps burst size up to 10,000
concurrent secure-container startups over a simulated cluster and plots
the startup-latency scaling curve for the vanilla baseline vs FastIOV.

Two claims are exercised:

* FastIOV's per-host startup reduction persists at cluster scale — the
  bottlenecks it removes are per-host, so spreading the burst does not
  wash the gain out.
* The simulator itself sustains the workload: a 10k-startup churn run
  (start + teardown, VFs recycled) is an event stream of tens of
  millions of events.  With ``--shards K`` the cluster is partitioned
  over K per-shard simulators in their own worker processes
  (:mod:`repro.cluster.sharded`); the placement protocol keeps the
  result data byte-identical to the single-process run, so sharding is
  a pure wall-clock knob here.

Knobs (``repro run scale --hosts N --placement P --shards K --rate R``
or :meth:`Experiment.configure`): ``hosts`` (default 8 quick / 48
full), ``placement`` ("least-loaded" default, or "round-robin"),
``shards`` (default 1 = single-process; "auto" splits only where each
shard keeps enough hosts), ``rate`` (arrival rate per second; 0 = the
paper's simultaneous burst — positive rates spread arrivals and
exercise the sharded runner's epoch protocol).
"""

from repro.experiments.base import Comparison, Experiment, pct, reduction
from repro.experiments.parallel import Cell
from repro.metrics.reporting import format_table
from repro.spec import PAPER_TESTBED

PRESETS = ("vanilla", "fastiov")


def host_peak_spread(summary):
    """Per-host peak load as a compact ``min..max`` skew indicator."""
    peaks = summary["peak_load_per_host"]
    low, high = min(peaks), max(peaks)
    return f"{low}" if low == high else f"{low}..{high}"


class Scale(Experiment):
    """Startup latency vs burst size across a simulated cluster."""

    experiment_id = "scale"
    title = "Cluster-scale startup storm: latency vs concurrency (extension)"
    paper_reference = (
        "Extension (no paper figure): the paper's Fig. 13a concurrency "
        "sweep stops at 200 on one host; this extends it to 10,000 "
        "startups across a cluster.  Expectations: FastIOV's reduction "
        "persists at every scale, per-host behaviour matches the "
        "single-host experiments at the same per-host load, VF pools "
        "fully recycle."
    )

    def _hosts(self, quick):
        return self.option("hosts") or (8 if quick else 48)

    def _placement(self):
        return self.option("placement", "least-loaded")

    def _rate(self):
        return float(self.option("rate", 0.0) or 0.0)

    def _shards(self, hosts):
        # Resolved here (not just in run_cluster_cell) so the resolved
        # count lands in the Cell — and therefore in cache keys and the
        # report header — instead of the literal "auto".
        from repro.cluster.sharded import resolve_shards

        return resolve_shards(self.option("shards", 1), hosts)

    @staticmethod
    def _sweep(quick):
        if quick:
            return (100, 300)
        return (500, 1000, 2000, 5000, 10000)

    def _cells(self, quick, seed):
        hosts = self._hosts(quick)
        placement = self._placement()
        shards = self._shards(hosts)
        return [
            Cell(preset, concurrency, None, seed, kind="cluster",
                 hosts=hosts, placement=placement, shards=shards,
                 rate_per_s=self._rate())
            for preset in PRESETS
            for concurrency in self._sweep(quick)
        ]

    def _execute(self, quick, seed):
        hosts = self._hosts(quick)
        placement = self._placement()
        shards = self._shards(hosts)
        sweep = self._sweep(quick)
        series = {preset: [] for preset in PRESETS}
        for preset in PRESETS:
            for concurrency in sweep:
                summary = self._cell_summary(
                    Cell(preset, concurrency, None, seed,
                         kind="cluster", hosts=hosts,
                         placement=placement, shards=shards,
                         rate_per_s=self._rate())
                )
                series[preset].append(
                    {"concurrency": concurrency, **summary}
                )

        rows = []
        for index, concurrency in enumerate(sweep):
            vanilla = series["vanilla"][index]
            fastiov = series["fastiov"][index]
            rows.append((
                concurrency,
                f"{concurrency / hosts:.0f}",
                host_peak_spread(fastiov),
                f"{vanilla['mean']:.3f}",
                f"{vanilla['p99']:.3f}",
                f"{fastiov['mean']:.3f}",
                f"{fastiov['p99']:.3f}",
                pct(reduction(vanilla["mean"], fastiov["mean"])),
            ))
        sharding = f", {shards} shards" if shards > 1 else ""
        text = format_table(
            ["burst", "per-host", "host peak", "vanilla mean (s)",
             "vanilla p99 (s)", "fastiov mean (s)", "fastiov p99 (s)",
             "reduction"],
            rows,
            title=(f"Scale — startup latency vs burst size "
                   f"({hosts} hosts, {placement} placement{sharding})"),
        )

        top = sweep[-1]
        van_top = series["vanilla"][-1]
        fio_top = series["fastiov"][-1]
        vf_pool = hosts * PAPER_TESTBED.nic_max_vfs
        reductions = [
            reduction(series["vanilla"][i]["mean"], series["fastiov"][i]["mean"])
            for i in range(len(sweep))
        ]
        top_peaks = fio_top["peak_load_per_host"]
        comparisons = [
            Comparison(
                f"{top}-startup burst feasibility",
                "completes (beyond any single 256-VF host)",
                f"completed; peak in-flight {fio_top['peak_in_flight']}",
            ),
            Comparison(
                f"startup reduction at burst {top}",
                "expected: persists at cluster scale",
                pct(reductions[-1]),
            ),
            Comparison(
                "reduction stability across the sweep",
                "expected: roughly flat",
                f"{pct(min(reductions))} .. {pct(max(reductions))}",
            ),
            Comparison(
                f"placement skew at burst {top} ({placement})",
                "expected: peak load within 1 of even",
                f"per-host peak {min(top_peaks)}..{max(top_peaks)} "
                f"(even share {top / hosts:.1f})",
            ),
            Comparison(
                "VF pools fully recycled after churn",
                f"{vf_pool} free",
                f"vanilla={van_top['free_vfs_total']}, "
                f"fastiov={fio_top['free_vfs_total']}",
            ),
            Comparison(
                f"p99 growth vanilla, burst {sweep[0]} -> {top}",
                "expected: ~linear in per-host load",
                f"{van_top['p99'] / series['vanilla'][0]['p99']:.2f}x "
                f"for {top / sweep[0]:.0f}x burst",
            ),
        ]
        data = {
            "hosts": hosts,
            "placement": placement,
            "sweep": list(sweep),
            "series": series,
        }
        return data, text, comparisons
