"""Tests of the cost-ledger harness (run: ``pytest benchmarks/ledger -q``)."""

import json
import math
import pathlib
import re

import pytest

import compare
import layers
import run
import workloads

SRC_REPRO = run.SRC / "repro"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(SRC_REPRO.rglob("*.py"))
    assert modules
    for path in modules:
        relpath = path.relative_to(SRC_REPRO).as_posix()
        assert len(layers.layers_matching(relpath)) == 1, relpath


def _profile_code(root, source, filename):
    """Profile ``source`` compiled as if it lived at ``root/filename``."""
    import cProfile

    namespace = {}
    exec(compile(source, str(root / filename), "exec"), namespace)
    profiler = cProfile.Profile()
    profiler.runcall(namespace["work"])
    profiler.create_stats()
    return profiler.stats


def test_builtins_and_stdlib_are_charged_to_the_calling_layer(tmp_path):
    # sorted() is a builtin and statistics.median a stdlib function that
    # calls it: both must land on the layer of the module calling them.
    source = (
        "import statistics\n"
        "def work():\n"
        "    data = list(range(2000, 0, -1))\n"
        "    for _ in range(300):\n"
        "        sorted(data)\n"
        "        statistics.median(data)\n"
    )
    stats = _profile_code(tmp_path, source, "hw/memory.py")
    self_s, calls = layers.fold(stats, tmp_path)
    total = sum(self_s.values())
    assert self_s["hw.memory"] / total > 0.9
    # 300 sorted + 300 median + the sort inside each median, at least.
    assert calls["hw.memory"] >= 900
    assert calls["other"] < calls["hw.memory"] / 10


def test_fold_splits_a_builtin_by_caller_edge_time():
    root = pathlib.PurePath("/x/repro")
    builtin = ("~", 0, "<built-in method builtins.len>")
    sim = (str(root / "sim/core.py"), 1, "run")
    memory = (str(root / "hw/memory.py"), 1, "zero")
    stats = {
        sim: (1, 1, 0.5, 0.8, {}),
        memory: (1, 1, 0.2, 0.3, {}),
        builtin: (4, 4, 0.4, 0.4, {sim: (3, 3, 0.3, 0.3),
                                   memory: (1, 1, 0.1, 0.1)}),
    }
    self_s, calls = layers.fold(stats, root)
    assert self_s["sim.core"] == pytest.approx(0.8)
    assert self_s["hw.memory"] == pytest.approx(0.3)
    assert calls["sim.core"] == pytest.approx(4)
    assert calls["hw.memory"] == pytest.approx(2)
    assert sum(self_s.values()) == pytest.approx(1.1)


def test_metric_names_are_well_formed_and_declared():
    benchmark = run.load_benchmark()
    declared = run.declared_metrics(benchmark)
    for name in declared:
        assert NAME.fullmatch(name), name
    per_layer = [entry["name"] for entry in benchmark["per_layer"]]
    assert per_layer == run.per_layer_names()
    for entry in benchmark["end_to_end"]:
        assert entry["unit"]
        assert entry["better"] in ("higher", "lower")
        assert 0 < entry["bound"] <= 0.25
    assert [w["name"] for w in benchmark["workloads"]] == list(
        workloads.WORKLOADS)
    assert benchmark["paths"] == ["benchmarks/ledger"]


class _StubWorkload:
    """Returns a fixed summary; stands in for a real cell."""

    name = "stub"
    lifecycles = 7

    def __init__(self, summary):
        self.summary = summary

    def run(self, seed, **_observe):
        return workloads.Cell(dict(self.summary), 1)

    def problems(self, cell):
        return []


def test_one_ulp_in_p99_fails_every_lifecycle_of_the_cell():
    golden = run.load_golden()["cluster_churn"]["0"]
    matching = run.Ledger(_StubWorkload(golden), 0, golden)
    matching.run("timed")
    assert matching.failed == 0 and not matching.problems
    perturbed = dict(golden, p99=math.nextafter(golden["p99"], math.inf))
    ledger = run.Ledger(_StubWorkload(perturbed), 0, golden)
    ledger.run("timed")
    assert ledger.attempted == ledger.failed == 7
    assert "p99" in ledger.problems[0]


def test_verdicts_follow_the_pairing_rule():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [x + 20 for x in parent], "higher",
                           0.1)[0] == "improved"
    assert compare.verdict(parent, list(parent), "higher",
                           0.1)[0] == "unchanged"
    assert compare.verdict(parent, [x * 0.8 for x in parent], "higher",
                           0.1)[0] == "regressed"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, [x * 1.01 for x in noisy], "higher",
                           0.1)[0] == "unresolved"
    seeds = [1.0 + i / 10 for i in range(10)]
    assert compare.verdict(seeds, list(seeds), "lower",
                           0.0)[0] == "unchanged"
    assert compare.verdict(seeds, [x + 1e-9 for x in seeds], "lower",
                           0.0)[0] == "regressed"


TINY = {
    "host_storm": workloads.HostStorm(concurrency=3),
    "cluster_churn": workloads.ClusterChurn(concurrency=24, hosts=4),
    "cluster_churn_sharded": workloads.ClusterChurnSharded(concurrency=24,
                                                           hosts=4),
}


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_smoke(name):
    workload = TINY[name]
    cell = workload.run(0)
    assert not workload.problems(cell)
    assert cell.events > 0
    again = workload.run(0, sync=workload.warmup_sync)
    assert again.summary == cell.summary
    assert workload.setup(0)


def test_host_times_are_corrected_for_machine_drift():
    workload = TINY["cluster_churn"]
    nominal = run.REFERENCE_NOMINAL_S
    quiet = run.end_to_end(workload, [1.0], [nominal], [0.1], nominal,
                           [None])
    assert quiet["lifecycles_per_s"]["value"] == workload.lifecycles
    assert quiet["setup_s"]["value"] == 0.1
    # The reference kernel ran 4x slower and the cells 2x slower: the
    # drift exponent of 1/2 takes the whole slowdown back out.
    slow = run.end_to_end(workload, [2.0], [4 * nominal], [0.2],
                          4 * nominal, [None])
    assert run.DRIFT_EXPONENT == 0.5
    assert slow["lifecycles_per_s"]["value"] == pytest.approx(
        workload.lifecycles)
    assert slow["setup_s"]["value"] == pytest.approx(0.1)


def test_timed_run_reports_every_end_to_end_metric():
    result, detail = run.measure(TINY["cluster_churn"], 0, 0.1, False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * TINY["cluster_churn"].lifecycles
    declared = {entry["name"]: entry
                for entry in run.load_benchmark()["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]["unit"]
        assert entry["value"] > 0
    json.dumps(result)
    assert detail["metrics"]["setup_s"]["n"] == run.SETUP_PROBES


def test_traced_sharded_run_folds_workers_into_layers():
    result, _detail = run.measure(TINY["cluster_churn_sharded"], 0, 0.1,
                                  True)
    assert result["correct"]
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert list(metrics) == run.per_layer_names()
    self_frac = sum(value for key, value in metrics.items()
                    if key.endswith(".self_frac"))
    assert self_frac == pytest.approx(1.0, abs=0.01)
    # Worker profiles arrived: the model layers ran only in the workers.
    assert metrics["sim.core.calls_per_lifecycle"] > 0
    assert metrics["sync.epochs"] > 0
    assert metrics["step.0-cgroup_vs"] > 0
    assert not list(run.PROFILE_DIR.glob("*"))
