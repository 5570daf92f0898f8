"""Determinism of experiment results across runs, workers, and cache.

The simulator's jitter streams are CRC-forked from the seed, so a
launch cell's numbers must not depend on *where* it ran: two in-process
runs, a multiprocessing worker, and a cache hit all have to produce
byte-identical ``ExperimentResult.data``.
"""

import json

import pytest

from repro.experiments import get_experiment
from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.parallel import Cell, CellRunner, run_cell


def _data_bytes(result):
    return json.dumps(result.data, sort_keys=True).encode()


def test_same_seed_same_data_in_process():
    first = get_experiment("fig1").run(quick=True, seed=7, use_cache=False)
    second = get_experiment("fig1").run(quick=True, seed=7, use_cache=False)
    assert _data_bytes(first) == _data_bytes(second)


def test_different_seed_changes_data():
    base = get_experiment("fig1").run(quick=True, seed=7, use_cache=False)
    other = get_experiment("fig1").run(quick=True, seed=8, use_cache=False)
    assert _data_bytes(base) != _data_bytes(other)


def test_jobs_1_and_jobs_4_are_byte_identical():
    serial = get_experiment("fig1").run(
        quick=True, seed=3, jobs=1, use_cache=False
    )
    parallel = get_experiment("fig1").run(
        quick=True, seed=3, jobs=4, use_cache=False
    )
    assert _data_bytes(serial) == _data_bytes(parallel)


def test_cache_hit_is_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cell = Cell("vanilla", 10, None, 5)
    fresh = run_cell(cell)

    runner = CellRunner(jobs=1, cache=cache)
    runner.prefetch([cell])
    assert runner.cache_misses == 1

    rerun = CellRunner(jobs=1, cache=cache)
    rerun.prefetch([cell])
    assert rerun.cache_hits == 1 and rerun.cache_misses == 0
    cached = rerun.summary(cell.preset, cell.concurrency, seed=cell.seed)
    assert json.dumps(cached, sort_keys=True) == json.dumps(
        fresh, sort_keys=True
    )


def test_cache_key_depends_on_cell_parameters():
    from repro.spec import PAPER_TESTBED

    base = cell_key(Cell("vanilla", 10, None, 0).as_dict(), PAPER_TESTBED)
    assert base != cell_key(Cell("fastiov", 10, None, 0).as_dict(), PAPER_TESTBED)
    assert base != cell_key(Cell("vanilla", 20, None, 0).as_dict(), PAPER_TESTBED)
    assert base != cell_key(Cell("vanilla", 10, None, 1).as_dict(), PAPER_TESTBED)
    assert base == cell_key(Cell("vanilla", 10, None, 0).as_dict(), PAPER_TESTBED)


def test_scale_jobs_1_and_jobs_2_are_byte_identical():
    """Cluster cells must not depend on which worker ran them."""
    serial = get_experiment("scale").run(
        quick=True, seed=4, jobs=1, use_cache=False
    )
    parallel = get_experiment("scale").run(
        quick=True, seed=4, jobs=2, use_cache=False
    )
    assert _data_bytes(serial) == _data_bytes(parallel)


def test_cluster_cell_cache_hit_is_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cell = Cell("fastiov", 60, None, 5, kind="cluster", hosts=3)
    fresh = run_cell(cell)

    runner = CellRunner(jobs=1, cache=cache)
    runner.prefetch([cell])
    assert runner.cache_misses == 1

    rerun = CellRunner(jobs=1, cache=cache)
    rerun.prefetch([cell])
    assert rerun.cache_hits == 1 and rerun.cache_misses == 0
    cached = rerun.cell_summary(cell)
    assert json.dumps(cached, sort_keys=True) == json.dumps(
        fresh, sort_keys=True
    )


def test_cluster_cache_key_depends_on_kind_and_hosts():
    from repro.spec import PAPER_TESTBED

    launch = cell_key(Cell("vanilla", 10, None, 0).as_dict(), PAPER_TESTBED)
    cluster = cell_key(
        Cell("vanilla", 10, None, 0, kind="cluster", hosts=4).as_dict(),
        PAPER_TESTBED,
    )
    more_hosts = cell_key(
        Cell("vanilla", 10, None, 0, kind="cluster", hosts=8).as_dict(),
        PAPER_TESTBED,
    )
    assert len({launch, cluster, more_hosts}) == 3


def test_cache_key_covers_every_cell_field():
    """Regression guard: no Cell field may be silently dropped from the
    cache key.  A collision across different ``hosts`` (or any other
    semantic field) would serve one cluster's cached summary for
    another's — perturb each field in turn and demand a fresh key."""
    import dataclasses

    from repro.spec import PAPER_TESTBED

    base_cell = Cell("vanilla", 10, None, 0, kind="cluster", hosts=4)
    base = cell_key(base_cell.as_dict(), PAPER_TESTBED)
    perturbed = {
        "preset": "fastiov",
        "concurrency": 11,
        "memory_bytes": 1 << 20,
        "seed": 1,
        "kind": "launch",
        "hosts": 5,
        "placement": "round-robin",
        "shards": 2,
        "rate_per_s": 15.0,
        "trace": True,
    }
    # Every declared field must appear here — adding a Cell field
    # without extending this test (and hence the key) fails loudly.
    fields = {f.name for f in dataclasses.fields(Cell)}
    assert fields == set(perturbed), (
        "Cell fields changed; update the perturbation map"
    )
    for name, value in perturbed.items():
        changed = dataclasses.replace(base_cell, **{name: value})
        assert cell_key(changed.as_dict(), PAPER_TESTBED) != base, (
            f"cache key ignores Cell.{name}"
        )


def test_cache_key_hosts_collision_impossible_across_range():
    from repro.spec import PAPER_TESTBED

    keys = {
        cell_key(
            Cell("vanilla", 10, None, 0, kind="cluster", hosts=h).as_dict(),
            PAPER_TESTBED,
        )
        for h in range(1, 65)
    }
    assert len(keys) == 64


def test_corrupt_cache_entry_falls_back_to_fresh_run(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cell = Cell("vanilla", 10, None, 5)
    runner = CellRunner(jobs=1, cache=cache)
    runner.prefetch([cell])
    [path] = list(cache.directory.glob("*.json"))
    path.write_text("{not json")

    rerun = CellRunner(jobs=1, cache=cache)
    rerun.prefetch([cell])
    assert rerun.cache_misses == 1
    fresh = run_cell(cell)
    got = rerun.summary(cell.preset, cell.concurrency, seed=cell.seed)
    assert got == pytest.approx(fresh)
