"""Tests for the sharded cluster runner (repro.cluster.sharded).

The contract under test: splitting a cluster over K shard simulators
(optionally K worker processes) is a wall-clock optimization only.
Round-robin and burst placements must come back *byte-identical* to the
single-process run for every K and worker count; spread-arrival
least-loaded follows the deterministic lockstep epoch protocol, which
is invariant to K and workers (though intentionally a conservative
approximation of the single-process schedule) and pinned to literal
bytes on a sparse cell.
"""

import json

import pytest

from repro.cluster import (
    cluster_arrivals,
    min_startup_lookahead,
    partition_hosts,
    peak_concurrency,
    run_cluster_cell,
    run_sharded_cluster,
)
from repro.core import PRESETS
from repro.spec import PAPER_TESTBED


def _bytes(summary):
    return json.dumps(summary, sort_keys=True)


def _single(preset, concurrency, hosts, seed=0, **kw):
    return run_cluster_cell(preset, concurrency, hosts=hosts, seed=seed,
                            shards=1, **kw)


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
def test_partition_hosts_is_contiguous_and_balanced():
    assert partition_hosts(6, 3) == [(0, 2), (2, 4), (4, 6)]
    assert partition_hosts(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert partition_hosts(5, 1) == [(0, 5)]
    assert partition_hosts(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    ranges = partition_hosts(48, 8)
    assert ranges[0][0] == 0 and ranges[-1][1] == 48
    sizes = [stop - start for start, stop in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    # Regression: 50 hosts over 8 shards must spread the remainder one
    # host at a time across the leading shards — never pile the whole
    # remainder onto one shard (a skew of up to shards-1 hosts).
    ranges = partition_hosts(50, 8)
    sizes = [stop - start for start, stop in ranges]
    assert sizes == [7, 7, 6, 6, 6, 6, 6, 6]
    assert ranges[0][0] == 0 and ranges[-1][1] == 50
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    # Property: the remainder never skews any split by more than one.
    for hosts in range(1, 97):
        for shards in range(1, hosts + 1):
            sizes = [stop - start
                     for start, stop in partition_hosts(hosts, shards)]
            assert sum(sizes) == hosts
            assert max(sizes) - min(sizes) <= 1, (hosts, shards)


def test_partition_hosts_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        partition_hosts(4, 0)
    with pytest.raises(ValueError):
        partition_hosts(4, 5)


def test_peak_concurrency_counts_overlap_with_arrivals_first_at_ties():
    assert peak_concurrency([]) == 0
    assert peak_concurrency([(0.0, 1.0), (2.0, 3.0)]) == 1
    assert peak_concurrency([(0.0, 2.0), (1.0, 3.0), (1.5, 4.0)]) == 3
    # An arrival at exactly a completion time counts as overlapping,
    # matching the in-simulator semantics (same-timestamp arrivals are
    # dispatched in spawn order, before the completion's bookkeeping).
    assert peak_concurrency([(0.0, 1.0), (1.0, 2.0)]) == 2


def test_lookahead_is_positive_for_every_preset():
    for name in PRESETS:
        spec = PAPER_TESTBED
        assert min_startup_lookahead(spec) > 0
        assert name  # every preset shares the testbed spec


def test_run_until_steps_clock_without_skipping_events():
    from repro.sim.core import Simulator, Timeout

    sim = Simulator()
    fired = []

    def proc():
        yield Timeout(1.0)
        fired.append(sim.now)
        yield Timeout(1.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run_until(0.5)
    assert sim.now == 0.5 and fired == []
    sim.run_until(1.0)
    assert sim.now == 1.0 and fired == [1.0]
    with pytest.raises(ValueError):
        sim.run_until(0.25)
    sim.run_until(5.0)
    assert sim.now == 5.0 and fired == [1.0, 2.0]


# ----------------------------------------------------------------------
# Byte-identity: burst and round-robin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4, 8])
def test_burst_least_loaded_is_byte_identical_across_shards(shards):
    base = _bytes(_single("fastiov", 80, hosts=8, seed=7))
    sharded = run_cluster_cell(
        "fastiov", 80, hosts=8, seed=7, shards=shards
    )
    assert _bytes(sharded) == base


@pytest.mark.parametrize("preset", ["vanilla", "fastiov"])
def test_round_robin_is_byte_identical_across_shards(preset):
    base = _bytes(_single(preset, 60, hosts=6, seed=3,
                          placement="round-robin"))
    for shards in (2, 3, 6):
        sharded = run_cluster_cell(
            preset, 60, hosts=6, seed=3, placement="round-robin",
            shards=shards,
        )
        assert _bytes(sharded) == base, f"{preset} diverged at K={shards}"


def test_worker_count_never_changes_results():
    """Worker processes are transport, not semantics: 0 workers (all
    shards in-process) and one process per shard agree bytewise."""
    in_process = run_sharded_cluster(
        "fastiov", 48, hosts=6, seed=5, shards=3, workers=0
    )
    fanned_out = run_sharded_cluster(
        "fastiov", 48, hosts=6, seed=5, shards=3, workers=None
    )
    assert _bytes(in_process) == _bytes(fanned_out)


def test_shards_clamp_to_host_count():
    base = _bytes(_single("fastiov", 20, hosts=2, seed=1))
    sharded = run_cluster_cell("fastiov", 20, hosts=2, seed=1, shards=16)
    assert _bytes(sharded) == base


# ----------------------------------------------------------------------
# shards="auto": the hosts-per-shard threshold
# ----------------------------------------------------------------------
def test_resolve_shards_auto_picks_one_on_small_cells(capsys):
    from repro.cluster.sharded import MIN_HOSTS_PER_SHARD, resolve_shards

    # The quick scale cell (8 hosts): any split leaves fewer than the
    # threshold per shard, so auto must stay in-process — the measured
    # regression this guards against was 3.7 s sharded vs 2.3 s single.
    assert resolve_shards("auto", 8) == 1
    note = capsys.readouterr().err
    assert "single-shard" in note
    # Small-cell fallback at every size below one full shard pair.
    for hosts in (1, 2, MIN_HOSTS_PER_SHARD, 2 * MIN_HOSTS_PER_SHARD - 1):
        assert resolve_shards("auto", hosts) == 1


def test_resolve_shards_auto_respects_threshold_on_big_cells():
    import os

    from repro.cluster.sharded import MIN_HOSTS_PER_SHARD, resolve_shards

    resolved = resolve_shards("auto", 48)
    assert 1 <= resolved <= 48 // MIN_HOSTS_PER_SHARD
    assert resolved <= (os.cpu_count() or 1)


def test_resolve_shards_honors_explicit_counts():
    from repro.cluster.sharded import resolve_shards

    # An explicit count is a user decision: never second-guessed, only
    # clamped to the host count (and None means single-process).
    assert resolve_shards(4, 8) == 4
    assert resolve_shards(16, 8) == 8
    assert resolve_shards(1, 48) == 1
    assert resolve_shards(None, 48) == 1


def test_scale_experiment_resolves_auto_to_single_shard_on_quick_cells():
    from repro.experiments import get_experiment

    experiment = get_experiment("scale").configure(shards="auto")
    cells = experiment._cells(quick=True, seed=0)
    assert cells
    assert all(cell.shards == 1 for cell in cells)


def test_cli_shards_arg_accepts_auto_and_rejects_junk():
    import pytest as _pytest

    from repro.__main__ import shard_count

    assert shard_count("auto") == "auto"
    assert shard_count("4") == 4
    with _pytest.raises(Exception):
        shard_count("0")
    with _pytest.raises(Exception):
        shard_count("many")


# ----------------------------------------------------------------------
# Epoch-barrier protocol: spread arrivals
# ----------------------------------------------------------------------
def test_poisson_least_loaded_is_invariant_to_shards_and_workers():
    """The epoch-barrier schedule depends only on (seed, hosts), never
    on how hosts are grouped into shards or shards into processes."""
    reference = None
    for shards in (2, 3, 6):
        for workers in (0, None):
            summary = run_sharded_cluster(
                "fastiov", 60, hosts=6, seed=9, shards=shards,
                workers=workers, arrivals=cluster_arrivals(9, 15.0),
            )
            if reference is None:
                reference = _bytes(summary)
            else:
                assert _bytes(summary) == reference, (
                    f"diverged at K={shards} workers={workers}"
                )


def test_poisson_round_robin_matches_single_process_exactly():
    """Round-robin ignores load, so even spread arrivals are placed
    identically with zero synchronization."""
    base = _bytes(_single("vanilla", 40, hosts=4, seed=6,
                          placement="round-robin", rate_per_s=20.0))
    sharded = run_cluster_cell(
        "vanilla", 40, hosts=4, seed=6, placement="round-robin",
        shards=4, rate_per_s=20.0,
    )
    assert _bytes(sharded) == base


def test_poisson_least_loaded_approximation_stays_close():
    """The conservative epoch schedule may differ from single-process
    least-loaded, but the startup distribution must stay in family."""
    single = _single("fastiov", 60, hosts=6, seed=9, rate_per_s=15.0)
    sharded = run_cluster_cell(
        "fastiov", 60, hosts=6, seed=9, rate_per_s=15.0, shards=3
    )
    assert sharded["count"] == single["count"]
    assert sharded["free_vfs_total"] == single["free_vfs_total"]
    assert sharded["mean"] == pytest.approx(single["mean"], rel=0.05)
    assert sharded["p99"] == pytest.approx(single["p99"], rel=0.10)


# ----------------------------------------------------------------------
# Cluster edge cases (single-process and sharded)
# ----------------------------------------------------------------------
def test_burst_smaller_than_host_count():
    """3 invocations over 8 hosts: only 3 hosts ever see load, peaks
    are 0/1, and sharding agrees bytewise."""
    single = _single("fastiov", 3, hosts=8, seed=2)
    assert single["count"] == 3
    peaks = single["peak_load_per_host"]
    assert sorted(peaks, reverse=True) == [1, 1, 1, 0, 0, 0, 0, 0]
    sharded = run_cluster_cell("fastiov", 3, hosts=8, seed=2, shards=4)
    assert _bytes(sharded) == _bytes(single)


def test_single_host_cluster_matches_itself_sharded():
    """hosts=1 is the degenerate cluster: everything lands on host0."""
    single = _single("fastiov", 30, hosts=1, seed=4)
    assert single["peak_load_per_host"] == [30]
    assert single["free_vfs_total"] == PAPER_TESTBED.nic_max_vfs
    sharded = run_cluster_cell("fastiov", 30, hosts=1, seed=4, shards=8)
    assert _bytes(sharded) == _bytes(single)


def test_one_host_least_loaded_equals_round_robin():
    """With one host there is nothing to choose: both policies must
    produce byte-identical results."""
    least = _single("vanilla", 25, hosts=1, seed=8)
    robin = _single("vanilla", 25, hosts=1, seed=8,
                    placement="round-robin")
    assert _bytes(least) == _bytes(robin)


def test_vf_recycling_when_teardown_races_last_placement():
    """Spread arrivals longer than a lifecycle: early containers tear
    down (recycling VFs) while later ones are still being placed.  The
    pool must end full, and the sharded run must agree on it."""
    single = _single("fastiov", 40, hosts=2, seed=13, rate_per_s=10.0)
    # The race actually happened: peak concurrency stayed below the
    # burst size because teardowns freed slots before the last arrival.
    assert single["peak_in_flight"] < 40
    assert single["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs
    sharded = run_cluster_cell(
        "fastiov", 40, hosts=2, seed=13, rate_per_s=10.0, shards=2
    )
    assert sharded["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs
    assert sharded["count"] == 40


def test_shard_worker_failure_surfaces_as_runtime_error():
    with pytest.raises((ValueError, RuntimeError)):
        run_sharded_cluster("no-such-preset", 10, hosts=2, shards=2)


# ----------------------------------------------------------------------
# Legacy sync names: accepted by run_cluster_cell, select nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4, 8])
def test_optimistic_burst_is_byte_identical_across_shards(shards):
    """The old ``sync="optimistic"`` name still runs the one lockstep
    protocol: a burst cell hits the single-process bytes exactly."""
    base = _bytes(_single("fastiov", 80, hosts=8, seed=7))
    sharded = run_cluster_cell(
        "fastiov", 80, hosts=8, seed=7, shards=shards, sync="optimistic"
    )
    assert _bytes(sharded) == base


def test_optimistic_spread_matches_conservative_exactly():
    """Every accepted sync name commits the same timeline, for every
    shard count and transport."""
    def cell(sync, shards, workers):
        return _bytes(run_cluster_cell(
            "fastiov", 60, hosts=6, seed=9, shards=shards, workers=workers,
            rate_per_s=15.0, sync=sync,
        ))

    reference = cell("conservative", 2, 0)
    for shards in (2, 3, 6):
        for workers in (0, None):
            assert cell("optimistic", shards, workers) == reference, (
                f"diverged at K={shards} workers={workers}"
            )


def test_run_cluster_cell_sync_keyword_selects_nothing():
    """``sync`` accepts None and the four old names, rejects the rest."""
    reference = _bytes(run_cluster_cell(
        "fastiov", 20, hosts=4, seed=2, shards=2, workers=0,
        rate_per_s=12.0,
    ))
    for sync in ("conservative", "optimistic", "hierarchical", "auto"):
        assert _bytes(run_cluster_cell(
            "fastiov", 20, hosts=4, seed=2, shards=2, workers=0,
            rate_per_s=12.0, sync=sync,
        )) == reference, sync
    with pytest.raises(ValueError):
        run_cluster_cell("fastiov", 20, hosts=4, seed=2, shards=2,
                         sync="yolo")


def _arrival_epochs(seed, rate, concurrency):
    """The number of lookahead epochs that contain at least one arrival."""
    lookahead = min_startup_lookahead()
    offsets = cluster_arrivals(seed, rate).offsets(concurrency)
    return len({int(offset // lookahead) for offset in offsets})


def test_engine_stats_exports_sync_counters():
    stats = {}
    run_cluster_cell(
        "fastiov", 30, hosts=4, seed=2, shards=2, rate_per_s=12.0,
        workers=0, engine_stats=stats,
    )
    assert stats["shards"] == 2
    for key in ("sync_epochs", "sync_barrier_wait_s",
                "sync_coordinator_wait_s", "sync_coordinator_place_s",
                "sync_coordinator_reduce_s", "sync_placement_heap_ops"):
        assert key in stats, f"missing {key}"
    # One step per epoch that has arrivals: empty epochs fold into the
    # step before them.
    assert stats["sync_epochs"] == _arrival_epochs(2, 12.0, 30)
    assert stats["sync_barrier_wait_s"] == 0.0  # in-process: no pipe


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_hierarchical_spread_is_byte_identical_across_shards(shards):
    """The old ``sync="hierarchical"`` name selects the flat star like
    any other: spread results match the one-shard epoch protocol for
    every shard count and transport."""
    reference = _bytes(run_sharded_cluster(
        "fastiov", 60, hosts=8, seed=9, shards=1, workers=0,
        arrivals=cluster_arrivals(9, 15.0),
    ))
    for workers in (0, None):
        summary = run_cluster_cell(
            "fastiov", 60, hosts=8, seed=9, shards=shards,
            workers=workers, rate_per_s=15.0, sync="hierarchical",
        )
        assert _bytes(summary) == reference, (
            f"diverged at K={shards} workers={workers}"
        )


def test_engine_stats_export_coordinator_occupancy():
    """The coordinator's occupancy split and the placement tracker's
    heap traffic ride the sync stats of every epoch-protocol cell."""
    for workers in (0, None):
        stats = {}
        run_sharded_cluster(
            "fastiov", 40, hosts=8, seed=2, shards=2, workers=workers,
            arrivals=cluster_arrivals(2, 12.0), engine_stats=stats,
        )
        for key in ("sync_coordinator_wait_s", "sync_coordinator_place_s",
                    "sync_coordinator_reduce_s", "sync_placement_heap_ops"):
            assert key in stats, f"workers={workers} missing {key}"
        assert stats["sync_coordinator_wait_s"] >= 0.0
        # Least-loaded runs the lazy heap: every arrival pushes at
        # least one entry, so the op count is bounded below by the
        # arrival count.
        assert stats["sync_placement_heap_ops"] >= 40


# ----------------------------------------------------------------------
# A sparse cell pinned to literal bytes
# ----------------------------------------------------------------------
#: 120 arrivals at 5/s over 16 hosts (seed 3): most epochs are empty,
#: so nearly every step folds a jump.  Captured from the three-protocol
#: runner this protocol replaced; any drift in the folded jump, the
#: visibility rule or end-of-run alignment moves these bytes.
#: ``events`` is the engine's dispatch count; it fell from 136,659 when
#: the fastiovd scanner stopped running a process per worker, and from
#: 133,005 when each scan round became one CPU entry.
SPARSE_SUMMARY = {
    "count": 120,
    "events": 118799,
    "free_vfs_total": 4096,
    "hosts": 16,
    "max": 1.1646515846782997,
    "mean": 0.9563166676744427,
    "min": 0.8199226814701195,
    "p50": 0.9547125043259435,
    "p99": 1.0958906823769474,
    "peak_in_flight": 14,
    "peak_load_per_host": [1] * 14 + [0, 0],
}


@pytest.mark.parametrize("shards,workers", [(2, 0), (2, 2), (4, 0), (4, 2)])
def test_sparse_cell_matches_pinned_summary(shards, workers):
    stats = {}
    summary = run_sharded_cluster(
        "fastiov", 120, hosts=16, seed=3, shards=shards, workers=workers,
        arrivals=cluster_arrivals(3, 5.0), engine_stats=stats,
    )
    assert summary == SPARSE_SUMMARY
    assert stats["sync_epochs"] == _arrival_epochs(3, 5.0, 120) == 103


def test_dead_worker_fails_loud_and_leaves_no_children(monkeypatch):
    """A worker SIGKILLed after its first step surfaces as a
    RuntimeError naming its shards, and no child process survives."""
    import multiprocessing
    import os
    import signal

    from repro.cluster import sharded

    step = sharded._ShardSet.step
    served = []

    def step_then_die(self, *args):
        # Runs inside the forked workers (the patch is inherited, and
        # each worker counts its own steps in its copy of ``served``).
        name = multiprocessing.current_process().name
        if served and name.endswith("worker-0"):
            os.kill(os.getpid(), signal.SIGKILL)
        served.append(1)
        return step(self, *args)

    monkeypatch.setattr(sharded._ShardSet, "step", step_then_die)
    with pytest.raises(RuntimeError, match=r"worker 0 \(shards \[0, 2\]\)"):
        run_sharded_cluster(
            "fastiov", 40, hosts=8, seed=2, shards=4, workers=2,
            arrivals=cluster_arrivals(2, 12.0),
        )
    assert multiprocessing.active_children() == []


def test_heap_tracker_is_bit_identical_to_exact_scan():
    """Differential property test: the lazy min-heap tracker and the
    O(hosts) scan oracle must agree on every pick across interleaved
    place/release traffic, for several seeds."""
    import random

    from repro.cluster.placement import (
        LeastLoadedPlacement,
        LeastLoadedTracker,
        ScanTracker,
    )

    for seed in range(5):
        rng = random.Random(seed)
        hosts = rng.randrange(1, 40)
        heap = LeastLoadedTracker(hosts)
        scan = ScanTracker(hosts, LeastLoadedPlacement())
        placed = []
        for _ in range(400):
            if placed and rng.random() < 0.45:
                # Release a random prior placement, sometimes batched
                # (the digest path frees several at once).
                host = placed.pop(rng.randrange(len(placed)))
                count = 1
                while placed and count < 3 and rng.random() < 0.3:
                    try:
                        placed.remove(host)
                    except ValueError:
                        break
                    count += 1
                heap.release(host, count)
                scan.release(host, count)
            else:
                picked_heap = heap.pick()
                picked_scan = scan.pick()
                assert picked_heap == picked_scan, (
                    f"seed {seed}: heap {picked_heap} != scan {picked_scan}"
                )
                placed.append(picked_heap)
            assert heap.loads == scan.loads, f"seed {seed}: load drift"
        assert heap.heap_ops > 0


def test_coordinator_trace_track_is_opt_in():
    """Wall-clock coordinator spans would break trace byte-identity
    across shard counts, so they never enter the virtual trace: the
    coordinator's runtime probe carries its wait/place/reduce spans in
    the telemetry snapshot instead, ordered and non-overlapping."""
    trace = {}
    telemetry = {}
    run_sharded_cluster(
        "fastiov", 40, hosts=8, seed=2, shards=2, workers=0,
        arrivals=cluster_arrivals(2, 12.0), trace=trace,
        telemetry=telemetry,
    )
    assert "coordinator" not in trace["tracks"]
    record = telemetry["processes"]["coordinator"]
    occupancy = {"wait", "place", "reduce"}
    assert occupancy <= set(record["phases"])
    spans = [span for span in record["spans"] if span[0] in occupancy]
    assert {span[0] for span in spans} == occupancy
    for (_, began, ended), (_, next_began, _) in zip(spans, spans[1:]):
        assert began <= ended <= next_began


# ----------------------------------------------------------------------
# resolve_shards decision table
# ----------------------------------------------------------------------
def test_resolve_shards_auto_decision_table(monkeypatch):
    """One floor for every placement plan: auto splits at
    MIN_HOSTS_PER_SHARD hosts per shard and never finer."""
    import os as _os

    from repro.cluster import sharded as mod

    monkeypatch.setattr(_os, "cpu_count", lambda: 8)
    floor = mod.MIN_HOSTS_PER_SHARD
    table = [
        # hosts -> expected
        (floor - 1, 1),
        (2 * floor - 1, 1),      # below one full shard pair
        (2 * floor, 2),
        (4 * floor + 1, 4),
        (64 * floor, 8),         # capped by the 8 cores
    ]
    for hosts, expected in table:
        resolved = mod.resolve_shards("auto", hosts)
        assert resolved == expected, (
            f"auto(hosts={hosts}) = {resolved}, expected {expected}"
        )


def test_resolve_shards_auto_caps_at_cpu_count(monkeypatch):
    """More shards than cores just multiplies step latency, so auto is
    capped by ``os.cpu_count()``."""
    import os as _os

    from repro.cluster import sharded as mod

    monkeypatch.setattr(_os, "cpu_count", lambda: 2)
    assert mod.resolve_shards("auto", 256) == 2
    assert mod.resolve_shards("auto", 2 * mod.MIN_HOSTS_PER_SHARD) == 2
    assert mod.resolve_shards("auto", mod.MIN_HOSTS_PER_SHARD) == 1
    # cpu_count() may legitimately return None: treat it as one core.
    monkeypatch.setattr(_os, "cpu_count", lambda: None)
    assert mod.resolve_shards("auto", 256) == 1


def test_resolve_shards_auto_spread_never_beats_its_floor(monkeypatch):
    import os as _os

    from repro.cluster import sharded as mod

    monkeypatch.setattr(_os, "cpu_count", lambda: 64)
    for hosts in range(1, 129):
        resolved = mod.resolve_shards("auto", hosts)
        assert resolved == 1 or hosts // resolved >= mod.MIN_HOSTS_PER_SHARD


def test_scale_experiment_threads_rate_into_cells():
    from repro.experiments import get_experiment

    experiment = get_experiment("scale").configure(shards=4, rate=150.0)
    cells = experiment._cells(quick=True, seed=0)
    assert cells
    assert all(cell.shards == 4 for cell in cells)
    assert all(cell.rate_per_s == 150.0 for cell in cells)
