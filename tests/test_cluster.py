"""Tests for the multi-host cluster layer: placement policies, shared
virtual timeline, VF-pool recycling, and cluster-scale churn."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterChurnDriver,
    LeastLoadedPlacement,
    RoundRobinPlacement,
    make_placement,
    run_cluster_cell,
)
from repro.spec import PAPER_TESTBED


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
def test_round_robin_cycles_hosts():
    policy = RoundRobinPlacement()
    loads = [0, 0, 0]
    picks = [policy.pick(loads) for _ in range(7)]
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_least_loaded_picks_minimum_with_index_tiebreak():
    policy = LeastLoadedPlacement()
    assert policy.pick([2, 1, 1, 3]) == 1  # tie between 1 and 2 -> lowest
    assert policy.pick([0, 0, 0]) == 0
    assert policy.pick([5, 4, 3]) == 2


def test_make_placement_rejects_unknown_policy():
    assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
    assert isinstance(make_placement("least-loaded"), LeastLoadedPlacement)
    with pytest.raises(KeyError):
        make_placement("random")


# ----------------------------------------------------------------------
# Cluster construction
# ----------------------------------------------------------------------
def test_cluster_hosts_share_one_simulator():
    cluster = Cluster("fastiov", hosts=3)
    assert cluster.size == 3
    assert all(host.sim is cluster.sim for host in cluster.hosts)
    names = [host.name for host in cluster.hosts]
    assert names == ["host0", "host1", "host2"]


def test_cluster_rejects_nonpositive_hosts():
    with pytest.raises(ValueError):
        Cluster("fastiov", hosts=0)


def test_host_jitter_streams_are_stable_under_growth():
    """Adding hosts must not perturb existing hosts' jitter seeds."""
    small = Cluster("fastiov", hosts=2, seed=9)
    large = Cluster("fastiov", hosts=4, seed=9)
    for a, b in zip(small.hosts, large.hosts):
        assert a.seed == b.seed
    # Distinct hosts draw from distinct streams.
    assert len({host.seed for host in large.hosts}) == 4


def test_placement_tracks_load():
    cluster = Cluster("fastiov", hosts=2, placement="least-loaded")
    first = cluster.place()
    second = cluster.place()
    assert {first, second} == {0, 1}
    assert cluster.loads == [1, 1]
    cluster.unplace(first)
    assert cluster.place() == first  # went back to the emptiest host


def test_placement_tracks_per_host_peaks():
    cluster = Cluster("fastiov", hosts=2, placement="round-robin")
    for _ in range(4):
        cluster.place()
    for index in range(2):
        cluster.unplace(index)
    cluster.place()
    # Peaks hold the high-water mark, not the current load.
    assert cluster.loads == [2, 1]
    assert cluster.peak_loads == [2, 2]


# ----------------------------------------------------------------------
# Churn driver
# ----------------------------------------------------------------------
def test_churn_spreads_burst_across_hosts():
    cluster = Cluster("fastiov", hosts=4, seed=1)
    driver = ClusterChurnDriver(cluster)
    driver.submit(80)
    records = driver.run()
    assert len(records) == 80
    assert all(record.startup_time > 0 for record in records)
    # Teardown returned every placement slot.
    assert cluster.loads == [0, 0, 0, 0]
    assert driver.peak_in_flight <= 80


def test_burst_beyond_single_host_vf_pool():
    """A burst larger than one host's VF pool only fits on a cluster."""
    per_host = PAPER_TESTBED.nic_max_vfs
    concurrency = per_host + 64
    hosts = 4
    summary = run_cluster_cell("fastiov", concurrency, hosts=hosts, seed=2)
    assert summary["count"] == concurrency
    assert summary["peak_in_flight"] == concurrency  # burst: all at once
    # Every VF returned to its pool after teardown.
    assert summary["free_vfs_total"] == hosts * per_host


def test_vf_recycling_without_teardown_leaves_vfs_held():
    cluster = Cluster("fastiov", hosts=2, seed=0)
    driver = ClusterChurnDriver(cluster, teardown=False)
    driver.submit(20)
    driver.run()
    assert cluster.free_vf_total() == 2 * PAPER_TESTBED.nic_max_vfs - 20


def test_teardown_returns_every_vf_unconfigured():
    """A churned VF goes back to its pool without its last tenant's
    MAC or VLAN, so the next container finds it as the PF created it."""
    cluster = Cluster("fastiov", hosts=2, seed=0)
    driver = ClusterChurnDriver(cluster)
    driver.submit(40)
    driver.run()
    assert cluster.free_vf_total() == 2 * PAPER_TESTBED.nic_max_vfs
    vfs = [vf for host in cluster.hosts for vf in host.nic.pf.vfs]
    assert not any(vf.is_assigned for vf in vfs)
    assert all(vf.mac is None and vf.vlan is None for vf in vfs)


def test_cluster_cell_is_deterministic_in_seed():
    first = run_cluster_cell("vanilla", 40, hosts=2, seed=11)
    again = run_cluster_cell("vanilla", 40, hosts=2, seed=11)
    other = run_cluster_cell("vanilla", 40, hosts=2, seed=12)
    assert first == again
    assert first != other


def test_fastiov_beats_vanilla_at_cluster_scale():
    vanilla = run_cluster_cell("vanilla", 120, hosts=2, seed=3)
    fastiov = run_cluster_cell("fastiov", 120, hosts=2, seed=3)
    assert fastiov["mean"] < vanilla["mean"]
    assert fastiov["p99"] < vanilla["p99"]


# ----------------------------------------------------------------------
# Scale experiment
# ----------------------------------------------------------------------
def test_scale_experiment_quick_structure():
    from repro.experiments import get_experiment

    result = get_experiment("scale").run(quick=True, use_cache=False)
    data = result.data
    assert data["hosts"] > 1
    series = data["series"]
    assert set(series) == {"vanilla", "fastiov"}
    bursts = [point["concurrency"] for point in series["vanilla"]]
    assert bursts == sorted(bursts)
    for van, fast in zip(series["vanilla"], series["fastiov"]):
        assert van["concurrency"] == fast["concurrency"]
        assert fast["mean"] < van["mean"]
    assert result.comparisons()
    assert "paper" in result.comparison_table()
