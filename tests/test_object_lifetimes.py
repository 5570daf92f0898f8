"""Container lifecycles are freed by refcount, not by the cyclic collector.

A finished lifecycle's objects (its processes and their generators, the
page views of its memory, the microVM object graph) must not sit in a
reference cycle.  Teardown then frees them the moment it drops them,
and a churn cell leaves no cyclic garbage, however long it runs
(DESIGN.md §8, "Object lifetimes").
"""

import collections
import gc
import types

import pytest

from repro.cluster.churn import ClusterChurnDriver, cluster_arrivals
from repro.cluster.cluster import Cluster
from repro.virt.microvm import Microvm

#: Virtual seconds run past the last lifecycle, so that asynchronous VF
#: initializations (daemons that outlive their container) finish too.
DRAIN_S = 30.0


def _lifecycle_scoped(obj):
    return (type(obj).__module__.startswith("repro.")
            or isinstance(obj, types.GeneratorType))


def _churn(lifecycles):
    """Drive ``lifecycles`` with teardown on a live cluster, the cyclic
    collector off; returns ``(the churn, cyclic garbage by type, live
    microVMs)`` with the cluster still alive."""
    gc.collect()
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.disable()
    try:
        cluster = Cluster("fastiov", hosts=4, seed=0)
        churn = ClusterChurnDriver(cluster)
        churn.submit(lifecycles, arrivals=cluster_arrivals(0, rate_per_s=400))
        churn.run()
        cluster.sim.run(until=cluster.sim.now + DRAIN_S)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = collections.Counter(
                type(obj).__qualname__ for obj in gc.garbage
                if _lifecycle_scoped(obj)
            )
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
        microvms = sum(type(obj) is Microvm for obj in gc.get_objects())
        assert cluster.free_vf_total() == 4 * 256
    finally:
        if was_enabled:
            gc.enable()
    return churn, garbage, microvms


@pytest.mark.parametrize("lifecycles", [20, 200])
def test_churn_leaves_no_cyclic_garbage(lifecycles):
    churn, garbage, microvms = _churn(lifecycles)
    assert len(churn.records) == lifecycles
    assert all(record.t_ready is not None for record in churn.records)
    assert dict(garbage) == {}
    # Every microVM was torn down and freed, none kept by a cycle or by
    # a registry of finished work.
    assert microvms == 0
