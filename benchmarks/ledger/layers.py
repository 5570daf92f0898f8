"""Layer map of the simulator's sources and the cProfile fold onto it.

Every module under ``src/repro`` belongs to exactly one layer (the
ledger's test checks this).  A profile entry whose function lives in a
repository module is charged to that module's layer.  Everything else —
builtins (``~`` entries), the standard library, the harness itself — is
*charged to its callers*: its self time and call count are split over
the profile's caller edges in proportion to the time (or calls) each
edge carried, recursively, until a repository layer is reached.  What
never reaches one (the profiler's own root frames, the harness loop)
lands in ``other``.
"""

import fnmatch
import os
import pathlib

#: Layer -> glob patterns relative to ``src/repro`` (``*`` spans ``/``).
LAYER_PATTERNS = {
    "sim.core": ("sim/core.py", "sim/__init__.py", "sim/errors.py",
                 "sim/rng.py"),
    "sim.cpu": ("sim/cpu.py",),
    "sim.sync": ("sim/sync.py",),
    "sim.ticker": ("sim/ticker.py",),
    # The IOMMU page tables are the DMA side of the same PageRun model.
    "hw.memory": ("hw/memory.py", "hw/iommu.py"),
    "hw.ept": ("hw/ept.py",),
    "hw.devices": ("hw/nic.py", "hw/pci.py", "hw/errors.py",
                   "hw/__init__.py"),
    "oskernel.vfio": ("oskernel/vfio.py", "oskernel/locks.py",
                      "oskernel/binding.py"),
    # Guest-memory faults: KVM's EPT handler and the host MMU's demand
    # paging (the No-Net/software-CNI path).
    "oskernel.kvm": ("oskernel/kvm.py", "oskernel/mmu.py"),
    "oskernel.fastiovd": ("oskernel/fastiovd.py",),
    "oskernel.host": ("oskernel/cgroup.py", "oskernel/hostnet.py",
                      "oskernel/errors.py", "oskernel/__init__.py"),
    "virt": ("virt/*",),
    "containers": ("containers/*",),
    "cluster.driver": ("cluster/cluster.py", "cluster/churn.py",
                       "cluster/placement.py", "cluster/__init__.py"),
    "cluster.sharded": ("cluster/sharded.py", "cluster/shard.py",
                        "cluster/checkpoint.py"),
    "cluster.wire": ("cluster/wire.py",),
    "obs": ("obs/*",),
    "metrics": ("metrics/*",),
    "other": ("core/*", "experiments/*", "workloads/*", "spec.py",
              "__init__.py", "__main__.py"),
}

LAYERS = tuple(LAYER_PATTERNS)

#: Indexes into a pstats caller edge ``(cc, nc, tt, ct)``.
_EDGE_CALLS = 1
_EDGE_TIME = 2


def layers_matching(relpath):
    """Every layer whose patterns match ``relpath`` (posix, under repro)."""
    return [
        layer for layer, patterns in LAYER_PATTERNS.items()
        if any(fnmatch.fnmatchcase(relpath, pattern) for pattern in patterns)
    ]


def layer_of(filename, root):
    """The layer of a profiled ``filename``; None when it is not a
    module under ``root`` (the ``src/repro`` directory)."""
    try:
        relpath = pathlib.PurePath(
            os.path.realpath(filename)).relative_to(root).as_posix()
    except ValueError:
        return None
    matches = layers_matching(relpath)
    return matches[0] if matches else "other"


def fold(stats, root):
    """Fold pstats-shaped ``stats`` into per-layer self time and calls.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping caller keys to ``(cc, nc, tt,
    ct)`` edges — the shape ``cProfile.Profile.create_stats`` and
    ``pstats.Stats.stats`` use.  Returns ``(self_s, calls)``, two dicts
    over :data:`LAYERS`.
    """
    root = pathlib.PurePath(os.path.realpath(root))
    by_file = {name: layer_of(name, root) for name in {f[0] for f in stats}}
    owner = {func: by_file[func[0]] for func in stats}
    memo = {}

    def shares(func, edge, active):
        """Layer -> fraction for a function outside the repository."""
        key = (func, edge)
        if key in memo:
            return memo[key]
        callers = {
            caller: weights for caller, weights in stats[func][4].items()
            if caller in stats and caller not in active
        }
        total = sum(weights[edge] for weights in callers.values())
        if total <= 0:
            # No time on any edge (sub-resolution calls): split by calls.
            edge_used = _EDGE_CALLS
            total = sum(weights[_EDGE_CALLS] for weights in callers.values())
        else:
            edge_used = edge
        result = {}
        if total <= 0:
            result["other"] = 1.0
        else:
            active = active | {func}
            for caller, weights in callers.items():
                weight = weights[edge_used] / total
                if not weight:
                    continue
                layer = owner[caller]
                if layer is not None:
                    result[layer] = result.get(layer, 0.0) + weight
                else:
                    for name, part in shares(caller, edge, active).items():
                        result[name] = result.get(name, 0.0) + weight * part
        memo[key] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for name, part in shares(func, _EDGE_TIME, frozenset()).items():
            self_s[name] += tt * part
        for name, part in shares(func, _EDGE_CALLS, frozenset()).items():
            calls[name] += nc * part
    return self_s, calls
