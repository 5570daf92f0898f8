"""cProfile over a process and the multiprocessing workers it starts.

The sharded workload simulates in forked shard workers, so a profile of
the coordinator alone would show mostly pipe waits.  While a
:class:`TreeProfiler` is active, every ``multiprocessing`` child started
under it swaps the inherited profiler for a fresh one and, as that
child exits through ``multiprocessing``'s normal shutdown, dumps its
stats for the parent to merge.  Fork checkpoints taken inside a worker
inherit the worker's profiler: the image that keeps serving dumps on
exit, and an image killed at a rollback handover leaves nothing, so
rolled-back work is not counted.
"""

import cProfile
import marshal
import multiprocessing.util
import os
import pathlib
import pstats


class TreeProfiler:
    """Profile this process and its workers inside each ``with`` block.

    Blocks accumulate; :meth:`stats` merges this process's profile with
    every worker's dump (one ``<round>-<pid>.pstats`` file each, in
    ``outdir``).
    """

    def __init__(self, outdir):
        self.outdir = pathlib.Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        for stale in self.outdir.glob("*.pstats"):
            stale.unlink()
        self.profiler = cProfile.Profile()
        self.active = False
        self.round = 0
        # Held weakly by multiprocessing; lives as long as this object.
        multiprocessing.util.register_after_fork(self, TreeProfiler._in_child)

    def __enter__(self):
        self.round += 1
        self.active = True
        self.profiler.enable()
        return self

    def __exit__(self, *exc):
        self.profiler.disable()
        self.active = False
        return False

    def stats(self):
        """The merged ``{func: (cc, nc, tt, ct, callers)}`` profile;
        removes the dumps and their directory."""
        merged = pstats.Stats(self.profiler)
        for path in sorted(self.outdir.glob("*.pstats")):
            merged.add(str(path))
            path.unlink()
        self.outdir.rmdir()
        return merged.stats

    def _in_child(self):
        if not self.active:
            return
        self.profiler.disable()
        self.profiler = cProfile.Profile()
        self.profiler.enable()
        # Finalizers registered here survive multiprocessing's own
        # post-fork registry reset and run in its exit path.
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        self.profiler.disable()
        self.profiler.create_stats()
        path = self.outdir / f"{self.round}-{os.getpid()}.pstats"
        partial = path.with_suffix(".partial")
        with open(partial, "wb") as handle:
            marshal.dump(self.profiler.stats, handle)
        os.replace(partial, path)
