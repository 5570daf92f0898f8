"""Processor-sharing CPU model.

The paper's second bottleneck — page zeroing during DMA memory mapping
(§3.2.3) — is pure CPU work: at concurrency 200 the host's cores are
saturated by 200 single-threaded zeroing loops, which stretches the
elapsed time of every startup stage.  :class:`FairShareCPU` models a
multi-core socket under the Linux CFS idealization: every runnable job
receives an equal share of the cores, capped at one core per job
(zeroing, guest vCPU work, and memcpy loops are single-threaded).

The model is event-driven and exact, implemented as virtual-service-time
fair queueing: a single cumulative per-job service counter ``V`` is
advanced lazily (``V += rate * elapsed`` on each state change), and each
job is stamped at admission with a *finish tag* ``V + amount``.  A job
completes exactly when ``V`` reaches its tag, so the scheduler only ever
inspects the minimum tag in a heap: ``_advance`` is O(1) and ``_admit``
is O(log n), instead of decrementing ``remaining`` across every runnable
job on every event (O(n), i.e. O(n²) per run at paper concurrency).
With *n* jobs on *C* cores each job runs at ``min(1, C/n)``.
"""

import heapq

from repro.sim.core import Command

_EPSILON = 1e-9


class _CpuJob(Command):
    """``jobs`` identical single-threaded jobs as one heap entry.

    Admitted at one instant with one amount, the jobs share one finish
    tag and complete together, so one entry carries all of them: it
    counts ``jobs`` toward the runnable total, and ``resume(None)``
    resumes the yielding process once, when they complete.
    """

    __slots__ = ("cpu", "amount", "jobs", "finish_tag", "resume")

    def __init__(self, cpu, amount, jobs):
        self.cpu = cpu
        self.amount = amount
        self.jobs = jobs
        self.finish_tag = None
        self.resume = None

    def subscribe(self, sim, process):
        self.resume = process._on_resume
        self.cpu._admit(self)


class FairShareCPU:
    """A socket of ``cores`` identical cores shared fairly among jobs.

    Processes obtain CPU time by yielding :meth:`work`::

        yield cpu.work(0.57)   # 0.57 core-seconds of single-thread work

    With idle cores this completes in 0.57 s of virtual time; with the
    socket oversubscribed 4x it takes ~2.28 s.  ``work(amount, jobs=k)``
    runs k such jobs side by side and resumes once, when all are done.
    Utilization and total executed core-seconds are tracked for
    experiment reporting.
    """

    __slots__ = (
        "_sim",
        "cores",
        "name",
        "_virtual",
        "_heap",
        "_runnable",
        "_admit_seq",
        "_last_update",
        "_version",
        "_reap_stale",
        "_timer",
        "total_core_seconds",
        "busy_core_seconds",
    )

    def __init__(self, sim, cores, name="cpu", reap_stale=False):
        """``reap_stale=True`` cancels superseded completion events via
        the engine's Timer handles instead of letting them dispatch as
        version-guarded no-ops.  Off by default: stale no-op dispatches
        are counted in ``Simulator.events_dispatched``, which experiment
        summaries report, so reaping is opt-in for workloads (tests,
        benchmarks) that don't need historical byte-identity."""
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self._sim = sim
        self.cores = cores
        self.name = name
        self._reap_stale = reap_stale
        self._timer = None
        #: Cumulative core-seconds of service received by any job that has
        #: been runnable the whole time (the fair-queueing virtual clock).
        self._virtual = 0.0
        self._heap = []  # (finish_tag, admit_seq, job)
        #: Runnable jobs: the sum of ``jobs`` over the heap's entries.
        self._runnable = 0
        self._admit_seq = 0
        self._last_update = sim.now
        self._version = 0
        self.total_core_seconds = 0.0
        self.busy_core_seconds = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def work(self, amount, jobs=1):
        """Return a command performing ``jobs`` single-threaded jobs of
        ``amount`` core-seconds each; the yielder resumes once, when
        they are all done.

        The jobs schedule exactly as ``jobs`` processes yielding
        ``work(amount)`` at this instant would: each counts toward the
        runnable total, and all share one finish tag.  ``amount`` may be
        zero, which completes immediately (useful for data-dependent
        costs that can legitimately be empty).
        """
        if amount < 0:
            raise ValueError(f"negative work amount: {amount}")
        if jobs < 1:
            raise ValueError(f"jobs must be positive, got {jobs}")
        return _CpuJob(self, amount, jobs)

    @property
    def runnable_jobs(self):
        return self._runnable

    @property
    def rate_per_job(self):
        """Current cores-per-job share (0 when idle)."""
        if not self._runnable:
            return 0.0
        return min(1.0, self.cores / self._runnable)

    def utilization(self):
        """Mean fraction of the socket busy since simulation start.

        A pure read: the busy time since the last state change is added
        here, not folded into the CPU's state, so reading mid-run moves
        no later finish time.
        """
        now = self._sim.now
        if now <= 0:
            return 0.0
        busy = self.busy_core_seconds
        elapsed = now - self._last_update
        n = self._runnable
        if elapsed > 0 and n:
            busy += min(n, self.cores) * elapsed
        return busy / (now * self.cores)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, job):
        self._advance()
        if job.amount <= _EPSILON:
            self._sim._ready.append((job.resume, (None,)))
            return
        job.finish_tag = self._virtual + job.amount
        heapq.heappush(self._heap, (job.finish_tag, self._admit_seq, job))
        self._admit_seq += 1
        self._runnable += job.jobs
        self._reschedule()

    def _advance(self):
        """Account for work done since the last state change (O(1))."""
        now = self._sim.now
        elapsed = now - self._last_update
        self._last_update = now
        n = self._runnable
        if elapsed <= 0 or not n:
            return
        rate = min(1.0, self.cores / n)
        self._virtual += rate * elapsed
        self.busy_core_seconds += min(n, self.cores) * elapsed
        self.total_core_seconds += rate * elapsed * n

    def _reschedule(self):
        """Schedule the next job completion (invalidating older ones)."""
        self._version += 1
        if self._reap_stale:
            timer = self._timer
            if timer is not None:
                timer.cancel()
                self._timer = None
        n = self._runnable
        if not n:
            return
        rate = min(1.0, self.cores / n)
        shortest = self._heap[0][0] - self._virtual
        eta = self._sim.now + max(0.0, shortest) / rate
        sim = self._sim
        if self._reap_stale and eta > sim.now:
            self._timer = sim.call_at(eta, self._on_completion, self._version)
        else:
            # An eta at the current instant goes through the ready ring
            # (not cancellable, but it dispatches immediately anyway).
            sim.schedule(eta, self._on_completion, self._version)

    def _on_completion(self, version):
        if version != self._version:
            return  # superseded by a later job-set change
        self._advance()
        heap = self._heap
        finished = []
        threshold = self._virtual + _EPSILON
        while heap and heap[0][0] <= threshold:
            finished.append(heapq.heappop(heap)[2])
        if not finished:
            # Numerical guard: this event is not stale (the version
            # matched), so it was scheduled for exactly the minimum tag's
            # ETA and no job set change intervened.  If float drift left
            # that tag an epsilon above V — e.g. the per-event progress
            # underflows against the ulp of a large clock value — re-arming
            # would recompute the same ETA and spin forever at zero
            # progress.  The head job is owed completion now; force it.
            job = heapq.heappop(heap)[2]
            self._virtual = job.finish_tag
            finished.append(job)
        ready = self._sim._ready
        for job in finished:
            self._runnable -= job.jobs
            ready.append((job.resume, (None,)))
        self._reschedule()

    def __repr__(self):
        return f"<FairShareCPU {self.name} cores={self.cores} jobs={self._runnable}>"
