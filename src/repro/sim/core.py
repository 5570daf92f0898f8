"""Event loop, virtual clock, and generator-based processes.

A *process* is a Python generator.  It models one thread of control in
the simulated system (a kernel thread, a QEMU thread, a guest agent, a
container-startup pipeline).  The generator ``yield``\\ s *command*
objects and the simulator resumes it when the command completes::

    def worker(sim, lock):
        yield Timeout(0.5)           # sleep 500 ms of virtual time
        yield lock.acquire()         # block until the mutex is granted
        try:
            yield Timeout(0.1)       # hold it for 100 ms
        finally:
            lock.release()
        return "done"                # becomes the process result

Processes are spawned with :meth:`Simulator.spawn` and the whole system
is executed with :meth:`Simulator.run`.  The simulator is single-threaded
and deterministic: events at equal timestamps fire in scheduling order.

Engine layout (the hot path)
----------------------------

The event store is split in three:

* ``_ready`` — a FIFO ring (:class:`collections.deque`) of events whose
  timestamp equals the current clock.  Same-time scheduling — process
  resumption after a lock grant, zero-delay timeouts, spawn, join
  completion — is by far the dominant case in this simulator, and it
  costs one ``append``/``popleft`` pair instead of any ordered insert.
* a *timing wheel* of ``_WHEEL_SLOTS`` fixed-width buckets holding
  strictly-future events within the wheel's horizon (the near level of
  a calendar queue / hierarchical timing wheel — the same structure the
  Linux kernel uses for its timers).  Insert is O(1): an integer
  divide, a bitmask, a list append.
* ``_spill`` — a binary heap (the sorted far level) for events beyond
  the wheel horizon.  As the wheel turns, spill events whose slot
  enters the window are re-bucketed, each exactly once.

Struct-of-arrays event storage
------------------------------

Pending future events are not Python objects.  Each event is an integer
*handle* indexing four parallel columns::

    _ewhen : array('d')  — fire time (a flat C double buffer)
    _eseq  : array('q')  — globally unique sequence number (int64)
    _ecb   : list        — callback (None = tombstoned / free)
    _eargs : list        — callback arguments

Handles are recycled through ``_free`` (a plain LIFO free list), so a
steady-state workload performs **zero** per-event allocation: arming a
timer writes four columns; cancelling writes one (``_ecb[h] = None``);
compaction filters flat lists of ints.  The columns grow to the peak
number of concurrent pending events and are then stable.

Wheel buckets are flat lists of handles: an insert within the window
appends one int, and a cancelled timer is filtered out of its bucket
without ever being decoded.  When the cursor reaches a slot it
*batch-decodes* the bucket against the columns into ``(when, seq,
handle)`` tuples — reaping tombstones in the same pass — and sorts
them with one C tuple sort (exact ``(when, seq)`` order, no key
function).  The sorted list is the *front* and is drained with a bare
index (``_front_pos``): popping a cohort is a pointer walk, no heap
sifting, no compares beyond the cohort boundary.  An insert landing in
the currently draining slot goes into a small *overlay heap*
(``_fheap``) beside the sorted front — a C ``heappush``, no list
shifting.  Every overlay seq exceeds every front seq (the front was
detached before any overlay insert happened), so comparing the two head
tuples is exactly the ``(when, seq)`` merge order, and an equal-time
cohort always drains front entries before overlay entries.

Events beyond the wheel horizon live in ``_spill`` as the same
``(when, seq, handle)`` tuples (a binary heap); re-bucketing pops them
back into handle buckets, each exactly once.

The tie-order contract, mechanically:

* Events already stored at timestamp *t* were scheduled before the
  clock reached *t*, so their seq is smaller than that of any event
  scheduled once the clock is at *t*.  When the clock advances to *t*,
  :meth:`Simulator.run` drains the *entire* equal-time cohort from the
  front into the ring in one pass (sorted order = seq order), before
  executing anything.
* Events scheduled *at* the current time while the batch executes are
  appended behind it in the ring.  Their seq is necessarily larger than
  everything already there, so FIFO order equals scheduling order.

The invariant between runs is: every pending event with ``when == now``
lives in the ring (in scheduling order); the front holds only the
cursor slot's entries (drained prefix dead, suffix sorted); the wheel
holds only ``when > now`` within the window ``[_cur_slot, _cur_slot +
_WHEEL_SLOTS)`` of slots; the spill heap holds only slots at or beyond
the window end.  Slot mapping is order-preserving (``slot_a < slot_b``
implies ``when_a < when_b``), so draining slots in order never reorders
events.

Handle lifecycle (the safety rule): a handle has exactly one physical
container reference (a bucket, the front, or a spill tuple) and is
pushed onto ``_free`` only by the code that removes that reference —
cohort drain, tombstone reap, or compaction.  ``Timer.cancel`` only
tombstones.  ``seq`` values are never reused, so a stale
:class:`Timer` holding a recycled handle compares ``_eseq[h]`` against
its own seq and degrades to a no-op.

Cancellable timers
------------------

:meth:`Simulator.call_at` / :meth:`Simulator.call_later` return a
:class:`Timer` handle whose ``cancel()`` is O(1) *lazy deletion*: the
event is tombstoned in place (one column write) and skipped (reaped)
when the cursor reaches it.  When tombstones outnumber live events
(past a small floor), a compaction sweep rebuilds the buckets and spill
without them, so a workload that arms and cancels timers that never
fire — retry watchdogs in a 10k-startup churn storm — pays O(1) per
timer instead of carrying dead entries through every subsequent
operation.

Bucket width is a constructor parameter derived deterministically from
the model (see :func:`repro.spec.timer_wheel_width`: a quarter of the
fastiovd daemon tick, the finest recurring granularity) — never from
wall-clock measurement, so two runs of the same spec always build the
same wheel.  Width affects performance only, never event order.

Aggregated daemon ticks
-----------------------

``pending_events`` includes ``_phantom_parked``: processes parked on a
:class:`repro.sim.ticker.DaemonTicker` are represented by one shared
scheduled event per tick phase instead of one timer each, and the
phantom count keeps the externally visible accounting identical to the
per-process-timer world.  See :mod:`repro.sim.ticker`.

The retained reference implementation of the old heap scheduler lives
in ``tests/reference_scheduler.py`` and is the oracle for the
differential property tests (and the baseline for the timer-dense
micro-benchmark in ``benchmarks/perf_report.py``).  It shares the
column pool (via :meth:`Simulator._alloc_entry`) and overrides only the
future-event-set hooks.
"""

from array import array
from collections import deque
from heapq import heapify, heappop, heappush

from repro.sim.errors import (
    InvalidCommand,
    ProcessFailed,
    SimulationDeadlock,
)

#: Default timing-wheel bucket width in virtual seconds.  Hosts built
#: from a :class:`~repro.spec.HostSpec` pass an explicit width derived
#: from the spec (``timer_wheel_width``); this default matches the
#: paper testbed's derivation.
DEFAULT_BUCKET_WIDTH = 0.001

#: Number of wheel slots (power of two — slot index is ``slot & MASK``).
_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1

#: Compaction floor: never sweep for fewer tombstones than this.
_COMPACT_MIN = 64


class Command:
    """Base class for objects a process may ``yield``.

    Subclasses implement :meth:`subscribe`, which arranges for
    ``process`` to be resumed (via ``process._resume(value)``) once the
    command completes.  ``subscribe`` must not step the process
    synchronously; resumption always goes through the event queue so
    that command semantics are identical whether or not they complete
    immediately.
    """

    __slots__ = ()

    def subscribe(self, sim, process):
        raise NotImplementedError


class Timeout(Command):
    """Resume the process after ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def subscribe(self, sim, process):
        delay = self.delay
        if delay == 0.0:
            sim._ready.append((process._on_resume, (None,)))
        else:
            sim.schedule(sim.now + delay, process._on_resume, None)

    def __repr__(self):
        return f"Timeout({self.delay})"


class Join(Command):
    """Resume when ``process`` finishes; the result is its return value."""

    __slots__ = ("process",)

    def __init__(self, process):
        self.process = process

    def subscribe(self, sim, waiter):
        target = self.process
        if target.finished:
            sim._ready.append((waiter._on_resume, (target.result,)))
        else:
            target._joiners.append(waiter)

    def __repr__(self):
        return f"Join({self.process.name})"


class Timer:
    """Handle to one strictly-future scheduled callback.

    Returned by :meth:`Simulator.call_at` / :meth:`Simulator.call_later`.
    :meth:`cancel` is O(1) lazy deletion — the stored event is
    tombstoned (one column write) and reaped (or compacted) later; the
    callback will not run and the event never counts as dispatched.

    A handle is safe to cancel at any point, including after the timer
    fired or after the engine recycled its pool slot: ``seq`` values
    are globally unique and never reused, so a stale handle degrades to
    a no-op instead of touching an unrelated event.
    """

    __slots__ = ("_sim", "_handle", "_seq")

    def __init__(self, sim, handle, seq):
        self._sim = sim
        self._handle = handle
        self._seq = seq

    @property
    def active(self):
        """True while the callback is still pending (not fired/cancelled)."""
        sim = self._sim
        handle = self._handle
        # Bounds-checked like cancel(): a handle must never index past
        # the pool, whatever the engine did to its columns since.
        return (
            handle < len(sim._eseq)
            and sim._ecb[handle] is not None
            and sim._eseq[handle] == self._seq
        )

    @property
    def when(self):
        """The scheduled fire time, or None once inactive."""
        return self._sim._ewhen[self._handle] if self.active else None

    def cancel(self):
        """Cancel the pending callback; returns True if it was active."""
        sim = self._sim
        handle = self._handle
        if (handle >= len(sim._eseq) or sim._ecb[handle] is None
                or sim._eseq[handle] != self._seq):
            return False
        sim._cancel_entry(handle)
        if sim.trace is not None:
            sim.trace.timer_cancelled()
        return True

    def __repr__(self):
        state = f"at {self._sim._ewhen[self._handle]}" if self.active else "inactive"
        return f"<Timer {state}>"


def _finished_resume(value):
    """``_on_resume`` of a finished process: resuming it does nothing."""


class Process:
    """A running simulated process.

    Created by :meth:`Simulator.spawn`; not instantiated directly.

    Attributes:
        name: Diagnostic name, unique-ish within a simulation.
        daemon: Daemon processes (background scanners, pollers) do not
            keep the simulation alive and are exempt from deadlock
            detection.
        finished: True once the generator returned.
        result: The generator's return value (valid once finished).
    """

    __slots__ = (
        "_sim",
        "_gen",
        "name",
        "daemon",
        "finished",
        "result",
        "_joiners",
        "_blocked_on",
        "_started_at",
        "_on_resume",
        "__weakref__",
    )

    def __init__(self, sim, generator, name, daemon=False):
        self._sim = sim
        self._gen = generator
        self.name = name
        self.daemon = daemon
        self.finished = False
        self.result = None
        self._joiners = []
        self._blocked_on = None
        self._started_at = sim.now
        #: The bound resume method, created once.  Every command
        #: completion schedules this callback; binding it per event is
        #: measurable on the hot path.
        self._on_resume = self._resume

    def join(self):
        """Return a command that waits for this process to finish."""
        return Join(self)

    def _resume(self, value):
        """Advance the generator one step (the dispatch trampoline)."""
        if self.finished:
            return
        self._blocked_on = None
        sim = self._sim
        prev = sim._current
        sim._current = self
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except Exception as exc:  # noqa: BLE001 - fail the simulation loudly
            sim._fail(ProcessFailed(self.name, exc), exc)
            return
        finally:
            sim._current = prev
        self._blocked_on = command
        if type(command) is Timeout:
            # Inlined Timeout.subscribe + schedule: the overwhelmingly
            # common yield.  A positive delay so small it underflows
            # (now + delay == now) degrades to the ready ring, exactly
            # as schedule() would route it.
            delay = command.delay
            if delay == 0.0:
                sim._ready.append((self._on_resume, (None,)))
            else:
                now = sim.now
                when = now + delay
                if when > now:
                    sim._seq = seq = sim._seq + 1
                    sim._insert_future(when, seq, self._on_resume, (None,))
                else:
                    sim._ready.append((self._on_resume, (None,)))
            return
        if not isinstance(command, Command):
            self._blocked_on = None
            sim._fail(
                InvalidCommand(
                    f"process {self.name!r} yielded {command!r}, "
                    f"which is not a sim Command"
                ),
                None,
            )
            return
        command.subscribe(sim, self)

    # Kept as an alias: spawn() historically scheduled the first step
    # through ``_step`` and external tooling may reference it.
    _step = _resume

    def _finish(self, result):
        self.finished = True
        self.result = result
        # Break the process's self-references (the generator frame and
        # the cached bound method) so it is freed by refcount the moment
        # its last scheduler reference goes.  Callbacks already queued
        # hold the old bound method, whose ``finished`` check makes them
        # no-ops, exactly as the no-op rebinding does for new ones.
        self._gen = None
        self._on_resume = _finished_resume
        sim = self._sim
        if not self.daemon:
            del sim._live[self]
        if sim.trace is not None:
            sim.trace.process_finished(self)
        ready = sim._ready
        for waiter in self._joiners:
            ready.append((waiter._on_resume, (result,)))
        self._joiners = []

    def __repr__(self):
        state = "finished" if self.finished else f"blocked on {self._blocked_on!r}"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The discrete-event loop and virtual clock.

    Time is a float in *seconds* of virtual time.  All model components
    (locks, CPUs, devices) hold a reference to the simulator so they can
    schedule events and read the clock.

    Args:
        bucket_width: Timing-wheel bucket width in virtual seconds.
            Derived from the host spec by callers that have one
            (:func:`repro.spec.timer_wheel_width`); affects performance
            only — event order is width-independent.
    """

    __slots__ = (
        "now",
        "_ready",
        "_seq",
        "_spawned",
        "_live",
        "_current",
        "_failure",
        "events_dispatched",
        # -- struct-of-arrays event pool ---------------------------------
        "_ewhen",
        "_eseq",
        "_ecb",
        "_eargs",
        "_free",
        # -- timing wheel ------------------------------------------------
        "_width",
        "_inv_width",
        "_buckets",
        "_occupied",
        "_cur_slot",
        "_front_slot",
        "_front",
        "_front_pos",
        "_fheap",
        "_spill",
        "_future_live",
        "_cancelled_unreaped",
        "_phantom_parked",
        # -- statistics --------------------------------------------------
        "_timers_cancelled",
        "_compactions",
        "_spill_rebuckets",
        "_spill_peak",
        "_max_bucket",
        # -- observability -----------------------------------------------
        "trace",
        "runtime_probe",
    )

    def __init__(self, bucket_width=DEFAULT_BUCKET_WIDTH):
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive: {bucket_width}")
        self.now = 0.0
        self._ready = deque()
        self._seq = 0
        #: Processes ever spawned (the ``proc-N`` default-name counter).
        self._spawned = 0
        #: Live non-daemon processes in spawn order (a dict used as an
        #: ordered set): ``run`` returns once it is empty, and the
        #: deadlock diagnostic lists it.  A process leaves it in
        #: ``_finish``, so the simulator keeps no finished process.
        self._live = {}
        self._current = None
        self._failure = None
        #: Total events executed, for engine throughput reporting.
        #: Cancelled timers never dispatch and never count.
        self.events_dispatched = 0
        # Struct-of-arrays event pool: one handle = one index into four
        # parallel columns.  ``_free`` recycles handles LIFO, so the
        # columns grow to the peak concurrent pending events and stop.
        self._ewhen = array("d")
        self._eseq = array("q")
        self._ecb = []
        self._eargs = []
        self._free = []
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._buckets = [[] for _ in range(_WHEEL_SLOTS)]
        #: Bitmap of non-empty buckets, indexed by ``slot & _WHEEL_MASK``.
        self._occupied = 0
        #: Lowest slot that may still hold entries; the wheel window is
        #: ``[_cur_slot, _cur_slot + _WHEEL_SLOTS)``.
        self._cur_slot = 0
        #: The slot the cursor is draining (-1: none); its handles live
        #: in ``_front``, the slot's bucket detached from the wheel
        #: array and sorted by fire time, drained by advancing
        #: ``_front_pos`` (entries before it are dead).
        self._front_slot = -1
        self._front = []
        self._front_pos = 0
        #: Overlay heap: events inserted into the front slot *while* it
        #: drains.  Kept beside the sorted front so mid-drain arming is
        #: a C heappush instead of a list insertion.
        self._fheap = []
        self._spill = []
        #: Live (non-cancelled) strictly-future events.
        self._future_live = 0
        #: Tombstoned entries not yet reaped or compacted.
        self._cancelled_unreaped = 0
        #: Daemon processes parked on an aggregated ticker, minus the
        #: shared tick events representing them (see repro.sim.ticker):
        #: keeps ``pending_events`` identical to the one-timer-per-
        #: daemon accounting.
        self._phantom_parked = 0
        self._timers_cancelled = 0
        self._compactions = 0
        self._spill_rebuckets = 0
        self._spill_peak = 0
        self._max_bucket = 0
        #: Optional :class:`repro.obs.recorder.TraceRecorder`.  None by
        #: default; every instrumented site guards on it, so a disabled
        #: recorder costs one slot read.
        self.trace = None
        #: Optional :class:`repro.obs.runtime.RuntimeProbe` (wall-clock
        #: telemetry).  Sampled once per :meth:`run` exit — never per
        #: event — so the enabled cost is two gauge writes per epoch
        #: and the disabled cost is one slot read.  Telemetry is
        #: strictly out-of-band: the probe never feeds back into
        #: simulation state.
        self.runtime_probe = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, when, callback, *args):
        """Run ``callback(*args)`` at virtual time ``when``.

        Equal timestamps fire in scheduling order.  Scheduling at the
        current time bypasses the wheel entirely (see the module
        docstring for why that preserves the tie order).
        """
        now = self.now
        if when <= now:
            if when == now:
                self._ready.append((callback, args))
                return
            raise ValueError(f"cannot schedule into the past: {when} < {now}")
        self._seq = seq = self._seq + 1
        self._insert_future(when, seq, callback, args)

    def call_at(self, when, callback, *args):
        """Schedule a cancellable callback at ``when``; returns a Timer.

        Timers must be strictly future: a handle for an event already in
        the ready ring could not be cancelled exactly, so ``when`` must
        be greater than the current time.
        """
        if when <= self.now:
            raise ValueError(
                f"timers must be strictly future: {when} <= {self.now}"
            )
        if self.trace is not None:
            callback = self.trace.timer_wrap(callback, when)
        self._seq = seq = self._seq + 1
        return Timer(self, self._insert_future(when, seq, callback, args), seq)

    def call_later(self, delay, callback, *args):
        """Schedule a cancellable callback after ``delay``; returns a Timer."""
        if delay <= 0:
            raise ValueError(f"timer delay must be positive: {delay}")
        # Inlined call_at: timer arming is hot in churn workloads and
        # the wrapper call was measurable.
        now = self.now
        when = now + delay
        if when <= now:
            raise ValueError(
                f"timers must be strictly future: {when} <= {now}"
            )
        if self.trace is not None:
            callback = self.trace.timer_wrap(callback, when)
        self._seq = seq = self._seq + 1
        return Timer(self, self._insert_future(when, seq, callback, args), seq)

    def spawn(self, generator, name=None, daemon=False):
        """Start a new process from ``generator`` and return it.

        The process takes its first step via the event queue at the
        current time, so the caller's own step finishes first.
        """
        if name is None:
            name = f"proc-{self._spawned}"
        self._spawned += 1
        process = Process(self, generator, name, daemon=daemon)
        if not daemon:
            self._live[process] = None
        if self.trace is not None:
            self.trace.process_spawned(process)
        self._ready.append((process._on_resume, (None,)))
        return process

    @property
    def current_process(self):
        """The process currently being stepped (None between steps)."""
        return self._current

    @property
    def pending_events(self):
        """Number of events waiting to execute (ring + live future set).

        Exact under lazy deletion: a cancelled-but-unreaped timer is a
        tombstone, not a pending event, and is never counted.  Daemons
        parked on an aggregated ticker count as one pending event each
        (the phantom adjustment), exactly as their individual timers
        would.
        """
        return len(self._ready) + self._future_live + self._phantom_parked

    def __len__(self):
        return self.pending_events

    # ------------------------------------------------------------------
    # future-event set (timing wheel + sorted spill over the SoA pool)
    # ------------------------------------------------------------------
    def _alloc_entry(self, when, seq, callback, args):
        """Claim a pool handle and fill its columns (shared with the
        reference-heap oracle, which places handles its own way)."""
        free = self._free
        if free:
            handle = free.pop()
            self._ewhen[handle] = when
            self._eseq[handle] = seq
            self._ecb[handle] = callback
            self._eargs[handle] = args
        else:
            handle = len(self._eseq)
            self._ewhen.append(when)
            self._eseq.append(seq)
            self._ecb.append(callback)
            self._eargs.append(args)
        return handle

    def _insert_future(self, when, seq, callback, args):
        """Store a strictly-future event; returns its pool handle."""
        # Inlined _alloc_entry: this is the hottest write path.
        free = self._free
        if free:
            handle = free.pop()
            self._ewhen[handle] = when
            self._eseq[handle] = seq
            self._ecb[handle] = callback
            self._eargs[handle] = args
        else:
            handle = len(self._eseq)
            self._ewhen.append(when)
            self._eseq.append(seq)
            self._ecb.append(callback)
            self._eargs.append(args)
        slot = int(when * self._inv_width)
        if slot == self._front_slot:
            # The cursor is mid-drain in this slot: the event joins the
            # *overlay heap* next to the sorted front — O(log overlay)
            # C tuple sifts, no list shifting.  Every overlay seq
            # exceeds every front seq (the front was detached before
            # any overlay insert), so a plain tuple compare between the
            # two heads is the exact (when, seq) merge order.
            heappush(self._fheap, (when, seq, handle))
        else:
            cur = self._cur_slot
            if slot < cur:
                # The window raced ahead of the clock: _next_when may
                # park the cursor on a far-future event (e.g. a 900 s
                # watchdog) and run(until=...) then stops the clock at
                # the horizon.  An insert landing between the clock and
                # the cursor — the sharded epoch protocol submits new
                # lifecycles exactly there — needs the window pulled
                # back first.
                self._rewind_window(slot)
                cur = slot
            if slot - cur < _WHEEL_SLOTS:
                idx = slot & _WHEEL_MASK
                self._buckets[idx].append(handle)
                self._occupied |= 1 << idx
            else:
                spill = self._spill
                heappush(spill, (when, seq, handle))
                if len(spill) > self._spill_peak:
                    self._spill_peak = len(spill)
        self._future_live += 1
        return handle

    def _cancel_entry(self, handle):
        """Tombstone a stored event (Timer.cancel); O(1) lazy deletion.

        One column write makes the event dead everywhere; the handle
        itself is freed later by whichever container still references
        it (reap or compaction)."""
        self._ecb[handle] = None
        self._eargs[handle] = None
        self._future_live -= 1
        cancelled = self._cancelled_unreaped + 1
        self._cancelled_unreaped = cancelled
        self._timers_cancelled += 1
        if cancelled >= _COMPACT_MIN and cancelled > self._future_live:
            self._compact()

    def _rewind_window(self, slot):
        """Move the wheel window back so it starts at ``slot``.

        Every bucketed handle — including the front's undrained suffix
        — is pushed back to the spill level as a ``(when, seq, handle)``
        tuple (keeping its tombstone accounting intact) and the window
        is rebuilt from there.  Rare — at most once per idle jump — so
        simplicity beats speed.
        """
        buckets = self._buckets
        spill = self._spill
        front = self._front
        ewhen = self._ewhen
        eseq = self._eseq
        pos = self._front_pos
        if pos < len(front):
            # The front already holds (when, seq, handle) tuples.
            spill += front[pos:] if pos else front
        del front[:]
        fheap = self._fheap
        if fheap:
            spill += fheap
            del fheap[:]
        self._front_pos = 0
        self._front_slot = -1
        occupied = self._occupied
        while occupied:
            idx = (occupied & -occupied).bit_length() - 1
            bucket = buckets[idx]
            for handle in bucket:
                spill.append((ewhen[handle], eseq[handle], handle))
            del bucket[:]
            occupied &= occupied - 1
        self._occupied = 0
        heapify(spill)
        self._cur_slot = slot
        self._refill_from_spill()

    def _refill_from_spill(self):
        """Re-bucket spill events whose slot entered the wheel window.

        Pops in (when, seq) order, so each bucket receives its handles
        in seq order per timestamp — which the front's stable sort
        relies on."""
        spill = self._spill
        if not spill:
            return
        limit = self._cur_slot + _WHEEL_SLOTS
        inv = self._inv_width
        buckets = self._buckets
        ecb = self._ecb
        free = self._free
        while spill and int(spill[0][0] * inv) < limit:
            when, _seq, handle = heappop(spill)
            if ecb[handle] is None:
                # The spill tuple was the handle's one reference.
                self._cancelled_unreaped -= 1
                free.append(handle)
                continue
            idx = int(when * inv) & _WHEEL_MASK
            bucket = buckets[idx]
            bucket.append(handle)
            self._occupied |= 1 << idx
            self._spill_rebuckets += 1
            if len(bucket) > self._max_bucket:
                self._max_bucket = len(bucket)

    def _next_when(self):
        """Earliest pending future time, or None if none remain.

        Positions the wheel cursor on the head event so that
        :meth:`_pop_cohort` can drain its equal-time cohort; reaps any
        tombstoned handles it walks over.
        """
        if self._future_live == 0:
            return None
        front = self._front
        fheap = self._fheap
        pos = self._front_pos
        ecb = self._ecb
        # Fast path: live head in the overlay and/or the front, no
        # reaping needed.  Sub-bucket-delay workloads (every event lands
        # in the cursor's slot) resolve here in a handful of loads.
        if fheap:
            top = fheap[0]
            if ecb[top[2]] is not None:
                if pos < len(front):
                    entry = front[pos]
                    if ecb[entry[2]] is not None:
                        return entry[0] if entry < top else top[0]
                else:
                    return top[0]
        elif pos < len(front):
            entry = front[pos]
            if ecb[entry[2]] is not None:
                return entry[0]
        ewhen = self._ewhen
        eseq = self._eseq
        free = self._free
        while True:
            n = len(front)
            while pos < n:
                entry = front[pos]
                if ecb[entry[2]] is not None:
                    break
                # Lazy-reap a cancelled timer at the front; the front
                # held its one reference, so the handle is free now.
                pos += 1
                self._cancelled_unreaped -= 1
                free.append(entry[2])
            self._front_pos = pos
            while fheap:
                top = fheap[0]
                if ecb[top[2]] is not None:
                    break
                heappop(fheap)
                self._cancelled_unreaped -= 1
                free.append(top[2])
            if pos < n:
                entry = front[pos]
                # Overlay seqs all exceed front seqs, so the bare tuple
                # compare is the exact (when, seq) merge order.
                if fheap and fheap[0] < entry:
                    return fheap[0][0]
                return entry[0]
            if fheap:
                return fheap[0][0]
            if self._front_slot >= 0:
                # Front slot exhausted: advance the wheel past it.
                self._cur_slot = self._front_slot + 1
                self._front_slot = -1
                self._refill_from_spill()
            occupied = self._occupied
            if occupied:
                # Next occupied slot at/after the cursor: all occupied
                # slots live in [_cur_slot, _cur_slot + _WHEEL_SLOTS), so
                # the bitmap rotation below is unambiguous.
                cur = self._cur_slot
                idx = cur & _WHEEL_MASK
                high = occupied >> idx
                if high:
                    slot = cur + (high & -high).bit_length() - 1
                else:
                    low = occupied & ((1 << idx) - 1)
                    slot = (
                        cur
                        + (_WHEEL_SLOTS - idx)
                        + (low & -low).bit_length()
                        - 1
                    )
                self._cur_slot = slot
                self._refill_from_spill()
                # Detach the slot's bucket into the front: batch-decode
                # the handle list against the columns into (when, seq,
                # handle) tuples — tombstones are reaped (freed) here,
                # never even entering the front — then one C tuple sort
                # yields exact (when, seq) order.  The front list object
                # is reused, so no allocation beyond the tuples.
                idx = slot & _WHEEL_MASK
                bucket = self._buckets[idx]
                self._occupied &= ~(1 << idx)
                del front[:]
                dead = 0
                for handle in bucket:
                    if ecb[handle] is not None:
                        front.append((ewhen[handle], eseq[handle], handle))
                    else:
                        dead += 1
                        free.append(handle)
                del bucket[:]
                if dead:
                    self._cancelled_unreaped -= dead
                front.sort()
                self._front_slot = slot
                self._front_pos = pos = 0
                n = len(front)
                if n > self._max_bucket:
                    self._max_bucket = n
                continue
            # Near wheel empty: reap cancelled spill heads, then jump the
            # window to the spill's first live slot and re-bucket.
            spill = self._spill
            while spill and ecb[spill[0][2]] is None:
                self._cancelled_unreaped -= 1
                free.append(heappop(spill)[2])
            if not spill:
                return None
            self._cur_slot = max(
                self._cur_slot, int(spill[0][0] * self._inv_width)
            )
            self._refill_from_spill()

    def _pop_cohort(self, when):
        """Move every future event with time exactly ``when`` (the batch
        :meth:`_next_when` is positioned on) into the ready ring.

        A pointer walk over the sorted front: batch-decodes the whole
        same-time cohort from the columns with no pops and no compares
        beyond the cohort boundary.  Front entries drain before overlay
        entries at the same timestamp — front seqs are all smaller."""
        front = self._front
        pos = self._front_pos
        n = len(front)
        ready = self._ready
        ecb = self._ecb
        eargs = self._eargs
        free = self._free
        live = 0
        while pos < n:
            entry = front[pos]
            if entry[0] != when:
                break
            pos += 1
            handle = entry[2]
            callback = ecb[handle]
            if callback is not None:
                ready.append((callback, eargs[handle]))
                live += 1
                ecb[handle] = None
            else:
                self._cancelled_unreaped -= 1
            # Physically drained: the handle is free for reuse.  A stale
            # Timer still can't touch it — the callback column is
            # cleared and seq values are never reused.
            eargs[handle] = None
            free.append(handle)
        self._front_pos = pos
        fheap = self._fheap
        while fheap and fheap[0][0] == when:
            handle = heappop(fheap)[2]
            callback = ecb[handle]
            if callback is not None:
                ready.append((callback, eargs[handle]))
                live += 1
                ecb[handle] = None
            else:
                self._cancelled_unreaped -= 1
            eargs[handle] = None
            free.append(handle)
        self._future_live -= live

    def _compact(self):
        """Sweep tombstoned handles out of the wheel, front, and spill.

        Pure flat-buffer work: filter int lists against the callback
        column, freeing every dead handle (each container holds its
        handles' only references)."""
        ecb = self._ecb
        free = self._free
        buckets = self._buckets
        occupied = self._occupied
        new_occupied = 0
        for idx in range(_WHEEL_SLOTS):
            if not occupied >> idx & 1:
                continue
            bucket = buckets[idx]
            keep = [h for h in bucket if ecb[h] is not None]
            if len(keep) != len(bucket):
                for h in bucket:
                    if ecb[h] is None:
                        free.append(h)
                bucket[:] = keep
            if bucket:
                new_occupied |= 1 << idx
        self._occupied = new_occupied
        front = self._front
        pos = self._front_pos
        if pos < len(front):
            suffix = front[pos:]
            keep = [t for t in suffix if ecb[t[2]] is not None]
            if len(keep) != len(suffix):
                for t in suffix:
                    if ecb[t[2]] is None:
                        free.append(t[2])
                # A filtered subsequence of a sorted list stays sorted.
                front[pos:] = keep
        fheap = self._fheap
        if fheap:
            keep = [t for t in fheap if ecb[t[2]] is not None]
            if len(keep) != len(fheap):
                for t in fheap:
                    if ecb[t[2]] is None:
                        free.append(t[2])
                fheap[:] = keep
                heapify(fheap)
        spill = self._spill
        if spill:
            keep = [t for t in spill if ecb[t[2]] is not None]
            if len(keep) != len(spill):
                for t in spill:
                    if ecb[t[2]] is None:
                        free.append(t[2])
                spill[:] = keep
                # Filtering can break the heap invariant; rebuild.
                heapify(spill)
        self._cancelled_unreaped = 0
        self._compactions += 1

    def wheel_stats(self):
        """Timing-wheel engine statistics (``repro profile --hot``)."""
        pool_slots = len(self._eseq)
        pool_free = len(self._free)
        return {
            "engine": "timing-wheel",
            "bucket_width_s": self._width,
            "buckets": _WHEEL_SLOTS,
            "max_bucket_occupancy": self._max_bucket,
            "spill_rebuckets": self._spill_rebuckets,
            "spill_peak": self._spill_peak,
            "timers_cancelled": self._timers_cancelled,
            "cancelled_unreaped": self._cancelled_unreaped,
            "compactions": self._compactions,
            "pool_slots": pool_slots,
            "pool_free": pool_free,
            "pool_occupancy": pool_slots - pool_free,
            "pending_events": self.pending_events,
            "events_dispatched": self.events_dispatched,
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until=None):
        """Execute events until all non-daemon processes finish.

        Args:
            until: Optional virtual-time horizon.  When given, execution
                stops once the clock would pass it (the clock is then
                set to exactly ``until``).

        Raises:
            ProcessFailed: A process raised; the original exception is
                chained.
            SimulationDeadlock: The event queue drained while non-daemon
                processes were still blocked.
        """
        ready = self._ready
        popleft = ready.popleft
        live = self._live
        dispatched = 0
        no_horizon = until is None
        while True:
            if self._failure is not None:
                break
            if no_horizon and not live:
                break
            if ready:
                callback, args = popleft()
                dispatched += 1
                callback(*args)
                continue
            when = self._next_when()
            if when is None:
                break
            if not no_horizon and when > until:
                self.now = until
                break
            self.now = when
            # Batch-drain the whole equal-time cohort into the ring.
            # The sorted front yields seq (scheduling) order, and
            # anything scheduled at ``when`` while the cohort runs has a
            # larger seq and is appended behind it.
            self._pop_cohort(when)
        self.events_dispatched += dispatched
        if self.runtime_probe is not None:
            # Wall-clock plane: publish the live virtual frontier and
            # event total so `repro top` can show per-shard progress.
            self.runtime_probe.gauge("sim_now", self.now)
            self.runtime_probe.gauge("sim_events", self.events_dispatched)
        if self._failure is not None:
            failure, cause = self._failure
            self._failure = None
            raise failure from cause
        if no_horizon and live:
            blocked = list(live)
            names = ", ".join(
                f"{p.name} (on {p._blocked_on!r})" for p in blocked[:10]
            )
            raise SimulationDeadlock(
                f"{len(blocked)} process(es) blocked with no pending events: {names}"
            )

    def run_until(self, when):
        """Epoch stepping: execute every event with time <= ``when`` and
        leave the clock at exactly ``when``.

        This is the primitive a sharded cluster run is built from: each
        shard's simulator is advanced barrier-to-barrier in lockstep
        with its peers, and after the call the clock reads ``when`` even
        if the shard had no event near the horizon (idle shards advance
        too, so a subsequent spawn's relative delay is a pure function
        of the barrier time, not of whatever event happened to run
        last).  Unlike :meth:`run`, daemon-only activity keeps being
        dispatched up to the horizon — a background scanner ticks the
        same number of times whether its host shares the simulator with
        a busy host or sits in its own shard.
        """
        if when < self.now:
            raise ValueError(
                f"cannot step backwards: {when} < {self.now}"
            )
        self.run(until=when)
        self.now = when

    def _fail(self, failure, cause):
        if self._failure is None:
            self._failure = (failure, cause)
