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

Engine layout
-------------

Pending events live in two places:

* ``_ready`` — a FIFO ring (:class:`collections.deque`) of
  ``(callback, args)`` pairs due at the current clock.  Same-time
  scheduling — process resumption after a lock grant, zero-delay
  timeouts, spawn, join completion — is by far the dominant case in
  this simulator, and it costs one ``append``/``popleft`` pair.
* ``_heap`` — a binary heap (:mod:`heapq`) of strictly-future events,
  each a ``[when, seq, callback, args]`` list.  ``seq`` is a global
  counter bumped on every future insert, so no two entries compare
  equal and the heap never compares callbacks.

The tie-order contract: events fire in ``(when, seq)`` order, where
``seq`` is the order they were scheduled in.  Mechanically:

* When the ring is empty, :meth:`Simulator.run` advances the clock to
  the heap's earliest time *t* and moves the *entire* equal-time cohort
  into the ring (heap pops come out in seq order) before executing
  anything.  Those events were scheduled before the clock reached *t*.
* Events scheduled *at* the current time while the cohort executes are
  appended behind it in the ring; they were scheduled later, so FIFO
  order equals scheduling order.

Cancellable timers
------------------

:meth:`Simulator.call_at` / :meth:`Simulator.call_later` return a
:class:`Timer` holding its heap entry.  ``cancel()`` is O(1) lazy
deletion: it clears the entry's callback slot, and the run loop drops
the tombstone when it reaches the heap top.  The run loop clears the
same slot when an entry fires, so a handle is inert once its timer
fired or was cancelled.  When tombstones number at least
``_COMPACT_MIN`` and outnumber live entries, the heap is rebuilt
without them, so a workload that arms and cancels timers that never
fire — retry watchdogs in a churn storm — does not carry its dead
timers through every later heap operation.

Aggregated daemon ticks
-----------------------

``pending_events`` includes ``_phantom_parked``: processes parked on a
:class:`repro.sim.ticker.DaemonTicker` are represented by one shared
scheduled event per tick phase instead of one timer each, and the
phantom count keeps the externally visible accounting identical to the
per-process-timer world.  See :mod:`repro.sim.ticker`.
"""

from collections import deque
from heapq import heapify, heappop, heappush

from repro.sim.errors import (
    InvalidCommand,
    ProcessFailed,
    SimulationDeadlock,
)

#: Compaction floor: never sweep for fewer tombstones than this.
_COMPACT_MIN = 64

_INF = float("inf")


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
        if not 0 <= delay < _INF:
            raise ValueError(f"timeout must be finite and >= 0: {delay}")
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
    :meth:`cancel` is O(1) lazy deletion — it clears the callback slot
    of the timer's heap entry, which the engine discards later; the
    callback will not run and the event never counts as dispatched.
    The engine clears the same slot when the timer fires, so a handle
    is inert once its timer fired or was cancelled.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim, entry):
        self._sim = sim
        self._entry = entry

    @property
    def active(self):
        """True while the callback is still pending (not fired/cancelled)."""
        return self._entry[2] is not None

    @property
    def when(self):
        """The scheduled fire time, or None once inactive."""
        entry = self._entry
        return entry[0] if entry[2] is not None else None

    def cancel(self):
        """Cancel the pending callback; returns True if it was active."""
        entry = self._entry
        if entry[2] is None:
            return False
        entry[2] = entry[3] = None
        sim = self._sim
        sim._timers_cancelled += 1
        cancelled = sim._cancelled_unreaped + 1
        sim._cancelled_unreaped = cancelled
        # Tombstones outnumber live entries: 2 * cancelled > heap size.
        if cancelled >= _COMPACT_MIN and 2 * cancelled > len(sim._heap):
            sim._compact()
        if sim.trace is not None:
            sim.trace.timer_cancelled()
        return True

    def __repr__(self):
        when = self.when
        state = "inactive" if when is None else f"at {when}"
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
                    heappush(sim._heap, [when, seq, self._on_resume, (None,)])
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
    """

    __slots__ = (
        "now",
        "_ready",
        "_heap",
        "_seq",
        "_spawned",
        "_live",
        "_current",
        "_failure",
        "events_dispatched",
        "_cancelled_unreaped",
        "_phantom_parked",
        "_timers_cancelled",
        "_compactions",
        "trace",
        "runtime_probe",
    )

    def __init__(self):
        self.now = 0.0
        self._ready = deque()
        self._heap = []
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
        #: Cancelled timers still stored in ``_heap`` (tombstones).
        self._cancelled_unreaped = 0
        #: Daemon processes parked on an aggregated ticker, minus the
        #: shared tick events representing them (see repro.sim.ticker):
        #: keeps ``pending_events`` identical to the one-timer-per-
        #: daemon accounting.
        self._phantom_parked = 0
        self._timers_cancelled = 0
        self._compactions = 0
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
        current time goes straight to the ready ring (see the module
        docstring for why that preserves the tie order).
        """
        now = self.now
        if when <= now:
            if when == now:
                self._ready.append((callback, args))
                return
            raise ValueError(f"cannot schedule into the past: {when} < {now}")
        if not when < _INF:
            raise ValueError(f"event time must be finite: {when}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, [when, seq, callback, args])

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
        return self._arm(when, callback, args)

    def call_later(self, delay, callback, *args):
        """Schedule a cancellable callback after ``delay``; returns a Timer."""
        if delay <= 0:
            raise ValueError(f"timer delay must be positive: {delay}")
        now = self.now
        when = now + delay
        if when <= now:
            raise ValueError(
                f"timers must be strictly future: {when} <= {now}"
            )
        return self._arm(when, callback, args)

    def _arm(self, when, callback, args):
        if not when < _INF:
            raise ValueError(f"timer time must be finite: {when}")
        if self.trace is not None:
            callback = self.trace.timer_wrap(callback, when)
        self._seq = seq = self._seq + 1
        entry = [when, seq, callback, args]
        heappush(self._heap, entry)
        return Timer(self, entry)

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
        """Number of events waiting to execute (ring + live heap entries).

        Exact under lazy deletion: a cancelled-but-unreaped timer is a
        tombstone, not a pending event, and is never counted.  Daemons
        parked on an aggregated ticker count as one pending event each
        (the phantom adjustment), exactly as their individual timers
        would.
        """
        return (len(self._ready) + len(self._heap)
                - self._cancelled_unreaped + self._phantom_parked)

    def __len__(self):
        return self.pending_events

    def _compact(self):
        """Rebuild the heap without its tombstones."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._cancelled_unreaped = 0
        self._compactions += 1

    def stats(self):
        """Engine statistics (``repro profile --hot``)."""
        return {
            "events_dispatched": self.events_dispatched,
            "pending_events": self.pending_events,
            "timers_cancelled": self._timers_cancelled,
            "cancelled_unreaped": self._cancelled_unreaped,
            "compactions": self._compactions,
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
        heap = self._heap
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
            while heap and heap[0][2] is None:
                heappop(heap)
                self._cancelled_unreaped -= 1
            if not heap:
                break
            when = heap[0][0]
            if not no_horizon and when > until:
                self.now = until
                break
            self.now = when
            # Move the whole equal-time cohort into the ring: heap pops
            # yield seq (scheduling) order, and anything scheduled at
            # ``when`` while the cohort runs is appended behind it.
            while heap and heap[0][0] == when:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:
                    self._cancelled_unreaped -= 1
                    continue
                ready.append((callback, entry[3]))
                # Fired: a Timer holding this entry is now inactive.
                entry[2] = entry[3] = None
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
