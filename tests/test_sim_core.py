"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim import SimulationDeadlock, Simulator, Timeout
from repro.sim.core import Join
from repro.sim.errors import InvalidCommand, ProcessFailed


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_single_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield Timeout(1.5)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [1.5]


def test_zero_timeout_completes_at_same_time():
    sim = Simulator()
    seen = []

    def proc():
        yield Timeout(0.0)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield Timeout(delay)
        order.append(tag)

    sim.spawn(proc(3.0, "c"))
    sim.spawn(proc(1.0, "a"))
    sim.spawn(proc(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_process_result_via_join():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(0.5)
        return 42

    def parent():
        proc = sim.spawn(child(), name="child")
        value = yield proc.join()
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(0.5, 42)]


def test_join_on_finished_process_returns_immediately():
    sim = Simulator()
    results = []

    def child():
        return "done"
        yield  # pragma: no cover - makes this a generator

    def parent():
        proc = sim.spawn(child(), name="child")
        yield Timeout(1.0)
        value = yield proc.join()
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(1.0, "done")]


def test_multiple_joiners_all_resume():
    sim = Simulator()
    resumed = []

    def child():
        yield Timeout(2.0)
        return "x"

    def parent(proc, tag):
        value = yield proc.join()
        resumed.append((tag, value))

    def root():
        proc = sim.spawn(child(), name="child")
        sim.spawn(parent(proc, "p1"))
        sim.spawn(parent(proc, "p2"))
        yield proc.join()

    sim.spawn(root())
    sim.run()
    assert sorted(resumed) == [("p1", "x"), ("p2", "x")]


def test_process_exception_propagates_with_cause():
    sim = Simulator()

    def bad():
        yield Timeout(0.1)
        raise RuntimeError("boom")

    sim.spawn(bad(), name="bad-proc")
    with pytest.raises(ProcessFailed) as excinfo:
        sim.run()
    assert "bad-proc" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_yielding_garbage_raises_invalid_command():
    sim = Simulator()

    def bad():
        yield 123

    sim.spawn(bad())
    with pytest.raises(InvalidCommand):
        sim.run()


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()

    def proc():
        yield Timeout(100.0)

    sim.spawn(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0
    sim.run()  # finish the rest
    assert sim.now == 100.0


def test_daemon_process_does_not_keep_simulation_alive():
    sim = Simulator()
    ticks = []

    def daemon():
        while True:
            yield Timeout(1.0)
            ticks.append(sim.now)

    def worker():
        yield Timeout(3.5)

    sim.spawn(daemon(), name="daemon", daemon=True)
    sim.spawn(worker())
    sim.run()
    assert sim.now == 3.5
    assert ticks == [1.0, 2.0, 3.0]


def test_deadlock_detection_names_blocked_process():
    from repro.sim import SimEvent

    sim = Simulator()

    def stuck():
        event = SimEvent(sim, name="never")
        yield event.wait()

    sim.spawn(stuck(), name="stuck-proc")
    with pytest.raises(SimulationDeadlock) as excinfo:
        sim.run()
    assert "stuck-proc" in str(excinfo.value)


def test_cannot_schedule_into_the_past():
    sim = Simulator()

    def proc():
        yield Timeout(5.0)
        sim.schedule(1.0, lambda: None)

    sim.spawn(proc())
    with pytest.raises(ProcessFailed):
        sim.run()


def test_spawn_auto_names_are_unique():
    sim = Simulator()

    def proc():
        yield Timeout(0.0)

    p1 = sim.spawn(proc())
    p2 = sim.spawn(proc())
    assert p1.name != p2.name


def test_nested_spawn_runs_child():
    sim = Simulator()
    log = []

    def child():
        yield Timeout(1.0)
        log.append("child")

    def parent():
        proc = sim.spawn(child())
        log.append("parent-before")
        yield proc.join()
        log.append("parent-after")

    sim.spawn(parent())
    sim.run()
    assert log == ["parent-before", "child", "parent-after"]


# ----------------------------------------------------------------------
# Engine-semantics pins: these nail down the documented guarantees the
# dispatch fast paths (ready ring + same-timestamp batch drain) must
# preserve bit-for-bit across any future engine rework.
# ----------------------------------------------------------------------

def test_equal_timestamp_fifo_across_heap_and_ring():
    """Events already queued at time t fire before events scheduled *at*
    time t by the first of them — heap batch before ring appends."""
    sim = Simulator()
    order = []

    def early(tag):
        yield Timeout(1.0)
        order.append(tag)
        # Scheduled once the clock is at 1.0: must run after every
        # same-timestamp event that was already pending.
        sim.schedule(1.0, order.append, f"{tag}-followup")

    def keepalive():
        # Bare callbacks don't keep the simulation alive, so hold it
        # open past the t=1.0 cohort.
        yield Timeout(2.0)

    for tag in ("a", "b", "c"):
        sim.spawn(early(tag))
    sim.spawn(keepalive())
    sim.run()
    assert order == ["a", "b", "c", "a-followup", "b-followup", "c-followup"]


def test_equal_timestamp_fifo_stress():
    """Hundreds of same-time events, mixed spawn/schedule, exact order."""
    sim = Simulator()
    order = []

    def proc(tag):
        yield Timeout(2.5)
        order.append(tag)

    expected = []
    for index in range(200):
        if index % 3 == 0:
            sim.schedule(2.5, order.append, index)
        else:
            sim.spawn(proc(index))
            # spawn's first step runs at t=0; the Timeout lands at 2.5
            # with a later seq than any direct schedule made so far.
        expected.append(index)
    sim.run()
    # Spawned processes take their first step at t=0 (in spawn order)
    # and all re-enter the t=2.5 cohort in that same order, interleaved
    # with the directly scheduled callbacks by scheduling order.
    direct = [i for i in range(200) if i % 3 == 0]
    spawned = [i for i in range(200) if i % 3 != 0]
    assert order == direct + spawned


def test_zero_delay_timeouts_fifo_with_lock_grants():
    """Zero-delay resumes and grant resumes share one FIFO ordering."""
    from repro.sim import Mutex

    sim = Simulator()
    lock = Mutex(sim)
    order = []

    def holder():
        yield lock.acquire()
        yield Timeout(1.0)
        lock.release()
        order.append("released")

    def waiter():
        yield Timeout(1.0)
        order.append("pre-acquire")
        yield lock.acquire()
        order.append("granted")
        lock.release()

    def bystander():
        yield Timeout(1.0)
        order.append("bystander-1")
        yield Timeout(0.0)
        order.append("bystander-2")

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.spawn(bystander())
    sim.run()
    # At t=1.0 the cohort fires in scheduling order (waiter, bystander,
    # holder); the release's grant lands in the ready ring *behind*
    # bystander's already-queued zero-delay resume.
    assert order == [
        "pre-acquire", "bystander-1", "released", "bystander-2", "granted",
    ]


def test_schedule_rejects_past_times_directly():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)

    sim.spawn(proc())
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError, match="cannot schedule into the past"):
        sim.schedule(0.999, lambda: None)
    # Scheduling exactly at the current time is allowed.
    sim.schedule(1.0, lambda: None)


def test_run_until_between_events_does_not_execute_later_ones():
    sim = Simulator()
    fired = []

    def proc():
        yield Timeout(1.0)
        fired.append(sim.now)
        yield Timeout(9.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert fired == [1.0]
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert fired == [1.0, 10.0]


def test_run_until_exactly_on_event_executes_it():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "at-horizon")

    def keepalive():
        yield Timeout(100.0)

    sim.spawn(keepalive())
    sim.run(until=3.0)
    assert fired == ["at-horizon"]
    assert sim.now == 3.0


def test_deadlock_reports_all_blocked_nondaemon_processes():
    from repro.sim import SimEvent

    sim = Simulator()
    event = SimEvent(sim, name="never")

    def stuck(tag):
        yield event.wait()

    sim.spawn(stuck("s1"), name="stuck-1")
    sim.spawn(stuck("s2"), name="stuck-2")
    with pytest.raises(SimulationDeadlock) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "2 process(es)" in message
    assert "stuck-1" in message and "stuck-2" in message


def test_events_dispatched_counts_all_events():
    sim = Simulator()

    def proc():
        yield Timeout(0.0)   # ready-ring path
        yield Timeout(1.0)   # heap path

    sim.spawn(proc())
    assert sim.pending_events == 1
    sim.run()
    # spawn step + zero-delay resume + timed resume
    assert sim.events_dispatched == 3
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# Cancellable timers (Timer handles) and lazy-deletion accounting.
# ----------------------------------------------------------------------

def test_cancelled_timer_never_fires_and_never_dispatches():
    sim = Simulator()
    fired = []
    timer = sim.call_later(1.0, fired.append, "nope")

    def keepalive():
        yield Timeout(2.0)

    sim.spawn(keepalive())
    assert timer.active and timer.when == 1.0
    assert timer.cancel() is True
    assert timer.cancel() is False  # idempotent
    assert not timer.active and timer.when is None
    sim.run()
    assert fired == []
    # spawn step + keepalive timeout only — the cancelled timer must not
    # count as a dispatched event.
    assert sim.events_dispatched == 2


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = []
    timer = sim.call_later(1.0, fired.append, "yes")

    def keepalive():
        yield Timeout(2.0)

    sim.spawn(keepalive())
    sim.run()
    assert fired == ["yes"]
    assert not timer.active
    assert timer.cancel() is False


def test_stale_timer_handle_cannot_cancel_recycled_entry():
    """Entry bodies are pooled; a handle to a dead timer must not reach
    through the free list and cancel an unrelated newer timer."""
    sim = Simulator()
    fired = []
    stale = sim.call_later(1.0, fired.append, "first")
    stale.cancel()
    # Drain so the tombstone is reaped and its body recycled.
    def spin():
        yield Timeout(1.5)

    sim.spawn(spin())
    sim.run()
    fresh = sim.call_later(1.0, fired.append, "second")
    assert stale.cancel() is False
    assert fresh.active
    sim.spawn(spin())
    sim.run()
    assert fired == ["second"]


def test_timers_must_be_strictly_future():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(0.0, lambda: None)
    with pytest.raises(ValueError):
        sim.call_later(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.call_at(0.0, lambda: None)


def test_pending_events_exact_under_lazy_deletion():
    """Cancelled-but-unreaped timers must not inflate pending_events or
    len(sim)."""
    sim = Simulator()
    timers = [sim.call_later(5.0 + i, lambda: None) for i in range(8)]
    assert sim.pending_events == 8
    assert len(sim) == 8
    for timer in timers[:5]:
        timer.cancel()
    # The five tombstones are still physically stored (lazy deletion),
    # but accounting is exact.
    assert sim.pending_events == 3
    assert len(sim) == 3
    for timer in timers[5:]:
        timer.cancel()
    assert sim.pending_events == 0
    assert len(sim) == 0
    sim.run()  # nothing live: returns immediately, clock unchanged
    assert sim.now == 0.0


def test_mass_cancellation_triggers_compaction():
    sim = Simulator()
    for _ in range(3):
        timers = [sim.call_later(60.0 + i * 0.01, lambda: None) for i in range(500)]
        for timer in timers:
            timer.cancel()
    stats = sim.wheel_stats()
    assert stats["timers_cancelled"] == 1500
    assert stats["compactions"] >= 1
    assert sim.pending_events == 0
    # The engine still runs correctly afterwards.
    fired = []
    sim.call_later(0.5, fired.append, "ok")

    def keepalive():
        yield Timeout(1.0)

    sim.spawn(keepalive())
    sim.run()
    assert fired == ["ok"]


def test_insert_behind_advanced_window_after_run_until():
    """A far-future timer can park the wheel cursor way ahead of the
    clock during run_until; inserts landing in the gap (the sharded
    epoch protocol's submit-after-barrier shape) must still fire at the
    right time and in the right order."""
    sim = Simulator()
    fired = []
    sim.call_later(900.0, fired.append, "watchdog")
    sim.run_until(1.0)  # cursor races to the 900 s slot, clock stops at 1
    assert sim.now == 1.0
    # These land behind the advanced window.
    sim.schedule(1.5, fired.append, "near-a")
    sim.schedule(1.25, fired.append, "near-b")
    sim.schedule(400.0, fired.append, "mid")
    sim.run_until(2.0)
    assert fired == ["near-b", "near-a"]
    sim.run_until(1000.0)
    assert fired == ["near-b", "near-a", "mid", "watchdog"]
    assert sim.pending_events == 0


def test_wheel_stats_reports_engine_counters():
    sim = Simulator()
    sim.call_later(1000.0, lambda: None)  # far future: spill level
    cancelled = sim.call_later(0.5, lambda: None)
    cancelled.cancel()

    def keepalive():
        yield Timeout(1500.0)

    sim.spawn(keepalive())
    sim.run()
    stats = sim.wheel_stats()
    assert stats["engine"] == "timing-wheel"
    assert stats["spill_rebuckets"] >= 1
    assert stats["timers_cancelled"] == 1
    assert stats["max_bucket_occupancy"] >= 1
    assert stats["pending_events"] == 0


def test_join_command_repr_mentions_target():
    sim = Simulator()

    def child():
        yield Timeout(1.0)

    proc = sim.spawn(child(), name="target")
    assert "target" in repr(Join(proc))
    sim.run()


def test_finished_process_is_freed_by_refcount():
    """A finished process is reachable from nothing in its Simulator, and
    holds no cycle of its own: dropping the caller's reference frees it
    without a cyclic collection."""
    import gc
    import weakref

    sim = Simulator()

    def child():
        yield Timeout(1.0)
        return "done"

    proc = sim.spawn(child(), name="child")
    ref = weakref.ref(proc)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.run()
        assert proc.finished and proc.result == "done"
        del proc
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_default_process_names_count_every_spawn():
    sim = Simulator()

    def proc():
        yield Timeout(0.0)

    first = sim.spawn(proc())
    sim.spawn(proc(), name="named")
    daemon = sim.spawn(proc(), daemon=True)
    sim.run()
    # Finished, named and daemon processes all advance the counter.
    later = sim.spawn(proc())
    assert [first.name, daemon.name, later.name] == [
        "proc-0", "proc-2", "proc-3"]


def test_deadlock_lists_blocked_processes_in_spawn_order():
    from repro.sim import SimEvent

    sim = Simulator()
    wait = SimEvent(sim, name="never").wait()

    def stuck():
        yield wait

    def quick():
        yield Timeout(0.5)

    def late():
        yield Timeout(1.0)
        yield wait

    sim.spawn(stuck(), name="stuck-a")
    sim.spawn(quick(), name="quick")
    sim.spawn(stuck(), name="ghost", daemon=True)
    sim.spawn(late(), name="stuck-b")
    sim.spawn(stuck(), name="stuck-c")
    with pytest.raises(SimulationDeadlock) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert message == (
        "3 process(es) blocked with no pending events: "
        f"stuck-a (on {wait}), stuck-b (on {wait}), stuck-c (on {wait})"
    )
