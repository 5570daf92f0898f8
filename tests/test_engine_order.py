"""Property test of the engine's firing-order contract.

Drives randomized workloads — mixed timeouts, cancellable timers,
zero-delay resumes, equal timestamps, direct ``schedule`` calls, and
``run_until`` epoch boundaries with work spawned between epochs — and
checks each run against the contract itself.  Every *arm* (a
``schedule``, a ``call_later``, each ``Timeout`` yield, each spawn)
takes the next index of one global counter and records when it is due.
The checker asserts that:

* fires are strictly increasing in ``(when, arm index)``;
* each arm fires at its own ``when``;
* every uncancelled arm due before the final clock fires exactly once,
  and no cancelled arm fires;
* ``pending_events`` equals armed − fired − cancelled, at every epoch
  boundary and at the end of the run.
"""

import random

import pytest

from repro.sim import Simulator, Timeout

#: Quantized delays force frequent equal timestamps.
QUANTUM = 0.00025

N_CASES = 500


def build_plan(seed):
    """Generate one randomized workload as pure data."""
    rng = random.Random(seed)
    n_procs = rng.randint(2, 7)
    procs = []
    for _ in range(n_procs):
        ops = []
        for _ in range(rng.randint(3, 9)):
            roll = rng.random()
            if roll < 0.40:
                # Sleep: zero-delay, tiny, medium, or far.
                band = rng.random()
                if band < 0.25:
                    delay = 0.0
                elif band < 0.55:
                    delay = QUANTUM * rng.randint(1, 8)
                elif band < 0.85:
                    delay = QUANTUM * rng.randint(1, 4000)
                else:
                    delay = QUANTUM * rng.randint(4000, 40000)
                ops.append(("sleep", delay))
            elif roll < 0.60:
                # Plain (non-cancellable) schedule at a future/now time.
                ops.append(("sched", QUANTUM * rng.randint(0, 2000)))
            else:
                # Cancellable timer: fires, cancelled immediately, or
                # cancelled at the process's next wakeup.
                delay = QUANTUM * rng.randint(1, 30000)
                action = rng.choice(("keep", "cancel_imm", "cancel_later"))
                ops.append(("timer", delay, action))
        procs.append(ops)
    span = QUANTUM * 50000
    horizons = sorted(
        rng.uniform(0.0, span) for _ in range(rng.randint(0, 4))
    )
    # Quantize some horizons so epochs land exactly on event times.
    horizons = [
        (QUANTUM * round(h / QUANTUM)) if rng.random() < 0.5 else h
        for h in horizons
    ]
    horizons = sorted(set(horizons))
    # Work submitted *between* epochs (the sharded protocol's shape):
    # these inserts land between the stopped clock and timers armed
    # far ahead during the previous run_until.
    late = [
        [("sleep", QUANTUM * rng.randint(0, 3000)) for _ in range(2)]
        if rng.random() < 0.6
        else None
        for _ in horizons
    ]
    return {"procs": procs, "horizons": horizons, "late": late, "span": span}


class OrderOracle:
    """Records arms, fires and cancellations; checks the contract."""

    def __init__(self, sim):
        self.sim = sim
        #: Arm index -> the virtual time it is due.
        self.due = []
        #: (clock at fire, arm index), in firing order.
        self.fires = []
        self.cancelled = set()

    def arm(self, when):
        self.due.append(when)
        return len(self.due) - 1

    def fire(self, index):
        self.fires.append((self.sim.now, index))

    def cancel(self, timer, index):
        if timer.cancel():
            self.cancelled.add(index)

    def check(self, label, at_horizon=False):
        """Assert the contract.  At a ``run_until`` stop (``at_horizon``)
        every arm due at or before the clock must already have fired."""
        due = self.due
        keys = [(due[index], index) for _, index in self.fires]
        for earlier, later in zip(keys, keys[1:]):
            assert earlier < later, f"{label}: {later} fired after {earlier}"
        for now, index in self.fires:
            assert now == due[index], (
                f"{label}: arm {index} due at {due[index]} fired at {now}"
            )
        fired = {index for _, index in self.fires}
        assert len(fired) == len(self.fires), f"{label}: an arm fired twice"
        assert not fired & self.cancelled, f"{label}: a cancelled arm fired"
        end = self.sim.now
        for index, when in enumerate(due):
            overdue = when <= end if at_horizon else when < end
            if overdue and index not in fired:
                assert index in self.cancelled, (
                    f"{label}: arm {index} due at {when} never fired "
                    f"(clock {end})"
                )
        assert self.sim.pending_events == (
            len(due) - len(self.fires) - len(self.cancelled)
        ), f"{label}: pending_events drifted from the arm ledger"
        assert self.sim.events_dispatched == len(self.fires), (
            f"{label}: an event dispatched outside the arm ledger"
        )


def run_plan(plan, label):
    """Execute a plan, checking the contract at every epoch and the end."""
    sim = Simulator()
    oracle = OrderOracle(sim)

    def spawn(body, *args):
        index = oracle.arm(sim.now)
        sim.spawn(body(index, *args))

    def proc(spawn_index, ops):
        oracle.fire(spawn_index)
        cancel_next = []
        for op in ops:
            kind = op[0]
            if kind == "sleep":
                index = oracle.arm(sim.now + op[1])
                yield Timeout(op[1])
                oracle.fire(index)
                while cancel_next:
                    oracle.cancel(*cancel_next.pop())
            elif kind == "sched":
                when = sim.now + op[1]
                sim.schedule(when, oracle.fire, oracle.arm(when))
            else:
                index = oracle.arm(sim.now + op[1])
                timer = sim.call_later(op[1], oracle.fire, index)
                if op[2] == "cancel_imm":
                    oracle.cancel(timer, index)
                elif op[2] == "cancel_later":
                    cancel_next.append((timer, index))

    def keeper(spawn_index):
        # Outlives every timer so "keep" timers actually fire.
        oracle.fire(spawn_index)
        index = oracle.arm(sim.now + plan["span"] * 2)
        yield Timeout(plan["span"] * 2)
        oracle.fire(index)

    for ops in plan["procs"]:
        spawn(proc, ops)
    spawn(keeper)
    for epoch, horizon in enumerate(plan["horizons"]):
        sim.run_until(horizon)
        oracle.check(f"{label} epoch {epoch}", at_horizon=True)
        late_ops = plan["late"][epoch]
        if late_ops:
            spawn(proc, late_ops)
    sim.run()
    oracle.check(f"{label} end")
    return len(oracle.fires)


def test_randomized_workloads_keep_the_firing_contract():
    fires = sum(run_plan(build_plan(seed), f"seed {seed}")
                for seed in range(N_CASES))
    assert fires > 10 * N_CASES


def test_equal_time_cohort_armed_at_different_clocks():
    # Events for one timestamp, armed far ahead, midway and just before
    # it comes due, still drain in scheduling order.
    sim = Simulator()
    log = []
    target = 0.3

    def driver():
        sim.schedule(target, log.append, "early-seq")
        yield Timeout(target / 2)
        sim.schedule(target, log.append, "mid-seq")
        yield Timeout(target / 2 - 0.0001)
        sim.schedule(target, log.append, "late-seq")
        yield Timeout(target)  # outlive the cohort so it fires

    sim.spawn(driver())
    sim.run()
    assert log == ["early-seq", "mid-seq", "late-seq"]


def build_cancel_heavy_plan(seed):
    """A plan where most operations arm timers and most timers die,
    so tombstones pile up and compactions run mid-workload."""
    rng = random.Random(seed ^ 0x5CA1E)
    procs = []
    for _ in range(rng.randint(3, 6)):
        ops = []
        for _ in range(rng.randint(6, 14)):
            roll = rng.random()
            if roll < 0.70:
                delay = QUANTUM * rng.randint(1, 20000)
                action = rng.choice(
                    ("cancel_imm", "cancel_imm", "cancel_later", "keep")
                )
                ops.append(("timer", delay, action))
            elif roll < 0.85:
                ops.append(("sleep", QUANTUM * rng.randint(0, 400)))
            else:
                ops.append(("sched", QUANTUM * rng.randint(0, 400)))
        procs.append(ops)
    return {"procs": procs, "horizons": [], "late": [], "span": QUANTUM * 50000}


def build_zero_delay_plan(seed):
    """A plan dominated by zero-delay resumes and same-timestamp bursts:
    ready-ring events interleave with heap cohorts at one timestamp,
    the tie-order contract's sharpest edge."""
    rng = random.Random(seed ^ 0x0DE1A)
    procs = []
    for _ in range(rng.randint(3, 6)):
        ops = []
        for _ in range(rng.randint(5, 12)):
            roll = rng.random()
            if roll < 0.55:
                ops.append(("sleep", 0.0))
            elif roll < 0.75:
                # Same-timestamp cohort: quantized tiny delays collide.
                ops.append(("sleep", QUANTUM * rng.randint(1, 3)))
            elif roll < 0.90:
                ops.append(("sched", QUANTUM * rng.randint(0, 3)))
            else:
                ops.append(("timer", QUANTUM * rng.randint(1, 50), "keep"))
        procs.append(ops)
    return {"procs": procs, "horizons": [], "late": [], "span": QUANTUM * 50000}


def build_timer_churn_plan(seed):
    """Waves of short-lived timers that fire or are cancelled before
    the next wave arms, so cancels race fires at nearby timestamps."""
    rng = random.Random(seed ^ 0xF4EE)
    procs = []
    for _ in range(rng.randint(2, 4)):
        ops = []
        for _ in range(rng.randint(8, 16)):
            roll = rng.random()
            if roll < 0.45:
                ops.append(("timer", QUANTUM * rng.randint(1, 8), "keep"))
            elif roll < 0.75:
                ops.append(("timer", QUANTUM * rng.randint(1, 8),
                            rng.choice(("cancel_imm", "cancel_later"))))
            else:
                # Step past the wave.
                ops.append(("sleep", QUANTUM * rng.randint(4, 16)))
        procs.append(ops)
    return {"procs": procs, "horizons": [], "late": [], "span": QUANTUM * 50000}


@pytest.mark.parametrize("make_plan", [
    build_cancel_heavy_plan,
    build_zero_delay_plan,
    build_timer_churn_plan,
])
def test_biased_interleavings_keep_the_firing_contract(make_plan):
    for seed in range(120):
        run_plan(make_plan(seed), f"{make_plan.__name__} seed {seed}")


def test_event_exactly_on_run_until_horizon_fires_inside_epoch():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "on-horizon")
    sim.schedule(0.5000001, fired.append, "past-horizon")
    sim.run_until(0.5)
    assert fired == ["on-horizon"]
    assert sim.now == 0.5
    sim.run_until(1.0)
    assert fired == ["on-horizon", "past-horizon"]
