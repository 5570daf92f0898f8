"""Tests for the fastiovd module: lazy zeroing machinery and safety.

Includes the failure-injection scenarios of §4.3.2: what goes wrong
without the instant-zeroing list and without proactive EPT faults.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import MIB, AllocatedRegion
from repro.oskernel.fastiovd import Fastiovd
from repro.oskernel.kvm import PinnedBacking
from repro.oskernel.vfio import DECOUPLED_ZEROING
from repro.sim.core import Timeout
from repro.sim.sync import SimEvent
from tests.conftest import KernelRig


def make_rig(scanner=True):
    r = KernelRig(lock_policy="hierarchical", with_fastiovd=True, scanner=scanner)
    r.bind_all_vfs_to_vfio()
    return r


def build_lazy_vm(r, name="vm0", ram=16 * MIB):
    state = {}

    def flow():
        vm = r.kvm.create_vm(name, r.memory.page_size)
        domain = r.vfio.create_domain(name)
        region = yield from r.vfio.dma_map(
            domain, owner=name, label="ram", nbytes=ram, gpa_base=0,
            policy=DECOUPLED_ZEROING,
        )
        yield from r.kvm.register_slot(vm, 0, PinnedBacking(region), "ram")
        state.update(vm=vm, region=region)

    r.sim.spawn(flow())
    r.run()
    return state


# ----------------------------------------------------------------------
# lazy zeroing on the EPT-fault path
# ----------------------------------------------------------------------
def test_fault_zeroes_pending_page_before_guest_sees_it():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]

    def flow():
        yield from r.kvm.guest_access(vm, 0)  # read: must be zeroed first

    r.sim.spawn(flow())
    r.run()  # no ResidualDataLeak
    assert r.fastiovd.stats.fault_zeroed_pages == 1
    assert r.fastiovd.pending_pages(vm.pid) == state["region"].page_count - 1


def test_fault_zeroing_charges_cpu_time():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]
    t0 = r.sim.now
    elapsed = {}

    def flow():
        yield from r.kvm.guest_access(vm, 0)
        elapsed["dt"] = r.sim.now - t0

    r.sim.spawn(flow())
    r.run()
    zero_cost = r.spec.fault_zeroing_cpu_seconds(r.memory.page_size)
    assert elapsed["dt"] >= zero_cost


def test_faults_on_unmanaged_pages_are_cheap_noops():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]

    def flow():
        yield from r.kvm.guest_access(vm, 0)
        before = r.fastiovd.stats.fault_zeroed_pages
        yield from r.kvm.guest_access(vm, 100)  # same page, no fault at all
        assert r.fastiovd.stats.fault_zeroed_pages == before

    r.sim.spawn(flow())
    r.run()


# ----------------------------------------------------------------------
# background scanner
# ----------------------------------------------------------------------
def test_background_scanner_drains_the_table():
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=8 * MIB)
    assert r.fastiovd.pending_pages() == 8

    def waiter():
        yield Timeout(5.0)

    r.sim.spawn(waiter())
    r.run()
    assert r.fastiovd.pending_pages() == 0
    assert r.fastiovd.stats.background_zeroed_pages == 8
    assert all(page.is_zeroed for page in state["region"].pages)


def race_scanner(r, vm, ram):
    """Touch every page of the guest's RAM, in address order, starting
    right as the scanner begins claiming pages."""

    def toucher():
        yield Timeout(r.spec.fastiovd_scan_interval_s)
        for gpa in range(0, ram, r.memory.page_size):
            yield from r.kvm.guest_access(vm, gpa)

    r.sim.spawn(toucher())
    r.run()


def test_scanner_and_fault_never_double_zero_or_race():
    """A fault racing the scanner waits for the in-flight zeroing."""
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=32 * MIB)
    race_scanner(r, state["vm"], 32 * MIB)
    stats = r.fastiovd.stats
    assert stats.fault_zeroed_pages + stats.background_zeroed_pages == 32
    assert all(page.is_zeroed for page in state["region"].pages)


#: Every background zeroing of a 160-page lazy VM raced by the toucher,
#: as (virtual time, first page index, pages).  The first tick's 128 MiB
#: chunk goes to 32 workers that zero it in 4 rounds of 32 pages; faults
#: zero pages 128-133; the second tick zeroes the last 26 pages.
SCAN_TIMELINE = (
    (0.004625, 0, 32),
    (0.0052499999999999995, 32, 32),
    (0.005875, 64, 32),
    (0.006500000000000001, 96, 32),
    (0.011125000000000001, 134, 26),
)


def test_scanner_timeline_is_pinned(monkeypatch):
    """The scanner's zeroing order and times, and the faults' share of
    the work, pinned to literals."""
    ram = 160 * MIB
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=ram)
    region = state["region"].allocation
    index_of = {}
    for start, end in region.index_spans(0, region.page_count):
        for hpa in range(start, end, region.page_size):
            index_of[hpa] = len(index_of)
    zeroed = []
    zero_page = AllocatedRegion.zero_page

    def recording_zero_page(self, hpa):
        zeroed.append((r.sim.now, index_of[hpa]))
        zero_page(self, hpa)

    monkeypatch.setattr(AllocatedRegion, "zero_page", recording_zero_page)
    race_scanner(r, state["vm"], ram)
    assert zeroed == [
        (now, first + k)
        for now, first, count in SCAN_TIMELINE
        for k in range(count)
    ]
    stats = r.fastiovd.stats
    assert stats.fault_wait_events == 4
    assert stats.fault_zeroed_pages == 6
    assert stats.background_zeroed_pages == 154
    # Only the test's own processes ran (the VM set-up flow, the
    # scanner and the toucher): scan workers are not processes.
    assert r.sim._spawned == 3


# ----------------------------------------------------------------------
# scanner rounds vs one process per worker
# ----------------------------------------------------------------------
def _per_worker_share(daemon, share, amount, done, left):
    for key, region in share:
        yield daemon._dram.work(amount)
        region.zero_page(key[1])
        daemon._release_claim(key)
        daemon.stats.background_zeroed_pages += 1
    left[0] -= 1
    if not left[0]:
        done.trigger()


def per_worker_scan_loop(self):
    """The scanner with one daemon process per worker, each zeroing
    every ``workers``-th claim one page at a time: the model the round
    loop must reproduce exactly.  The rig has no ticker, so it sleeps
    on its own timer."""
    spec = self._spec
    sim = self._sim
    while True:
        yield Timeout(spec.fastiovd_scan_interval_s)
        claimed = self._claim_chunk(spec.fastiovd_scan_chunk_bytes)
        if not claimed:
            continue
        trace = sim.trace
        if trace is not None:
            trace.begin(trace.current_track(), "scan-tick")
        workers = min(spec.fastiovd_scan_workers, len(claimed))
        amount = spec.zeroing_cpu_seconds(claimed[0][1].page_size)
        done = SimEvent(sim, name="scan-tick")
        left = [workers]
        for first in range(workers):
            sim.spawn(
                _per_worker_share(self, claimed[first::workers], amount,
                                  done, left),
                name=f"{self.name}-worker-{first}", daemon=True)
        yield done.wait()
        if trace is not None:
            trace.end(trace.current_track())
            trace.sample_probes(self.probe_owner)


class _ProbeLogTrace:
    """A trace whose hooks do nothing, except that ``timer_wrap`` keeps
    the callback and ``sample_probes`` logs the fault counters."""

    def __init__(self, rig, log):
        self._rig = rig
        self._log = log

    def __getattr__(self, _name):
        return _no_op

    def timer_wrap(self, callback, _when):
        return callback

    def sample_probes(self, _owner):
        rig = self._rig
        self._log.append(("probe", rig.sim.now, rig.kvm.ept_faults_serviced,
                          rig.fastiovd.stats.fault_zeroed_pages))


def _no_op(*_args, **_kwargs):
    return None


def run_scan_race(scan_loop, ram_pages, chunk_pages, workers, start, first,
                  stride, write, competitor_tick):
    """Race a toucher against the scanner; return everything observable.

    The log holds, in order, every background ``zero_page``, every
    toucher access, the competitor's finish and every probe sample.
    ``competitor_tick`` spawns a job of one page's zeroing cost from
    inside that tick's claim, so it queues ahead of the tick's first
    round.
    """
    log = []
    with pytest.MonkeyPatch.context() as patch:
        if scan_loop is not None:
            patch.setattr(Fastiovd, "_scan_loop", scan_loop)
        spec = KernelRig().spec.derive(
            fastiovd_scan_chunk_bytes=chunk_pages * MIB,
            fastiovd_scan_workers=workers)
        r = KernelRig(spec=spec, lock_policy="hierarchical",
                      with_fastiovd=True)
        r.bind_all_vfs_to_vfio()
        state = build_lazy_vm(r, ram=ram_pages * MIB)
        sim = r.sim
        sim.trace = _ProbeLogTrace(r, log)
        zero_page = AllocatedRegion.zero_page

        def logging_zero_page(region, hpa):
            log.append(("zero", sim.now, hpa))
            zero_page(region, hpa)

        patch.setattr(AllocatedRegion, "zero_page", logging_zero_page)
        claim_chunk = Fastiovd._claim_chunk
        ticks = [0]

        def competitor():
            yield r.cpu.work(spec.zeroing_cpu_seconds(spec.page_size))
            log.append(("competitor", sim.now))

        def claiming(daemon, budget_bytes):
            claimed = claim_chunk(daemon, budget_bytes)
            if claimed:
                if ticks[0] == competitor_tick:
                    sim.spawn(competitor())
                ticks[0] += 1
            return claimed

        patch.setattr(Fastiovd, "_claim_chunk", claiming)

        def toucher():
            yield Timeout(start)
            for page in range(first, ram_pages, stride):
                yield from r.kvm.guest_access(
                    state["vm"], page * MIB, write=write, tag="guest")
                log.append(("touch", sim.now, page))

        sim.spawn(toucher())
        # Long enough for the toucher to finish and the table to drain.
        sim.run(until=sim.now + 0.1 + ram_pages // chunk_pages
                * spec.fastiovd_scan_interval_s)
        stats = r.fastiovd.stats
        return (log, vars(stats), sim.now, r.cpu.busy_core_seconds,
                r.cpu.total_core_seconds)


@given(
    ram_pages=st.integers(min_value=1, max_value=96),
    chunk_pages=st.integers(min_value=1, max_value=64),
    workers=st.integers(min_value=1, max_value=70),
    start=st.integers(min_value=0, max_value=64).map(lambda q: q * 0.000125),
    first=st.integers(min_value=0, max_value=95),
    stride=st.integers(min_value=1, max_value=6),
    write=st.booleans(),
    competitor_tick=st.sampled_from([None, 0, 1, 2]),
)
@settings(max_examples=200, deadline=None)
def test_scan_rounds_match_one_process_per_worker(
        ram_pages, chunk_pages, workers, start, first, stride, write,
        competitor_tick):
    """Rounds zero, release and wake exactly as per-worker processes."""
    args = (ram_pages, chunk_pages, workers, start, first % ram_pages,
            stride, write, competitor_tick)
    assert run_scan_race(None, *args) == run_scan_race(
        per_worker_scan_loop, *args)


def test_scanner_respects_chunk_budget():
    spec_small_chunk = KernelRig().spec.derive(
        fastiovd_scan_chunk_bytes=2 * MIB, fastiovd_scan_interval_s=0.1
    )
    r = KernelRig(spec=spec_small_chunk, lock_policy="hierarchical",
                  with_fastiovd=True)
    r.bind_all_vfs_to_vfio()
    build_lazy_vm(r, ram=8 * MIB)

    def waiter():
        yield Timeout(0.25)  # two scan wakeups at most

    r.sim.spawn(waiter())
    r.run(until=0.25)
    assert r.fastiovd.stats.background_zeroed_pages <= 4


# ----------------------------------------------------------------------
# instant-zeroing list
# ----------------------------------------------------------------------
def test_instant_zeroing_protects_hypervisor_written_pages():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]
    rom_pages = state["region"].pages[:2]

    def flow():
        # Hypervisor path: instant-zero, then write kernel code.
        yield from r.fastiovd.register_instant(vm.pid, rom_pages)
        for page in rom_pages:
            page.write("hypervisor:kernel")
        # Guest boots and executes the kernel pages.
        yield from r.kvm.guest_touch_range(
            vm, 0, 2 * r.memory.page_size, expect="hypervisor:kernel", verify=True
        )

    r.sim.spawn(flow())
    r.run()  # no GuestCrash
    assert r.fastiovd.stats.instant_pages == 2


def test_missing_instant_list_entry_crashes_guest():
    """Failure injection: hypervisor writes a page that was (wrongly)
    left in the lazy table; the guest's first access zeroes the kernel
    code out from under it -> crash (§4.3.2 scenario 1)."""
    from repro.oskernel.errors import GuestCrash
    from repro.sim.errors import ProcessFailed

    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]
    rom_page = state["region"].pages[0]

    def flow():
        rom_page.write("hypervisor:kernel")  # no instant-zeroing entry!
        yield from r.kvm.guest_access(vm, 0, expect="hypervisor:kernel")

    r.sim.spawn(flow())
    with pytest.raises(ProcessFailed) as excinfo:
        r.run()
    assert isinstance(excinfo.value.cause, GuestCrash)
    assert rom_page.is_zeroed  # the data really was clobbered


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
def test_forget_pages_and_drop_pid():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    region = state["region"]
    r.fastiovd.forget_pages("vm0", region.pages[:4])
    assert r.fastiovd.pending_pages("vm0") == region.page_count - 4
    r.fastiovd.drop_pid("vm0")
    assert r.fastiovd.pending_pages() == 0


def test_pending_bytes_accounting():
    r = make_rig(scanner=False)
    build_lazy_vm(r, ram=8 * MIB)
    assert r.fastiovd.pending_bytes() == 8 * MIB
