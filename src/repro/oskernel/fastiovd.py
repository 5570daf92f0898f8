"""fastiovd: the portable FastIOV kernel module (§5).

Holds the machinery for decoupled (lazy) page zeroing:

* A **two-tier table** — first tier keyed by the microVM's PID, second
  tier an address-sorted list of *spans* of pages whose zeroing was
  deferred at DMA-map time.  Registration and teardown cost O(spans)
  (one span per contiguous run the VFIO driver retrieved), not
  O(pages); per-page operations (EPT-fault claims) split spans.
* The **instant-zeroing list**: pages the hypervisor will write before
  guest boot (BIOS/kernel ROM).  They are zeroed at allocation and never
  enter the lazy table, so an EPT fault cannot clobber them (§4.3.2).
* The **EPT-fault hook** KVM calls before inserting an entry: if the
  faulting page is in the table, zero it now, remove it, and only then
  let the guest proceed.
* A **background scanner** daemon that drains remaining table entries
  during idle/overlappable time, bounded to ``fastiovd_scan_workers``
  cores so it cannot starve foreground startup work.

Concurrency safety: a page is *claimed* (removed from the table and
given an in-flight completion event) before any zeroing starts, so a
simultaneous EPT fault waits on the in-flight event rather than racing
with the scanner — the guest can never observe a page that is neither
residual-protected nor fully zeroed.
"""

import bisect

from repro.sim.core import Timeout
from repro.sim.sync import SimEvent


class _SpanTable:
    """Sorted disjoint ``[start, end)`` byte spans with a payload each.

    The workhorse behind both the lazy table (payload: the backing
    region) and the scanner's in-flight claims (payload: the completion
    event).  All operations are O(log spans) plus the touched spans.
    """

    __slots__ = ("_starts", "_spans")

    def __init__(self):
        self._starts = []
        self._spans = []  # [start, end, payload]

    def __bool__(self):
        return bool(self._spans)

    def __iter__(self):
        return iter(self._spans)

    def insert(self, start, end, payload, coalesce=False):
        i = bisect.bisect_left(self._starts, start)
        if (coalesce and i > 0 and self._spans[i - 1][1] == start
                and self._spans[i - 1][2] is payload):
            self._spans[i - 1][1] = end
            if (i < len(self._spans) and self._spans[i][0] == end
                    and self._spans[i][2] is payload):
                self._spans[i - 1][1] = self._spans[i][1]
                del self._starts[i]
                del self._spans[i]
            return
        if (coalesce and i < len(self._spans) and self._spans[i][0] == end
                and self._spans[i][2] is payload):
            self._spans[i][0] = start
            self._starts[i] = start
            return
        self._starts.insert(i, start)
        self._spans.insert(i, [start, end, payload])

    def find(self, addr):
        """The span containing ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0 and self._spans[i][0] <= addr < self._spans[i][1]:
            return self._spans[i]
        return None

    def remove_range(self, start, end):
        """Drop [start, end) wherever present; splits partial overlaps.

        Returns the number of bytes actually removed.
        """
        i = bisect.bisect_right(self._starts, start) - 1
        if i < 0:
            i = 0
        removed = 0
        while i < len(self._spans) and self._spans[i][0] < end:
            span = self._spans[i]
            if span[1] <= start:
                i += 1
                continue
            cut_start = max(span[0], start)
            cut_end = min(span[1], end)
            removed += cut_end - cut_start
            if span[0] < cut_start and span[1] > cut_end:
                self._starts.insert(i + 1, cut_end)
                self._spans.insert(i + 1, [cut_end, span[1], span[2]])
                span[1] = cut_start
                i += 2
            elif span[0] < cut_start:
                span[1] = cut_start
                i += 1
            elif span[1] > cut_end:
                span[0] = cut_end
                self._starts[i] = cut_end
            else:
                del self._starts[i]
                del self._spans[i]
        return removed

    def pop_front(self, budget_bytes):
        """Take up to ``budget_bytes`` from the lowest-addressed spans.

        Returns ``[(start, end, payload), ...]``, splitting the last
        span when the budget lands mid-span.
        """
        taken = []
        budget = budget_bytes
        while budget > 0 and self._spans:
            span = self._spans[0]
            length = span[1] - span[0]
            if length <= budget:
                taken.append((span[0], span[1], span[2]))
                budget -= length
                del self._starts[0]
                del self._spans[0]
            else:
                cut = span[0] + budget
                taken.append((span[0], cut, span[2]))
                span[0] = cut
                self._starts[0] = cut
                budget = 0
        return taken

    def total_bytes(self):
        return sum(span[1] - span[0] for span in self._spans)


class FastiovdStats:
    """Counters reported by experiments and asserted by tests."""

    def __init__(self):
        self.registered_pages = 0
        self.instant_pages = 0
        self.fault_zeroed_pages = 0
        self.background_zeroed_pages = 0
        self.fault_wait_events = 0

    @property
    def zeroed_pages(self):
        return self.fault_zeroed_pages + self.background_zeroed_pages

    def __repr__(self):
        return (
            f"FastiovdStats(registered={self.registered_pages}, "
            f"instant={self.instant_pages}, fault={self.fault_zeroed_pages}, "
            f"background={self.background_zeroed_pages})"
        )


class Fastiovd:
    """The fastiovd kernel module."""

    def __init__(self, sim, cpu, spec, start_scanner=True, dram=None,
                 name="fastiovd", ticker=None):
        self._sim = sim
        self._cpu = cpu
        self._dram = dram if dram is not None else cpu
        self._spec = spec
        #: Optional cluster-level :class:`repro.sim.ticker.DaemonTicker`
        #: the scanner parks on instead of arming a private timer every
        #: scan interval (one shared event per cell per tick; idle hosts
        #: are swept with a predicate call instead of a dispatch).
        self._ticker = ticker
        #: Diagnostic name; the host prefixes it ("host3-fastiovd") so
        #: scanner/worker trace tracks stay unique across a cluster.
        self.name = name
        #: Host name whose pull probes we sample at scan-tick ends
        #: (set by Host._wire_trace when tracing is on).
        self.probe_owner = None
        self._pending = {}  # pid -> _SpanTable (payload: AllocatedRegion)
        #: (pid, hpa) -> completion SimEvent of a claimed page, or None
        #: until something waits on it (most claims are never waited on,
        #: so the event is made on first ask).
        self._inflight = {}
        self._instant = {}  # pid -> set of hpas on the instant list
        self.stats = FastiovdStats()
        self._scanner_enabled = start_scanner
        if start_scanner:
            sim.spawn(self._scan_loop(), name=f"{name}-scanner", daemon=True)

    # ------------------------------------------------------------------
    # registration (called from the VFIO dma_map path / hypervisor)
    # ------------------------------------------------------------------
    def register_lazy(self, pid, region, spans=None):
        """Defer zeroing for microVM ``pid`` of ``region``'s dirty spans.

        ``spans`` is ``[(start_hpa, end_hpa), ...]`` (defaults to the
        region's current dirty spans).  State change only; the (tiny)
        registration cost is charged by the caller inside the dma_map
        pipeline.  Cost is O(spans), one span per contiguous dirty run.
        """
        if spans is None:
            spans = region.dirty_spans()
        table = self._pending.get(pid)
        if table is None:
            table = self._pending[pid] = _SpanTable()
        pages = 0
        for start, end in spans:
            table.insert(start, end, region, coalesce=True)
            pages += (end - start) // region.page_size
        self.stats.registered_pages += pages

    def register_instant(self, pid, pages):
        """Put pages on the instant-zeroing list and scrub them now.

        Used for hypervisor-written regions (BIOS, kernel).  Returns a
        generator charging the synchronous zeroing cost.

        Ordering is what makes this safe against the background
        scanner: the pages leave the lazy table *first* (so no new claim
        can be taken while we block), then any already-claimed pages
        have their in-flight zeroing waited out, and only then do we
        scrub and hand the pages to the hypervisor.  Any other order
        lets a scanner worker zero a page after the hypervisor's write.
        """
        table = self._pending.get(pid)
        if table is not None:
            # Instant pages are "not managed by FastIOV" (§4.3.2): an
            # EPT fault or scan must never re-zero them after the
            # hypervisor writes.
            for page in pages:
                table.remove_range(page.hpa, page.hpa + page.size)
            if not table:
                self._pending.pop(pid, None)
        for page in pages:
            event = self._inflight_event(pid, page.hpa)
            if event is not None:
                yield event.wait()
        nbytes = sum(page.size for page in pages)
        if nbytes:
            yield self._dram.work(self._spec.zeroing_cpu_seconds(nbytes))
        hpas = self._instant.setdefault(pid, set())
        for page in pages:
            page.zero()
            hpas.add(page.hpa)
        self.stats.instant_pages += len(pages)

    def forget_pages(self, pid, pages):
        """Drop any table/list state for pages being unmapped/freed."""
        table = self._pending.get(pid)
        hpas = self._instant.get(pid)
        for page in pages:
            if table is not None:
                table.remove_range(page.hpa, page.hpa + page.size)
            if hpas is not None:
                hpas.discard(page.hpa)
        if table is not None and not table:
            self._pending.pop(pid, None)
        if hpas is not None and not hpas:
            self._instant.pop(pid, None)

    def forget_region(self, pid, region):
        """Drop table/list state for a whole region in O(spans)."""
        table = self._pending.get(pid)
        hpas = self._instant.get(pid)
        for start, end in region._batch_spans:
            if table is not None:
                table.remove_range(start, end)
            if hpas is not None:
                hpas.difference_update(
                    {hpa for hpa in hpas if start <= hpa < end}
                )
        if table is not None and not table:
            self._pending.pop(pid, None)
        if hpas is not None and not hpas:
            self._instant.pop(pid, None)

    def drop_pid(self, pid):
        """Remove a dead microVM's entire second-tier table."""
        self._pending.pop(pid, None)
        self._instant.pop(pid, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _inflight_event(self, pid, hpa):
        """The completion event of a claimed page (made on first ask), or
        None when the page is not being zeroed."""
        key = (pid, hpa)
        inflight = self._inflight
        if key not in inflight:
            return None
        event = inflight[key]
        if event is None:
            event = inflight[key] = SimEvent(
                self._sim, name=f"zeroing-{pid}-{hpa:#x}")
        return event

    def _release_claim(self, key):
        """A claimed page is zeroed: wake whoever waited on it."""
        event = self._inflight.pop(key)
        if event is not None:
            event.trigger()

    def manages(self, pid, page):
        table = self._pending.get(pid)
        return bool(table and table.find(page.hpa) is not None)

    def pending_pages(self, pid=None):
        if pid is not None:
            tables = [self._pending[pid]] if pid in self._pending else []
        else:
            tables = self._pending.values()
        return sum(
            (end - start) // region.page_size
            for table in tables
            for start, end, region in table
        )

    def pending_bytes(self):
        return sum(table.total_bytes() for table in self._pending.values())

    # ------------------------------------------------------------------
    # EPT-fault hook (called by KVM, Fig. 9 step between 5 and 6)
    # ------------------------------------------------------------------
    def on_ept_fault(self, pid, page):
        """Zero the page if its zeroing was deferred; always safe to call.

        Charges the hash lookup; if the page is lazily pending, claims
        and zeroes it before returning.  If the scanner already claimed
        it, waits for the scanner to finish instead of double-zeroing.
        """
        yield Timeout(self._spec.fastiovd_lookup_s)
        event = self._inflight_event(pid, page.hpa)
        if event is not None:
            self.stats.fault_wait_events += 1
            yield event.wait()
            return
        table = self._pending.get(pid)
        if not table or table.find(page.hpa) is None:
            return
        table.remove_range(page.hpa, page.hpa + page.size)
        if not table:
            self._pending.pop(pid, None)
        key = (pid, page.hpa)
        self._inflight[key] = None
        # Fault-path zeroing is cache-adjacent to the guest's first use
        # and much cheaper than a bulk clear — but it still shares the
        # memory controller with the background scanner's bulk work.
        yield self._dram.work(self._spec.fault_zeroing_cpu_seconds(page.size))
        page.zero()
        self._release_claim(key)
        self.stats.fault_zeroed_pages += 1

    # ------------------------------------------------------------------
    # background scanner (§5 "background clearing")
    # ------------------------------------------------------------------
    def _has_pending(self):
        """Scanner wake predicate for the aggregated ticker."""
        return bool(self._pending)

    def _scan_loop(self):
        spec = self._spec
        ticker = self._ticker
        park = None
        if ticker is not None and ticker.interval == spec.fastiovd_scan_interval_s:
            # Park on the shared cell-wide tick (the command is
            # immutable, so one instance is re-yielded every cycle).
            # A ticker with a foreign interval falls back to the
            # private timer so scan cadence always follows the spec.
            park = ticker.park(self._has_pending)
        while True:
            if park is not None:
                # Resumes only at a tick where the lazy table is
                # non-empty; idle ticks never step this generator.
                yield park
            else:
                yield Timeout(spec.fastiovd_scan_interval_s)
            claimed = self._claim_chunk(spec.fastiovd_scan_chunk_bytes)
            if not claimed:
                continue
            trace = self._sim.trace
            if trace is not None:
                trace.begin(trace.current_track(), "scan-tick")
            # Split the chunk across the bounded worker pool; each
            # worker is one single-threaded zeroing job on the shared
            # CPU, so interference is capped at scan_workers cores.
            workers = min(spec.fastiovd_scan_workers, len(claimed))
            shares = [claimed[i::workers] for i in range(workers)]
            procs = [
                self._sim.spawn(
                    self._zero_share(share),
                    name=f"{self.name}-worker-{i}",
                    daemon=True,
                )
                for i, share in enumerate(shares)
            ]
            for proc in procs:
                yield proc.join()
            if trace is not None:
                trace.end(trace.current_track())
                trace.sample_probes(self.probe_owner)

    def _claim_chunk(self, budget_bytes):
        """Claim up to a chunk of pending pages, oldest microVM first.

        The pending *table* is span-granular, but the scanner's claims
        are per page (with a per-page in-flight entry): a chunk is at
        most ``budget_bytes``, so the expansion is small and bounded,
        and a racing EPT fault waits only for its own page's zeroing.
        A claim names its page by address, never by a cached
        :class:`~repro.hw.memory.Page` view, so scanning materializes no
        per-page object that would outlive the zeroing.
        """
        claimed = []
        budget = budget_bytes
        inflight = self._inflight
        for pid in list(self._pending):
            if budget <= 0:
                break
            table = self._pending[pid]
            for start, end, region in table.pop_front(budget):
                budget -= end - start
                for hpa in range(start, end, region.page_size):
                    key = (pid, hpa)
                    inflight[key] = None
                    claimed.append((key, region))
            if not table:
                self._pending.pop(pid, None)
        return claimed

    def _zero_share(self, share):
        trace = self._sim.trace
        if trace is not None:
            trace.begin(trace.current_track(), "zero-share")
        for key, region in share:
            yield self._dram.work(
                self._spec.zeroing_cpu_seconds(region.page_size))
            region.zero_page(key[1])
            self._release_claim(key)
            self.stats.background_zeroed_pages += 1

    def __repr__(self):
        return (
            f"<Fastiovd pending={self.pending_pages()} pages, "
            f"{self.stats!r}>"
        )
