"""Physical memory: page frames, allocation, and security-relevant state.

The allocator hands out page frames in *contiguous batches*, because
batch count is what drives the VFIO driver's page-retrieval cost (P2 in
Fig. 6 of the paper): fragmented free memory means many small batches
and high retrieval overhead, while 2 MiB hugepages mean few batches.

State is tracked in *run-length* form: a :class:`PageRun` is a span of
frames that share one uniform (content, tag, pin, owner) state, so
allocating, zeroing, pinning, or freeing a region costs O(runs) rather
than O(pages) — ≈131k frames for a fully-loaded 256 GiB host collapse
into a handful of spans.  A per-page mutation moves a run edge when it
can: zeroing or writing the first page of a run whose left neighbour
already holds the new state moves the boundary between them one page
right.  That is the common case, because page-by-page traffic (the
fastiovd scanner, guest faults, DMA writes) mostly walks a region in
address order.  Any other per-page mutation splits the page off its
run, changes it and re-coalesces equal-state neighbours.  Both leave
the same runs, so the representation stays compact under page-granular
traffic (EPT faults, ROM loads, background zeroing).

The per-page view — :class:`Page` — is preserved as the unit the rest
of the kernel model speaks: a small handle that resolves its state
through the owning region's run list.  View identity holds while the
region is allocated: the region caches each view it hands out.
:meth:`PhysicalMemory.free` drops that cache, because a view points
back at its region and the pair would otherwise be a reference cycle
that only the cyclic garbage collector could free.  Every security
check still happens at page granularity:

* ``content`` — :data:`PageContent.RESIDUAL` (stale data from a prior
  tenant), :data:`PageContent.ZERO`, or :data:`PageContent.DATA` with a
  ``content_tag`` naming the writer.
* ``pin_count`` — DMA pinning reference count (§2.2 step "pinning").

Reads are checked: a read on a residual page raises
:class:`~repro.hw.errors.ResidualDataLeak`, which is how the test suite
proves both that vanilla eager zeroing is safe and that FastIOV's lazy
zeroing (with its instant-zeroing list and proactive EPT faults) is
safe, while deliberately broken variants are not.
"""

import bisect
import enum

from repro.hw.errors import HardwareError, OutOfMemory, ResidualDataLeak

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Base page size of the simulated host (x86-64).
BASE_PAGE_SIZE = 4 * KIB
#: Hugepage size used throughout the paper's testbed (§3.1).
HUGE_PAGE_SIZE = 2 * MIB


class PageContent(enum.Enum):
    """What a physical page currently holds, for leak checking."""

    RESIDUAL = "residual"
    ZERO = "zero"
    DATA = "data"


class PageRun:
    """A contiguous span of frames sharing one uniform state.

    Attributes:
        hpa: Host physical address of the first frame.
        nbytes: Span length in bytes (multiple of ``page_size``).
        page_size: Frame granularity within the span.
        content: :class:`PageContent` of every frame in the span.
        content_tag: Writer identity for DATA, previous owner for
            RESIDUAL, None for ZERO.
        pin_count: DMA pin reference count of every frame in the span.
        owner: Identifier of the region owner (e.g. a microVM id).
    """

    __slots__ = (
        "hpa", "nbytes", "page_size", "content", "content_tag",
        "pin_count", "owner",
    )

    def __init__(self, hpa, nbytes, page_size, content=PageContent.RESIDUAL,
                 content_tag=None, pin_count=0, owner=None):
        self.hpa = hpa
        self.nbytes = nbytes
        self.page_size = page_size
        self.content = content
        self.content_tag = content_tag
        self.pin_count = pin_count
        self.owner = owner

    @property
    def end(self):
        return self.hpa + self.nbytes

    @property
    def page_count(self):
        return self.nbytes // self.page_size

    @property
    def is_residual(self):
        return self.content is PageContent.RESIDUAL

    @property
    def is_zeroed(self):
        return self.content is PageContent.ZERO

    @property
    def pinned(self):
        return self.pin_count > 0

    def state_equals(self, other):
        """Same uniform state — the condition for coalescing."""
        return (
            self.content is other.content
            and self.content_tag == other.content_tag
            and self.pin_count == other.pin_count
            and self.owner == other.owner
        )

    def clone(self, hpa, nbytes):
        return PageRun(
            hpa, nbytes, self.page_size, self.content, self.content_tag,
            self.pin_count, self.owner,
        )

    # -- store protocol for a standalone single-page view ----------------
    def _run_at(self, hpa):
        return self

    def _set_content(self, hpa, content, tag):
        self.content = content
        self.content_tag = tag

    def _adjust_pin(self, hpa, delta):
        self.pin_count += delta

    def _set_owner(self, hpa, owner):
        self.owner = owner

    def __repr__(self):
        return (
            f"<PageRun hpa={self.hpa:#x} +{self.nbytes} "
            f"content={self.content.value} pins={self.pin_count}>"
        )


class Page:
    """One physical page frame, as a view into run-length state.

    While its region is allocated a ``Page`` is an identity-stable
    handle (``region.pages[i] is region.pages[i]`` holds, as does
    ``memory.page_at(hpa)`` identity) whose state lives in the owning
    store's :class:`PageRun` list.  A page constructed standalone
    carries its own private single-page run.

    Attributes:
        hpa: Host physical address of the frame (aligned to ``size``).
        size: Frame size in bytes (4 KiB or 2 MiB in practice).
    """

    __slots__ = ("hpa", "size", "_store")

    def __init__(self, hpa, size, content=PageContent.RESIDUAL,
                 content_tag=None, _store=None):
        self.hpa = hpa
        self.size = size
        if _store is None:
            _store = PageRun(hpa, size, size, content, content_tag)
        self._store = _store

    # -- state reads -----------------------------------------------------
    @property
    def content(self):
        return self._store._run_at(self.hpa).content

    @property
    def content_tag(self):
        return self._store._run_at(self.hpa).content_tag

    @property
    def pin_count(self):
        return self._store._run_at(self.hpa).pin_count

    @property
    def owner(self):
        return self._store._run_at(self.hpa).owner

    @owner.setter
    def owner(self, value):
        self._store._set_owner(self.hpa, value)

    @property
    def is_residual(self):
        return self.content is PageContent.RESIDUAL

    @property
    def is_zeroed(self):
        return self.content is PageContent.ZERO

    @property
    def pinned(self):
        return self.pin_count > 0

    # -- state writes (through the store) --------------------------------
    def zero(self):
        """Fill the frame with zeros (clears any residual data)."""
        self._store._set_content(self.hpa, PageContent.ZERO, None)

    def write(self, tag):
        """Overwrite the frame with data attributed to ``tag``."""
        self._store._set_content(self.hpa, PageContent.DATA, tag)

    def read(self, reader):
        """Read the frame, enforcing the residual-data security check.

        Returns the content tag (None for a zeroed page).  Raises
        :class:`ResidualDataLeak` if the frame still holds a previous
        tenant's data — the exact condition eager/lazy zeroing exists to
        prevent.
        """
        run = self._store._run_at(self.hpa)
        if run.content is PageContent.RESIDUAL:
            raise ResidualDataLeak(self, reader)
        return run.content_tag

    def pin(self):
        self._store._adjust_pin(self.hpa, 1)

    def unpin(self):
        if self.pin_count <= 0:
            raise HardwareError(f"page {self.hpa:#x} unpinned while not pinned")
        self._store._adjust_pin(self.hpa, -1)

    def __repr__(self):
        return (
            f"<Page hpa={self.hpa:#x} size={self.size} "
            f"content={self.content.value} pins={self.pin_count}>"
        )


class _FreedViews:
    """The view cache of a freed region: it keeps nothing.

    A view made after the free (a late access through a stale mapping)
    still resolves, but is not cached, so it never points back into a
    region -> view -> region cycle.
    """

    __slots__ = ()

    def get(self, hpa):
        return None

    def __setitem__(self, hpa, view):
        pass


_FREED_VIEWS = _FreedViews()


class AllocatedRegion:
    """A set of page frames backing one memory region.

    Frame state is held as a sorted list of :class:`PageRun` spans;
    :class:`Page` views are materialized lazily (and cached until the
    region is freed, so view identity is stable) only for consumers that
    need per-page handles.
    Bulk mutators (:meth:`write_index_span`, :meth:`zero_hpa_span`,
    :meth:`pin_all`, ...) operate on whole runs.

    Attributes:
        region_id: Unique id within the owning :class:`PhysicalMemory`.
        owner: Owner identifier (microVM id, hypervisor, ...).
        label: Human-readable purpose ("ram", "image", "bios-kernel").
        size_bytes: Total bytes (cached; this sits on the KVM slot-lookup
            hot path).
    """

    def __init__(self, region_id, owner, label, batches):
        self.region_id = region_id
        self.owner = owner
        self.label = label
        runs = [run for batch in batches for run in batch]
        if not runs:
            raise HardwareError(f"region {label!r} materialized empty")
        for run in runs:
            run.owner = owner
        self.page_size = runs[0].page_size
        self.size_bytes = sum(run.nbytes for run in runs)
        self._runs = runs
        self._starts = [run.hpa for run in runs]
        #: (start_hpa, end_hpa) per retrieval batch, in address order.
        self._batch_spans = [(batch[0].hpa, batch[-1].end) for batch in batches]
        #: Cumulative page count at the start of each batch, for
        #: page-index -> hpa resolution across discontiguous batches.
        self._batch_index_base = []
        base = 0
        for start, end in self._batch_spans:
            self._batch_index_base.append(base)
            base += (end - start) // self.page_size
        #: hpa -> cached :class:`Page` view; :data:`_FREED_VIEWS` once
        #: the region is freed.
        self._views = {}

    # ------------------------------------------------------------------
    # shape queries
    # ------------------------------------------------------------------
    @property
    def page_count(self):
        return self.size_bytes // self.page_size

    @property
    def batch_count(self):
        return len(self._batch_spans)

    @property
    def runs(self):
        """The live run list (read-only use; address-ordered)."""
        return self._runs

    @property
    def pages(self):
        """All frames as :class:`Page` views, in address order."""
        return [self.page_at_index(i) for i in range(self.page_count)]

    @property
    def batches(self):
        """Views grouped by retrieval batch (contiguous within each)."""
        result = []
        for (start, end), base in zip(self._batch_spans, self._batch_index_base):
            count = (end - start) // self.page_size
            result.append([self.page_at_index(base + i) for i in range(count)])
        return result

    def page_at_index(self, index):
        """The ``index``-th frame (address order) as a view — O(log batches)."""
        return self.page_view(self._hpa_of_index(index))

    def page_view(self, hpa):
        view = self._views.get(hpa)
        if view is None:
            view = Page(hpa, self.page_size, _store=self)
            self._views[hpa] = view
        return view

    def _hpa_of_index(self, index):
        if not 0 <= index < self.page_count:
            raise HardwareError(
                f"region {self.label!r}: page index {index} out of range"
            )
        b = bisect.bisect_right(self._batch_index_base, index) - 1
        start, _end = self._batch_spans[b]
        return start + (index - self._batch_index_base[b]) * self.page_size

    def index_spans(self, first, count):
        """Contiguous (start_hpa, end_hpa) spans covering a page-index range."""
        spans = []
        remaining = count
        index = first
        while remaining > 0:
            b = bisect.bisect_right(self._batch_index_base, index) - 1
            start, end = self._batch_spans[b]
            hpa = start + (index - self._batch_index_base[b]) * self.page_size
            take = min(remaining, (end - hpa) // self.page_size)
            spans.append((hpa, hpa + take * self.page_size))
            index += take
            remaining -= take
        return spans

    # ------------------------------------------------------------------
    # run resolution / split / merge
    # ------------------------------------------------------------------
    def _index_at(self, hpa):
        i = bisect.bisect_right(self._starts, hpa) - 1
        if i >= 0:
            run = self._runs[i]
            if run.hpa <= hpa < run.hpa + run.nbytes:
                return i
        raise HardwareError(
            f"region {self.label!r}: hpa {hpa:#x} not in region"
        )

    def _split_at(self, i, hpa):
        """Ensure a run boundary at ``hpa`` inside run ``i``; return the
        index of the run now starting at ``hpa``."""
        run = self._runs[i]
        if run.hpa == hpa:
            return i
        tail = run.clone(hpa, run.end - hpa)
        run.nbytes = hpa - run.hpa
        self._runs.insert(i + 1, tail)
        self._starts.insert(i + 1, hpa)
        return i + 1

    def _isolate_span(self, start, end):
        """Split so runs[lo:hi] exactly covers [start, end); return (lo, hi).

        The span must lie within one contiguous stretch of the region.
        """
        lo = self._split_at(self._index_at(start), start)
        hi = lo
        while self._runs[hi].end < end:
            hi += 1
        if self._runs[hi].end > end:
            self._split_at(hi, end)
        return lo, hi + 1

    def _merge_around(self, lo, hi):
        """Coalesce equal-state adjacent runs in runs[lo-1 : hi+1]."""
        i = max(lo - 1, 0)
        stop = min(hi + 1, len(self._runs))
        while i < stop - 1:
            a, b = self._runs[i], self._runs[i + 1]
            if a.end == b.hpa and a.state_equals(b):
                a.nbytes += b.nbytes
                del self._runs[i + 1]
                del self._starts[i + 1]
                stop -= 1
            else:
                i += 1

    # -- store protocol (single-page mutations from Page views) ----------
    def _run_at(self, hpa):
        return self._runs[self._index_at(hpa)]

    def _set_content(self, hpa, content, tag):
        i = self._index_at(hpa)
        runs = self._runs
        run = runs[i]
        if run.content is content and run.content_tag == tag:
            return
        if i and run.hpa == hpa:
            left = runs[i - 1]
            if (left.hpa + left.nbytes == hpa and left.content is content
                    and left.content_tag == tag
                    and left.pin_count == run.pin_count
                    and left.owner == run.owner):
                # The page joins its left neighbour, which already holds
                # the new state: move the boundary one page right.  This
                # leaves exactly the runs the split-change-merge path
                # below would, without splitting or cloning.
                size = self.page_size
                left.nbytes += size
                if run.nbytes > size:
                    run.hpa += size
                    run.nbytes -= size
                    self._starts[i] = run.hpa
                    return
                # ``run`` was that one page: drop it, and merge the
                # neighbours it separated when their states are equal.
                del runs[i]
                del self._starts[i]
                if i < len(runs):
                    right = runs[i]
                    if (left.hpa + left.nbytes == right.hpa
                            and left.state_equals(right)):
                        left.nbytes += right.nbytes
                        del runs[i]
                        del self._starts[i]
                return
        lo, hi = self._isolate_span(hpa, hpa + self.page_size)
        target = runs[lo]
        target.content = content
        target.content_tag = tag
        self._merge_around(lo, hi)

    def _adjust_pin(self, hpa, delta):
        lo, hi = self._isolate_span(hpa, hpa + self.page_size)
        self._runs[lo].pin_count += delta
        self._merge_around(lo, hi)

    def _set_owner(self, hpa, owner):
        lo, hi = self._isolate_span(hpa, hpa + self.page_size)
        self._runs[lo].owner = owner
        self._merge_around(lo, hi)

    # ------------------------------------------------------------------
    # bulk state operations (O(runs), not O(pages))
    # ------------------------------------------------------------------
    def write_index_span(self, first, count, tag):
        """DATA-fill ``count`` pages starting at page index ``first``."""
        for start, end in self.index_spans(first, count):
            lo, hi = self._isolate_span(start, end)
            for run in self._runs[lo:hi]:
                run.content = PageContent.DATA
                run.content_tag = tag
            self._merge_around(lo, hi)

    def read_index_span(self, first, count, reader):
        """Per-page content tags for an index range, leak-checked.

        Raises :class:`ResidualDataLeak` naming the first residual frame,
        exactly as a page-by-page read loop would.
        """
        tags = []
        for start, end in self.index_spans(first, count):
            i = self._index_at(start)
            hpa = start
            while hpa < end:
                run = self._runs[i]
                if run.content is PageContent.RESIDUAL:
                    raise ResidualDataLeak(self.page_view(hpa), reader)
                limit = min(run.end, end)
                tags.extend([run.content_tag] * ((limit - hpa) // self.page_size))
                hpa = limit
                i += 1
        return tags

    def zero_page(self, hpa):
        """ZERO-fill the frame at ``hpa`` without materializing its view
        (exactly :meth:`Page.zero` on that view)."""
        self._set_content(hpa, PageContent.ZERO, None)

    def zero_hpa_span(self, start, end):
        """ZERO-fill the frames in [start, end) (one contiguous stretch)."""
        lo, hi = self._isolate_span(start, end)
        for run in self._runs[lo:hi]:
            run.content = PageContent.ZERO
            run.content_tag = None
        self._merge_around(lo, hi)

    def zeroed_page_count(self):
        return sum(run.page_count for run in self._runs if run.is_zeroed)

    def dirty_spans(self):
        """(start_hpa, end_hpa) of every non-zeroed run, address order."""
        return [
            (run.hpa, run.end) for run in self._runs if not run.is_zeroed
        ]

    def zero_first_dirty(self, count):
        """Zero the first ``count`` non-zeroed pages in address order."""
        remaining = count
        i = 0
        while remaining > 0 and i < len(self._runs):
            run = self._runs[i]
            if not run.is_zeroed:
                take = min(remaining, run.page_count)
                if take < run.page_count:
                    self._split_at(i, run.hpa + take * self.page_size)
                run = self._runs[i]
                run.content = PageContent.ZERO
                run.content_tag = None
                remaining -= take
            i += 1
        self._merge_around(0, len(self._runs))

    def zero_all_dirty(self):
        for run in self._runs:
            if not run.is_zeroed:
                run.content = PageContent.ZERO
                run.content_tag = None
        self._merge_around(0, len(self._runs))

    def pin_all(self):
        """Pin every frame (uniform bump: no splits needed)."""
        for run in self._runs:
            run.pin_count += 1

    def unpin_all(self):
        for run in self._runs:
            if run.pin_count <= 0:
                raise HardwareError(
                    f"region {self.label!r}: run {run.hpa:#x} unpinned "
                    f"while not pinned"
                )
            run.pin_count -= 1
        self._merge_around(0, len(self._runs))

    def all_pinned(self):
        return all(run.pin_count > 0 for run in self._runs)

    def __repr__(self):
        return (
            f"<AllocatedRegion {self.label!r} owner={self.owner!r} "
            f"{self.size_bytes >> 20} MiB in {self.batch_count} batches "
            f"({len(self._runs)} runs)>"
        )


class _FreeExtent:
    """A run of free frames: [start_hpa, start_hpa + length_bytes)."""

    __slots__ = ("start", "length")

    def __init__(self, start, length):
        self.start = start
        self.length = length

    @property
    def end(self):
        return self.start + self.length


class _FreeStateMap:
    """Content state of *free* frames, as sorted disjoint intervals.

    Each interval is ``[start, end, kind, tag]`` with ``kind`` either
    ``"zero"`` (freed in the scrubbed state) or ``"residual"`` (dirty,
    ``tag`` names the previous tenant).  Frames absent from the map are
    pristine boot-time frames: conservatively residual with no tag.
    This replaces a per-frame dict/set pair, so recording a freed region
    costs O(runs).
    """

    __slots__ = ("_starts", "_items")

    def __init__(self):
        self._starts = []
        self._items = []  # [start, end, kind, tag]

    def insert(self, start, end, kind, tag):
        """Record state for [start, end); the range must be absent."""
        i = bisect.bisect_left(self._starts, start)
        if i > 0:
            left = self._items[i - 1]
            if left[1] == start and left[2] == kind and left[3] == tag:
                start = left[0]
                i -= 1
                del self._starts[i]
                del self._items[i]
        if i < len(self._items):
            right = self._items[i]
            if right[0] == end and right[2] == kind and right[3] == tag:
                end = right[1]
                del self._starts[i]
                del self._items[i]
        self._starts.insert(i, start)
        self._items.insert(i, [start, end, kind, tag])

    def take(self, start, end):
        """Remove and return the state pieces covering [start, end).

        Gaps (never-freed frames) come back as ``("residual", None)``.
        Adjacent equal-state pieces are pre-merged, so the result is the
        minimal run decomposition of the range.
        """
        pieces = []
        i = bisect.bisect_right(self._starts, start) - 1
        if i < 0:
            i = 0
        pos = start
        while pos < end:
            if i >= len(self._items):
                pieces.append((pos, end, "residual", None))
                break
            item = self._items[i]
            if item[1] <= pos:
                i += 1
                continue
            if item[0] > pos:
                gap_end = min(item[0], end)
                pieces.append((pos, gap_end, "residual", None))
                pos = gap_end
                continue
            take_end = min(item[1], end)
            pieces.append((pos, take_end, item[2], item[3]))
            if item[0] < pos and item[1] > take_end:
                self._starts.insert(i + 1, take_end)
                self._items.insert(i + 1, [take_end, item[1], item[2], item[3]])
                item[1] = pos
                i += 1
            elif item[0] < pos:
                item[1] = pos
                i += 1
            elif item[1] > take_end:
                item[0] = take_end
                self._starts[i] = take_end
            else:
                del self._starts[i]
                del self._items[i]
            pos = take_end
        merged = []
        for piece in pieces:
            if (merged and merged[-1][1] == piece[0]
                    and merged[-1][2] == piece[2] and merged[-1][3] == piece[3]):
                merged[-1] = (merged[-1][0], piece[1], piece[2], piece[3])
            else:
                merged.append(piece)
        return merged


class PhysicalMemory:
    """Page-frame allocator over a flat host physical address space.

    Frames are handed out in address order, largest-contiguous-first
    within the request, grouped into batches per contiguous free extent.
    Freed extents are coalesced with neighbours, and freed frames are
    marked RESIDUAL with the dead owner's tag — recycled memory is dirty
    until someone zeroes it, exactly the hazard §3.2.3 describes.

    Args:
        total_bytes: Size of the physical address space.
        page_size: Frame granularity.  The paper's testbed runs with
            2 MiB hugepages (§3.1); tests may use 4 KiB with smaller
            totals.
    """

    def __init__(self, total_bytes, page_size=HUGE_PAGE_SIZE):
        if total_bytes <= 0 or total_bytes % page_size != 0:
            raise ValueError(
                f"total_bytes ({total_bytes}) must be a positive multiple of "
                f"page_size ({page_size})"
            )
        self.total_bytes = total_bytes
        self.page_size = page_size
        self._free = [_FreeExtent(0, total_bytes)]
        self._regions = {}
        #: Sorted batch-span index for page_at: parallel (start, end, region).
        self._span_starts = []
        self._span_items = []  # (end, region)
        self._free_state = _FreeStateMap()
        self._next_region_id = 0
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def free_bytes(self):
        return self.total_bytes - self.allocated_bytes

    @property
    def free_extent_count(self):
        return len(self._free)

    def page_at(self, hpa):
        """Return the allocated :class:`Page` containing ``hpa``."""
        i = bisect.bisect_right(self._span_starts, hpa) - 1
        if i >= 0:
            end, region = self._span_items[i]
            if hpa < end:
                frame_start = (hpa // self.page_size) * self.page_size
                return region.page_view(frame_start)
        raise HardwareError(f"hpa {hpa:#x} is not an allocated frame")

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, nbytes, owner, label="anon"):
        """Allocate ``nbytes`` (rounded up to whole frames).

        Returns an :class:`AllocatedRegion` whose ``batches`` reflect
        the contiguity of the free extents consumed.  Frames come back
        in whatever content state they were freed with — RESIDUAL if a
        previous tenant used them.
        """
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        remaining = -(-nbytes // self.page_size) * self.page_size
        if remaining > self.free_bytes:
            raise OutOfMemory(
                f"requested {remaining} bytes for {owner!r}/{label!r}, "
                f"only {self.free_bytes} free"
            )
        batches = []
        consumed = 0
        new_free = []
        for extent in self._free:
            if remaining <= 0:
                new_free.append(extent)
                continue
            take = min(extent.length, remaining)
            batches.append(self._materialize(extent.start, take))
            remaining -= take
            consumed += take
            if take < extent.length:
                new_free.append(_FreeExtent(extent.start + take, extent.length - take))
        if remaining > 0:  # pragma: no cover - guarded by free_bytes check
            raise OutOfMemory("free list inconsistent with accounting")
        self._free = new_free
        self.allocated_bytes += consumed
        region = AllocatedRegion(self._next_region_id, owner, label, batches)
        self._next_region_id += 1
        self._regions[region.region_id] = region
        for start, end in region._batch_spans:
            i = bisect.bisect_left(self._span_starts, start)
            self._span_starts.insert(i, start)
            self._span_items.insert(i, (end, region))
        return region

    def _materialize(self, start, length):
        """One retrieval batch: the minimal runs covering [start, +length).

        Recycled frames come back with whatever state they were freed in
        (clean if zeroed-then-freed, residual-with-tag if dirty);
        pristine boot-time frames are conservatively residual with no
        tag (content unknown).
        """
        batch = []
        for s, e, kind, tag in self._free_state.take(start, start + length):
            content = PageContent.ZERO if kind == "zero" else PageContent.RESIDUAL
            batch.append(PageRun(s, e - s, self.page_size, content, tag))
        return batch

    def free(self, region):
        """Return a region's frames to the free pool.

        Pinned frames cannot be freed (DMA could still target them);
        attempting to do so is a modeling error and raises.
        Freed frames are recorded as residual-with-tag so the next
        tenant's allocator sees dirty memory.
        """
        if region.region_id not in self._regions:
            raise HardwareError(f"double free of region {region.region_id}")
        for run in region._runs:
            if run.pin_count > 0:
                raise HardwareError(
                    f"freeing pinned page {run.hpa:#x} (owner {region.owner!r})"
                )
        del self._regions[region.region_id]
        # Views point back at their region: dropping the region's side
        # of that cycle lets a freed region go by refcount.
        region._views = _FREED_VIEWS
        for run in region._runs:
            if run.content is PageContent.ZERO:
                self._free_state.insert(run.hpa, run.end, "zero", None)
            else:
                tag = (
                    run.content_tag if run.content_tag is not None
                    else region.owner
                )
                self._free_state.insert(run.hpa, run.end, "residual", tag)
        for start, end in region._batch_spans:
            i = bisect.bisect_left(self._span_starts, start)
            del self._span_starts[i]
            del self._span_items[i]
            self._insert_free(_FreeExtent(start, end - start))
        self.allocated_bytes -= region.size_bytes

    def _insert_free(self, extent):
        """Insert and coalesce with adjacent free extents."""
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid].start < extent.start:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, extent)
        # Coalesce with successor first, then predecessor.
        if lo + 1 < len(free) and free[lo].end == free[lo + 1].start:
            free[lo].length += free[lo + 1].length
            del free[lo + 1]
        if lo > 0 and free[lo - 1].end == free[lo].start:
            free[lo - 1].length += free[lo].length
            del free[lo]

    # ------------------------------------------------------------------
    # fragmentation injection (for the P2 retrieval-cost ablation)
    # ------------------------------------------------------------------
    def fragment(self, max_run_bytes, jitter=None):
        """Artificially split free extents into runs <= ``max_run_bytes``.

        Models a long-running host whose free memory is fragmented, to
        reproduce the paper's P2 sub-bottleneck (high retrieval cost
        from many small batches).  With ``jitter`` the run lengths vary
        uniformly in [page_size, max_run_bytes].
        """
        if max_run_bytes < self.page_size or max_run_bytes % self.page_size != 0:
            raise ValueError(
                f"max_run_bytes must be a multiple of page_size >= {self.page_size}"
            )
        fragmented = []
        for extent in self._free:
            offset = extent.start
            remaining = extent.length
            while remaining > 0:
                if jitter is None:
                    run = max_run_bytes
                else:
                    pages = jitter.randint(1, max_run_bytes // self.page_size)
                    run = pages * self.page_size
                run = min(run, remaining)
                fragmented.append(_FreeExtent(offset, run))
                offset += run
                remaining -= run
        self._free = fragmented

    def __repr__(self):
        return (
            f"<PhysicalMemory {self.total_bytes >> 30} GiB page={self.page_size} "
            f"allocated={self.allocated_bytes >> 20} MiB "
            f"extents={len(self._free)}>"
        )
