"""Property-based tests for the page-frame allocator (hypothesis)."""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.errors import OutOfMemory
from repro.hw.memory import AllocatedRegion, PageContent, PageRun, PhysicalMemory

PAGE = 4096
TOTAL_PAGES = 64


class _Op:
    """One allocator operation: allocate(n pages) or free(index)."""

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"{self.kind}({self.value})"


ops_strategy = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=16).map(lambda n: _Op("alloc", n)),
        st.integers(min_value=0, max_value=30).map(lambda i: _Op("free", i)),
    ),
    max_size=60,
)


@given(ops_strategy)
@settings(max_examples=200, deadline=None)
def test_allocator_invariants_under_random_workload(ops):
    """No overlap, exact accounting, and full reclamation always hold."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    live = []
    for op in ops:
        if op.kind == "alloc":
            try:
                region = mem.allocate(op.value * PAGE, owner="w")
            except OutOfMemory:
                assert op.value * PAGE > mem.free_bytes
                continue
            live.append(region)
        elif live:
            region = live.pop(op.value % len(live))
            mem.free(region)

        # Invariant 1: live regions never overlap.
        seen = set()
        for region in live:
            for page in region.pages:
                assert page.hpa not in seen, "frame handed out twice"
                seen.add(page.hpa)
        # Invariant 2: accounting matches the live set exactly.
        assert mem.allocated_bytes == sum(r.size_bytes for r in live)
        assert 0 <= mem.free_bytes <= mem.total_bytes
        # Invariant 3: every allocated frame is addressable via page_at.
        for region in live:
            assert mem.page_at(region.pages[0].hpa) is region.pages[0]

    # Full reclamation: freeing everything coalesces back to one extent.
    for region in live:
        mem.free(region)
    assert mem.allocated_bytes == 0
    assert mem.free_extent_count == 1


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10)
)
@settings(max_examples=100, deadline=None)
def test_batches_partition_the_region(sizes):
    """Batches are disjoint, contiguous, and cover every page exactly once."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=8 * PAGE)
    for npages in sizes:
        if npages * PAGE > mem.free_bytes:
            continue
        region = mem.allocate(npages * PAGE, owner="w")
        assert region.page_count == npages
        flattened = [p for batch in region.batches for p in batch]
        assert flattened == region.pages
        for batch in region.batches:
            for a, b in zip(batch, batch[1:]):
                assert b.hpa == a.hpa + a.size, "batch not contiguous"


@given(
    tags=st.lists(
        st.sampled_from(["tenant-a", "tenant-b", "tenant-c"]),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_recycled_memory_never_loses_dirty_marking(tags):
    """However frames are recycled, unzeroed data stays flagged residual."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    for tag in tags:
        region = mem.allocate(4 * PAGE, owner=tag)
        for i, page in enumerate(region.pages):
            if i % 2 == 0:
                page.write(f"{tag}-secret")
            else:
                page.zero()
        mem.free(region)
    final = mem.allocate(TOTAL_PAGES * PAGE, owner="auditor")
    for page in final.pages:
        if page.is_residual:
            assert page.content_tag is None or "secret" in page.content_tag
        # Zeroed-then-freed frames must never be flagged residual.
        if page.content_tag is None and not page.is_residual:
            assert page.is_zeroed


@given(
    max_run_pages=st.integers(min_value=1, max_value=16),
    sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_fragment_preserves_accounting_and_batch_structure(max_run_pages, sizes):
    """fragment() only reshapes free extents; allocations stay correct."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    free_before = mem.free_bytes
    mem.fragment(max_run_bytes=max_run_pages * PAGE)
    assert mem.free_bytes == free_before
    assert mem.allocated_bytes == 0

    live = []
    for npages in sizes:
        if npages * PAGE > mem.free_bytes:
            continue
        region = mem.allocate(npages * PAGE, owner="w")
        live.append(region)
        # Each retrieval batch fits inside one (fragmented) free extent.
        for start, end in region._batch_spans:
            assert (end - start) <= max_run_pages * PAGE
        # The batch-span index and the run list describe the same pages.
        assert sum(e - s for s, e in region._batch_spans) == region.size_bytes
        assert sum(run.nbytes for run in region.runs) == region.size_bytes
        # page_at_index agrees with the flattened batch order.
        flattened = [p for batch in region.batches for p in batch]
        for i in (0, region.page_count // 2, region.page_count - 1):
            assert region.page_at_index(i) is flattened[i]
    for region in live:
        mem.free(region)
    assert mem.allocated_bytes == 0
    assert mem.free_bytes == free_before


@given(
    tags=st.lists(
        st.sampled_from(["tenant-a", "tenant-b", "tenant-c"]),
        min_size=1,
        max_size=6,
    ),
    max_run_pages=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_recycled_tags_survive_fragmentation(tags, max_run_pages):
    """Per-frame residual tags stay exact through fragment + recycle.

    The run-length representation may merge or split spans arbitrarily,
    but the byte an auditor would read from a recycled frame — and the
    tenant tag naming who wrote it — must match a per-frame oracle.
    """
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=max_run_pages * PAGE)
    oracle = {}  # hpa -> ("zero", None) | ("residual", tag)
    for tag in tags:
        region = mem.allocate(6 * PAGE, owner=tag)
        for i in range(region.page_count):
            page = region.page_at_index(i)
            if i % 3 == 0:
                page.write(f"{tag}-secret")
                oracle[page.hpa] = ("residual", f"{tag}-secret")
            elif i % 3 == 1:
                page.zero()
                oracle[page.hpa] = ("zero", None)
            else:
                # Untouched allocation: keeps whatever state the frame
                # already had; pristine frames free as owner-tagged dirt.
                oracle.setdefault(page.hpa, ("residual", tag))
        mem.free(region)

    final = mem.allocate(TOTAL_PAGES * PAGE, owner="auditor")
    for i in range(final.page_count):
        page = final.page_at_index(i)
        kind, tag = oracle.get(page.hpa, ("residual", None))
        if kind == "zero":
            assert page.is_zeroed and page.content_tag is None
        else:
            assert page.is_residual
            assert page.content_tag == tag


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=8),
    writes=st.lists(st.integers(min_value=0, max_value=63), max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_runs_stay_sorted_disjoint_and_maximally_coalesced(sizes, writes):
    """Structural invariants of the run-length region representation."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=4 * PAGE)
    live = []
    for npages in sizes:
        if npages * PAGE > mem.free_bytes:
            continue
        live.append(mem.allocate(npages * PAGE, owner="w"))
    if not live:
        return
    for w in writes:
        region = live[w % len(live)]
        index = w % region.page_count
        if w % 2:
            region.page_at_index(index).write(f"data-{w}")
        else:
            region.page_at_index(index).zero()
    for region in live:
        runs = region.runs
        for a, b in zip(runs, runs[1:]):
            assert a.end <= b.hpa, "runs overlap or are unsorted"
        # Splitting never inflates the representation past one run per
        # page (adjacent same-state runs from separate retrieval batches
        # are legal until a mutation merges them).
        assert len(runs) <= region.page_count
        # Views resolve through the run list with stable identity.
        for i in (0, region.page_count - 1):
            page = region.page_at_index(i)
            assert region.page_at_index(i) is page
            assert mem.page_at(page.hpa) is page


# ----------------------------------------------------------------------
# Single-page mutations against the split-change-merge oracle
# ----------------------------------------------------------------------
class _SplitMergeTwin:
    """A region's runs driven by the original single-page algorithm.

    Every mutation splits the page off its run (``_isolate_span``),
    changes it, and re-coalesces it with its neighbours
    (``_merge_around``).  The region's own fast paths must leave the
    same runs.
    """

    def __init__(self, region):
        self.page_size = region.page_size
        self.runs = [run.clone(run.hpa, run.nbytes) for run in region.runs]
        self.starts = [run.hpa for run in self.runs]

    def run_at(self, hpa):
        i = bisect.bisect_right(self.starts, hpa) - 1
        assert self.runs[i].hpa <= hpa < self.runs[i].end
        return i

    def _split_at(self, i, hpa):
        run = self.runs[i]
        if run.hpa == hpa:
            return i
        self.runs.insert(i + 1, run.clone(hpa, run.end - hpa))
        self.starts.insert(i + 1, hpa)
        run.nbytes = hpa - run.hpa
        return i + 1

    def _mutate(self, hpa, change):
        i = self._split_at(self.run_at(hpa), hpa)
        if self.runs[i].end > hpa + self.page_size:
            self._split_at(i, hpa + self.page_size)
        change(self.runs[i])
        j = max(i - 1, 0)
        stop = min(i + 2, len(self.runs))
        while j < stop - 1:
            a, b = self.runs[j], self.runs[j + 1]
            if a.end == b.hpa and a.state_equals(b):
                a.nbytes += b.nbytes
                del self.runs[j + 1]
                del self.starts[j + 1]
                stop -= 1
            else:
                j += 1

    def set_content(self, hpa, content, tag):
        run = self.runs[self.run_at(hpa)]
        if run.content is content and run.content_tag == tag:
            return

        def change(run):
            run.content = content
            run.content_tag = tag

        self._mutate(hpa, change)

    def adjust_pin(self, hpa, delta):
        def change(run):
            run.pin_count += delta

        self._mutate(hpa, change)

    def set_owner(self, hpa, owner):
        def change(run):
            run.owner = owner

        self._mutate(hpa, change)


def _run_states(runs):
    return [
        (run.hpa, run.nbytes, run.content, run.content_tag, run.pin_count,
         run.owner)
        for run in runs
    ]


#: Run states a hand-built region draws from: few enough that
#: neighbours often share all but one field.
_CONTENTS = [
    (PageContent.RESIDUAL, "tenant-a"),
    (PageContent.ZERO, None),
    (PageContent.DATA, "a"),
    (PageContent.DATA, "b"),
]
_OWNERS = ["vm", "other"]


@st.composite
def _hand_built_regions(draw):
    """A region whose neighbouring runs differ in exactly one field
    (content, pin count or owner), with retrieval batches that abut or
    sit across a gap of free frames."""
    batches = []
    states = []
    hpa = 0
    state = (draw(st.sampled_from(_CONTENTS)), 0, "vm")
    for _batch in range(draw(st.integers(min_value=1, max_value=3))):
        hpa += draw(st.integers(min_value=0, max_value=2)) * PAGE
        batch = []
        for _run in range(draw(st.integers(min_value=1, max_value=4))):
            field = draw(st.sampled_from(["content", "pins", "owner"]))
            content, pins, owner = state
            if field == "content":
                content = draw(st.sampled_from(
                    [c for c in _CONTENTS if c != content]))
            elif field == "pins":
                pins = 1 - pins
            else:
                owner = _OWNERS[1 - _OWNERS.index(owner)]
            state = (content, pins, owner)
            nbytes = draw(st.integers(min_value=1, max_value=3)) * PAGE
            batch.append(PageRun(hpa, nbytes, PAGE, *content, pin_count=pins))
            states.append(owner)
            hpa += nbytes
        batches.append(batch)
    region = AllocatedRegion(0, "vm", "hand-built", batches)
    for run, owner in zip(region.runs, states):
        run.owner = owner  # the constructor stamps the region's owner
    return region


@st.composite
def _allocated_regions(draw):
    """A region recycled from dirty, fragmented memory: its batches
    abut (fragmented extents) or skip frames still held by a neighbour."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=draw(st.integers(min_value=1, max_value=6)) * PAGE)
    first = mem.allocate(draw(st.integers(min_value=2, max_value=8)) * PAGE, "a")
    held = mem.allocate(draw(st.integers(min_value=1, max_value=3)) * PAGE, "b")
    last = mem.allocate(draw(st.integers(min_value=2, max_value=8)) * PAGE, "c")
    for region in (first, last):
        for index in draw(st.lists(
                st.integers(min_value=0, max_value=region.page_count - 1),
                max_size=4)):
            region.page_at_index(index).zero()
    mem.free(first)
    mem.free(last)
    assert held.page_count
    return mem.allocate(first.size_bytes + last.size_bytes, "vm")


_MUTATIONS = ["zero", "zero_page", "write-a", "write-b", "pin", "unpin",
              "owner-vm", "owner-other"]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_single_page_mutations_match_split_and_merge(data):
    """Random single-page mutations leave exactly the runs and run
    starts that splitting, changing and re-coalescing would."""
    if data.draw(st.booleans(), label="hand-built"):
        region = data.draw(_hand_built_regions())
    else:
        region = data.draw(_allocated_regions())
    twin = _SplitMergeTwin(region)
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(_MUTATIONS),
                  st.integers(min_value=0, max_value=region.page_count - 1)),
        max_size=40,
    ))
    for kind, index in ops:
        page = region.page_at_index(index)
        hpa = page.hpa
        if kind == "zero":
            page.zero()
            twin.set_content(hpa, PageContent.ZERO, None)
        elif kind == "zero_page":
            region.zero_page(hpa)
            twin.set_content(hpa, PageContent.ZERO, None)
        elif kind.startswith("write-"):
            page.write(kind[6:])
            twin.set_content(hpa, PageContent.DATA, kind[6:])
        elif kind == "pin":
            page.pin()
            twin.adjust_pin(hpa, 1)
        elif kind == "unpin":
            if not page.pinned:
                continue
            page.unpin()
            twin.adjust_pin(hpa, -1)
        else:
            page.owner = kind[6:]
            twin.set_owner(hpa, kind[6:])
        assert _run_states(region.runs) == _run_states(twin.runs)
        assert region._starts == twin.starts
