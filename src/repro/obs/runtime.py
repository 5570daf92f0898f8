"""Wall-clock telemetry plane: runtime probes and their aggregation.

The flight recorder (``repro.obs.recorder``) sees only *virtual* time —
by design, so its output is byte-identical across shard counts.  What
it cannot see is the actual runtime: forked shard workers, the time
they spend blocked on the coordinator, and the pipe IPC that dominates
the 1M-host smoke.  This module is the other clock: every worker (and
the coordinator) carries a :class:`RuntimeProbe` that samples
monotonic-clock spans around the epoch loop's phases and counts wire
frames by op, and a :class:`TelemetryAggregator` in the coordinator
process assembles the per-process records into one cross-process
wall-clock timeline.

Phase vocabulary (every wall-second of a worker's life is attributed
to exactly one of these; the ``Decomposing Docker Container Startup
Performance`` methodology, applied to the simulator's own runtime):

==================  ====================================================
phase               meaning
==================  ====================================================
``compute``         simulation work (``step``/``drain``/``finish``)
``barrier_wait``    blocked on the protocol pipe
``ipc_send``        pickling + writing protocol frames
``ipc_recv``        unpickling received frames (blocked time is wait)
==================  ====================================================

The coordinator's own phases are ``wait``/``place``/``reduce`` (see
``repro.cluster.sharded._CoordinatorStats``) plus the same two
``ipc_*`` phases.

Invariance contract — the reason this file can exist at all: probes
only ever *read* clocks and count bytes.  No probe call feeds back
into simulation state, placement, or message content (telemetry
rides replies as the records half of the wire frame, and
:func:`repro.cluster.wire.recv` hands them to the aggregator and
returns only the message).  Every result byte is therefore identical
with probes on or off — enforced by the telemetry-invariance CI gate.

Cross-process clock alignment: each probe records one
``(time.time(), time.perf_counter())`` pair at birth and stores spans
as perf-counter offsets from it.  The aggregator places each process
on the shared timeline via ``wall0 - origin + offset`` — immune to
perf-counter epoch differences across processes, good to wall-clock
sync (sub-millisecond on one machine, which is all the dual-clock
trace needs).
"""

import gc
import os
import time
from collections import deque

#: Canonical phase order (drives table layouts in ``repro top`` and
#: the dual-clock export's track ordering).
PHASES = (
    "compute",
    "barrier_wait",
    "ipc_send",
    "ipc_recv",
)

#: Span-buffer cap between flushes.  Totals are always exact; only the
#: *drawable* span list is bounded, so a pathological flush interval
#: cannot grow a worker's telemetry buffer without bound.  Dropped
#: spans are counted and reported.
MAX_PENDING_SPANS = 8192


def probes_enabled():
    """Whether runtime probes are on (``REPRO_RUNTIME_PROBES=1``).

    The CLI's switch: ``repro top`` and ``repro trace --wallclock`` set
    it.  ``run_sharded_cluster`` reads it once and hands its decision
    to the forked shard workers as a spawn argument.
    """
    return os.environ.get("REPRO_RUNTIME_PROBES", "") not in ("", "0")


class WireStats:
    """Wire accounting: frames and bytes by protocol op.

    One instance per direction pair lives on each probe; updated by
    :func:`repro.cluster.wire.send`/``recv`` when a probe is
    installed.  Keys are the messages' ops (``step``, ``loads``,
    ``ok``, ``drain``, ``finish``, ``stop``, ``error``).
    """

    __slots__ = ("tx", "rx")

    def __init__(self):
        self.tx = {}
        self.rx = {}

    def note_tx(self, op, nbytes):
        entry = self.tx.get(op)
        if entry is None:
            self.tx[op] = [1, nbytes]
        else:
            entry[0] += 1
            entry[1] += nbytes

    def note_rx(self, op, nbytes):
        entry = self.rx.get(op)
        if entry is None:
            self.rx[op] = [1, nbytes]
        else:
            entry[0] += 1
            entry[1] += nbytes

    def snapshot(self):
        return {
            "tx": {op: list(entry) for op, entry in self.tx.items()},
            "rx": {op: list(entry) for op, entry in self.rx.items()},
        }


class CollectorMeter:
    """Wall time and collection counts of CPython's cyclic collector.

    A context manager hooked into ``gc.callbacks``: while entered it
    counts collections, their seconds and the objects they freed, per
    generation.  A profiler charges collector time to whichever frame
    happened to allocate when a collection fired, so without this meter
    it hides inside allocation sites.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.collected = [0, 0, 0]
        self._began = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._began = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._began
        self.collected[generation] += info["collected"]

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._callback)

    def lines(self, wall_s):
        """Report lines: one per generation, then the total as a share
        of ``wall_s``."""
        rows = [
            f"  gen{generation}  {count:6d} collections  {seconds:8.3f} s"
            f"  {collected:9d} objects freed"
            for generation, (count, seconds, collected) in enumerate(
                zip(self.collections, self.seconds, self.collected))
        ]
        total = sum(self.seconds)
        share = total / wall_s if wall_s else 0.0
        rows.append(f"  total {sum(self.collections):6d} collections  "
                    f"{total:8.3f} s  ({share:.1%} of {wall_s:.3f} s wall)")
        return rows


class RuntimeProbe:
    """Monotonic-clock phase sampling for one process.

    The hot API is ``t0 = probe.begin()`` ... ``probe.lap(phase, t0)``
    — two ``perf_counter`` reads and a couple of dict/list operations
    per span, cheap enough to wrap every epoch-loop phase.  ``flush``
    packages the cumulative totals plus the spans recorded *since the
    last flush* into a compact picklable record, so piggybacked
    telemetry stays O(new activity), not O(uptime).
    """

    __slots__ = (
        "ident", "pid", "wall0", "perf0", "phase_s", "phase_n",
        "counters", "gauges", "wire", "hosts",
        "_spans", "_dropped_spans",
    )

    def __init__(self, ident, hosts=None):
        self.ident = ident
        self.pid = os.getpid()
        self.wall0 = time.time()
        self.perf0 = time.perf_counter()
        self.phase_s = {}
        self.phase_n = {}
        self.counters = {}
        self.gauges = {}
        self.wire = WireStats()
        self.hosts = hosts
        self._spans = []
        self._dropped_spans = 0

    def begin(self):
        """Start a span: returns the raw ``perf_counter`` timestamp."""
        return time.perf_counter()

    def lap(self, phase, began, now=None):
        """Account ``phase`` from ``began`` to now; returns now (so
        back-to-back phases chain without an extra clock read).  A
        caller that already read the clock passes it as ``now``."""
        if now is None:
            now = time.perf_counter()
        self.phase_s[phase] = (
            self.phase_s.get(phase, 0.0) + now - began
        )
        self.phase_n[phase] = self.phase_n.get(phase, 0) + 1
        if len(self._spans) < MAX_PENDING_SPANS:
            self._spans.append(
                (phase, began - self.perf0, now - self.perf0)
            )
        else:
            self._dropped_spans += 1
        return now

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def gauge(self, key, value):
        self.gauges[key] = value

    def flush(self):
        """The telemetry record: cumulative scalars + incremental spans."""
        record = {
            "ident": self.ident,
            "pid": self.pid,
            "wall0": self.wall0,
            "up_s": time.perf_counter() - self.perf0,
            "phases": {
                name: [self.phase_s[name], self.phase_n[name]]
                for name in self.phase_s
            },
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "wire": self.wire.snapshot(),
            "spans": self._spans,
            "dropped_spans": self._dropped_spans,
        }
        if self.hosts is not None:
            record["hosts"] = list(self.hosts)
        self._spans = []
        return record


class TelemetryAggregator:
    """Coordinator-side assembly of probe records into one timeline.

    ``ingest`` receives the records every piggybacked reply carries
    (:func:`repro.cluster.wire.recv` hands them over).  The latest
    cumulative scalars are kept per process identity, spans
    accumulate (they arrive incrementally), and a short rate history
    ring per identity feeds the live view's epochs/s and bytes/s
    columns.  ``snapshot`` renders the whole thing as a plain
    JSON-able dict — the telemetry artifact CI uploads.
    """

    #: Rate-history ring depth per identity (at one record per epoch
    #: reply, 128 samples cover the window any live refresh needs).
    HISTORY = 128

    def __init__(self):
        self.latest = {}
        self.spans = {}
        self.history = {}
        self.progress = None
        self.started = time.time()
        self._locals = []

    def attach_local(self, probe):
        """Poll ``probe`` at snapshot time (single-process runs have
        no wire to piggyback on — the probe lives right here)."""
        self._locals.append(probe)

    def ingest(self, records):
        for record in records:
            self._ingest_one(record)

    def _ingest_one(self, record):
        ident = record["ident"]
        self.latest[ident] = {
            key: record[key]
            for key in ("ident", "pid", "wall0", "up_s", "phases",
                        "counters", "gauges", "wire", "dropped_spans")
        }
        if "hosts" in record:
            self.latest[ident]["hosts"] = record["hosts"]
        if record["spans"]:
            self.spans.setdefault(ident, []).extend(record["spans"])
        ring = self.history.get(ident)
        if ring is None:
            ring = self.history[ident] = deque(maxlen=self.HISTORY)
        total_rx = sum(
            entry[1] for entry in record["wire"]["rx"].values()
        )
        total_tx = sum(
            entry[1] for entry in record["wire"]["tx"].values()
        )
        ring.append((
            time.time(),
            record["counters"].get("epochs", 0),
            total_tx + total_rx,
        ))

    def note_progress(self, placed, total, frontier_epoch):
        self.progress = (placed, total, frontier_epoch)

    def wall_origin(self):
        """Earliest probe birth on the shared wall clock."""
        origins = [rec["wall0"] for rec in self.latest.values()]
        return min(origins) if origins else self.started

    def idents(self):
        """Stable display order: coordinator, workers, rest."""
        def rank(ident):
            if ident == "coordinator":
                return (0, 0, ident)
            if ident.startswith("worker"):
                tail = ident[len("worker"):].lstrip("-")
                try:
                    return (1, int(tail), ident)
                except ValueError:
                    return (1, 0, ident)
            return (2, 0, ident)
        return sorted(self.latest, key=rank)

    def rates(self, ident, window_s=5.0):
        """(epochs/s, bytes/s) over the trailing window."""
        ring = self.history.get(ident)
        if not ring or len(ring) < 2:
            return (0.0, 0.0)
        newest = ring[-1]
        oldest = newest
        for sample in reversed(ring):
            oldest = sample
            if newest[0] - sample[0] >= window_s:
                break
        dt = newest[0] - oldest[0]
        if dt <= 0:
            return (0.0, 0.0)
        return (
            (newest[1] - oldest[1]) / dt,
            (newest[2] - oldest[2]) / dt,
        )

    def snapshot(self):
        """The full telemetry bundle as a plain JSON-able dict."""
        for probe in self._locals:
            self._ingest_one(probe.flush())
        return {
            "origin": self.wall_origin(),
            "progress": list(self.progress) if self.progress else None,
            "processes": {
                ident: {
                    **self.latest[ident],
                    "spans": [
                        list(span)
                        for span in self.spans.get(ident, [])
                    ],
                }
                for ident in self.idents()
            },
        }


#: This process's probe (None = telemetry off).  A module global, not
#: a parameter: probe lookups happen inside the epoch loop's hot
#: phases, where threading one more argument through every layer would
#: couple the protocol signatures to an observability concern.  Fork
#: children inherit the parent's probe and overwrite it first thing in
#: their main (``_worker_main``).
_PROBE = None


def set_probe(probe):
    """Install this process's runtime probe (None disables)."""
    global _PROBE
    _PROBE = probe


def get_probe():
    """This process's probe, or None when telemetry is off."""
    return _PROBE


#: Module-global aggregator hook: the coordinator registers its
#: aggregator here so the CLI's live view (which starts before
#: ``run_sharded_cluster`` is entered) can find it, the placement
#: loops can publish progress and ``wire.recv`` can hand over
#: piggybacked records without threading the object through every
#: call.  Telemetry-only — never consulted by simulation code.
_AGGREGATOR = None


def set_aggregator(aggregator):
    global _AGGREGATOR
    _AGGREGATOR = aggregator


def current_aggregator():
    return _AGGREGATOR


def note_progress(placed, total, frontier_epoch):
    """Publish coordinator progress to the registered aggregator."""
    if _AGGREGATOR is not None:
        _AGGREGATOR.note_progress(placed, total, frontier_epoch)
