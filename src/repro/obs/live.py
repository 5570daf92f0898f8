"""``repro top`` — live terminal view of a running cluster engine.

A :class:`LiveView` is a daemon thread that polls the process-local
:class:`~repro.obs.runtime.TelemetryAggregator` (registered by
``run_sharded_cluster`` via :func:`repro.obs.runtime.set_aggregator`)
and repaints a compact dashboard a few times per second:

* the coordinator's placement progress (containers placed, frontier
  epoch, ETA from the trailing placement rate);
* one row per process — coordinator, workers — with its step rate
  (epochs/s), wire throughput (bytes/s), and the share of its
  wall-clock in each runtime phase;
* cumulative wire traffic by op.

Everything rendered here is read-only telemetry: the view thread
never touches simulation state, so a run behaves byte-identically
with the dashboard on or off (the same invariance contract as the
probes themselves — see ``repro.obs.runtime``).

:func:`render` is the pure part — aggregator snapshot in, string out —
so tests exercise the layout without a terminal or a thread.
"""

import sys
import threading
import time

from repro.obs import runtime

#: Phases worth a column of their own in the per-process table; the
#: rest (the coordinator's wait/place/reduce) fold into "other".
_TOP_PHASES = ("compute", "barrier_wait", "ipc_send", "ipc_recv")


def _fmt_bytes(count):
    for unit in ("B", "KB", "MB", "GB"):
        if abs(count) < 1024.0:
            return f"{count:,.0f}{unit}" if unit == "B" \
                else f"{count:.1f}{unit}"
        count /= 1024.0
    return f"{count:.1f}TB"


def _fmt_eta(seconds):
    if seconds is None:
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}:{seconds % 60:02d}"


def _phase_cells(record):
    """Per-phase share of a process's uptime, as compact percents."""
    up = record.get("up_s") or 0.0
    phases = record.get("phases", {})
    cells = []
    accounted = 0.0
    for name in _TOP_PHASES:
        total = phases.get(name, (0.0, 0))[0]
        accounted += total
        cells.append(f"{100.0 * total / up:5.1f}" if up > 0 else "    -")
    other = sum(entry[0] for entry in phases.values()) - accounted
    cells.append(f"{100.0 * other / up:5.1f}" if up > 0 else "    -")
    return cells


def render(aggregator, now=None, eta_s=None, width=100):
    """The dashboard as a plain string (no ANSI), newest data first.

    Args:
        aggregator: a :class:`~repro.obs.runtime.TelemetryAggregator`.
        now: wall-clock "now" (defaults to ``time.time()``; injectable
            so tests render deterministically).
        eta_s: precomputed ETA seconds (the view thread tracks the
            placement rate across polls; a one-shot render passes None).
    """
    if now is None:
        now = time.time()
    lines = []
    elapsed = now - aggregator.started
    progress = aggregator.progress
    if progress is not None:
        placed, total, frontier = progress
        pct = 100.0 * placed / total if total else 100.0
        lines.append(
            f"repro top — {elapsed:6.1f}s elapsed | placed "
            f"{placed:,}/{total:,} ({pct:.1f}%) | frontier epoch "
            f"{frontier} | ETA {_fmt_eta(eta_s)}"
        )
        bar = int(pct / 100.0 * 40)
        lines.append("[" + "#" * bar + "-" * (40 - bar) + "]")
    elif aggregator.latest:
        # Records but no progress: a single-process cell, which
        # places its own arrivals and notes no progress.
        lines.append(f"repro top — {elapsed:6.1f}s elapsed")
    else:
        lines.append(f"repro top — {elapsed:6.1f}s elapsed | waiting "
                     "for telemetry...")
    lines.append("")
    header = f"{'process':22s} {'epoch/s':>8s} {'bytes/s':>10s} "
    header += " ".join(f"{name[:5]:>5s}" for name in _TOP_PHASES)
    header += f" {'other':>5s}"
    lines.append(header)
    lines.append("-" * max(len(header), 60))
    for ident in aggregator.idents():
        record = aggregator.latest[ident]
        epoch_rate, byte_rate = aggregator.rates(ident)
        row = f"{ident:22s} {epoch_rate:8.1f} {_fmt_bytes(byte_rate):>10s} "
        row += " ".join(_phase_cells(record))
        lines.append(row)
    lines.append("")
    wire_totals = {}
    for record in aggregator.latest.values():
        for direction in ("tx", "rx"):
            for op, (frames, nbytes) in record["wire"][direction].items():
                entry = wire_totals.setdefault(op, [0, 0])
                entry[0] += frames
                entry[1] += nbytes
    if wire_totals:
        parts = [
            f"{op}:{entry[0]:,}f/{_fmt_bytes(entry[1])}"
            for op, entry in sorted(wire_totals.items())
        ]
        lines.append("wire  " + "  ".join(parts))
    return "\n".join(line[:width] for line in lines)


class LiveView:
    """Background repaint loop for :func:`render`.

    ``start`` spawns a daemon thread; ``stop`` joins it and clears the
    painted region.  The thread finds the aggregator on every poll
    (``runtime.current_aggregator()``), so it can be started *before*
    ``run_sharded_cluster`` registers one — the dashboard appears as
    soon as telemetry exists.
    """

    def __init__(self, interval_s=0.5, stream=None):
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._stop = threading.Event()
        self._thread = None
        self._painted_lines = 0
        #: (time, placed) samples for the ETA slope.
        self._progress_samples = []

    # ------------------------------------------------------------------
    def start(self):
        self._thread = threading.Thread(
            target=self._loop, name="repro-top", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._clear()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # ------------------------------------------------------------------
    def _eta(self, aggregator, now):
        progress = aggregator.progress
        if progress is None:
            return None
        placed, total, _frontier = progress
        samples = self._progress_samples
        if not samples or samples[-1][1] != placed:
            samples.append((now, placed))
            del samples[:-32]
        if len(samples) < 2:
            return None
        dt = samples[-1][0] - samples[0][0]
        dn = samples[-1][1] - samples[0][1]
        if dt <= 0 or dn <= 0:
            return None
        return (total - placed) / (dn / dt)

    def _clear(self):
        if self._painted_lines:
            self.stream.write(
                f"\x1b[{self._painted_lines}F\x1b[J"
            )
            self.stream.flush()
            self._painted_lines = 0

    def _paint(self, text):
        self._clear()
        self.stream.write(text + "\n")
        self.stream.flush()
        self._painted_lines = text.count("\n") + 1

    def _loop(self):
        while not self._stop.wait(self.interval_s):
            aggregator = runtime.current_aggregator()
            if aggregator is None:
                continue
            now = time.time()
            try:
                text = render(aggregator, now=now,
                              eta_s=self._eta(aggregator, now))
            except Exception:  # pragma: no cover - render must not kill
                continue  # the run; a torn snapshot just skips a frame
            self._paint(text)
