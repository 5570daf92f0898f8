"""Exporters for flight-recorder bundles.

Three views of the same ``{"tracks", "metrics"}`` bundle (see
``repro.obs.recorder``):

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) and
  chrome://tracing.  Tracks become threads of one synthetic process;
  timestamps are virtual microseconds.
* :func:`flat_metrics` / :func:`write_metrics` — the metrics registry
  as flat JSON (histogram buckets get human-readable labels).
* :func:`span_summary` / :func:`render_span_summary` — a terminal
  aggregate: per span name, how many times it ran and how much
  simulated time it covered.

Determinism: output depends only on the bundle contents.  Tracks are
ordered by name, events keep their per-track order, and JSON is dumped
with sorted keys — so a merged sharded recording serializes
byte-identically to the single-process one whenever the per-track
event streams match (round-robin and burst-arrival cells).

Dual-clock export
-----------------

:func:`to_dual_clock_trace` / :func:`write_dual_clock_trace` merge the
virtual-time bundle with a wall-clock telemetry snapshot
(``repro.obs.runtime``) into one Perfetto file — the runtime
counterpart to the byte-stable virtual trace, and deliberately a
*separate* file: wall-clock numbers differ run to run, and the default
bundle must stay byte-identical across shard counts.

Track naming (documented contract; the exporter shape tests pin it):

* One process group per probed process, named by its identity —
  ``coordinator`` is always pid 0, then the workers in the
  aggregator's display order.
* Every process carries one ``[wall] phases`` thread (tid 0) with its
  runtime phase spans (complete ``X`` events).
  Worker processes whose records carry a ``hosts`` range additionally
  adopt the *virtual* tracks of the hosts they simulate, as ``[virt]
  <track>`` threads — virtual and wall timelines of the same worker
  sit side by side in one group (host-less tracks fall to the
  coordinator's group).
* Wall timestamps are seconds since the earliest probe birth
  (``origin``), aligned across processes through each probe's
  ``(time.time(), perf_counter())`` birth pair; virtual timestamps are
  virtual seconds — both rendered as microseconds, so the two clocks
  are visually comparable but never mixed on one thread.
"""

import json
import re


def to_chrome_trace(bundle):
    """Render a recorder bundle as a Chrome trace-event object."""
    events = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": "repro-sim (virtual time)"},
    }]
    tracks = bundle["tracks"]
    for tid, track in enumerate(sorted(tracks)):
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
            "args": {"name": track},
        })
        for event in tracks[track]:
            kind = event[0]
            ts = event[1] * 1e6  # virtual seconds -> microseconds
            if kind == "B":
                events.append({"ph": "B", "ts": ts, "pid": 0, "tid": tid,
                               "name": event[2], "cat": "span"})
            elif kind == "E":
                events.append({"ph": "E", "ts": ts, "pid": 0, "tid": tid})
            elif kind == "I":
                events.append({"ph": "i", "ts": ts, "pid": 0, "tid": tid,
                               "name": event[2], "s": "t"})
            else:  # "C"
                events.append({"ph": "C", "ts": ts, "pid": 0, "tid": tid,
                               "name": f"{track}:{event[2]}",
                               "args": {"value": event[3]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(bundle, path):
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(bundle), handle, sort_keys=True,
                  separators=(",", ":"))
        handle.write("\n")


#: Virtual track names carry the host index they belong to
#: (``host3/vfio``, ``lock/host3/rtnl``, ``host3-fastiovd-scanner``);
#: the dual-clock export uses it to place each virtual track inside
#: the process group of the worker that simulates that host.
_HOST_RE = re.compile(r"host(\d+)")


def _track_host(track):
    match = _HOST_RE.search(track)
    return int(match.group(1)) if match else None


def _virtual_track_events(track, events, pid, tid):
    """One virtual track -> trace events, pid/tid-addressed.

    The same B/E/I/C mapping as :func:`to_chrome_trace`; factored out
    so the dual-clock export renders virtual tracks identically to the
    virtual-only file, just grouped under the owning worker's process.
    """
    out = []
    for event in events:
        kind = event[0]
        ts = event[1] * 1e6  # virtual seconds -> microseconds
        if kind == "B":
            out.append({"ph": "B", "ts": ts, "pid": pid, "tid": tid,
                        "name": event[2], "cat": "span"})
        elif kind == "E":
            out.append({"ph": "E", "ts": ts, "pid": pid, "tid": tid})
        elif kind == "I":
            out.append({"ph": "i", "ts": ts, "pid": pid, "tid": tid,
                        "name": event[2], "s": "t"})
        else:  # "C"
            out.append({"ph": "C", "ts": ts, "pid": pid, "tid": tid,
                        "name": f"{track}:{event[2]}",
                        "args": {"value": event[3]}})
    return out


def to_dual_clock_trace(telemetry, bundle=None):
    """Merge a telemetry snapshot (+ optional virtual bundle) into one
    Perfetto trace-event object — the dual-clock view.

    One process group per probed process (coordinator pid 0, then the
    aggregator's display order).  Each group carries a ``[wall]
    phases`` thread (tid 0) with the probe's phase spans as complete
    (``X``) events; wall timestamps are microseconds since the earliest
    probe birth, aligned across processes via each probe's wall/perf
    birth pair.
    With a ``bundle``, every virtual track joins the process group of
    the worker whose host range contains its host index (coordinator's
    group when no range claims it) as a ``[virt] <track>`` thread —
    so a worker's simulated activity and its runtime cost sit side by
    side.  ``X`` events tolerate nesting (a ``wait`` span containing
    the ``ipc_send`` it paid for), which B/E stacks would reject.
    """
    origin = telemetry.get("origin", 0.0)
    processes = telemetry.get("processes", {})
    idents = [i for i in processes if i != "coordinator"]
    if "coordinator" in processes:
        idents.insert(0, "coordinator")
    events = []
    host_ranges = []
    next_tid = {}
    for pid, ident in enumerate(idents):
        record = processes[ident]
        for span in record.get("hosts") or []:
            host_ranges.append((span[0], span[1], pid))
        events.append({"ph": "M", "name": "process_name",
                       "pid": pid, "tid": 0, "args": {"name": ident}})
        events.append({"ph": "M", "name": "process_sort_index",
                       "pid": pid, "tid": 0,
                       "args": {"sort_index": pid}})
        events.append({"ph": "M", "name": "thread_name",
                       "pid": pid, "tid": 0,
                       "args": {"name": "[wall] phases"}})
        base = (record["wall0"] - origin) * 1e6
        thread = [
            {"ph": "X", "ts": base + began * 1e6,
             "dur": max(0.0, (ended - began) * 1e6),
             "pid": pid, "tid": 0, "name": phase, "cat": "wall"}
            for phase, began, ended in record.get("spans", [])
        ]
        thread.sort(key=lambda event: event["ts"])
        events.extend(thread)
        next_tid[pid] = 1

    def owner(track):
        host = _track_host(track)
        if host is not None:
            for start, stop, pid in host_ranges:
                if start <= host < stop:
                    return pid
        return 0

    if bundle:
        if not idents:
            events.append({"ph": "M", "name": "process_name",
                           "pid": 0, "tid": 0,
                           "args": {"name": "repro-sim"}})
            next_tid[0] = 1
        tracks = bundle["tracks"]
        for track in sorted(tracks):
            pid = owner(track)
            tid = next_tid.get(pid, 1)
            next_tid[pid] = tid + 1
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pid, "tid": tid,
                           "args": {"name": f"[virt] {track}"}})
            events.extend(
                _virtual_track_events(track, tracks[track], pid, tid)
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_dual_clock_trace(telemetry, path, bundle=None):
    with open(path, "w") as handle:
        json.dump(to_dual_clock_trace(telemetry, bundle), handle,
                  sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def flat_metrics(bundle):
    """The metrics snapshot with labeled histogram buckets."""
    from repro.obs.metrics import bucket_label

    metrics = bundle["metrics"]
    return {
        "counters": dict(metrics.get("counters", {})),
        "gauges": dict(metrics.get("gauges", {})),
        "histograms": {
            name: {
                bucket_label(int(index)): count
                for index, count in sorted(
                    buckets.items(), key=lambda item: int(item[0])
                )
            }
            for name, buckets in metrics.get("histograms", {}).items()
        },
    }


def write_metrics(bundle, path):
    with open(path, "w") as handle:
        json.dump(flat_metrics(bundle), handle, sort_keys=True, indent=2)
        handle.write("\n")


def span_summary(bundle):
    """Aggregate spans by name: {name: (count, total_s, max_s)}.

    Computed by replaying each track's B/E stream (tracks visited in
    sorted order, so the floating-point accumulation order — and hence
    the rendered numbers — is shard-invariant).
    """
    summary = {}
    tracks = bundle["tracks"]
    for track in sorted(tracks):
        stack = []
        for event in tracks[track]:
            kind = event[0]
            if kind == "B":
                stack.append((event[2], event[1]))
            elif kind == "E" and stack:
                name, started = stack.pop()
                duration = event[1] - started
                count, total, peak = summary.get(name, (0, 0.0, 0.0))
                summary[name] = (
                    count + 1, total + duration, max(peak, duration)
                )
    return summary


def render_span_summary(bundle, limit=30):
    """The terminal span-tree summary, widest spans first."""
    summary = span_summary(bundle)
    rows = sorted(summary.items(), key=lambda item: (-item[1][1], item[0]))
    width = max([len(name) for name, _ in rows[:limit]] + [4])
    lines = [f"{'span':{width}s}  {'count':>7s}  {'total_s':>10s}  "
             f"{'max_s':>9s}"]
    for name, (count, total, peak) in rows[:limit]:
        lines.append(
            f"{name:{width}s}  {count:7d}  {total:10.3f}  {peak:9.4f}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span names")
    return "\n".join(lines)
