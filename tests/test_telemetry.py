"""Tests for the wall-clock telemetry plane (repro.obs.runtime/live).

Covers the probe/aggregator units, telemetry piggybacked on wire
frames and the per-op wire accounting, the dual-clock exporter's shape
contract (required keys, monotonic timestamps per track, pid/tid
uniqueness, both clocks, across shard counts), the ``repro top``
renderer, the perf-report ``--compare`` gate, and the invariance
contract: probes on vs off must produce identical summaries, and
``LAST_TRACE`` must survive every shard count.
"""

import json
import multiprocessing
import os
import pathlib
import pickle
import sys

import pytest

from repro.cluster import wire
from repro.cluster.churn import run_cluster_cell
from repro.experiments import parallel
from repro.experiments.parallel import Cell, run_cell
from repro.obs import runtime
from repro.obs.export import to_dual_clock_trace, write_dual_clock_trace
from repro.obs.live import LiveView, _fmt_bytes, _fmt_eta, render
from repro.obs.runtime import (
    CollectorMeter,
    MAX_PENDING_SPANS,
    PHASES,
    RuntimeProbe,
    TelemetryAggregator,
    WireStats,
    probes_enabled,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from benchmarks import perf_report  # noqa: E402


# ----------------------------------------------------------------------
# probe unit behavior
# ----------------------------------------------------------------------
def test_probes_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_RUNTIME_PROBES", raising=False)
    assert not probes_enabled()
    monkeypatch.setenv("REPRO_RUNTIME_PROBES", "0")
    assert not probes_enabled()
    monkeypatch.setenv("REPRO_RUNTIME_PROBES", "1")
    assert probes_enabled()


def test_probe_lap_accumulates_and_chains():
    probe = RuntimeProbe("worker-0")
    t0 = probe.begin()
    t1 = probe.lap("compute", t0)
    t2 = probe.lap("barrier_wait", t1)
    assert t2 >= t1 >= t0
    assert probe.phase_n == {"compute": 1, "barrier_wait": 1}
    assert all(value >= 0.0 for value in probe.phase_s.values())
    assert set(probe.phase_s) <= set(PHASES)


def test_probe_flush_is_incremental():
    probe = RuntimeProbe("worker-1", hosts=[[0, 4]])
    probe.lap("compute", probe.begin())
    probe.count("epochs")
    probe.gauge("frontier_epoch", 7)
    first = probe.flush()
    assert first["ident"] == "worker-1"
    assert first["hosts"] == [[0, 4]]
    assert len(first["spans"]) == 1
    assert first["counters"] == {"epochs": 1}
    assert first["gauges"] == {"frontier_epoch": 7}
    # spans drain; cumulative scalars persist
    second = probe.flush()
    assert second["spans"] == []
    assert second["counters"] == {"epochs": 1}
    assert second["phases"]["compute"][1] == 1


def test_probe_span_buffer_bounded():
    probe = RuntimeProbe("worker-2")
    began = probe.begin()
    for _ in range(MAX_PENDING_SPANS + 10):
        probe.lap("compute", began, now=began)
    record = probe.flush()
    assert len(record["spans"]) == MAX_PENDING_SPANS
    assert record["dropped_spans"] == 10
    # totals stay exact even when spans drop
    assert record["phases"]["compute"][1] == MAX_PENDING_SPANS + 10


def test_wire_stats_accounting():
    stats = WireStats()
    stats.note_tx("step", 10)
    stats.note_tx("step", 30)
    stats.note_rx("loads", 7)
    snap = stats.snapshot()
    assert snap["tx"] == {"step": [2, 40]}
    assert snap["rx"] == {"loads": [1, 7]}


def test_collector_meter_counts_collections_per_generation():
    import gc

    with CollectorMeter() as meter:
        cycle = []
        cycle.append(cycle)
        del cycle
        gc.collect()
    assert meter._callback not in gc.callbacks
    assert meter.collections[2] >= 1
    assert meter.collected[2] >= 1
    assert meter.seconds[2] >= 0.0
    lines = meter.lines(1.0)
    assert [line.split()[0] for line in lines] == [
        "gen0", "gen1", "gen2", "total"]
    assert "of 1.000 s wall" in lines[-1]


# ----------------------------------------------------------------------
# aggregator
# ----------------------------------------------------------------------
def _record(ident, wall0=100.0, epochs=0, **extra):
    record = {
        "ident": ident, "pid": 1234, "wall0": wall0, "up_s": 1.0,
        "phases": {}, "counters": {"epochs": epochs},
        "gauges": {}, "wire": {"tx": {}, "rx": {}},
        "spans": [], "dropped_spans": 0,
    }
    record.update(extra)
    return record


def test_aggregator_ident_order_and_origin():
    agg = TelemetryAggregator()
    agg.ingest([_record("worker-1", wall0=102.0),
                _record("main", wall0=101.0),
                _record("coordinator", wall0=100.0),
                _record("worker-0", wall0=103.0)])
    assert agg.idents() == ["coordinator", "worker-0", "worker-1",
                            "main"]
    assert agg.wall_origin() == 100.0


def test_aggregator_keeps_latest_and_accumulates_spans():
    agg = TelemetryAggregator()
    agg.ingest([_record("worker-0", epochs=1,
                        spans=[("compute", 0.0, 0.5)])])
    agg.ingest([_record("worker-0", epochs=2,
                        spans=[("compute", 0.5, 0.9)])])
    snap = agg.snapshot()
    record = snap["processes"]["worker-0"]
    assert record["counters"]["epochs"] == 2
    assert len(record["spans"]) == 2
    assert json.loads(json.dumps(snap))  # plain JSON-able


def test_aggregator_snapshot_polls_local_probes():
    agg = TelemetryAggregator()
    probe = RuntimeProbe("main", hosts=[[0, 8]])
    agg.attach_local(probe)
    probe.lap("compute", probe.begin())
    snap = agg.snapshot()
    assert "main" in snap["processes"]
    assert snap["processes"]["main"]["hosts"] == [[0, 8]]


def test_aggregator_progress_and_rates():
    agg = TelemetryAggregator()
    agg.note_progress(10, 100, 3)
    agg.ingest([_record("worker-0")])
    assert agg.snapshot()["progress"] == [10, 100, 3]
    # fewer than two samples -> zero rates, no crash
    assert agg.rates("worker-0") == (0.0, 0.0)
    assert agg.rates("missing") == (0.0, 0.0)


# ----------------------------------------------------------------------
# telemetry on the wire
# ----------------------------------------------------------------------
def _send_piggybacked(conn, message):
    """Send ``message`` as a probed worker's upward reply."""
    probe = RuntimeProbe("worker-0")
    probe.lap("compute", probe.begin())
    runtime.set_probe(probe)
    try:
        wire.send(conn, message, piggyback=True)
    finally:
        runtime.set_probe(None)


def test_piggybacked_records_reach_the_aggregator():
    parent, child = multiprocessing.Pipe()
    aggregator = TelemetryAggregator()
    try:
        _send_piggybacked(parent, ("loads", [(3, 2)]))
        runtime.set_aggregator(aggregator)
        message = wire.recv(child)
    finally:
        runtime.set_aggregator(None)
        parent.close(), child.close()
    # the protocol sees exactly the message, no telemetry ...
    assert message == ("loads", [(3, 2)])
    # ... and the worker's probe record reached the aggregator
    assert list(aggregator.latest) == ["worker-0"]
    assert "compute" in aggregator.latest["worker-0"]["phases"]


def test_piggybacked_reply_arrives_without_an_aggregator():
    parent, child = multiprocessing.Pipe()
    try:
        _send_piggybacked(parent, ("ok", None))
        assert wire.recv(child) == ("ok", None)
    finally:
        parent.close(), child.close()


def test_plain_send_carries_no_records():
    parent, child = multiprocessing.Pipe()
    probe = RuntimeProbe("coordinator")
    runtime.set_probe(probe)
    try:
        wire.send(parent, ("step", 0.0, 2.5, {}))
        raw = child.recv_bytes()
    finally:
        runtime.set_probe(None)
        parent.close(), child.close()
    # a downward frame: the message and no records, probe or not
    assert pickle.loads(raw) == (("step", 0.0, 2.5, {}), None)


def test_send_accounts_frames_by_op():
    parent, child = multiprocessing.Pipe()
    probe = RuntimeProbe("worker-0")
    runtime.set_probe(probe)
    try:
        wire.send(parent, ("loads", [(3, 2)]), piggyback=True)
        wire.recv(child)
    finally:
        runtime.set_probe(None)
        parent.close(), child.close()
    # one frame each way, keyed by op; both ends count the same bytes
    assert probe.wire.tx == probe.wire.rx
    assert list(probe.wire.tx) == ["loads"]
    frames, nbytes = probe.wire.tx["loads"]
    assert frames == 1 and nbytes > 0
    assert probe.phase_n["ipc_send"] == 1
    assert probe.phase_n["ipc_recv"] == 1


# ----------------------------------------------------------------------
# dual-clock exporter shape (both clocks, shards 1 vs 4)
# ----------------------------------------------------------------------
def _dual_clock_case(shards):
    telemetry = {}
    trace = {}
    run_cluster_cell("fastiov", 24, hosts=8, seed=3, shards=shards,
                     rate_per_s=6.0, telemetry=telemetry, trace=trace)
    return to_dual_clock_trace(telemetry, bundle=trace)


def _assert_trace_shape(doc, expect_processes):
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events, "empty trace"
    # pid uniqueness: every process_name meta names a distinct pid
    pids = {}
    for event in events:
        if event["ph"] == "M" and event["name"] == "process_name":
            assert event["pid"] not in pids
            pids[event["pid"]] = event["args"]["name"]
    assert len(pids) >= expect_processes
    # pid 0 is the coordinator — or the sole process of an unsharded run
    assert pids[0] in ("coordinator", "main")
    # tid uniqueness per pid: thread_name metas never collide
    threads = {}
    for event in events:
        if event["ph"] == "M" and event["name"] == "thread_name":
            key = (event["pid"], event["tid"])
            assert key not in threads
            threads[key] = event["args"]["name"]
    # both clocks present
    names = set(threads.values())
    assert "[wall] phases" in names
    assert any(name.startswith("[virt] ") for name in names)
    # every event lands on a declared thread, with required keys
    for event in events:
        if event["ph"] == "M":
            continue
        assert (event["pid"], event["tid"]) in threads
        assert {"ph", "ts", "pid", "tid"} <= set(event)
        assert event["ts"] >= 0.0
    # per-track timestamps are monotonic for wall threads (sorted on
    # export) and for virtual B/E/I streams (recorder order)
    by_thread = {}
    for event in events:
        if event["ph"] in ("X", "i", "B", "E", "I"):
            by_thread.setdefault((event["pid"], event["tid"]),
                                 []).append(event["ts"])
    for key, stamps in by_thread.items():
        if threads[key] == "[wall] phases":
            assert stamps == sorted(stamps), f"non-monotonic {key}"
    return pids, threads


@pytest.mark.parametrize("shards,expect", [(1, 1), (4, 5)])
def test_dual_clock_trace_shape(shards, expect):
    doc = _dual_clock_case(shards)
    pids, threads = _assert_trace_shape(doc, expect)
    if shards > 1:
        workers = [n for n in pids.values() if n.startswith("worker")]
        assert len(workers) == shards
        # virtual tracks distribute across worker process groups via
        # their host ranges, not all on the coordinator
        virt_pids = {pid for (pid, _tid), name in threads.items()
                     if name.startswith("[virt] host")}
        assert len(virt_pids) > 1


def test_dual_clock_trace_without_bundle():
    telemetry = {}
    run_cluster_cell("fastiov", 24, hosts=8, seed=3, shards=4,
                     rate_per_s=6.0, telemetry=telemetry)
    doc = to_dual_clock_trace(telemetry)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {"[wall] phases"}


def test_write_dual_clock_trace_deterministic_json(tmp_path):
    telemetry = {
        "origin": 100.0,
        "progress": None,
        "processes": {"coordinator": _record("coordinator",
                                             spans=[["compute", 0.0,
                                                     0.25]])},
    }
    path = tmp_path / "wall.json"
    write_dual_clock_trace(telemetry, path)
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans and spans[0]["dur"] == pytest.approx(0.25e6)


# ----------------------------------------------------------------------
# invariance: probes must never change results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [4, 8])
def test_probe_invariance(monkeypatch, shards):
    kwargs = dict(hosts=16, seed=5, shards=shards, rate_per_s=6.0)
    monkeypatch.delenv("REPRO_RUNTIME_PROBES", raising=False)
    plain = run_cluster_cell("fastiov", 48, **kwargs)
    monkeypatch.setenv("REPRO_RUNTIME_PROBES", "1")
    probed = run_cluster_cell("fastiov", 48, **kwargs)
    assert plain == probed


def test_telemetry_param_does_not_change_summary():
    kwargs = dict(hosts=4, seed=2, shards=2, rate_per_s=6.0)
    plain = run_cluster_cell("fastiov", 24, **kwargs)
    telemetry = {}
    probed = run_cluster_cell("fastiov", 24, telemetry=telemetry,
                              **kwargs)
    assert plain == probed
    assert set(telemetry["processes"]) == {"coordinator", "worker-0",
                                           "worker-1"}


def test_single_process_telemetry():
    telemetry = {}
    summary = run_cluster_cell("fastiov", 16, hosts=4, seed=2,
                               telemetry=telemetry)
    assert summary["count"] == 16
    assert telemetry["mode"] == "single"
    assert telemetry["shards"] == 1
    record = telemetry["processes"]["main"]
    assert record["phases"]["compute"][1] >= 1


def test_round_robin_notes_progress():
    """Round-robin places every arrival up front; ``repro top`` must
    see that as progress, like a least-loaded walk's final note."""
    for placement in ("round-robin", "least-loaded"):
        telemetry = {}
        run_cluster_cell("fastiov", 24, hosts=8, seed=3, shards=2,
                         rate_per_s=6.0, placement=placement,
                         telemetry=telemetry)
        assert telemetry["progress"][:2] == [24, 24], placement


# ----------------------------------------------------------------------
# LAST_TRACE across shard counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4, 8])
def test_last_trace_survives_every_shard_count(shards):
    cell = Cell("fastiov", 24, kind="cluster", hosts=16, seed=5,
                shards=shards, rate_per_s=6.0, trace=True)
    run_cell(cell)
    assert parallel.LAST_TRACE is not None
    assert parallel.LAST_TRACE["tracks"], f"empty trace at K={shards}"


def test_last_telemetry_side_channel(monkeypatch):
    cell = Cell("fastiov", 24, kind="cluster", hosts=8, seed=3,
                shards=2, rate_per_s=6.0)
    monkeypatch.delenv("REPRO_RUNTIME_PROBES", raising=False)
    run_cell(cell)
    assert parallel.LAST_TELEMETRY is None
    monkeypatch.setenv("REPRO_RUNTIME_PROBES", "1")
    run_cell(cell)
    assert parallel.LAST_TELEMETRY is not None
    assert "worker-0" in parallel.LAST_TELEMETRY["processes"]


# ----------------------------------------------------------------------
# repro top renderer
# ----------------------------------------------------------------------
def test_fmt_helpers():
    assert _fmt_bytes(512) == "512B"
    assert _fmt_bytes(2048) == "2.0KB"
    assert _fmt_bytes(3 * 1024 * 1024) == "3.0MB"
    assert _fmt_eta(None) == "--:--"
    assert _fmt_eta(75) == "1:15"
    assert _fmt_eta(7300) == "2h01m"


def test_render_layout():
    agg = TelemetryAggregator()
    agg.note_progress(50, 100, 4)
    agg.ingest([
        _record("coordinator", wall0=100.0),
        _record("worker-0", wall0=100.5, epochs=12,
                wire={"tx": {"loads": [12, 1200]},
                      "rx": {"step": [12, 5000]}},
                phases={"compute": [0.6, 12], "barrier_wait": [0.2, 12]}),
    ])
    text = render(agg, now=101.0, eta_s=30.0)
    assert "50/100" in text
    assert "coordinator" in text and "worker-0" in text
    for column in ("comp", "barr", "ipc_s", "ipc_r"):
        assert column in text
    assert "wire" in text


def test_render_empty_aggregator():
    assert "waiting" in render(TelemetryAggregator()).lower()


def test_render_records_without_progress():
    """A single-process cell has records but never notes progress: the
    header shows the elapsed time, not "waiting for telemetry"."""
    agg = TelemetryAggregator()
    agg.ingest([_record("main", phases={"compute": [0.9, 1]})])
    text = render(agg, now=agg.started + 2.0)
    header = text.splitlines()[0]
    assert "2.0s elapsed" in header and "waiting" not in text.lower()
    assert "main" in text


def test_live_view_thread_lifecycle():
    agg = TelemetryAggregator()
    agg.ingest([_record("worker-0")])
    import io

    stream = io.StringIO()
    from repro.obs import runtime as runtime_mod

    runtime_mod.set_aggregator(agg)
    try:
        with LiveView(interval_s=0.01, stream=stream):
            import time as time_mod

            time_mod.sleep(0.05)
    finally:
        runtime_mod.set_aggregator(None)
    assert "worker-0" in stream.getvalue()


# ----------------------------------------------------------------------
# perf_report --compare
# ----------------------------------------------------------------------
def test_metric_direction():
    assert perf_report._metric_direction("scale_shards4_s") == "lower"
    assert perf_report._metric_direction(
        "engine_events_per_sec") == "higher"
    assert perf_report._metric_direction("cache_speedup_x") == "higher"
    assert perf_report._metric_direction("python_version") == "info"


def test_compare_flags_gated_regressions(tmp_path, capsys):
    gated = perf_report.GATED_COMPARE_KEYS[0]
    a = {gated: 1.0, "engine_events_per_sec": 1e6,
         "probe_overhead_frac": 0.01}
    b = {gated: 2.0, "engine_events_per_sec": 2e6,
         "probe_overhead_frac": 0.02}
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(a))
    path_b.write_text(json.dumps(b))
    failures = perf_report.compare(path_a, path_b, 0.20)
    assert [key for key, *_ in failures] == [gated]
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "improved" in out
    # identical files -> clean
    assert perf_report.compare(path_a, path_a, 0.20) == []


def test_compare_cli_exit_codes(tmp_path, capsys):
    gated = perf_report.GATED_COMPARE_KEYS[0]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps({gated: 1.0}))
    path_b.write_text(json.dumps({gated: 2.0}))
    assert perf_report.main(["--compare", str(path_a),
                             str(path_b)]) == 1
    assert perf_report.main(["--compare", str(path_a),
                             str(path_a)]) == 0
    capsys.readouterr()
