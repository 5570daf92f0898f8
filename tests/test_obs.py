"""Unit and integration tests for the flight recorder (repro.obs)."""

import json

import pytest

from repro.obs.export import (
    flat_metrics,
    render_span_summary,
    span_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    bucket_index,
    bucket_label,
    merge_metrics,
)
from repro.obs.recorder import TraceRecorder, merge_dumps
from repro.sim import Mutex, Simulator, Timeout


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_bucket_index_base2_microseconds():
    assert bucket_index(0.0) == 0
    assert bucket_index(5e-7) == 0          # under a microsecond
    assert bucket_index(1e-6) == 1          # exactly 1 us -> (0.5us, 1us]... bucket 1
    assert bucket_index(3e-6) == 2          # 3 us -> le_4us
    assert bucket_index(1.0) == 20          # 1e6 us = 2^19.93 -> le_2^20us
    assert bucket_label(0) == "le_1us"
    assert bucket_label(2) == "le_4us"
    assert bucket_label(10) == "le_1024us"


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("a")
    registry.inc("a", 4)
    registry.set_gauge("g", 0.5)
    registry.observe("h", 3e-6)
    registry.observe("h", 3e-6)
    registry.observe("h", 1.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 5}
    assert snap["gauges"] == {"g": 0.5}
    assert snap["histograms"]["h"] == {2: 2, 20: 1}


def test_merge_metrics_sums_counters_and_buckets_maxes_gauges():
    a = {"counters": {"c": 2}, "gauges": {"g": 1.0, "only_a": 3},
         "histograms": {"h": {0: 1, 3: 2}}}
    b = {"counters": {"c": 3, "d": 1}, "gauges": {"g": 4.0},
         "histograms": {"h": {3: 5}, "k": {1: 1}}}
    merged = merge_metrics([a, b])
    assert merged["counters"] == {"c": 5, "d": 1}
    assert merged["gauges"] == {"g": 4.0, "only_a": 3}
    assert merged["histograms"] == {"h": {0: 1, 3: 7}, "k": {1: 1}}


def test_ingest_engine_stats_routes_counts_vs_gauges():
    registry = MetricsRegistry()
    registry.ingest_engine_stats({
        "events_dispatched": 100,          # monotone -> counter
        "pending_events": 3,               # end-of-run level -> gauge
        "timers_cancelled": 9,             # monotone -> counter
        "cancelled_unreaped": 2,           # end-of-run level -> gauge
        "compactions": 1,                  # monotone -> counter
    })
    snap = registry.snapshot()
    assert snap["counters"] == {
        "engine/events_dispatched": 100,
        "engine/timers_cancelled": 9,
        "engine/compactions": 1,
    }
    assert snap["gauges"] == {
        "engine/pending_events": 3,
        "engine/cancelled_unreaped": 2,
    }


def test_ingest_lock_stats_prefixes_scope():
    from repro.sim.sync import LockStats

    stats = LockStats()
    stats.record_grant(0.25)
    registry = MetricsRegistry()
    registry.ingest_lock_stats("host0/rtnl", stats)
    counters = registry.snapshot()["counters"]
    assert counters["lock/host0/rtnl/acquisitions"] == 1
    assert counters["lock/host0/rtnl/total_wait"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------
def _recorder():
    sim = Simulator()
    recorder = TraceRecorder()
    recorder.bind(sim)
    return sim, recorder


def test_recorder_spans_nest_and_feed_histograms():
    sim, recorder = _recorder()

    def flow():
        recorder.begin("t", "outer")
        yield Timeout(1.0)
        recorder.begin("t", "inner")
        yield Timeout(0.5)
        recorder.end("t")
        yield Timeout(0.25)
        recorder.end("t")

    sim.spawn(flow(), name="t")
    sim.run()
    kinds = [event[0] for event in recorder.tracks["t"]
             if event[0] in "BE"]
    assert kinds == ["B", "B", "E", "E"]
    spans = recorder.registry.snapshot()["histograms"]
    assert "span/outer" in spans and "span/inner" in spans


def test_recorder_unmatched_end_is_dropped():
    _, recorder = _recorder()
    recorder.end("nothing-open")
    assert "nothing-open" not in recorder.tracks


def test_counter_events_are_change_detected():
    _, recorder = _recorder()
    recorder.counter("t", "v", 1)
    recorder.counter("t", "v", 1)
    recorder.counter("t", "v", 2)
    values = [event[3] for event in recorder.tracks["t"]]
    assert values == [1, 2]


def test_process_exit_closes_dangling_spans():
    sim, recorder = _recorder()

    def flow():
        recorder.begin("p", "never-ended")
        yield Timeout(1.0)

    sim.spawn(flow(), name="p")
    sim.run()
    events = recorder.tracks["p"]
    # spawn instant, B, synthetic E at exit, exit instant
    assert [event[0] for event in events] == ["I", "B", "E", "I"]
    assert events[-1][2] == "exit"


def test_probes_sample_only_their_owner():
    sim, recorder = _recorder()
    state = {"x": 0}
    recorder.add_probe("hostA", "hostA/m", "x", lambda: state["x"])

    state["x"] = 5
    recorder.sample_probes("hostB")        # someone else's instant
    assert "hostA/m" not in recorder.tracks
    recorder.sample_probes("hostA")
    recorder.sample_probes("hostA")        # unchanged -> no new event
    assert [event[3] for event in recorder.tracks["hostA/m"]] == [5]


def test_merge_dumps_is_disjoint_union_and_rejects_collisions():
    _, a = _recorder()
    _, b = _recorder()
    a.begin("w0", "s")
    a.end("w0")
    b.instant("w1", "spawn")
    merged = merge_dumps([a.dump(), b.dump()])
    assert set(merged["tracks"]) == {"w0", "w1"}

    _, c = _recorder()
    c.instant("w0", "spawn")
    with pytest.raises(RuntimeError):
        merge_dumps([a.dump(), c.dump()])


def test_lock_wait_and_hold_spans():
    sim = Simulator()
    recorder = TraceRecorder()
    recorder.bind(sim)
    mutex = Mutex(sim, name="m")

    def holder():
        yield mutex.acquire()
        yield Timeout(1.0)
        mutex.release()

    def waiter():
        yield mutex.acquire()
        mutex.release()

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter(), name="waiter")
    sim.run()
    waiter_names = [event[2] for event in recorder.tracks["waiter"]
                    if event[0] == "B"]
    assert "wait m" in waiter_names
    assert "hold m" in waiter_names
    holder_names = [event[2] for event in recorder.tracks["holder"]
                    if event[0] == "B"]
    assert "hold m" in holder_names
    # the waiter-depth counter track saw the queue grow past zero
    depth = [event[3] for event in recorder.tracks["lock/m"]
             if event[2] == "waiters"]
    assert max(depth) >= 1


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _demo_bundle():
    sim, recorder = _recorder()

    def flow():
        recorder.begin("t", "work")
        yield Timeout(0.001)
        recorder.end("t")
        recorder.instant("t", "done")
        recorder.counter("t", "level", 3)

    sim.spawn(flow(), name="t")
    sim.run()
    recorder.registry.inc("c")
    recorder.registry.observe("h", 2e-6)
    return recorder.dump()


def test_chrome_trace_structure():
    trace = to_chrome_trace(_demo_bundle())
    events = trace["traceEvents"]
    by_phase = {}
    for event in events:
        by_phase.setdefault(event["ph"], []).append(event)
    assert len(by_phase["B"]) == len(by_phase["E"]) == 1
    begin = by_phase["B"][0]
    assert begin["name"] == "work" and begin["ts"] == 0.0
    assert by_phase["E"][0]["ts"] == pytest.approx(1000.0)  # 1 ms -> us
    assert by_phase["C"][0]["name"] == "t:level"
    assert by_phase["C"][0]["args"]["value"] == 3
    # thread-name metadata names the track
    names = [event["args"]["name"] for event in by_phase["M"]]
    assert "t" in names


def test_chrome_trace_file_is_deterministic(tmp_path):
    bundle = _demo_bundle()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_chrome_trace(bundle, first)
    write_chrome_trace(bundle, second)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["traceEvents"]


def test_flat_metrics_labels_buckets():
    metrics = flat_metrics(_demo_bundle())
    assert metrics["counters"]["c"] == 1
    assert metrics["histograms"]["h"] == {"le_4us": 1}


def test_span_summary_replays_tracks():
    summary = span_summary(_demo_bundle())
    count, total, peak = summary["work"]
    assert count == 1
    assert total == pytest.approx(0.001)
    assert peak == pytest.approx(0.001)
    text = render_span_summary(_demo_bundle())
    assert "work" in text and "count" in text


# ----------------------------------------------------------------------
# integration: traced experiment cells
# ----------------------------------------------------------------------
def test_traced_launch_cell_records_the_paper_pipeline():
    import dataclasses

    from repro.experiments import parallel
    from repro.experiments.parallel import Cell, run_cell
    from repro.metrics.timeline import PAPER_STEPS

    base = Cell("vanilla", 8, None, 0)
    plain = run_cell(base)
    assert parallel.LAST_TRACE is None
    traced = run_cell(dataclasses.replace(base, trace=True))
    bundle = parallel.LAST_TRACE
    assert bundle is not None
    # tracing never changes the summary
    assert traced == plain

    summary = span_summary(bundle)
    for step in PAPER_STEPS:
        # at least one span per container (2-virtiofs brackets two
        # phases, so steps may record more than one span each)
        assert summary[step][0] >= 8, f"step {step} missing containers"
    # nested kernel-level spans under the steps
    assert summary["vfio-open"][0] == 8
    assert summary["dma-zero"][0] >= 8      # vanilla zeroes eagerly
    assert any(name.startswith("wait ") for name in summary)
    assert any(name.startswith("hold ") for name in summary)
    # the bytes-zeroed counter track advanced
    zeroed = [event[3] for event in bundle["tracks"]["host/vfio"]
              if event[0] == "C" and event[2] == "bytes_zeroed"]
    assert zeroed and zeroed[-1] > 0
    assert bundle["metrics"]["counters"][
        "host/vfio/bytes_zeroed_total"] == zeroed[-1]


def test_traced_fastiov_cell_records_decoupled_zeroing():
    import dataclasses

    from repro.experiments import parallel
    from repro.experiments.parallel import Cell, run_cell

    run_cell(dataclasses.replace(Cell("fastiov", 8, None, 0), trace=True))
    bundle = parallel.LAST_TRACE
    summary = span_summary(bundle)
    assert summary["dma-register-lazy"][0] >= 8
    assert "dma-zero" not in summary        # no eager bulk zeroing
    # fastiovd's scanner/fault path zeroed pages in the background
    counters = bundle["metrics"]["counters"]
    assert counters["host/vfio/bytes_zeroed_total"] == 0
    fast_tracks = [name for name in bundle["tracks"]
                   if "fastiovd" in name]
    assert fast_tracks, "no fastiovd trace tracks"


def test_sharded_trace_is_byte_identical_in_process():
    """The in-process version of the CI trace gate: a burst cluster
    cell's exported trace must not depend on the shard split."""
    from repro.cluster.churn import run_cluster_cell

    def dump(shards):
        trace = {}
        summary = run_cluster_cell(
            "fastiov", 24, hosts=4, seed=3, shards=shards,
            workers=0 if shards > 1 else None, trace=trace,
        )
        rendered = json.dumps(to_chrome_trace(trace), sort_keys=True,
                              separators=(",", ":"))
        return summary, rendered

    summary_1, trace_1 = dump(1)
    summary_4, trace_4 = dump(4)
    assert summary_1 == summary_4
    assert trace_1 == trace_4


def test_ingest_sync_stats_routes_counters_mode_and_wait():
    registry = MetricsRegistry()
    registry.ingest_sync_stats({
        "mode": "sharded",                 # string -> gauge
        "epochs": 12,                      # monotone -> counter
        "placement_heap_ops": 300,
        "barrier_wait_s": 0.125,           # wall-clock -> gauge
        "coordinator_wait_s": 0.5,
    })
    snap = registry.snapshot()
    assert snap["counters"] == {
        "sync/epochs": 12,
        "sync/placement_heap_ops": 300,
    }
    assert snap["gauges"]["sync/mode"] == "sharded"
    assert snap["gauges"]["sync/barrier_wait_s"] == pytest.approx(0.125)
    assert snap["gauges"]["sync/coordinator_wait_s"] == pytest.approx(0.5)
    assert snap["histograms"] == {}


def test_sharded_trace_carries_sync_counters_outside_the_timeline():
    """Protocol counters ride the trace bundle's metrics (diagnostics),
    never its tracks — the exported timeline of a spread cell is the
    same at every shard count."""
    from repro.cluster import cluster_arrivals
    from repro.cluster.sharded import run_sharded_cluster

    def dump(shards):
        trace = {}
        run_sharded_cluster(
            "fastiov", 24, hosts=4, seed=3, shards=shards, workers=0,
            arrivals=cluster_arrivals(3, 12.0), trace=trace,
        )
        rendered = json.dumps(to_chrome_trace(trace), sort_keys=True,
                              separators=(",", ":"))
        return trace, rendered

    _two, trace_two = dump(2)
    four, trace_four = dump(4)
    assert trace_four == trace_two
    counters = four["metrics"]["counters"]
    assert counters["sync/epochs"] > 0
    assert counters["sync/placement_heap_ops"] > 0
    assert "sync/coordinator_wait_s" in four["metrics"]["gauges"]
