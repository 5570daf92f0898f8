"""Wire format of the sharded runner (repro.cluster.wire).

The contract under test: every protocol message travels as one frame
over a real pipe and comes back equal to the tuple that was sent —
floats bit-exact, large payloads intact — with and without a runtime
probe installed, so the frame is transparent to the epoch protocol.
Piggybacked telemetry and the per-op accounting are covered in
tests/test_telemetry.py.
"""

import multiprocessing
import threading

from repro.cluster import wire
from repro.obs import runtime
from repro.obs.runtime import RuntimeProbe


def _pipe_round_trip(messages):
    """Round-trip each message over a real pipe; returns what arrived.

    Frames past the OS pipe buffer (64 KiB on Linux) block the writer
    until a reader drains them, so the send runs on a thread — the
    overlap a real coordinator/worker pair has for free.
    """
    received = []
    parent, child = multiprocessing.Pipe()
    try:
        for message in messages:
            writer = threading.Thread(
                target=wire.send, args=(parent, message)
            )
            writer.start()
            try:
                received.append(wire.recv(child))
            finally:
                writer.join(timeout=10)
            assert not writer.is_alive()
    finally:
        parent.close()
        child.close()
    return received


def _assert_round_trips(messages):
    """Every message arrives equal over a real pipe with no probe
    installed, then with one; returns that probe."""
    assert _pipe_round_trip(messages) == messages
    probe = RuntimeProbe("worker-0")
    runtime.set_probe(probe)
    try:
        assert _pipe_round_trip(messages) == messages
    finally:
        runtime.set_probe(None)
    return probe


def test_wire_step_round_trips_exactly():
    batches = {
        0: [(0, 0.0, 3), (7, 0.12890625, 0)],
        2: [(1, 1.5e-9, 5)],
    }
    # The round-robin plan's single step carries two zero barriers and
    # a worker that owns no arrivals gets an empty batch map.
    messages = [("step", 0.25, 1.75, batches), ("step", 0.0, 0.0, {})]
    _assert_round_trips(messages)


def test_wire_floats_survive_without_rounding():
    """Doubles round-trip bit-exactly — the byte-identity gates depend
    on the wire never perturbing a single timestamp."""
    awkward = [0.1, 1 / 3, 0.1 + 0.2, 2.0 ** -52, 1e300, 123456.789012345]
    batch = [(index, value, index) for index, value in enumerate(awkward)]
    # Tuple equality compares every float exactly, not approximately.
    _assert_round_trips([("step", 1 / 3, 0.1 + 0.2, {0: batch})])


def test_wire_load_digest_round_trips_exactly():
    messages = [("loads", [(0, 3), (7, 1), (11, 128)]), ("loads", [])]
    _assert_round_trips(messages)


def test_wire_ack_round_trip():
    messages = [
        ("ok", None),
        ("ok", {0: 12.5, 3: 13.0}),
        ("ok", {"nested": {"résumé": ["naïve", ("tuple", b"\x00\xff")],
                           "depth": [{"k": [1, 2, {"deep": "végétal"}]}]}}),
    ]
    _assert_round_trips(messages)


def test_wire_send_recv_over_a_real_pipe():
    """The remaining ops: drain, finish (an unbounded horizon), stop,
    and a worker's error text well outside ASCII."""
    messages = [
        ("drain",),
        ("finish", float("inf")),
        ("stop",),
        ("error", "champs-élysées → 京都 → Ωμέγα\n" + "traceé " * 10),
    ]
    _assert_round_trips(messages)


def test_wire_digest_deltas_sums_per_host():
    deltas = [(0.5, 3), (0.75, 1), (1.0, 3), (1.5, 3)]
    assert wire.digest_deltas(deltas) == [(1, 1), (3, 3)]
    assert wire.digest_deltas([]) == []


def test_wire_large_frames_round_trip_over_a_real_pipe():
    """Frames past 64 KiB exercise multiprocessing's large-payload
    path (a length-prefixed second write on POSIX pipes); a step with
    two 6,000-entry batches, a 9,000-host digest spread over a 1M-host
    cell and a multi-byte error must all come back intact."""
    batch = [(index, index * 0.5, index % 997) for index in range(6000)]
    messages = [
        ("step", 0.0, 2.5, {0: batch, 1: batch}),
        ("loads", [(host * 111, host % 7 + 1) for host in range(9000)]),
        ("error", "🔥" * 30000),
    ]
    probe = _assert_round_trips(messages)
    assert sorted(probe.wire.tx) == ["error", "loads", "step"]
    for frames, nbytes in probe.wire.tx.values():
        assert frames == 1 and nbytes > 64 * 1024
