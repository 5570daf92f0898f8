"""Packed wire format of the sharded runner (repro.cluster.wire).

The contract under test: every frame round-trips to the exact tuple
that was encoded — floats bit-exact, large payloads intact over a real
pipe — so the struct-packed framing is byte-transparent to the epoch
protocol.
"""

import multiprocessing

import pytest

from repro.cluster import wire


def test_wire_step_round_trips_exactly():
    batches = {
        0: [(0, 0.0, 3), (7, 0.12890625, 0)],
        2: [(1, 1.5e-9, 5)],
    }
    message = ("step", 0.25, 1.75, batches)
    payload = wire.encode(message)
    assert payload[:1] == b"S"
    assert wire.decode(payload) == message
    # The round-robin plan's single step carries two zero barriers.
    empty = ("step", 0.0, 0.0, {})
    assert wire.decode(wire.encode(empty)) == empty


def test_wire_ack_round_trip():
    ack = wire.encode(("ok", None))
    assert ack == b"K"
    assert wire.decode(ack) == ("ok", None)


def test_wire_floats_survive_without_rounding():
    """Doubles round-trip bit-exactly — the byte-identity gates depend
    on the wire never perturbing a single timestamp."""
    awkward = [0.1, 1 / 3, 2.0 ** -52, 1e300, 123456.789012345]
    batch = [(index, value, index) for index, value in enumerate(awkward)]
    message = ("step", 1 / 3, 0.1 + 0.2, {0: batch})
    decoded = wire.decode(wire.encode(message))
    assert decoded[1] == 1 / 3 and decoded[2] == 0.1 + 0.2
    for (_, got, _), expected in zip(decoded[3][0], awkward):
        assert got == expected  # exact, not approx


def test_wire_cold_messages_fall_back_to_pickle():
    for message in (("finish", 12.5), ("stop",), ("drain",),
                    ("error", "boom"),
                    ("ok", {"not": "a digest"}),
                    ("ok", [(1.0, 2), (3.0,)])):
        payload = wire.encode(message)
        assert payload[:1] == b"P"
        assert wire.decode(payload) == message


def test_wire_send_recv_over_a_real_pipe():
    parent, child = multiprocessing.Pipe()
    try:
        wire.send(parent, ("step", 0.0, 2.5, {0: [(0, 0.0, 1)]}))
        assert wire.recv(child) == ("step", 0.0, 2.5, {0: [(0, 0.0, 1)]})
        wire.send(child, ("loads", [(1, 1)]))
        assert wire.recv(parent) == ("loads", [(1, 1)])
    finally:
        parent.close()
        child.close()


def test_wire_rejects_unknown_tags():
    with pytest.raises(ValueError):
        wire.decode(b"Zjunk")


def test_wire_load_digest_round_trips_exactly():
    digest = [(0, 3), (7, 1), (11, 128)]
    payload = wire.encode(("loads", digest))
    assert payload[:1] == b"L"
    assert wire.decode(payload) == ("loads", digest)
    empty = wire.encode(("loads", []))
    assert empty[:1] == b"L"
    assert wire.decode(empty) == ("loads", [])


def test_wire_digest_deltas_sums_per_host():
    deltas = [(0.5, 3), (0.75, 1), (1.0, 3), (1.5, 3)]
    assert wire.digest_deltas(deltas) == [(1, 1), (3, 3)]
    assert wire.digest_deltas([]) == []


def _pipe_round_trip(messages):
    """Round-trip each message over a real pipe; returns what arrived.

    Frames past the OS pipe buffer (64 KiB on Linux) block the writer
    until a reader drains them, so the send runs on a thread — the
    overlap a real coordinator/worker pair has for free.
    """
    import threading

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


def test_wire_large_frames_round_trip_over_a_real_pipe():
    """Frames past 64 KiB exercise multiprocessing's large-payload
    path (a length-prefixed second write on POSIX pipes); the packed
    arrays must come back intact on both hot frame shapes, and so must
    a large pickled reply."""
    batch = [(index, index * 0.5, index % 997) for index in range(6000)]
    messages = [
        ("step", 0.0, 2.5, {0: batch, 1: batch}),
        ("loads", [(host, host % 7 + 1) for host in range(9000)]),
        ("ok", {shard: shard * 0.25 for shard in range(9000)}),
    ]
    for message in messages:
        assert len(wire.encode(message)) > 64 * 1024
    assert _pipe_round_trip(messages) == messages


def test_wire_pickle_fallback_carries_non_ascii_and_nested_payloads():
    """The one-byte-tag fallback ``P`` must be transparent to anything
    picklable — unicode well outside ASCII, deep nesting, bytes — and
    must survive a real pipe, large payloads included."""
    messages = [
        ("error", "champs-élysées → 京都 → Ωμέγα\n" + "traceé " * 10),
        ("ok", {"nested": {"résumé": ["naïve", ("tuple", b"\x00\xff")],
                           "depth": [{"k": [1, 2, {"deep": "végétal"}]}]}}),
        ("finish", float("inf")),
        ("error", "🔥" * 30000),  # multi-byte runes past 64 KiB encoded
    ]
    for message in messages:
        payload = wire.encode(message)
        assert payload[:1] == b"P"
        assert wire.decode(payload) == message
    assert _pipe_round_trip(messages) == messages
