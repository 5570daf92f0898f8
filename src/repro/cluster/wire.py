"""Packed binary wire format for the sharded runner's hot epoch path.

The epoch protocol exchanges two message shapes once per epoch that
has arrivals: coordinator -> worker *step* messages carrying placement
batches, and worker -> coordinator *load digest* replies.  Pickling
those tagged tuples would dominate the per-step cost once the
simulation itself is sharded away — every message pays pickle's opcode
walk, per-object allocation, and memo bookkeeping for what is
structurally a few flat arrays and a header.

This module packs exactly those shapes with :mod:`struct` headers and
:mod:`array` payloads (native byte order — both ends of a pipe are the
same machine), and falls back to pickle for everything else (drain,
finish, stop, error replies: a handful of messages per run).  The first
byte of every frame discriminates:

====  ==============================================================
tag   frame
====  ==============================================================
``S`` step: ``barrier, until`` doubles + batch sections
``L`` load digest: count + hosts ``array('q')`` + counts ``array('q')``
``K`` bare ``("ok", None)`` acknowledgement
``P`` pickled payload (everything else)
``T`` telemetry envelope: inner frame + piggybacked probe records
====  ==============================================================

The ``L`` frame is the step reply: instead of every individual
``(time, host)`` teardown pair, the worker ships the *digest* — how
many containers left each host within the step, as sorted ``(host,
freed_count)`` pairs (:func:`digest_deltas`).  The coordinator only
ever uses the deltas to decrement its load vector, and every delta in
a step reply is applied before the next placement decision, so the
digest carries exactly the information placement consumes, in
O(distinct hosts) instead of O(teardowns).

A batch section is ``shard_id, count`` followed by three parallel
arrays: global container indices (``q``), arrival offsets (``d``), and
global host indices (``q``).  Floats round-trip exactly through
``struct``/``array`` doubles, so the encoding is byte-transparent to
the placement protocol: decoded messages compare equal to the tuples
that were encoded.

Telemetry envelope (wall-clock plane, ``repro.obs.runtime``)
------------------------------------------------------------

When a :class:`~repro.obs.runtime.RuntimeProbe` is installed in this
process (:func:`set_probe`), upward replies sent with
``send(..., piggyback=True)`` travel inside a ``T`` envelope: the
inner frame's bytes, length-prefixed, followed by a pickled list of
probe records (the worker's own flush).  ``decode`` strips the
envelope, routes the records to the local sink (the coordinator's
:class:`~repro.obs.runtime.TelemetryAggregator`, installed with
:func:`set_telemetry_sink`), and returns exactly the inner message —
the protocol above never sees telemetry, which is what makes the
plane results-invariant by construction.  The probe also accounts
every frame by *inner* tag (frames, bytes, both directions) and
attributes encode+write time to ``ipc_send`` and decode time to
``ipc_recv``; blocked receive time stays with the caller (that is
barrier wait, not IPC cost).
"""

import pickle
import struct
import time
from array import array

_HEAD_STEP = struct.Struct("=dd")
_HEAD_COUNT = struct.Struct("=I")
_HEAD_BATCH = struct.Struct("=II")

#: Installed :class:`~repro.obs.runtime.RuntimeProbe` for this process
#: (None = telemetry off: send/recv take the original zero-overhead
#: path after one attribute read and a None check).
_PROBE = None
#: Callable fed each incoming envelope's record list (the
#: coordinator's aggregator ``ingest``).
_SINK = None


def set_probe(probe):
    """Install this process's runtime probe (None disables)."""
    global _PROBE
    _PROBE = probe


def set_telemetry_sink(sink):
    """Install the handler for piggybacked telemetry records."""
    global _SINK
    _SINK = sink


def digest_deltas(deltas):
    """Teardown deltas ``[(time, host), ...]`` -> sorted load digest.

    The digest is ``[(host, freed_count), ...]`` in host order: the
    exact decrement the coordinator's load vector needs, independent of
    the order the teardowns happened in (all of a step reply's deltas
    are applied before the next placement decision, so only the sums
    matter).
    """
    counts = {}
    for _when, host in deltas:
        counts[host] = counts.get(host, 0) + 1
    return sorted(counts.items())


def _pack_batches(out, batches):
    out.append(_HEAD_COUNT.pack(len(batches)))
    for shard_id, batch in batches.items():
        out.append(_HEAD_BATCH.pack(shard_id, len(batch)))
        indices = array("q")
        offsets = array("d")
        hosts = array("q")
        for index, offset, host in batch:
            indices.append(index)
            offsets.append(offset)
            hosts.append(host)
        out.append(indices.tobytes())
        out.append(offsets.tobytes())
        out.append(hosts.tobytes())


def _unpack_batches(payload, cursor):
    (count,) = _HEAD_COUNT.unpack_from(payload, cursor)
    cursor += _HEAD_COUNT.size
    batches = {}
    for _ in range(count):
        shard_id, length = _HEAD_BATCH.unpack_from(payload, cursor)
        cursor += _HEAD_BATCH.size
        indices = array("q")
        indices.frombytes(payload[cursor:cursor + 8 * length])
        cursor += 8 * length
        offsets = array("d")
        offsets.frombytes(payload[cursor:cursor + 8 * length])
        cursor += 8 * length
        hosts = array("q")
        hosts.frombytes(payload[cursor:cursor + 8 * length])
        cursor += 8 * length
        batches[shard_id] = list(zip(indices, offsets, hosts))
    return batches, cursor


def encode(message):
    """One protocol message -> bytes (packed when hot, pickled else)."""
    op = message[0]
    if op == "step":
        _op, barrier, until, batches = message
        out = [b"S", _HEAD_STEP.pack(barrier, until)]
        _pack_batches(out, batches)
        return b"".join(out)
    if op == "loads" and len(message) == 2:
        digest = message[1]
        hosts = array("q")
        counts = array("q")
        for host, freed in digest:
            hosts.append(host)
            counts.append(freed)
        return b"".join((
            b"L", _HEAD_COUNT.pack(len(digest)),
            hosts.tobytes(), counts.tobytes(),
        ))
    if message == ("ok", None):
        return b"K"
    return b"P" + pickle.dumps(message)


def decode(payload):
    """Bytes -> the exact tagged tuple that was encoded."""
    tag = payload[:1]
    if tag == b"S":
        barrier, until = _HEAD_STEP.unpack_from(payload, 1)
        batches, _ = _unpack_batches(payload, 1 + _HEAD_STEP.size)
        return ("step", barrier, until, batches)
    if tag == b"K":
        return ("ok", None)
    if tag == b"L":
        (count,) = _HEAD_COUNT.unpack_from(payload, 1)
        cursor = 1 + _HEAD_COUNT.size
        hosts = array("q")
        hosts.frombytes(payload[cursor:cursor + 8 * count])
        cursor += 8 * count
        counts = array("q")
        counts.frombytes(payload[cursor:cursor + 8 * count])
        return ("loads", list(zip(hosts, counts)))
    if tag == b"P":
        return pickle.loads(payload[1:])
    if tag == b"T":
        (inner_len,) = _HEAD_COUNT.unpack_from(payload, 1)
        inner_end = 1 + _HEAD_COUNT.size + inner_len
        records = pickle.loads(payload[inner_end:])
        if _SINK is not None:
            _SINK(records)
        return decode(payload[1 + _HEAD_COUNT.size:inner_end])
    raise ValueError(f"unknown wire tag {tag!r}")


def _frame_tag(payload):
    """The accounting tag of a frame: the inner tag for envelopes."""
    tag = payload[:1]
    if tag == b"T":
        offset = 1 + _HEAD_COUNT.size
        return payload[offset:offset + 1].decode()
    return tag.decode()


def send(conn, message, piggyback=False):
    """Encode and ship one message on a multiprocessing Connection.

    With a probe installed and ``piggyback=True`` (upward replies
    only: worker -> coordinator), the frame travels inside a ``T``
    envelope carrying this process's probe flush — telemetry rides
    existing replies, never its own round-trips.
    """
    probe = _PROBE
    if probe is None:
        conn.send_bytes(encode(message))
        return
    began = time.perf_counter()
    payload = encode(message)
    tag = payload[:1].decode()
    if piggyback:
        records = [probe.flush()]
        payload = b"".join((
            b"T", _HEAD_COUNT.pack(len(payload)), payload,
            pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL),
        ))
    conn.send_bytes(payload)
    probe.wire.note_tx(tag, len(payload))
    probe.lap("ipc_send", began)


def recv(conn):
    """Receive and decode one message from a Connection.

    Blocking time belongs to the caller (barrier wait); only the
    decode — envelope stripping included — counts as ``ipc_recv``.
    """
    payload = conn.recv_bytes()
    probe = _PROBE
    if probe is None:
        return decode(payload)
    began = time.perf_counter()
    message = decode(payload)
    probe.wire.note_rx(_frame_tag(payload), len(payload))
    probe.lap("ipc_recv", began)
    return message
