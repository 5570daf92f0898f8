"""The sharded runner's wire format: one pickled frame per message.

Every message between the coordinator and a shard worker — ``step``
and its ``loads`` reply, ``drain``, ``finish``, ``stop``, the ``ok``
replies and a worker's ``error`` — travels as one frame,
``pickle.dumps((message, records))``.  Both ends of a pipe are forks
of one interpreter, so the frame needs no tag, version or magic byte,
and doubles round-trip bit-exactly: a received message compares equal
to the tuple that was sent.  Plain pickle is cheap enough here: a
sharded worker spends under 1% of its wall time in IPC (DESIGN.md §7).

The ``loads`` reply carries the load *digest* rather than every
``(time, host)`` teardown pair: how many containers left each host
within the step, as sorted ``(host, freed_count)`` pairs
(:func:`digest_deltas`).  The coordinator only ever uses the deltas to
decrement its load vector, and every delta in a step reply is applied
before the next placement decision, so the digest carries exactly the
information placement consumes, in O(distinct hosts) instead of
O(teardowns).

Telemetry (wall-clock plane, ``repro.obs.runtime``): ``records`` is
None unless this process has a runtime probe installed and the send
is an upward reply (``piggyback=True``, worker -> coordinator); then
it is ``[probe.flush()]``, so telemetry rides existing replies and
never costs a round trip of its own.  :func:`recv` hands any records
to the process's registered aggregator and returns only the message,
so the protocol never sees telemetry.  With a probe installed, frames and
the bytes that crossed the pipe are counted by op in both directions,
pickling plus the write is ``ipc_send``, and unpickling is
``ipc_recv``; time blocked in the read stays with the caller (that is
barrier wait, not IPC cost).
"""

import pickle
import time

from repro.obs import runtime


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


def send(conn, message, piggyback=False):
    """Ship one message as one frame on a multiprocessing Connection.

    ``piggyback=True`` marks an upward reply: with a probe installed,
    its frame also carries this process's probe flush.
    """
    probe = runtime.get_probe()
    began = time.perf_counter()
    records = [probe.flush()] if piggyback and probe is not None else None
    payload = pickle.dumps((message, records), pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(payload)
    if probe is not None:
        probe.wire.note_tx(message[0], len(payload))
        probe.lap("ipc_send", began)


def recv(conn):
    """Receive one frame from a Connection; returns its message.

    Piggybacked records go to the registered aggregator, if any, and
    never to the caller.
    """
    payload = conn.recv_bytes()
    began = time.perf_counter()
    message, records = pickle.loads(payload)
    if records is not None:
        aggregator = runtime.current_aggregator()
        if aggregator is not None:
            aggregator.ingest(records)
    probe = runtime.get_probe()
    if probe is not None:
        probe.wire.note_rx(message[0], len(payload))
        probe.lap("ipc_recv", began)
    return message
