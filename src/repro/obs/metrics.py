"""Sim-time metrics: counters, gauges, log-bucketed histograms.

Unifies the ad-hoc statistics the simulator already keeps —
:class:`~repro.sim.sync.LockStats` on every primitive, the engine's
event counters — under one registry with a plain-data snapshot
shape that pickles over shard pipes and merges deterministically.

Histograms store *integer bucket counts only*: floating-point sums
would accumulate in shard-dependent order and break the byte-identity
contract, while bucket counts add exactly.  Buckets are base-2 in
microseconds: an observation of ``v`` seconds lands in bucket
``int(v * 1e6).bit_length()`` (bucket *k* covers ``[2**(k-1), 2**k)``
microseconds; bucket 0 is "under a microsecond").
"""


def bucket_index(seconds):
    """The base-2 microsecond bucket an observation falls into."""
    us = int(seconds * 1e6)
    if us <= 0:
        return 0
    return us.bit_length()


def bucket_label(index):
    """Human-readable upper bound of a bucket ("le_512us", ...)."""
    if index == 0:
        return "le_1us"
    return f"le_{2 ** index}us"


class MetricsRegistry:
    """Named counters, gauges, and log-bucketed duration histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def inc(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name, value):
        self.gauges[name] = value

    def observe(self, name, seconds):
        """Record one duration into the named histogram."""
        buckets = self.histograms.get(name)
        if buckets is None:
            buckets = self.histograms[name] = {}
        index = bucket_index(seconds)
        buckets[index] = buckets.get(index, 0) + 1

    # ------------------------------------------------------------------
    # ingestion of the pre-existing ad-hoc statistics
    # ------------------------------------------------------------------
    def ingest_lock_stats(self, scope, stats):
        """Fold one primitive's :class:`LockStats` into flat counters."""
        for key, value in stats.as_dict().items():
            self.counters[f"lock/{scope}/{key}"] = value

    #: Engine statistics that are monotone event counts; the end-of-run
    #: levels (pending events, unreaped tombstones) merge as gauges.
    _ENGINE_COUNTERS = frozenset({
        "events_dispatched", "compactions", "timers_cancelled",
    })

    def ingest_engine_stats(self, stats, scope="engine"):
        """Fold :meth:`repro.sim.core.Simulator.stats` into the registry."""
        for key, value in stats.items():
            name = f"{scope}/{key}"
            if key in self._ENGINE_COUNTERS:
                self.inc(name, value)
            else:
                self.set_gauge(name, value)

    #: DaemonTicker statistics that are monotone event counts (the rest
    #: — interval, peaks, current levels — merge as gauges).
    _TICKER_COUNTERS = frozenset({
        "ticks_fired", "member_wakes", "member_skips",
    })

    def ingest_ticker_stats(self, stats, scope="ticker"):
        """Fold a :class:`repro.sim.ticker.DaemonTicker`'s counters in."""
        for key, value in stats.items():
            name = f"{scope}/{key}"
            if key in self._TICKER_COUNTERS:
                self.inc(name, value)
            else:
                self.set_gauge(name, value)

    #: Sharded-protocol statistics that are monotone counts; the rest
    #: (barrier-wait and coordinator-occupancy seconds — wall-clock
    #: readings, so nondeterministic by nature) merge as gauges.
    _SYNC_COUNTERS = frozenset({"epochs", "placement_heap_ops"})

    def ingest_sync_stats(self, stats, scope="sync"):
        """Fold the sharded runner's protocol counters in (steps,
        barrier wait, coordinator occupancy — see
        :mod:`repro.cluster.sharded`)."""
        for key, value in stats.items():
            name = f"{scope}/{key}"
            if key in self._SYNC_COUNTERS:
                self.inc(name, value)
            else:
                self.set_gauge(name, value)

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self):
        """Plain-data view: safe to pickle, JSON-dump, and merge."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: dict(buckets)
                for name, buckets in self.histograms.items()
            },
        }


def merge_metrics(snapshots):
    """Combine registry snapshots from several shards.

    Counters and histogram buckets add; gauges (levels, utilizations)
    keep the maximum, which reads as "peak across shards".
    """
    counters = {}
    gauges = {}
    histograms = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
        for name, buckets in snap.get("histograms", {}).items():
            merged = histograms.setdefault(name, {})
            for index, count in buckets.items():
                merged[index] = merged.get(index, 0) + count
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
