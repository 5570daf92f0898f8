"""Verdicts for a change against its parent, from paired ledger runs.

    python benchmarks/ledger/compare.py PARENT.json CHANGE.json

Both files hold sets appended by ``run.py --out FILE``.  Set *i* of the
parent and set *i* of the change form pair *i*, so record them in
alternating order, flipping which side goes first each pair, with the
same seed on both sides of a pair::

    for i in 1 2 3 4 5 6 7 8 9 10; do
      if [ $((i % 2)) = 1 ]; then order="parent change"
      else order="change parent"; fi
      for side in $order; do
        (cd "$side" && python benchmarks/ledger/run.py --out "../$side.json")
      done
    done

For every workload and end-to-end metric the verdict is:

* ``improved`` — the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``unresolved`` — the parent's own spread (IQR over median) is wider
  than the metric's bound, unless every change run beats every parent
  run;
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``unchanged`` — otherwise.

Bounds come from ``BENCHMARK.json``.  The seed-deterministic metrics
(virtual startup latency) are held exact instead: pair by pair they are
``unchanged`` when equal, ``improved`` when no pair is worse, and
``regressed`` otherwise.  Exit status: 0, or 1 when any metric
regressed, 2 for unusable input.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from run import EXACT_METRICS, load_benchmark, quartiles  # noqa: E402

#: choosing-metrics §8: at least ten pairs, and a 9-in-10 win rate.
MIN_PAIRS = 10
WIN_RATE = 0.9


def verdict(parent, change, better, bound):
    """Verdict for one metric from paired runs (see module docstring).

    Returns ``(verdict, wins)`` where ``wins`` counts pairs the change
    won."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(1 for gain in gains if gain > 0)
    if bound == 0:
        # Deterministic for a seed: each pair compares exactly, and the
        # spread across the pairs' seeds says nothing about noise.
        if all(gain == 0 for gain in gains):
            return "unchanged", wins
        return ("improved" if all(gain >= 0 for gain in gains)
                else "regressed"), wins
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if wins >= WIN_RATE * len(parent) and gain > p_q3 - p_q1:
        return "improved", wins
    scale = abs(p_med)
    if scale and (p_q3 - p_q1) / scale > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "unchanged", wins
        return "unresolved", wins
    worse_by = -gain / scale if scale else float(gain < 0)
    if worse_by > bound:
        return "regressed", wins
    return "unchanged", wins


def load_sets(path):
    with open(path) as handle:
        return json.load(handle)["sets"]


def compare(parent_sets, change_sets, benchmark):
    """Rows of (workload, metric, parent q1/med/q3, change ..., wins, verdict)."""
    pairs = min(len(parent_sets), len(change_sets))
    if pairs < MIN_PAIRS:
        raise ValueError(f"{pairs} pairs; at least {MIN_PAIRS} are needed")
    for index in range(pairs):
        if parent_sets[index]["seed"] != change_sets[index]["seed"]:
            raise ValueError(f"pair {index + 1} mixes seeds")
    parent_sets = parent_sets[:pairs]
    change_sets = change_sets[:pairs]
    rows = []
    for workload in parent_sets[0]["workloads"]:
        for entry in benchmark["end_to_end"]:
            name = entry["name"]
            parent = [s["workloads"][workload][name] for s in parent_sets]
            change = [s["workloads"][workload][name] for s in change_sets]
            bound = 0.0 if name in EXACT_METRICS else entry["bound"]
            result, wins = verdict(parent, change, entry["better"], bound)
            rows.append((workload, name, quartiles(parent),
                         quartiles(change), wins, pairs, result))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    try:
        rows = compare(load_sets(args.parent), load_sets(args.change),
                       load_benchmark())
    except (OSError, KeyError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2

    def span(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print("workload metric parent:median[q1,q3] change:median[q1,q3] "
          "wins verdict")
    for workload, name, parent, change, wins, pairs, result in rows:
        print(f"{workload} {name} {span(parent)} {span(change)} "
              f"{wins}/{pairs} {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
