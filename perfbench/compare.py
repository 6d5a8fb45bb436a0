"""``run.py --compare BASE NEW``: per-metric deltas between two result sets.

A result set is a JSONL file that ``run.py --out`` appended to, one record
per run.  End-to-end metrics (``--trace 0`` records) get one row per
workload, judged against the bounds in ``BENCHMARK.json``:

* ``improved`` -- every new run is better than every base run (two or
  more runs a side), or the new median is better by more than the base
  runs' spread (interquartile range over median);
* ``unresolved`` -- otherwise, when a side's spread exceeds the bound or a
  side has fewer than two runs;
* ``REGRESSED`` -- the new median is worse than the base by more than the
  bound;
* ``same`` -- otherwise.

Per-layer metrics (``--trace 1`` records) are listed as medians with their
change.  The deterministic outputs (held-out CCC, A/B delta, bytes written)
must match exactly for every (workload, seed) run on both sides.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

DETERMINISTIC = (
    "evalharness.heldout_ccc_valence",
    "evalharness.heldout_ccc_arousal",
    "evalharness.ab_delta_valence",
    "annotations.bytes_written",
)


def _load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _by_workload(records, trace):
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"] == trace:
            for name, m in r["result"]["metrics"].items():
                out[r["workload"]][name].append(m["value"])
    return out


def _spread(vals):
    if len(vals) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def _verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(base), statistics.median(new)
    change = (b - a) / abs(a)
    worse = sign * change
    runs = len(base) >= 2 and len(new) >= 2
    if runs and all(sign * (n - o) < 0 for n in new for o in base):
        return change, "improved"
    if max(_spread(base), _spread(new)) > bound:
        return change, "unresolved"
    if worse > bound:
        return change, "REGRESSED"
    if -worse > _spread(base):
        return change, "improved"
    return change, "same"


def compare(base_path, new_path, bench_json) -> int:
    with open(bench_json) as fh:
        spec = json.load(fh)
    base, new = _load(base_path), _load(new_path)
    for label, recs in (("base", base), ("new", new)):
        machines = {json.dumps(r["machine"], sort_keys=True) for r in recs}
        for m in sorted(machines):
            print(f"{label} machine: {m}")

    regressed = False
    b0, n0 = _by_workload(base, 0), _by_workload(new, 0)
    print("\nend-to-end (new vs base median; bound from BENCHMARK.json)")
    for wl in sorted(set(b0) & set(n0)):
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b0[wl] or name not in n0[wl]:
                continue
            change, verdict = _verdict(b0[wl][name], n0[wl][name], m["better"], m["bound"])
            regressed |= verdict == "REGRESSED"
            cells.append(f"{name} {change:+.1%} {verdict}")
        runs = (len(next(iter(b0[wl].values()))), len(next(iter(n0[wl].values()))))
        print(f"  {wl:<20} runs {runs[0]}/{runs[1]}  " + " | ".join(cells))

    b1, n1 = _by_workload(base, 1), _by_workload(new, 1)
    for wl in sorted(set(b1) & set(n1)):
        print(f"\nper-layer {wl} (median base -> new)")
        for m in spec["per_layer"]:
            name = m["name"]
            a, b = b1[wl].get(name), n1[wl].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            if ma == 0 and mb == 0:
                continue
            change = f"{(mb - ma) / abs(ma):+.1%}" if ma else "n/a"
            print(f"  {name:<34} {ma:>12.6g} -> {mb:<12.6g} {m['unit']:<6} {change}")

    def outputs(recs):
        return {
            (r["workload"], r["seed"]): {
                k: r["result"]["metrics"][k]["value"]
                for k in DETERMINISTIC
                if k in r["result"]["metrics"]
            }
            for r in recs
            if r["trace"] == 1
        }

    ob, on = outputs(base), outputs(new)
    shared = sorted(set(ob) & set(on))
    differ = [key for key in shared if ob[key] != on[key]]
    print(f"\ndeterministic outputs: {len(shared) - len(differ)}/{len(shared)} "
          "(workload, seed) runs match exactly")
    for key in differ:
        print(f"  DIFFER {key}: {ob[key]} -> {on[key]}")
    return 1 if regressed else 0
