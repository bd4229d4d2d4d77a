"""Compare two result sets of bench/run.py: the parent and the change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are record directories (OUT/records of run.py) or
record files.  Per workload and end-to-end metric it prints each side's
median and quartiles, the share of pairs the change won (pairs match
records of one seed, in run order; ties count for neither side) and a
verdict:

- improved: at least ten pairs, the change won at least nine tenths of
  them, and the medians differ by more than the parent's quartile
  distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, or more operations failed;
- unresolved: either side's quartile distance, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
- no worse: otherwise.

Traced records add a table of per-layer medians and their deltas.
"""
import glob
import json
import os
import statistics
import sys

from run import SPEC


def load(path: str) -> list:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as fh:
            records.append(json.load(fh))
    return sorted(records, key=lambda r: r["env"]["started"])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list, change: list) -> list:
    """(parent value, change value) pairs: same seed, in run order."""
    by_seed = {}
    for side, records in ((0, parent), (1, change)):
        for r in records:
            by_seed.setdefault(r["seed"], ([], []))[side].append(r)
    out = []
    for p_runs, c_runs in by_seed.values():
        out += list(zip(p_runs, c_runs))
    return out


def value(record: dict, metric: str):
    m = record["result"]["metrics"].get(metric)
    return None if m is None else m["value"]


def verdict(p_vals, c_vals, pair_vals, better: str, bound: float,
            p_failed: int, c_failed: int) -> tuple:
    """(verdict, share of pairs won) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(new, old):  # > 0 when new is worse than old
        return sign * (new - old)

    wins = sum(worse_by(c, p) < 0 for p, c in pair_vals)
    won = wins / len(pair_vals) if pair_vals else 0.0
    pq1, pm, pq3 = quartiles(p_vals)
    cq1, cm, cq3 = quartiles(c_vals)
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0,
                 (cq3 - cq1) / abs(cm) if cm else 0.0)
    all_better = all(worse_by(c, p) < 0 for c in c_vals for p in p_vals)
    if c_failed > p_failed:
        return "worse", won
    if (len(pair_vals) >= 10 and won >= 0.9 and worse_by(cm, pm) < 0
            and abs(cm - pm) > pq3 - pq1):
        return "improved", won
    if worse_by(cm, pm) > bound * abs(pm):
        return "worse", won
    if spread > bound and not all_better:
        return "unresolved", won
    return "no worse", won


def compare(parent: list, change: list, spec: dict, out=sys.stdout):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':9s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'n':>3s} {'won':>5s}  verdict", file=out)
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == w and not r["trace"]]
        if not p_runs or not c_runs:
            print(f"{w:9s} (no untraced runs on both sides)", file=out)
            continue
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        matched = pairs(p_runs, c_runs)
        for name, m in bounds.items():
            pv = [v for v in (value(r, name) for r in p_runs) if v is not None]
            cv = [v for v in (value(r, name) for r in c_runs) if v is not None]
            pair_vals = [(value(a, name), value(b, name)) for a, b in matched
                         if value(a, name) is not None and value(b, name) is not None]
            if not pv or not cv:
                print(f"{w:9s} {name:12s} (missing)", file=out)
                continue
            v, won = verdict(pv, cv, pair_vals, m["better"], m["bound"],
                             p_failed, c_failed)
            p = "%.5g [%.5g, %.5g]" % (quartiles(pv)[1], quartiles(pv)[0], quartiles(pv)[2])
            c = "%.5g [%.5g, %.5g]" % (quartiles(cv)[1], quartiles(cv)[0], quartiles(cv)[2])
            print(f"{w:9s} {name:12s} {p:>32s} {c:>32s} {len(pair_vals):3d} "
                  f"{won:5.2f}  {v}", file=out)
        print(f"{w:9s} {'failed':12s} {p_failed:>32d} {c_failed:>32d}", file=out)
    print(file=out)
    print(f"{'workload':9s} {'per-layer metric':26s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>12s} {'delta %':>8s}", file=out)
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w and r["trace"]]
        c_runs = [r for r in change if r["workload"] == w and r["trace"]]
        if not p_runs or not c_runs:
            print(f"{w:9s} (no traced runs on both sides)", file=out)
            continue
        for layer in spec["per_layer"]:
            name = layer["name"]
            pv = [v for v in (value(r, name) for r in p_runs) if v is not None]
            cv = [v for v in (value(r, name) for r in c_runs) if v is not None]
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            rel = f"{100 * (cm - pm) / abs(pm):+8.1f}" if pm else f"{'':>8s}"
            print(f"{w:9s} {name:26s} {pm:12.5g} {cm:12.5g} {cm - pm:+12.4g} {rel}",
                  file=out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    compare(load(argv[0]), load(argv[1]), SPEC)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
