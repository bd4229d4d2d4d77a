"""Interleaved parent/change runs of the benchmark, then the comparison.

    python3 bench/campaign.py PARENT_ROOT CHANGE_ROOT --out DIR

Both checkouts are measured by this copy of the benchmark, with the same
settings and the run length of BENCHMARK.json.  Each of ROUNDS rounds
runs every workload on both sides; round r uses seed r + 1, runs the
workloads in an order rotated by r and, within a workload, the parent
first in even rounds and the change first in odd ones, so that a slow
spell of the shared machine lands on both sides.  One traced round
follows, which runs each side once per workload with --trace 1.  Records
go to DIR/parent and DIR/change; the comparison is printed and written
to DIR/compare.txt.
"""
import argparse
import io
import os
import subprocess
import sys

import compare
import run

#: pairs per workload and metric: a gain needs at least ten
ROUNDS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = list(run.WORKLOADS)
    seconds = str(run.SPEC["run_seconds"])
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    out = os.path.abspath(args.out)
    schedule = [(r, 0) for r in range(ROUNDS)]
    schedule.append((0, 1))
    for r, trace in schedule:
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            names = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in names:
                cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                       "--workload", w, "--seed", str(r + 1), "--seconds",
                       seconds, "--trace", str(trace), "--root", sides[side],
                       "--out", os.path.join(out, side)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                last = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
                print(f"round {r} trace {trace} {w:9s} {side:6s} exit "
                      f"{proc.returncode}: {last[:160]}", flush=True)
    text = io.StringIO()
    compare.compare(compare.load(os.path.join(out, "parent", "records")),
                    compare.load(os.path.join(out, "change", "records")),
                    run.SPEC, out=text)
    print(text.getvalue())
    with open(os.path.join(out, "compare.txt"), "w") as fh:
        fh.write(text.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
