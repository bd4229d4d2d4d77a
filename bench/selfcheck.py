"""Quick self-check of the benchmark on shrunken configs (about a minute).

    python3 bench/selfcheck.py [--root DIR]

Runs every workload once untraced and once traced on small grids, then
checks that:
- each result has the contract's keys, 0 failed operations and every
  metric of BENCHMARK.json;
- in a traced run the remainder is not negative and the bucket self-times
  plus the remainder add up to the traced wall time, and a trace whose
  spans overlap without nesting fails that test;
- corrupted outputs fail their checks;
- a count that differs from an earlier record is reported as a finding;
- compare.py gives a verdict on the small runs, and the expected verdicts
  on synthetic values.
Exits 1 at the first failed expectation.
"""
import argparse
import json
import os
import shutil
import sys

import compare
import run
import spans


def expect(ok: bool, what: str):
    if not ok:
        print(f"selfcheck: FAIL: {what}")
        raise SystemExit(1)
    print(f"selfcheck: ok: {what}")


def check_results(root: str, out: str, spec: dict) -> list:
    records = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            result, record = run.run_workload(name, 1, 1, bool(trace), root, out,
                                              small=True)
            run.write_record(out, record)
            records.append(record)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace {trace}: correct, {result['attempted']} attempted, "
                   f"0 failed {record['findings']}")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            expect(set(result["metrics"]) == {m["name"] for m in wanted},
                   f"{name} trace {trace}: every metric")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                expect(partitions(m), f"{name}: remainder >= 0 and self times + "
                       f"remainder = traced wall ({m['trace.remainder_s']:.6f} s, "
                       f"{m['trace.wall_s']:.6f} s)")
    return records


def partitions(m: dict) -> bool:
    """Whether bucket self times and the remainder partition the traced wall."""
    parts = sum(m[b] for b in spans.BUCKETS) + m["trace.remainder_s"]
    return (m["trace.remainder_s"] >= 0
            and abs(parts - m["trace.wall_s"]) <= 1e-6 * m["trace.wall_s"])


def check_partition():
    def metrics(span_list):
        tracer = spans.Tracer(timed=True)
        tracer.spans = span_list
        return spans.layer_metrics(tracer, 4.0, 0.0)

    nested = [["a", "cli.write_s", -1, 0.0, 2.0], ["b", "measure.s", 0, 0.5, 1.5],
              ["c", None, -1, 2.5, 3.0]]
    expect(partitions(metrics(nested)), "nested spans partition the wall")
    overlapping = [["a", "cli.write_s", -1, 0.0, 2.0], ["b", "measure.s", -1, 1.0, 3.0]]
    expect(not partitions(metrics(overlapping)),
           "overlapping spans that do not nest fail the partition")


def check_corruption(root: str, out: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import checks
    from quenchlab import cli

    def fails(fn, out_dir, cfg, reference=None):
        return bool(fn(out_dir, cfg, reference)["failures"])

    work = os.path.join(out, "corrupt")
    os.makedirs(work)
    cfg = cli.ExperimentConfig(sweep_alphas=(-0.02, 0.02))
    with open(os.path.join(work, "sweep.csv"), "w") as fh:
        fh.write("alpha,psi_measured,psi_predicted,drift\n"
                 "-0.02,-0.0324,-0.0339,0\n0.02,0.0325,0.0339,0\n")
    expect(fails(checks.check_sweep, work, cfg), "asymmetric sweep rows fail")
    theta_dir = os.path.join(work, "theta")
    settings = run.workload_settings("theta", 0, small=True)
    report = run.Runner(root, out).op(settings, "theta", keep=theta_dir)
    expect(report["ok"], "small theta passes before corruption")
    from quenchlab.quench2d import read_field, write_field
    path = os.path.join(theta_dir, "theta.qnch")
    th = read_field(path)
    th.data[3, 5] += 1e-6
    write_field(th, path)
    cfg = cli.ExperimentConfig()
    for key, raw in settings.items():
        cli.apply_setting(cfg, key, raw)
    expect(fails(checks.check_theta, theta_dir, cfg), "a theta that is not odd fails")
    for meta, what in (("psi = -0.16\nalpha = 0.1\nweighted_residual = 1e-8\n",
                        "a bordered psi of the wrong sign fails"),
                       ("psi = 0.16\nalpha = 0.1\nweighted_residual = 1e-3\n",
                        "a large bordered residual fails")):
        with open(os.path.join(work, "core_correction.meta"), "w") as fh:
            fh.write(meta + "iterations = 9\n")
        expect(fails(checks.check_bordered, work, cli.ExperimentConfig(), 1.7), what)


def check_determinism(out: str, record: dict):
    altered = json.loads(json.dumps(record))
    altered["fingerprint"]["counts"]["quench2d.steps"] += 1
    findings = run.compare_with_records(out, record, altered["fingerprint"])
    expect(bool(findings), f"a changed step count is a finding: {findings}")


def check_compare(records: list, spec: dict):
    compare.compare(records, records, spec)
    expect(compare.verdict([10.0] * 10, [7.0] * 10, [(10.0, 7.0)] * 10,
                           "lower", 0.1, 0, 0)[0] == "improved", "verdict improved")
    expect(compare.verdict([10.0] * 10, [13.0] * 10, [(10.0, 13.0)] * 10,
                           "lower", 0.1, 0, 0)[0] == "worse", "verdict worse")
    noisy = [8.0, 12.0] * 5
    expect(compare.verdict(noisy, [10.5] * 10, list(zip(noisy, [10.5] * 10)),
                           "lower", 0.1, 0, 0)[0] == "unresolved", "verdict unresolved")
    expect(compare.verdict([10.0] * 10, [10.2] * 10, [(10.0, 10.2)] * 10,
                           "lower", 0.1, 0, 0)[0] == "no worse", "verdict no worse")
    expect(compare.verdict([10.0] * 10, [7.0] * 10, [(10.0, 7.0)] * 10,
                           "lower", 0.1, 0, 1)[0] == "worse", "more failures are worse")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=".")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    out = os.path.join(root, ".bench_out", "selfcheck")
    shutil.rmtree(out, ignore_errors=True)
    spec = run.SPEC
    records = check_results(root, out, spec)
    check_partition()
    check_corruption(root, out)
    check_determinism(out, records[0])
    check_compare(records, spec)
    shutil.rmtree(out, ignore_errors=True)
    print("selfcheck: all passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
