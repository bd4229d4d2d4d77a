"""quenchlab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {sweep,theta,bordered} --seed N \
        --seconds S --trace {0,1} [--root DIR] [--out DIR]

Run from the root of a checkout (or name it with --root).  Each operation
is a fresh single process (bench/child.py) that parses the generated
config and calls `quenchlab.cli.run`, with BLAS/OpenMP pools pinned to one
thread because the program declares itself single-threaded.  Closed loop:
one operation at a time; operations repeat while the elapsed time plus
the mean operation time stays within --seconds, and at least one runs.

--trace 0 prints the end-to-end metrics, each the median over the run's
operations; setup_s also pools SETUP_PROBES processes that only set up.
--trace 1 runs pairs of one untraced and one traced operation and prints
the per-layer metrics of the traced operation with the median wall time,
plus trace.overhead, the traced over the untraced median wall time, - 1.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run record with the answers, counts and environment goes to
OUT/records (default OUT: ROOT/.bench_out).  Counts and answers must
repeat exactly across operations and across records of the same source,
workload and seed; a mismatch is printed as a finding and fails the run.
"""
import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
#: every metric's unit, as BENCHMARK.json gives it
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _sweep(seed: int) -> dict:
    # |alpha| within +-25 %: the step count (1,887) does not depend on it
    a = 0.02 * (1 + random.Random(seed).uniform(-0.25, 0.25)) if seed else 0.02
    return {"sweep.alphas": f"{-a!r},{a!r}"}


def _bordered(seed: int) -> dict:
    # a random sign, and |alpha| only up to +10 %: Gauss-Newton takes 8
    # iterations at |alpha| = 0.09, 9 on [0.1, 0.11] and 10 at 0.125, and a
    # seed-dependent iteration count would swamp the wall-time spread
    if not seed:
        return {"model.alpha": "0.1"}
    rng = random.Random(seed)
    a = 0.1 * (1 + rng.uniform(0.0, 0.1)) * rng.choice((-1, 1))
    return {"model.alpha": repr(a)}


#: mode, fixed settings, seeded settings, and the shrunken settings of
#: selfcheck.py; why each workload is there is in BENCHMARK.json
WORKLOADS = {
    "sweep": {
        "mode": "sweep",
        "settings": {"model.g_right": "1", "grid2d.half_width_x": "50",
                     "grid2d.half_width_y": "50", "grid2d.h": "0.5",
                     "solver.dt": "0.25"},
        "seeded": _sweep,
        "small": {"grid2d.half_width_x": "24", "grid2d.half_width_y": "24",
                  "measure.window_lo": "-18", "measure.window_hi": "-7"},
    },
    "theta": {
        "mode": "theta",
        "settings": {},
        "seeded": lambda seed: {},
        "small": {"grid2d.half_width_x": "20", "grid2d.half_width_y": "20"},
    },
    "bordered": {
        "mode": "bordered",
        "settings": {"model.g_right": "1"},
        "seeded": _bordered,
        "small": {"bordered.half_width": "14", "bordered.R": "7"},
        # the prediction: `quenchlab melnikov` at the default grids
        "reference": {"model.g_right": "1"},
    },
}


def workload_settings(name: str, seed: int, small: bool = False) -> dict:
    w = WORKLOADS[name]
    settings = {"mode": w["mode"], **w["settings"], **w["seeded"](seed)}
    if small:
        settings.update(w["small"])
    return settings


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources: the commit, as far as it matters."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "quenchlab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str) -> dict:
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": source_digest(root),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: child_env()[k] for k in THREAD_VARS},
            "loadavg_start": os.getloadavg(), "started": time.time()}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.pop("QUENCHLAB_OUTPUT_ROOT", None)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Spawns child operations for one checkout, with work files under `out`."""

    def __init__(self, root: str, out: str):
        self.root = root
        self.out = out
        self.work = os.path.join(out, "work")
        self.serial = 0
        os.makedirs(self.work, exist_ok=True)

    def op(self, settings: dict, check: str, trace: bool = False,
           setup_only: bool = False, reference=None, keep: str = "") -> dict:
        """Run one child; returns its report (ok False on any failure)."""
        self.serial += 1
        tag = f"{os.getpid()}-{self.serial}"
        cfg_path = os.path.join(self.work, f"{tag}.cfg")
        req_path = os.path.join(self.work, f"{tag}.request.json")
        report_path = os.path.join(self.work, f"{tag}.report.json")
        out_dir = keep or os.path.join(self.work, f"{tag}.out")
        with open(cfg_path, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in settings.items())
        req = {"root": self.root, "config": cfg_path, "out": out_dir,
               "report": report_path, "check": check, "trace": trace,
               "setup_only": setup_only, "reference": reference}
        with open(req_path, "w") as fh:
            json.dump(req, fh)
        env = child_env()
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"),
                                 req_path, repr(spawned)], cwd=self.root, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            err = f"timed out after {CHILD_TIMEOUT_S} s"
        elapsed = time.monotonic() - spawned
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {"ok": False, "error": err.strip()[-2000:] or "no report"}
        report["exit"] = proc.returncode
        report["elapsed_s"] = elapsed
        report["ok"] = report.get("ok", False) and proc.returncode == 0
        expected = os.path.join(self.root, "src", "quenchlab")
        if report.get("quenchlab") not in (None, expected):
            report["ok"] = False
            report["error"] = f"imported quenchlab from {report['quenchlab']}"
        for path in (cfg_path, req_path, report_path):
            os.remove(path)
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return report

    def reference(self, settings: dict):
        """dphi_dalpha from `quenchlab melnikov`, cached per source digest;
        None when that run fails, which then fails the checks that need it."""
        key = hashlib.sha256(json.dumps(
            [source_digest(self.root), settings], sort_keys=True).encode()).hexdigest()
        path = os.path.join(self.out, "cache", f"melnikov-{key[:24]}.json")
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)["dphi_dalpha"]
        report = self.op({"mode": "melnikov", **settings}, "reference")
        if not report["ok"]:
            return None
        value = report["answers"]["dphi_dalpha"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"dphi_dalpha": value, "settings": settings}, fh)
        return value


def fingerprint(report: dict) -> dict:
    """The numbers that must repeat exactly for one source, workload and seed."""
    return {"counts": report.get("counts"), "answers": report.get("answers"),
            "hook_answers": report.get("hook_answers")}


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str, out: str, small: bool = False) -> tuple:
    """Measure one workload; returns (result line, run record)."""
    runner = Runner(root, out)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "small": small, "env": environment(root)}
    settings = workload_settings(name, seed, small)
    record["settings"] = settings
    ref_settings = WORKLOADS[name].get("reference")
    reference = runner.reference(ref_settings) if ref_settings else None
    record["reference_dphi_dalpha"] = reference

    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        probe = runner.op(settings, name, setup_only=True)
        if probe["ok"]:
            setups.append(probe["setup_s"])
    ops, traced = [], []
    start = time.monotonic()
    while True:
        ops.append(runner.op(settings, name, reference=reference))
        if trace:
            traced.append(runner.op(settings, name, trace=True,
                                    reference=reference))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(ops) > seconds:
            break

    everything = ops + traced
    good = [r for r in ops if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    findings = [f"operation failed: {r.get('error') or r.get('failures')}"
                for r in everything if not r["ok"]]
    prints = [fingerprint(r) for r in everything if r["ok"]]
    if any(p != prints[0] for p in prints[1:]):
        findings.append("counts or answers differ between operations of one run")
    findings += compare_with_records(out, record, prints[0] if prints else None)

    if trace:
        metrics = _layer_metrics(good, good_traced)
        samples = dict.fromkeys(metrics, len(good_traced))
        samples["trace.overhead"] = min(len(good), len(good_traced))
    else:
        setups += [r["setup_s"] for r in good]
        metrics = {"setup_s": _median(setups),
                   "wall_s": _median([r["wall_s"] for r in good]),
                   "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
                   "method_gap": _median([r["method_gap"] for r in good])}
        samples = dict.fromkeys(metrics, len(good))
        samples["setup_s"] = len(setups)
    correct = not findings and bool(good) and (bool(good_traced) or not trace)
    result = {"correct": correct, "attempted": len(everything),
              "failed": len(everything) - len(good) - len(good_traced),
              "metrics": {k: {"value": v if math.isfinite(v) else None,
                              "unit": UNITS[k]} for k, v in metrics.items()}}
    record.update(result=result, samples=samples, findings=findings,
                  fingerprint=prints[0] if prints else None,
                  versions=good[0].get("versions") if good else None,
                  setup_samples=setups, operations=ops, traced_operations=traced)
    return result, record


def _layer_metrics(untraced: list, traced: list) -> dict:
    if not traced:
        return {}
    by_wall = sorted(traced, key=lambda r: r["wall_s"])
    metrics = dict(by_wall[(len(by_wall) - 1) // 2]["layers"])
    base = _median([r["wall_s"] for r in untraced])
    metrics["trace.overhead"] = _median([r["wall_s"] for r in traced]) / base - 1
    return metrics


def compare_with_records(out: str, record: dict, prints) -> list:
    """Findings where an earlier record of the same source, workload, seed
    and settings has other counts or answers."""
    if prints is None:
        return []
    findings = []
    for path in sorted(glob.glob(os.path.join(out, "records", "*.json"))):
        try:
            with open(path) as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            continue
        same = (old.get("workload") == record["workload"]
                and old.get("seed") == record["seed"]
                and old.get("settings") == record["settings"]
                and old.get("env", {}).get("source_sha256")
                == record["env"]["source_sha256"])
        if same and old.get("fingerprint") not in (None, prints):
            findings.append(f"counts or answers differ from {os.path.basename(path)}")
    return findings


def write_record(out: str, record: dict) -> str:
    os.makedirs(os.path.join(out, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(record["env"]["started"]))
    path = os.path.join(out, "records", f"{stamp}-{record['workload']}-seed"
                        f"{record['seed']}-trace{record['trace']}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", default=".", help="checkout to benchmark")
    parser.add_argument("--out", help="records and work files (ROOT/.bench_out)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "quenchlab", "cli.py")):
        print(f"run.py: no quenchlab sources under {root}/src", file=sys.stderr)
        return 2
    out = os.path.abspath(args.out or os.path.join(root, ".bench_out"))
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), root, out)
    path = write_record(out, record)
    for finding in record["findings"]:
        print(f"finding: {finding}")
    for key, m in result["metrics"].items():
        print(f"{args.workload:9s} {key:24s} {m['value']} {m['unit']} "
              f"(median of {record['samples'][key]})")
    print(f"record: {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
