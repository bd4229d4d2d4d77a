"""One benchmark operation in a fresh process.

    python3 bench/child.py REQUEST.json SPAWNED

The request (written by run.py) names the checkout root, the generated
config file, the output directory, the report path, the check to apply
and whether to trace; SPAWNED is the CLOCK_MONOTONIC time at which the
parent spawned this process.  `setup_s` runs from that spawn time to the
moment before `quenchlab.cli.run`: interpreter start, imports and config
parsing.  A setup-only request stops there.  Otherwise `cli.run` is timed
as `wall_s`, peak RSS and CPU time are read right after it, and the
output check runs outside the timed region.  The report is written as JSON.
"""
import json
import os
import resource
import sys
import time
import traceback


def main(request_path: str, spawned: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    spawned = float(spawned)
    sys.path.insert(0, os.path.join(req["root"], "src"))
    report = {"ok": False}
    try:
        import spans
        from quenchlab import cli

        cfg = cli.parse_config(req["config"])
        cfg.output_dir = req["out"]
        report["setup_s"] = time.monotonic() - spawned
        report["quenchlab"] = os.path.dirname(cli.__file__)
        import numpy
        import scipy
        report["versions"] = {"numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        if req["setup_only"]:
            report["ok"] = True
            return 0
        tracer = spans.Tracer(timed=req["trace"])
        spans.install(tracer)
        logs = []
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        cli.run(cfg, log=logs.append)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        report.update(wall_s=wall, cpu_s=cpu,
                      peak_rss_mb=ru1.ru_maxrss / 1024.0, log=logs,
                      counts=tracer.counts, hook_answers=tracer.answers,
                      missing_hooks=tracer.missing)
        if req["trace"]:
            report["layers"] = spans.layer_metrics(tracer, wall, cpu)
            report["spans"] = tracer.summary()["names"]
        import checks
        report.update(checks.CHECKS[req["check"]](req["out"], cfg,
                                                  req.get("reference")))
        report["ok"] = not report["failures"]
        return 0 if report["ok"] else 1
    except Exception:
        report["error"] = traceback.format_exc()
        return 1
    finally:
        with open(req["report"], "w") as fh:
            json.dump(report, fh, default=float)


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
