"""Spans and counters recorded around calls into quenchlab's layers.

The hooks wrap public callables from outside the program, at the name each
caller resolves: a module global where a function was imported by name
(`cli.solve_theta`), a module attribute where the caller qualifies it
(`farfield.solve_bordered`), and a class attribute for methods
(`SemiImplicitStepper.step`).  Nothing under `src/` changes.

An untraced operation installs only the record hooks, a handful of calls
per run that capture counts and answers without timing anything.  A traced
operation also times every hooked call as a span.  A span's self time is
its duration minus the durations of its direct child spans; a span belongs
to one bucket or to none.  The remainder (`trace.remainder_s`) is measured
on its own: the part of the traced `wall_s` that no span covers, plus the
self times of spans in no bucket (orchestration in `cli`).  When the spans
nest properly, the bucket self times plus the remainder add up to `wall_s`.
"""
import time

#: buckets whose self times partition the traced wall time, besides the remainder
BUCKETS = ("quench2d.self_s", "measure.s", "profiles1d.s", "melnikov.s",
           "farfield.factor_s", "farfield.lu_solve_s", "farfield.ansatz_s",
           "farfield.profiles_s", "farfield.self_s", "cli.write_s")


class Tracer:
    """In-memory spans (name, bucket, parent index, start, end) and counters."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans = []
        self._stack = []
        self.counts = {}
        self.answers = {}
        self.missing = []

    def count(self, name: str, by: int = 1):
        self.counts[name] = self.counts.get(name, 0) + by

    def peak(self, name: str, value: int):
        self.counts[name] = max(self.counts.get(name, 0), int(value))

    def wrap(self, fn, name: str, bucket, on_return=None):
        """`fn` timed as span `name` when tracing; `on_return(out, args)`
        runs after the span closes and may substitute the result."""
        if not self.timed:
            if on_return is None:
                return fn

            def recorded(*args, **kwargs):
                return on_return(fn(*args, **kwargs), args)
            return recorded
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            span = [name, bucket, stack[-1] if stack else -1,
                    time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            return out if on_return is None else on_return(out, args)
        return timed

    def patch(self, owner, attr: str, name: str, bucket, on_return=None):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr,
                self.wrap(getattr(owner, attr), name, bucket, on_return))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per bucket: self
        seconds; the self seconds of spans in no bucket; and the length of
        the union of all span intervals."""
        child = [0.0] * len(self.spans)
        for name, bucket, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names, buckets = {}, dict.fromkeys(BUCKETS, 0.0)
        unbucketed = 0.0
        for (name, bucket, _, start, end), inner in zip(self.spans, child):
            row = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
            if bucket is None:
                unbucketed += end - start - inner
            else:
                buckets[bucket] += end - start - inner
        covered, reach = 0.0, float("-inf")
        for start, end in sorted((sp[3], sp[4]) for sp in self.spans):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        return {"names": names, "buckets": buckets, "unbucketed_s": unbucketed,
                "covered_s": covered}


class _Proxy:
    """Stands in for an object, with some attributes replaced."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer):
    """Hook quenchlab's layers; record hooks always, span-only hooks when timed."""
    from quenchlab import cli, farfield, melnikov, quench2d

    t = tracer

    def stepper_built(out, args):
        t.count("quench2d.factorizations")
        # spla.factorized returns the bound solve method of a SuperLU object
        lu = getattr(getattr(args[0], "_solve", None), "__self__", None)
        t.peak("quench2d.lu_fill_nnz", getattr(lu, "nnz", 0))
        return out

    def steady(res, args):
        t.count("quench2d.steps", res.steps)
        t.answers.setdefault("final_update_rates", []).append(res.final_update_rate)
        return res

    def angle(res, args):
        alpha = f"{args[0].alpha:.17g}"
        t.answers.setdefault("angles", {})[alpha] = {
            "psi": res["psi"], "c_y": res["c_y"], "drift": res["drift"],
            "update_rate": res["update_rate"]}
        return res

    def drift(res, args):
        t.count("measure.rounds")
        return res

    def bordered(cc, args):
        t.count("farfield.iterations", cc.iterations)
        t.answers["bordered"] = {"psi": cc.psi, "alpha": cc.alpha,
                                 "weighted_residual": cc.weighted_residual,
                                 "kkt_norm": cc.kkt_norm,
                                 "iterations": cc.iterations}
        return cc

    def report(rep, args):
        t.answers["dphi_dalpha"] = rep.dphi_dalpha
        return rep

    def factored(lu, args):
        t.count("farfield.factorizations")
        t.peak("farfield.lu_fill_nnz", getattr(lu, "nnz", 0))
        if not t.timed:
            return lu
        return _Proxy(lu, solve=t.wrap(lu.solve, "farfield.lu_solve",
                                       "farfield.lu_solve_s"))

    Stepper = quench2d.SemiImplicitStepper
    t.patch(Stepper, "__init__", "quench2d.factorize", "quench2d.self_s",
            stepper_built)
    for owner in (cli, quench2d):
        t.patch(owner, "run_to_steady", "quench2d.run_to_steady",
                "quench2d.self_s", steady)
    t.patch(cli, "measure_steady_angle", "cli.measure_steady_angle", None, angle)
    t.patch(cli, "measure_drift", "measure.measure_drift", "measure.s", drift)
    t.patch(farfield, "solve_bordered", "farfield.solve_bordered",
            "farfield.self_s", bordered)
    t.patch(melnikov, "build_report", "melnikov.build_report", "melnikov.s",
            report)
    if hasattr(farfield, "spla"):
        farfield.spla = _Proxy(farfield.spla)
        t.patch(farfield.spla, "splu", "farfield.splu", "farfield.factor_s",
                factored)
    if not t.timed:
        return
    t.patch(Stepper, "step", "quench2d.step", "quench2d.self_s")
    t.patch(Stepper, "reaction", "quench2d.reaction", "quench2d.self_s")
    for owner in (cli, farfield):
        t.patch(owner, "solve_theta", "quench2d.solve_theta", "quench2d.self_s")
        for name in ("solve_quench_front", "solve_traveling_wave"):
            t.patch(owner, name, f"profiles1d.{name}", "profiles1d.s")
    t.patch(cli, "cy_from_angle", "profiles1d.cy_from_angle", "profiles1d.s")
    for name in ("zero_level_set", "fit_contact_angle"):
        t.patch(cli, name, f"measure.{name}", "measure.s")
    for name in ("__init__", "__call__", "track"):
        t.patch(cli.ContactRecorder, name, f"measure.ContactRecorder.{name}",
                "measure.s")
    t.patch(farfield, "ansatz_sheared", "farfield.ansatz_sheared",
            "farfield.ansatz_s")
    t.patch(farfield, "build_profiles", "farfield.build_profiles",
            "farfield.profiles_s")
    for owner, name in ((cli, "write_field"), (cli, "export_field_csv"),
                        (cli, "write_manifest"), (melnikov, "write_report"),
                        (farfield, "save_correction")):
        t.patch(owner, name, f"cli.{name}", "cli.write_s")


def layer_metrics(tracer: Tracer, wall_s: float, cpu_s: float) -> dict:
    """Per-layer metric values of one traced operation."""
    s = tracer.summary()
    names, buckets = s["names"], s["buckets"]
    c = tracer.counts

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    steps = c.get("quench2d.steps", 0)
    step_ms = 1e3 * total("quench2d.step") / max(steps, 1)
    reaction_ms = 1e3 * total("quench2d.reaction") / max(steps, 1)
    profiles = sum(row["calls"] for n, row in names.items()
                   if n.startswith("profiles1d."))
    out = {
        "quench2d.steps": steps,
        "quench2d.step_ms": step_ms,
        "quench2d.reaction_ms": reaction_ms,
        "quench2d.solve_ms": step_ms - reaction_ms,
        "quench2d.factorizations": c.get("quench2d.factorizations", 0),
        "quench2d.factorize_s": total("quench2d.factorize"),
        "quench2d.lu_fill_nnz": c.get("quench2d.lu_fill_nnz", 0),
        "quench2d.theta_s": total("quench2d.solve_theta"),
        "measure.rounds": c.get("measure.rounds", 0),
        "profiles1d.solves": profiles,
        "farfield.iterations": c.get("farfield.iterations", 0),
        "farfield.lu_fill_nnz": c.get("farfield.lu_fill_nnz", 0),
        "cli.cpu_s": cpu_s,
        "trace.wall_s": wall_s,
    }
    out.update(buckets)
    out["trace.remainder_s"] = wall_s - s["covered_s"] + s["unbucketed_s"]
    return out
