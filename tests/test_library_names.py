"""The library holds no public code that only the tests call."""
import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _identifiers(node):
    """Names, attribute names and identifier-like strings (getattr and
    patch targets) used inside node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def _public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")


def test_public_library_names_have_a_caller_in_src_or_bench():
    """Each public module-level function or class of src/quenchlab is named
    by some other top-level statement in src/quenchlab or bench, and each
    public method of a library class by some other top-level statement or
    some other member of its class.

    A name-based ratchet: it matches identifiers, not bindings, so a
    same-named attribute elsewhere (such as `report.m_psi` for a function
    `m_psi`) counts as a use and hides an unused definition.
    """
    library = sorted((ROOT / "src" / "quenchlab").glob("*.py"))
    files = library + sorted((ROOT / "bench").glob("*.py"))
    statements = [(path, node) for path in files
                  for node in ast.parse(path.read_text()).body]
    names = [(node, set(_identifiers(node))) for _, node in statements]
    unused = [f"{path.stem}.{node.name}" for path, node in statements
              if path in library and _public(node)
              and not any(node.name in used for other, used in names
                          if other is not node)]
    for path, cls in statements:
        if path not in library or not isinstance(cls, ast.ClassDef):
            continue
        members = [(node, set(_identifiers(node))) for node in cls.body]
        unused += [f"{path.stem}.{cls.name}.{node.name}" for node, _ in members
                   if _public(node)
                   and not any(node.name in used for other, used in names + members
                               if other not in (node, cls))]
    assert unused == []


def test_bench_hooks_find_their_targets():
    """bench/spans.py hooks quenchlab's callables by name, and a hook whose
    target is gone reads 0 in its per-layer metrics.  Only the hooks on
    `cli.measure_drift`, `cli.cy_from_angle`, `cli.zero_level_set` and
    `cli.fit_contact_angle`, which no longer exist, may miss: the last three
    fire only in a sweep's forked workers, whose records are lost anyway."""
    code = ("import spans; t = spans.Tracer(timed=True); spans.install(t); "
            "print(t.missing)")
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == str([f"quenchlab.cli.{name}" for name in (
        "measure_drift", "cy_from_angle", "zero_level_set", "fit_contact_angle")])


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_default_is_omitted_by_some_call():
    """Each default parameter of a public module-level function of
    src/quenchlab is left out by at least one call in src, bench or tests;
    a default that every call overrides is a second copy of the callers'
    value.

    Name-based like the ratchet above: a call counts for every function of
    its callee's name, and a call that unpacks *args or **kwargs omits
    nothing.
    """
    library = sorted((ROOT / "src" / "quenchlab").glob("*.py"))
    files = [path for d in ("src", "bench", "tests")
             for path in sorted((ROOT / d).rglob("*.py"))]
    calls = [node for path in files for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    unused = []
    for path in library:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            mine = [c for c in calls if _callee(c) == node.name
                    and not any(isinstance(a, ast.Starred) for a in c.args)
                    and all(k.arg is not None for k in c.keywords)]
            for index, name in defaulted:
                if not any((index is None or len(c.args) <= index)
                           and name not in {k.arg for k in c.keywords}
                           for c in mine):
                    unused.append(f"{path.stem}.{node.name}({name})")
    assert unused == []
