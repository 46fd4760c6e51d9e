"""Which functions under src/ run in the driver surfaces, and which only under tier-1.

Records, with ``sys.setprofile``, the code objects called by the driver
surfaces (the default eval, the paper-scale eval without netsweep, one
paper-scale netsweep point that never drains, the paper-scale traced and
profiled hot-spot, the ``examples/`` scripts and the bench workloads),
then by the tier-1 suite, and matches them to the ``def``s under
``src/repro`` by file and first line.  The whole paper-scale netsweep
would take minutes more under the hook; its one point stands for the
eight that never drain, whose deadlock report (``Fabric.find_deadlock``,
``Fabric.snapshot``, the kernel's stall report) no other surface
reaches.  Prints one count line per group and writes the full list to
``calltrace.txt``; the eval artifacts land under ``calltrace-out/``.
Both are written into the working directory.

One more group lists fields rather than ``def``s: the attributes that a
class under ``src/repro`` stores on ``self`` or declares in its body
(the annotations of a dataclass or a ``NamedTuple``) and that no
``.name`` load under ``src/``, ``tests/``, ``bench/``, ``examples/`` or
``tools/`` reads (:func:`unread_fields`, one pass over the syntax
trees, no tracing).  It misses a field read only to update itself:
``self.peak[pin] = ...`` and ``self.hits = self.hits + 1`` load the
field they write.  It cannot see a field read without its name: through
``dataclasses.fields`` (how ``repro.exp.artifacts.to_jsonable``
serializes a payload), ``asdict`` or a tuple index.  Such a field reads
"never read" though an artifact carries it; deleting it changes the
artifact, which the same-output check (``tools/sameoutput.py``)
catches.  The group gates nothing.

Run from the repository root (4 to 5 minutes on 2 vCPUs: 3 min 44 s
and 4 min 39 s in the last two timed runs)::

    python tools/calltrace.py

Exits non-zero when a surface or the traced tier-1 run fails.
"""

import ast
import os
import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)
# Tier-1's subprocess tests import repro too.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
seen = set()


def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


def traced(fn):
    """Run ``fn`` under the hook; return its calls as (file, first line)."""
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    codes = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    seen.clear()
    return codes


def cli(*argv):
    def run():
        sys.argv = ["repro", *argv]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            if exit.code:
                raise RuntimeError(f"python -m repro {' '.join(argv)}: exit {exit.code}")
    return run


def netsweep_point():
    """Paper-scale netsweep's dimension-order torus64 point at 0.5, which
    never drains (0.3 s untraced)."""
    from repro.network.routing import make_policy
    from repro.network.traffic import run_traffic_named

    payload = run_traffic_named(
        "torus", 64, make_policy("dimension-order", seed=42), "uniform", 0.5,
        seed=42, warmup_cycles=200, measure_cycles=600,
    )
    if payload["deadlock"] is None:
        raise RuntimeError("the traced netsweep point reported no deadlock")


def examples():
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def bench():
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    for spec in WORKLOADS.values():
        run, finish = spec.setup(42, False)
        finish(run())


def tier1():
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code:
        raise RuntimeError(f"tier-1 failed under the trace: pytest exit {code}")


def defs():
    """Every def under src/repro: (file, first line) -> (name, lines)."""
    every = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code object starts at its first decorator.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                every[(os.path.realpath(path), first)] = (
                    node.name,
                    node.end_lineno - first + 1,
                )
    return every


def unread_fields():
    """Fields that a class under src/repro stores on ``self`` or declares
    in its body and that no ``.name`` load reads: (file, line of the first
    store or the declaration) -> "Class.field"."""
    stored, loaded = {}, set()

    def visit(node, path, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Load):
                    loaded.add(child.attr)
                elif path and cls and getattr(child.value, "id", None) == "self":
                    stored.setdefault((cls, child.attr), (path, child.lineno))
            elif (
                path
                and isinstance(node, ast.ClassDef)
                and isinstance(child, ast.AnnAssign)
                and isinstance(child.target, ast.Name)
            ):
                stored.setdefault((cls, child.target.id), (path, child.lineno))
            visit(child, path, child.name if isinstance(child, ast.ClassDef) else cls)

    for directory in ("src", "tests", "bench", "examples", "tools"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            source = os.path.realpath(path) if directory == "src" else None
            visit(ast.parse(path.read_text()), source, None)
    return {
        where: f"{cls}.{field}"
        for (cls, field), where in stored.items()
        if field not in loaded
    }


def main():
    surfaces = set()
    for fn in (
        cli("--json-dir", "calltrace-out/default"),
        cli("--paper-scale", "--skip", "netsweep", "--json-dir", "calltrace-out/paper"),
        netsweep_point,
        cli(
            "--paper-scale", "--only", "flowcontrol", "--trace", "--lineage",
            "--profile", "--json-dir", "calltrace-out/traced",
        ),
        examples,
        bench,
    ):
        surfaces |= traced(fn)
    tests = traced(tier1)
    every = defs()
    groups = {
        "surfaces": [k for k in every if k in surfaces],
        "tests only": [k for k in every if k in tests and k not in surfaces],
        "never": [k for k in every if k not in surfaces and k not in tests],
    }
    fields = unread_fields()
    with open("calltrace.txt", "w") as report:
        for label, keys in groups.items():
            lines = sum(every[k][1] for k in keys)
            print(f"{label}: {len(keys)} defs, {lines} lines")
            report.write(f"## {label}: {len(keys)} defs, {lines} lines\n")
            for path, line in sorted(keys):
                name, length = every[(path, line)]
                relative = os.path.relpath(path, ROOT)
                report.write(f"{relative}:{line} {name} ({length} lines)\n")
        print(f"fields never read: {len(fields)}")
        report.write(f"## fields never read: {len(fields)}\n")
        for path, line in sorted(fields):
            relative = os.path.relpath(path, ROOT)
            report.write(f"{relative}:{line} {fields[(path, line)]}\n")


if __name__ == "__main__":
    main()
