"""Same output: two revisions' evals must agree apart from host time.

    python tools/sameoutput.py BASE [HEAD]

Empties ``same-output/`` (gitignored), exports ``src/`` of each
revision into ``same-output/base/`` and ``same-output/head/`` with
``git archive``, as ``bench/ab.py`` does, and runs from the repository
root, with each side's ``src/`` on ``PYTHONPATH``:

* ``python -m repro --json-dir`` -- the default eval's 12 artifacts;
* ``--paper-scale --skip netsweep`` -- the paper-scale eval's other 11;
* ``--paper-scale --only netsweep`` -- paper-scale netsweep's one
  artifact, every ``deadlock`` string included (49 to 63 s a side on
  2 vCPUs);
* ``--only flowcontrol --trace --lineage``, with and without
  ``--paper-scale`` -- the three observer files under ``traces/``.

Then :func:`compare` checks that each artifact equals the base's once
every ``wall_clock_seconds`` is dropped, that each report equals the
base's once its ``[artifact]`` lines are removed, and that the three
trace files are byte-identical at both scales.  It prints each
section's ``wall_clock_seconds`` on both sides and their ratio (one run
a side on a shared host, so it gates nothing) and exits 1 on any
difference or failed run.  HEAD defaults to ``HEAD``.  Commit first: the
tool never sees uncommitted edits.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "same-output"
SIDES = ("base", "head")

#: Each run: name, arguments, and how many artifacts it writes (None: the
#: run is compared by its trace files instead).
RUNS = (
    ("default", (), 12),
    ("paper", ("--paper-scale", "--skip", "netsweep"), 11),
    ("netsweep", ("--paper-scale", "--only", "netsweep"), 1),
    ("traced", ("--only", "flowcontrol", "--trace", "--lineage"), None),
    ("paper-traced", ("--paper-scale", "--only", "flowcontrol", "--trace", "--lineage"), None),
)

TRACES = ("flowcontrol_trace.json", "flowcontrol_metrics.json", "lineage.json")


def export(rev: str, into: Path) -> str:
    """Extract ``src/`` of ``rev`` under ``into``; returns the short hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return sha[:9]


def run(side: str, name: str, args) -> bool:
    """One eval run on one side; its report goes to ``<side>-<name>.txt``."""
    env = dict(os.environ, PYTHONPATH=str(OUT / side / "src"))
    json_dir = OUT.relative_to(ROOT) / f"{side}-{name}"
    with open(OUT / f"{side}-{name}.txt", "w") as report:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args, "--json-dir", str(json_dir)],
            cwd=ROOT, env=env, stdout=report,
        )
    return done.returncode == 0


def timeless(value):
    if isinstance(value, dict):
        return {k: timeless(v) for k, v in value.items() if k != "wall_clock_seconds"}
    if isinstance(value, list):
        return [timeless(v) for v in value]
    return value


def compare(root: Path) -> List[str]:
    """Every difference between the two sides' outputs under ``root``.

    Prints each section's ``wall_clock_seconds`` on both sides.
    """
    failures = []

    def report(side, name):
        lines = (root / f"{side}-{name}.txt").read_text().splitlines()
        return [line for line in lines if not line.startswith("[artifact]")]

    for name, _, count in RUNS:
        if count is None:
            for trace in TRACES:
                base, head = (root / f"{side}-{name}" / "traces" / trace for side in SIDES)
                same = base.is_file() and head.is_file() and base.read_bytes() == head.read_bytes()
                if not same:
                    failures.append(f"{name} traces/{trace} is missing or not byte-identical")
            continue
        base, head = (
            {p.name: p for p in sorted((root / f"{side}-{name}").glob("*.json"))}
            for side in SIDES
        )
        if len(head) != count or sorted(base) != sorted(head):
            failures.append(f"{name} artifacts: base {sorted(base)}, head {sorted(head)}")
        for artifact in sorted(set(base) & set(head)):
            a, b = (json.loads(side[artifact].read_text()) for side in (base, head))
            if timeless(a) != timeless(b):
                failures.append(f"{name} {artifact} differs beyond wall_clock_seconds")
            print(
                f"{name:<9} {artifact:<18} wall clock: base {a['wall_clock_seconds']:7.2f} s, "
                f"head {b['wall_clock_seconds']:7.2f} s, "
                f"ratio {b['wall_clock_seconds'] / max(a['wall_clock_seconds'], 1e-9):.3f}"
            )
        if report("base", name) != report("head", name):
            failures.append(f"the {name} report differs beyond its [artifact] lines")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    args = parser.parse_args()
    shutil.rmtree(OUT, ignore_errors=True)
    hashes = {side: export(rev, OUT / side) for side, rev in zip(SIDES, (args.base, args.head))}
    print(f"same output: base {hashes['base']}, head {hashes['head']}", flush=True)
    failures = []
    for name, extra, _ in RUNS:
        for side in SIDES:
            if not run(side, name, extra):
                failures.append(f"python -m repro {' '.join(extra)} failed on {side}")
    failures += compare(OUT)
    for failure in failures:
        print(f"same-output: {failure}", file=sys.stderr)
    print(f"same output: {'no' if failures else 'yes'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
