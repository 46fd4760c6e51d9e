"""Same-host A/B comparison of two revisions with the same benchmark code.

    python bench/ab.py BASE [HEAD] [--workloads W ...]

Exports ``src/`` of each revision with ``git archive`` into a temporary
directory under ``bench/out/`` (no worktree metadata), then runs this
checkout's ``sample.py`` against each through ``--src``: ten pairs per
workload at seed 42, alternating which side runs first, workloads
interleaved within each pair round.  HEAD defaults to ``HEAD``.

For each (workload, end-to-end metric) it prints both sides' median and
quartiles, HEAD's change, the fraction of pairs HEAD won (ties count for
neither), and a verdict:

* ``unresolved`` -- BASE's own quartile spread is wider than the bound
  and HEAD's runs do not all beat, or all lose to, BASE's;
* ``REGRESSION`` -- HEAD's median is worse than BASE's by more than the
  metric's bound in BENCHMARK.json;
* ``gain`` -- HEAD won at least 9/10 of the pairs and the medians differ
  by more than BASE's quartile spread;
* ``worse, within bound`` -- the same with BASE winning: a slowdown
  smaller than the bound, but consistent, so that several of them
  cannot add up unseen;
* ``within bound`` -- otherwise.

A workload whose entry point a revision lacks is reported
``unavailable``.  The last line per workload says whether both sides
produced the same simulated output (digest).
"""

from __future__ import annotations

import argparse
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

from run import HERE, ROOT, SPEC, e2e_values, quartiles, run_sample
from workloads import WORKLOADS

#: Share of pairs a side must win before a difference counts as a gain.
WIN_SHARE = 0.9

#: Pairs per workload, and the seed every sample runs with.
PAIRS = 10
SEED = 42


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export(rev: str, into: Path) -> str:
    """Extract ``src/`` of ``rev`` under ``into``; returns the short hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = git("archive", "--format=tar", sha, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return sha[:9]


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def judge(base: List[float], head: List[float], metric: Dict) -> Dict:
    """Both sides' quartiles, HEAD's change and pair wins, and the verdict."""
    direction, bound = metric["better"], metric["bound"]
    b_q1, b_med, b_q3 = quartiles(base)
    head_q = quartiles(head)
    change = head_q[1] / b_med - 1
    worse = change if direction == "lower" else -change
    wins = sum(better(h, b, direction) for h, b in zip(head, base))
    losses = sum(better(b, h, direction) for h, b in zip(head, base))
    apart = abs(head_q[1] - b_med) > b_q3 - b_q1
    all_better = all(better(h, b, direction) for h in head for b in base)
    all_worse = all(better(b, h, direction) for h in head for b in base)
    if (b_q3 - b_q1) / b_med > bound and not (all_better or all_worse):
        text = "unresolved"
    elif worse > bound:
        text = "REGRESSION"
    elif wins >= WIN_SHARE * len(head) and apart:
        text = "gain"
    elif losses >= WIN_SHARE * len(head) and apart:
        text = "worse, within bound"
    else:
        text = "within bound"
    return {
        "base": (b_q1, b_med, b_q3),
        "head": head_q,
        "change": change,
        "wins": wins,
        "verdict": text,
    }


def compare(
    trees: Dict[str, Path], workloads: List[str]
) -> Dict[str, Dict[str, List[Dict]]]:
    """:data:`PAIRS` alternating pairs per workload; results by workload, side."""
    sides = list(trees)
    results = {w: {side: [] for side in sides} for w in workloads}
    unavailable = set()
    for index in range(PAIRS):
        order = sides if index % 2 == 0 else sides[::-1]
        print(f"pair {index + 1}/{PAIRS}", file=sys.stderr)
        for workload in workloads:
            if workload in unavailable:
                continue
            for side in order:
                result = run_sample(workload, SEED, trees[side], smoke=False, trace=False)
                results[workload][side].append(result)
                if "unavailable" in result:
                    unavailable.add(workload)
    return results


def _quartiles(q: tuple) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def report(results: Dict[str, Dict[str, List[Dict]]], labels: Dict[str, str]) -> str:
    base, head = list(labels)
    lines = [
        f"BASE {labels[base]}  HEAD {labels[head]}",
        f"{'workload':<20} {'metric':<12} {'BASE median [q1, q3]':>32} "
        f"{'HEAD median [q1, q3]':>32} {'change':>8} {'HEAD wins':>9}  verdict",
    ]
    for workload, sides in results.items():
        missing = {
            labels[side]: r["unavailable"]
            for side, samples in sides.items()
            for r in samples
            if "unavailable" in r
        }
        if missing:
            for label, reason in missing.items():
                lines.append(f"{workload:<20} unavailable at {label}: {reason}")
            continue
        # Only pairs where both sides passed are compared.
        paired = [
            (b, h)
            for b, h in zip(sides[base], sides[head])
            if "error" not in b and "error" not in h
        ]
        for side in (base, head):
            errors = [r["error"] for r in sides[side] if "error" in r]
            if errors:
                lines.append(
                    f"{workload:<20} {labels[side]}: {len(errors)}/{len(sides[side])} "
                    f"samples failed, e.g. {errors[0].strip().splitlines()[-1]}"
                )
        if not paired:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            result = judge(
                [e2e_values(p[0])[name] for p in paired],
                [e2e_values(p[1])[name] for p in paired],
                metric,
            )
            lines.append(
                f"{workload:<20} {name:<12} {_quartiles(result['base']):>32} "
                f"{_quartiles(result['head']):>32} {result['change']:>+8.1%} "
                f"{result['wins']:>5}/{len(paired):<3}  {result['verdict']}"
            )
        same = {p[0]["digest"] == p[1]["digest"] for p in paired}
        lines.append(
            f"{workload:<20} simulated output identical: "
            f"{'yes' if same == {True} else 'no'}"
        )
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=list(WORKLOADS), default=list(WORKLOADS),
    )
    args = parser.parse_args(argv)
    (HERE / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=HERE / "out"))
    try:
        trees, labels = {}, {}
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side] = scratch / side
            labels[side] = f"{rev} ({export(rev, trees[side])})"
        results = compare(trees, args.workloads)
    finally:
        shutil.rmtree(scratch)
    print(report(results, labels))


if __name__ == "__main__":
    main()
