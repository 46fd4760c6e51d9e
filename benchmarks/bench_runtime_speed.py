"""Interpreter throughput: the two TAM backends against each other.

The other benchmarks time what the paper measures (pricing, figures);
this one times the measurement *instrument* itself — the TAM interpreter
that executes every evaluation program.  It runs the three programs on
the reference and codegen backends, reports wall-clock and turns/sec
(a turn is one thread run or one message processed), and writes
``BENCH_runtime.json`` at the repository root so regressions are
visible in review diffs.

Every run appends one record to the perf database
(``results/perfdb/``, :mod:`repro.obs.perfdb`) so
``python -m repro.obs.report`` can trend interpreter throughput across
commits and gate regressions; ``BENCH_runtime.json`` remains as the
latest-run-only legacy view (overwritten by design — history lives in
the perfdb now).

Run standalone::

    python benchmarks/bench_runtime_speed.py [--smoke | --paper] [--perfdb DIR]

``--smoke`` is the CI pass (reduced sizes, one repeat); ``--paper``
times the paper's program scales (matmul 100x100, Gamteb 16 photons)
under a separate bench name so neither pollutes the default trend.

or through pytest-benchmark (statistical timing)::

    pytest benchmarks/bench_runtime_speed.py --benchmark-only
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.exp.runner import effective_jobs
from repro.obs import perfdb
from repro.obs.profiler import SimProfiler, render_profile
from repro.programs.gamteb import run_gamteb
from repro.programs.matmul import run_matmul
from repro.programs.queens import run_queens

from conftest import GAMTEB_PHOTONS, MATMUL_N, NODES

QUEENS_N = 6

#: Reduced sizes for the CI smoke pass (seconds, not minutes).
SMOKE_MATMUL_N = 16
SMOKE_GAMTEB_PHOTONS = 16
SMOKE_QUEENS_N = 5

#: The paper's program scales (Section 4.2): 100x100 matmul, 16-photon
#: Gamteb.  Queens is the repo's contrast workload and keeps its size.
PAPER_MATMUL_N = 100
PAPER_GAMTEB_PHOTONS = 16
PAPER_QUEENS_N = 6

def workloads(smoke: bool = False, paper: bool = False) -> dict:
    if paper:
        matmul_n, photons, queens_n = (
            PAPER_MATMUL_N,
            PAPER_GAMTEB_PHOTONS,
            PAPER_QUEENS_N,
        )
    elif smoke:
        matmul_n, photons, queens_n = (
            SMOKE_MATMUL_N,
            SMOKE_GAMTEB_PHOTONS,
            SMOKE_QUEENS_N,
        )
    else:
        matmul_n, photons, queens_n = MATMUL_N, GAMTEB_PHOTONS, QUEENS_N
    return {
        "matmul": lambda backend: run_matmul(
            n=matmul_n, nodes=NODES, backend=backend
        ),
        "gamteb": lambda backend: run_gamteb(
            n_photons=photons, nodes=NODES, backend=backend
        ),
        "queens": lambda backend: run_queens(
            n=queens_n, nodes=NODES, backend=backend
        ),
    }


WORKLOADS = workloads()

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_runtime.json"
BENCH_NAME = "runtime"


def _time_run(runner, backend: str, repeats: int):
    """Best-of-``repeats`` wall clock plus the turn count of one run."""
    best = float("inf")
    turns = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner(backend)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        turns = result.machine.turns_executed
    return best, turns


def measure(repeats: int = 3, smoke: bool = False, paper: bool = False) -> dict:
    """Measure every workload on both backends; returns the report."""
    report = {
        "schema_version": perfdb.SCHEMA_VERSION,
        "nodes": NODES,
        "repeats": repeats,
        "smoke": smoke,
        "paper": paper,
        "workloads": {},
    }
    for name, runner in workloads(smoke=smoke, paper=paper).items():
        codegen_s, codegen_turns = _time_run(runner, "codegen", repeats)
        # The reference path dominates wall clock; one repeat suffices
        # for the denominator once the numerator is best-of.
        ref_s, ref_turns = _time_run(runner, "reference", max(1, repeats - 2))
        assert ref_turns == codegen_turns, (
            f"{name}: backends diverged — reference {ref_turns} turns, "
            f"codegen {codegen_turns}"
        )
        report["workloads"][name] = {
            "turns": codegen_turns,
            "codegen_seconds": round(codegen_s, 4),
            "reference_seconds": round(ref_s, 4),
            "codegen_turns_per_sec": round(codegen_turns / codegen_s),
            "reference_turns_per_sec": round(ref_turns / ref_s),
            "codegen_speedup": round(ref_s / codegen_s, 2),
        }
    # One profiled matmul run on the codegen backend: per-node turn
    # attribution plus the instruction/message mix, carried into the
    # perfdb record's meta so the report prints where the interpreter's
    # cycles went.  Profiling the default backend doubles as the check
    # that observation still attributes on the generated path.
    profiler = SimProfiler()
    sizes = {"paper": PAPER_MATMUL_N, "smoke": SMOKE_MATMUL_N}
    run_matmul(
        n=sizes["paper"] if paper else (sizes["smoke"] if smoke else MATMUL_N),
        nodes=NODES,
        verify=False,
        profiler=profiler,
        backend="codegen",
    )
    report["profile"] = profiler.to_dict()
    return report


def perf_record(report: dict, bench: str) -> dict:
    """Flatten one ``measure()`` report into a perfdb record.

    Smoke and paper runs get separate bench names so reduced-size or
    paper-scale timings never pollute the default trend history.  The
    ``*_codegen_seconds`` metrics arm the CI regression gate on the
    generated-code backend the moment the first record lands.
    """
    metrics = {}
    for name, row in report["workloads"].items():
        metrics[f"{name}_codegen_seconds"] = row["codegen_seconds"]
        metrics[f"{name}_reference_seconds"] = row["reference_seconds"]
        metrics[f"{name}_turns"] = row["turns"]
    sections = report.get("sections_wall_clock")
    if sections:
        metrics["sections_serial_seconds"] = sections["serial_seconds"]
        metrics["sections_jobs_seconds"] = sections["jobs_seconds"]
    return perfdb.make_record(
        bench=bench,
        metrics=metrics,
        meta={
            "nodes": report["nodes"],
            "repeats": report["repeats"],
            "smoke": report["smoke"],
            "paper": report["paper"],
            "profile": report["profile"],
        },
    )


SECTIONS_JOBS = 4


def _time_sections(*extra_args: str) -> float:
    """One cold ``python -m repro`` run; returns wall-clock seconds.

    Each run gets its own scratch artifact directory so the serial and
    parallel runs are comparable (both start with an empty run cache).
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_RUNCACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="bench-sections-") as scratch:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--json-dir", scratch, *extra_args],
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=root,
        )
        return time.perf_counter() - start


def measure_sections() -> dict:
    """Serial versus ``--jobs`` wall clock for the full section grid.

    The runner caps workers at ``os.cpu_count()``, so the comparison
    times the fan-out actually run, not the one requested — on a
    single-core box (CI containers included) both columns are serial
    and the ratio reads 1.0 instead of reporting pool overhead as a
    parallel "result".
    """
    jobs = effective_jobs(SECTIONS_JOBS)
    serial = _time_sections()
    parallel = _time_sections("--jobs", str(jobs))
    return {
        "jobs_requested": SECTIONS_JOBS,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial, 4),
        "jobs_seconds": round(parallel, 4),
        "speedup": round(serial / parallel, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "single repeat at reduced sizes, skip the sections wall-clock "
            "comparison, record under a separate '-smoke' bench name"
        ),
    )
    scale.add_argument(
        "--paper",
        action="store_true",
        help=(
            "the paper's program scales (matmul 100x100, Gamteb 16 "
            "photons), skip the sections wall-clock comparison, record "
            "under a separate '-paper' bench name"
        ),
    )
    parser.add_argument(
        "--perfdb",
        type=Path,
        default=REPO_ROOT / perfdb.DEFAULT_DB_DIR,
        help="perf database directory (default: results/perfdb)",
    )
    args = parser.parse_args(argv)

    report = measure(
        repeats=1 if args.smoke else 3, smoke=args.smoke, paper=args.paper
    )
    if not (args.smoke or args.paper):
        report["sections_wall_clock"] = measure_sections()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {RESULT_PATH} (latest run only)")
    if args.smoke:
        bench = f"{BENCH_NAME}-smoke"
    elif args.paper:
        bench = f"{BENCH_NAME}-paper"
    else:
        bench = BENCH_NAME
    db_path = perfdb.append_record(args.perfdb, perf_record(report, bench))
    print(f"appended perfdb record to {db_path}")
    header = (
        f"{'program':<10} {'turns':>8} {'codegen':>9} "
        f"{'reference':>10} {'cg-speedup':>10} {'cg turns/s':>11}"
    )
    print(header)
    for name, row in report["workloads"].items():
        print(
            f"{name:<10} {row['turns']:>8,} {row['codegen_seconds']:>8.3f}s "
            f"{row['reference_seconds']:>9.3f}s "
            f"{row['codegen_speedup']:>9.2f}x "
            f"{row['codegen_turns_per_sec']:>11,}"
        )
    sections = report.get("sections_wall_clock")
    if sections:
        print(
            f"sections   serial {sections['serial_seconds']:.3f}s  "
            f"--jobs {sections['jobs']} (of {sections['jobs_requested']} "
            f"requested) {sections['jobs_seconds']:.3f}s  "
            f"{sections['speedup']:.2f}x  ({sections['cpu_count']} cpus)"
        )
    print()
    print(render_profile(report["profile"]))
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (codegen; the reference path is covered
# by the standalone runner above).
# ---------------------------------------------------------------------------


def test_matmul_codegen(benchmark):
    result = benchmark(lambda: run_matmul(MATMUL_N, NODES, backend="codegen"))
    assert result.machine.turns_executed > 0


def test_queens_codegen(benchmark):
    result = benchmark(lambda: run_queens(QUEENS_N, NODES, backend="codegen"))
    assert result.machine.turns_executed > 0


if __name__ == "__main__":
    sys.exit(main())
