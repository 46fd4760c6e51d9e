"""Run the whole evaluation from one entry point.

``python -m repro`` regenerates every table and figure of the paper plus
the extension studies; individual harnesses remain available as
``python -m repro.eval.<name>``.  The driver is a thin loop over the
experiment registry (:mod:`repro.exp`): each section is an
:class:`~repro.exp.spec.ExperimentSpec`, shared TAM program runs are
served by the run cache, and every section writes a versioned JSON
artifact next to its text report.

Options::

    python -m repro                   # default scales (fast)
    python -m repro --paper-scale     # matmul 100x100, gamteb 16
    python -m repro --only figure12   # a subset of sections
    python -m repro --jobs 4          # fan sections out across processes
    python -m repro --json-dir out/   # artifact directory (default results/)
    python -m repro --profile         # host time per layer: where.json
    python -m repro --trace           # record message-path traces
    python -m repro --trace-dir t/    # trace artifact directory (implies --trace)
    python -m repro --lineage         # per-message spans + lineage.json breakdown
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exp import registry
from repro.exp.artifacts import write_artifact
from repro.exp.runner import iter_experiments
from repro.exp.spec import EvalOptions


def main(argv=None) -> int:
    registry.load_all()
    section_names = registry.names()

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce Henry & Joerg, 'A Tightly-Coupled Processor-Network "
            "Interface' (ASPLOS 1992)"
        ),
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's program sizes (slower)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "time every layer boundary and component tick per section; "
            "print the tables at the end and write <json-dir>/where.json"
        ),
    )
    parser.add_argument(
        "--skip",
        nargs="*",
        default=[],
        choices=section_names,
        help="sections to skip",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        choices=section_names,
        help="run just these sections (still in report order)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the section fan-out (default: 1, serial; "
            "capped at os.cpu_count())"
        ),
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=Path("results"),
        help="directory for the JSON artifacts (default: results/)",
    )
    parser.add_argument(
        "--no-json",
        action="store_true",
        help="skip writing JSON artifacts",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record message-path traces in sections that support them and "
            "write Chrome trace_event JSON plus metrics time-series"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help=(
            "directory for trace artifacts (default: <json-dir>/traces; "
            "implies --trace)"
        ),
    )
    parser.add_argument(
        "--lineage",
        action="store_true",
        help=(
            "record per-message lineage spans in sections that support "
            "them: exact latency breakdown, causal critical path, and a "
            "versioned lineage.json under the trace directory"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "persistent on-disk run cache for TAM executions "
            "(default: in-process only; --jobs uses a scratch directory)"
        ),
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.profile and args.jobs > 1:
        parser.error("--profile times this process only; drop --jobs")

    selected = [
        name
        for name in section_names
        if (args.only is None or name in args.only) and name not in args.skip
    ]
    specs = [registry.get(name) for name in selected]
    trace = args.trace or args.trace_dir is not None
    trace_dir = args.trace_dir if args.trace_dir is not None else args.json_dir / "traces"
    options = EvalOptions(
        paper_scale=args.paper_scale,
        trace=trace,
        trace_dir=str(trace_dir) if trace or args.lineage else None,
        lineage=args.lineage,
    )

    def banner(title: str) -> None:
        print()
        print("#" * 72)
        print(f"# {title}")
        print("#" * 72)

    if args.profile:
        from repro.obs.where import Instrument, render_where, write_where

        instrument = Instrument()
        instrument.install()
    where = {}
    try:
        outcomes = iter_experiments(
            specs, options, jobs=args.jobs, cache_dir=args.cache_dir
        )
        for outcome in outcomes:
            if args.profile:
                where[outcome.name] = instrument.take()
            banner(outcome.title)
            print(outcome.text)
            if not args.no_json:
                path = write_artifact(args.json_dir, outcome.artifact)
                print(f"[artifact] {path}")
    finally:
        if args.profile:
            instrument.uninstall()

    if args.profile:
        print()
        print(render_where(where))
        if not args.no_json:
            print(f"[profile] {write_where(args.json_dir, where)}")

    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
