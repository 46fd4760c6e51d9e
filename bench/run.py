"""The benchmark of record: host time of the simulator, end to end and per layer.

    python bench/run.py [--seed 42] [--rounds 10] [--workloads W ...]
                        [--src PATH] [--smoke] [--trace 0|1] [--seconds S]

Runs every (round, workload) sample in a fresh child process
(``sample.py``), one at a time: a closed loop with one client, whose
next sample starts only when the previous one has exited.  Rounds
interleave the workloads (ABC ABC ...) so drift on a shared host spreads
over all of them.  With ``--trace 1`` (the default) one traced round
follows, which wraps the simulator's layer boundaries and writes
``bench/out/layers.json``.  ``--seconds`` replaces the round count with
a time budget that the traced round counts against.

Every sample is checked: the workload's invariants, its simulated-output
digest against ``bench/golden.json`` (and against every other sample of
the run, traced or not), and, when traced, that no observer was called
by a workload that attaches none.  A sample failing any check counts in
``failed``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json,
and with ``--trace 1`` its per-layer metrics beside them.  With more
than one workload, metric names are prefixed with ``<workload>.``.
End-to-end times are in reference seconds: host seconds scaled by the
host's speed, which probes measure during the sample (``probe.py``).
Per-layer times are the traced sample's host seconds.
``--write-golden`` records the digests of the current tree instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Printed in the table beside the end-to-end metrics, not gated: the
#: entry point's host seconds (probes excluded) and the host's speed.
UNITS.update(host_run_s="s", host_speed="ratio")
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 42

#: Seconds one child may take before it is killed and counted failed
#: (default-size samples take 1-3 s).
CHILD_TIMEOUT = 60

#: A traced round takes at most this many times as long as an untraced
#: one (``bench.trace_overhead`` reads at most 0.65 on the reference
#: host); ``--seconds`` reserves that much for it.
TRACE_COST = 2.0


def run_sample(
    workload: str, seed: int, src: Path, smoke: bool, trace: bool
) -> Dict:
    """One sample in a fresh process; its JSON result, or ``error``."""
    command = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--src", str(src),
    ]
    command += ["--smoke"] * smoke + ["--trace"] * trace
    # A fixed hash seed keeps set/dict layouts, and so timings, the same
    # from one sample to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env
        )
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {CHILD_TIMEOUT} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def e2e_values(sample: Dict) -> Dict[str, float]:
    """The end-to-end metrics one untraced sample contributes: its times
    in reference seconds (``probe.py``), then the host's own readings."""
    run_s = sample["host_run_s"] * sample["run_speed"]
    return {
        "run_s": run_s,
        "msgs_per_s": sample["messages"] / run_s,
        "setup_s": sample["host_setup_s"] * sample["setup_speed"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "host_run_s": sample["host_run_s"],
        "host_speed": sample["run_speed"],
    }


def load_golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def golden_digest(golden: Dict, key: str, seed: int, smoke: bool) -> Optional[str]:
    """The recorded digest for workload ``key``, if it applies to ``seed``."""
    digest = golden.get("smoke" if smoke else "default", {}).get(key)
    if digest is None or (WORKLOADS[key].seeded and seed != golden.get("seed")):
        return None
    return digest


class Run:
    """Samples of one invocation, and the checks across them."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.requested: List[str] = args.workloads
        order = []
        for name in self.requested:
            plain = WORKLOADS[name].observes
            if args.trace and plain and plain not in order + self.requested:
                order.append(plain)  # the denominator of obs.overhead
            order.append(name)
        self.order = order
        self.samples: Dict[str, List[Dict]] = {name: [] for name in order}
        self.traced: Dict[str, List[Dict]] = {name: [] for name in order}
        self.golden = load_golden()

    def sample(self, name: str, trace: bool) -> None:
        args = self.args
        result = run_sample(name, args.seed, args.src, args.smoke, trace)
        (self.traced if trace else self.samples)[name].append(result)
        status = result.get("error") or result.get("unavailable")
        shown = f"{result['host_run_s']:.3f} s" if status is None else f"FAILED {status}"
        print(f"  {name}{' (traced)' * trace}: {shown}", file=sys.stderr)

    def execute(self) -> None:
        """Untraced rounds, then the traced round when asked for.

        With ``--seconds``, the first round always runs; another starts
        only while it and the traced round are expected, from the slowest
        round so far, to end within the budget.
        """
        args = self.args
        start = time.perf_counter()
        rounds, slowest = 0, 0.0
        while True:
            rounds += 1
            print(f"round {rounds}", file=sys.stderr)
            began = time.perf_counter()
            for name in self.order:
                self.sample(name, trace=False)
            slowest = max(slowest, time.perf_counter() - began)
            if args.seconds is None:
                if rounds >= args.rounds:
                    break
            else:
                traced = TRACE_COST * slowest if args.trace else 0.0
                if time.perf_counter() - start + slowest + traced > args.seconds:
                    break
        if args.trace:
            print("traced round", file=sys.stderr)
            for name in self.requested:
                self.sample(name, trace=True)

    # ------------------------------------------------------------------
    # Checks.
    # ------------------------------------------------------------------

    def expected_digest(self, key: str) -> Optional[str]:
        args = self.args
        digest = golden_digest(self.golden, key, args.seed, args.smoke)
        if digest is not None:
            return digest
        for name in self.order:
            if (WORKLOADS[name].observes or name) == key:
                for result in self.samples[name]:
                    if "digest" in result:
                        return result["digest"]
        return None

    def failure(self, name: str, result: Dict, traced: bool) -> Optional[str]:
        """Why ``result`` fails its checks, or ``None`` when it passes."""
        if "error" in result or "unavailable" in result:
            return result.get("error") or result["unavailable"]
        spec = WORKLOADS[name]
        expected = self.expected_digest(spec.observes or name)
        if expected is not None and result["digest"] != expected:
            return f"digest {result['digest'][:12]} != expected {expected[:12]}"
        if traced and not spec.observes:
            called = {
                k: v
                for k, v in result["layers"].items()
                if k.startswith("obs.") and k.endswith(".calls") and v
            }
            if called:
                return f"observers called with none attached: {called}"
        return None

    def failures(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for name in self.order:
            reasons = []
            for traced, results in ((False, self.samples[name]), (True, self.traced[name])):
                for result in results:
                    reason = self.failure(name, result, traced)
                    if reason is not None:
                        reasons.append(reason)
            out[name] = reasons
        return out

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------

    def e2e(self, name: str) -> Dict[str, tuple]:
        """metric -> (q1, median, q3, n) over the passing untraced samples."""
        good = [r for r in self.samples[name] if self.failure(name, r, False) is None]
        if not good:
            return {}
        values = [e2e_values(r) for r in good]
        return {
            metric: quartiles([v[metric] for v in values]) + (len(values),)
            for metric in values[0]
        }

    def medians(self, name: str) -> Dict[str, float]:
        """The end-to-end values the run reports: medians over samples."""
        return {k: v[1] for k, v in self.e2e(name).items()}

    def per_layer(self, name: str) -> Dict[str, float]:
        """The traced sample's per-layer metrics plus the overhead ratios,
        both taken against medians of untraced samples; every per-layer
        name of BENCHMARK.json, 0 when not measured."""
        good = [r for r in self.traced[name] if self.failure(name, r, True) is None]
        out = {m["name"]: 0.0 for m in SPEC["per_layer"]}
        if not good:
            return out
        traced = good[-1]
        out.update(traced["layers"])
        untraced = self.medians(name)
        if untraced:
            # Host seconds on both sides: a traced sample runs no probes.
            out["bench.trace_overhead"] = (
                traced["host_run_s"] / untraced["host_run_s"] - 1
            )
        plain = WORKLOADS[name].observes
        if plain and untraced and self.e2e(plain):
            out["obs.overhead"] = untraced["run_s"] / self.medians(plain)["run_s"] - 1
        return out


def render(run: Run, failures: Dict[str, List[str]]) -> str:
    lines = [
        f"seed {run.args.seed}, {'smoke' if run.args.smoke else 'default'} sizes, "
        "host time unless named *_cycles; end-to-end times in reference seconds",
        "",
        f"{'workload':<20} {'metric':<12} {'median':>11} "
        f"{'q1':>11} {'q3':>11} {'n':>3}  unit",
    ]
    for name in run.requested:
        for metric, (q1, median, q3, n) in run.e2e(name).items():
            lines.append(
                f"{name:<20} {metric:<12} {median:>11.5g} "
                f"{q1:>11.5g} {q3:>11.5g} {n:>3}  {UNITS[metric]}"
            )
        attempted = len(run.samples[name]) + len(run.traced[name])
        failed = len(failures[name])
        lines.append(
            f"{name:<20} {'fail_frac':<12} {failed / attempted:>11.5g} "
            f"{'':>11} {'':>11} {attempted:>3}  ratio"
        )
    if run.args.trace:
        layers = {name: run.per_layer(name) for name in run.requested}
        lines += ["", f"{'per-layer metric (traced round)':<38} {'unit':<7}"
                  + "".join(f"{name[:14]:>15}" for name in run.requested)]
        for metric in layers[run.requested[0]]:
            lines.append(
                f"{metric:<38} {UNITS.get(metric, ''):<7}"
                + "".join(f"{layers[name][metric]:>15.5g}" for name in run.requested)
            )
    for name, reasons in failures.items():
        for reason in reasons:
            lines.append(f"FAILED {name}: {reason}")
    return "\n".join(lines)


def write_layers(run: Run, path: Path) -> None:
    workloads = {}
    for name in run.requested:
        traced = [r for r in run.traced[name] if "spans" in r]
        workloads[name] = {
            "metrics": run.per_layer(name),
            "boundaries": traced[-1]["boundaries"] if traced else {},
            "spans": traced[-1]["spans"] if traced else [],
        }
    document = {
        "seed": run.args.seed,
        "smoke": run.args.smoke,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "workloads": workloads,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def result_line(run: Run, failures: Dict[str, List[str]]) -> Dict:
    names = [m["name"] for m in SPEC["end_to_end"]]
    if run.args.trace:
        names += [m["name"] for m in SPEC["per_layer"]]
    metrics = {}
    for workload in run.requested:
        prefix = "" if len(run.requested) == 1 else f"{workload}."
        values = run.medians(workload)
        if run.args.trace:
            values.update(run.per_layer(workload))
        for name in names:
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": UNITS[name]}
    attempted = sum(len(run.samples[n]) + len(run.traced[n]) for n in run.order)
    failed = sum(len(reasons) for reasons in failures.values())
    return {
        "correct": failed == 0 and len(metrics) == len(names) * len(run.requested),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_golden(args: argparse.Namespace) -> None:
    """Record the current tree's digests at the golden seed."""
    golden = load_golden()
    golden["seed"] = GOLDEN_SEED
    section = golden.setdefault("smoke" if args.smoke else "default", {})
    for name, spec in WORKLOADS.items():
        if spec.observes:
            continue  # checked against the workload it observes
        result = run_sample(name, GOLDEN_SEED, args.src, args.smoke, trace=False)
        if "digest" not in result:
            sys.exit(f"{name}: {result.get('error') or result.get('unavailable')}")
        section[name] = result["digest"]
        print(f"{name}: {result['digest']}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=list(WORKLOADS), default=list(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget, traced round included, instead of --rounds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--src", type=Path, default=ROOT,
        help="source tree to benchmark (holds src/repro); default: this checkout",
    )
    parser.add_argument("--smoke", action="store_true", help="small sizes")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    args.src = args.src.resolve()
    if not (args.src / "src" / "repro" / "__init__.py").is_file():
        parser.error(f"no simulator source under {args.src}/src/repro")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.write_golden:
        write_golden(args)
        return
    run = Run(args)
    run.execute()
    failures = run.failures()
    if args.trace:
        write_layers(run, HERE / "out" / "layers.json")
    print(render(run, failures))
    print(json.dumps(result_line(run, failures)))


if __name__ == "__main__":
    main()
