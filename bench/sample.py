"""One benchmark sample: set up one workload, run it once, check it.

Run by ``run.py`` and ``ab.py`` in a fresh process per sample, never
directly by users.  Prints one JSON object as its last stdout line:

* ``host_setup_s`` / ``setup_speed`` -- the set-up region, from this
  process's first statement, before ``import repro``, until the entry
  point is called, as :class:`probe.Region` measures it;
* ``host_run_s`` / ``run_speed`` -- the same for the entry point call;
* ``messages``, ``peak_rss_mb``, and ``digest``: sha256 of the simulated
  payload as canonical sorted JSON;
* with ``--trace``, ``layers`` / ``boundaries`` / ``spans`` from
  :class:`layers.Instrument`; a traced sample runs no probes (they would
  land in the self time of whichever boundary they interrupt), so its
  times are wall times and its speeds ``null``;
* ``error`` when the run raised or an invariant failed, or
  ``unavailable`` when the source tree lacks the workload's entry point.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import Region  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sample(workload: str, seed: int, smoke: bool, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    setup_region = Region(START, probing=not trace)
    instrument = None
    setup = spec.setup
    if trace:
        from layers import Instrument

        instrument = Instrument()
        instrument.install()
        setup = instrument.wrap(setup, "bench.setup")
    try:
        run, finish = setup(seed, smoke)
    except (ImportError, AttributeError) as exc:
        return {"unavailable": f"{type(exc).__name__}: {exc}"}
    finally:
        host_setup_s, setup_speed = setup_region.stop()
    if instrument is not None:
        run = instrument.wrap(run, "bench.run")
        finish = instrument.wrap(finish, "bench.check")
    run_region = Region(probing=not trace)
    try:
        result = run()
    finally:
        host_run_s, run_speed = run_region.stop()
    messages, payload, extras = finish(result)
    out = {
        "host_setup_s": host_setup_s,
        "setup_speed": setup_speed,
        "host_run_s": host_run_s,
        "run_speed": run_speed,
        "messages": messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(payload),
    }
    if instrument is not None:
        out["layers"] = instrument.metrics(extras)
        out["boundaries"] = instrument.boundaries()
        out["spans"] = instrument.spans
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="source tree holding src/repro")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src, "src").resolve()))
    try:
        out = sample(args.workload, args.seed, args.smoke, args.trace)
    except Exception:  # one failed sample is a reported result, not a crash
        out = {"error": traceback.format_exc(limit=-3)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
