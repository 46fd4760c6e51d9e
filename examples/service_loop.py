#!/usr/bin/env python3
"""The message service loop, composed and measured.

Table 1 prices dispatch and processing separately; a running node
executes them fused — each handler's tail inlines the dispatch stub, the
Section 2.2.3 overlap.  This example prints the composed loop for the
optimized register model (the whole message engine is a handful of
instructions), streams messages through it, and shows that the measured
cycles equal the Table 1 phases summed — then compares the steady-state
rates of all six models.

Run:  python examples/service_loop.py
"""

from repro.eval.throughput import render_throughput
from repro.impls.base import OPTIMIZED_REGISTER
from repro.kernels.harness import measure_dispatch, measure_processing
from repro.kernels.loop import build_service_loop, measure_stream


def main() -> None:
    loop = build_service_loop(OPTIMIZED_REGISTER)
    print("The complete message engine, optimized register model:\n")
    print(loop.sequence.listing())

    stream = ["read", "write", "send1", "read", "read", "write"]
    measurement = measure_stream(OPTIMIZED_REGISTER, stream)
    idle = measure_stream(OPTIMIZED_REGISTER, []).cycles
    expected = (
        sum(
            measure_dispatch(OPTIMIZED_REGISTER).cycles
            + measure_processing(name, OPTIMIZED_REGISTER).cycles
            for name in stream
        )
        + idle
    )
    print(
        f"\nstream of {len(stream)} messages: {measurement.cycles} cycles "
        f"measured, {expected} predicted from Table 1 "
        f"({'exact match' if measurement.cycles == expected else 'MISMATCH'})"
    )
    assert measurement.cycles == expected

    reads = ["read"] * 10
    read_run = measure_stream(OPTIMIZED_REGISTER, reads)
    print(
        f"homogeneous remote reads: "
        f"{(read_run.cycles - idle) / len(reads):.1f} cycles each "
        "(the paper's two-instruction remote read, at steady state)"
    )

    print()
    print(render_throughput())


if __name__ == "__main__":
    main()
