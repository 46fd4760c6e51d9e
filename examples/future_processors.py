#!/usr/bin/env python3
"""Why the interface moved on-chip: the latency scaling study.

Reproduces the paper's closing argument (Section 4.2.3): the off-chip
placement looks competitive at 1992's 2-cycle access latency, but as
processor clocks outpace off-chip access, its communication costs grow
until "relegating the network interface off-chip will not remain a viable
alternative".  This example sweeps the latency and finds the crossover
against the basic *on-chip* model.

Run:  python examples/future_processors.py
"""

from repro.eval import run_program
from repro.eval import latency_sweep as sweep, render_sweep
from repro.impls.base import BASIC_ON_CHIP, OPTIMIZED_OFF_CHIP, OPTIMIZED_ON_CHIP
from repro.tam.costmap import breakdown


def main() -> None:
    stats = run_program("matmul", size=16)
    latencies = [2, 4, 6, 8, 12, 16, 24, 32]
    print(render_sweep("matmul 16x16", sweep(stats, latencies)))

    # Crossover: at what latency does an OPTIMIZED off-chip interface lose
    # to a BASIC on-chip one?  (The paper's point, inverted: placement
    # eventually trumps even the best off-chip design.)
    basic_onchip = breakdown(stats, BASIC_ON_CHIP).overhead
    optimized_onchip = breakdown(stats, OPTIMIZED_ON_CHIP).overhead
    print(
        f"\nreference overheads: optimized on-chip {optimized_onchip:,}, "
        f"basic on-chip {basic_onchip:,}"
    )
    crossover = None
    for dead_cycles in range(2, 65):
        model = OPTIMIZED_OFF_CHIP.with_off_chip_latency(dead_cycles)
        if breakdown(stats, model).overhead > basic_onchip:
            crossover = dead_cycles
            break
    if crossover is None:
        print("no crossover up to 64 dead cycles")
    else:
        print(
            f"at {crossover} dead cycles per off-chip read, even the fully "
            "optimized off-chip interface falls behind a BASIC on-chip one -"
            " the paper's 'not ... a viable alternative for future "
            "generations of multiprocessors'."
        )


if __name__ == "__main__":
    main()
