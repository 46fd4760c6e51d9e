#!/usr/bin/env python3
"""The paper's Section 4.2 study, end to end, at example scale.

Runs both evaluation programs (blocked matrix multiply and the Gamteb
photon transport) on the TAM substrate, verifies their results, and prints
the Figure 12 breakdown for the six interface models plus the headline
metrics.

Run:  python examples/fine_grain_programs.py
"""

from repro.eval.figure12 import render_figure
from repro.programs.gamteb import run_gamteb
from repro.programs.matmul import run_matmul


def main() -> None:
    # --- matrix multiply ------------------------------------------------
    mm = run_matmul(n=24, nodes=16)  # verified against A·B internally
    print(
        f"matmul 24x24 on 16 nodes: checksum {mm.total:,.1f} (verified), "
        f"{mm.stats.messages.total_messages:,} messages, "
        f"{mm.stats.flops_per_message():.1f} flops/message "
        "(paper: ~3)"
    )
    print(f"message mix: {mm.stats.messages.as_dict()}\n")
    print(render_figure("matmul 24x24", mm.stats))

    # --- Gamteb ----------------------------------------------------------
    gt = run_gamteb(n_photons=16, nodes=16)  # the paper's 16 particles
    print(
        f"\n\ngamteb 16 photons on 16 nodes: {gt.photons_traced} photons "
        f"traced ({gt.photons_traced - 16} from pair production), "
        f"{gt.absorbed} absorbed, {gt.escaped} escaped (conserved)"
    )
    print(f"message mix: {gt.stats.messages.as_dict()}\n")
    print(render_figure("gamteb 16", gt.stats))


if __name__ == "__main__":
    main()
