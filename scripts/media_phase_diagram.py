#!/usr/bin/env python3
"""Phase diagram of the reduced-menu media choice.

Sweeps the (prior, precision) rectangle and records which source wins the
reduced menu, the two expected values, and the analytic crossing prior.
The flip line in the output matches (1/2) / (5/2 - 2*lambda) up to grid
resolution; plot the CSV with your tool of choice.

Usage: python scripts/media_phase_diagram.py --grid 80 > media_phase.csv
"""

from __future__ import annotations

import argparse
import sys

from rschoice.media import SOURCES, media_pstar, media_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=50, help="points per axis")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    p_axis = [0.5 * (i + 0.5) / args.grid for i in range(args.grid)]
    lam_axis = [0.5 + 0.25 * (j + 0.5) / args.grid for j in range(args.grid)]
    ps = p_axis * args.grid
    lams = [lam for lam in lam_axis for _ in p_axis]
    chosen, u_own, v_extreme = media_sweep(ps, lams, "N")
    lines = ["p,lambda,chosen,u_own_moderate,v_opposite_extreme,pstar"]
    for p, lam, c, u, v in zip(ps, lams, chosen.tolist(), u_own.tolist(), v_extreme.tolist()):
        lines.append(
            f"{p:.8f},{lam:.8f},{SOURCES[c]},{u:.10f},{v:.10f},{media_pstar(lam):.10f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
