#!/usr/bin/env python3
"""Tabulate the worst time-domain concentration per (alpha, band).

For each band the minimum over all slot offsets tau is reported; the
accepted floor across the whole table is what the wideband criterion
checks.  CSV on stdout.
"""

import argparse
import sys
from fractions import Fraction

from stockframe.basis import BasisIndex, band_layout, concentration


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--pmax", type=int, default=8)
    ap.add_argument("--alphas", default="0.25,0.5,0.75,1")
    ap.add_argument("--cells", type=float, default=1.0)
    args = ap.parse_args()

    print("alpha,p,width,min_concentration,argmin_tau")
    overall = 1.0
    for tok in args.alphas.split(","):
        layout = band_layout(Fraction(tok), args.n)
        for p in layout.p_list:
            if abs(p) > args.pmax or p in layout.clipped:
                continue  # a clipped band is no ladder element
            worst, arg = 1.0, 0
            for tau in range(layout.width(p)):
                val = concentration(layout.alpha, BasisIndex(p, tau), args.n, args.cells)
                if val < worst:
                    worst, arg = val, tau
            overall = min(overall, worst)
            print(f"{tok},{p},{layout.width(p)},{worst!r},{arg}")
    print(f"# overall minimum: {overall!r}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
