#!/usr/bin/env python3
"""Track the low eigenvalues of K + alpha S across a coupling grid.

Writes eigenvalue_flow.csv (columns alpha, lambda_1..lambda_m) and prints the
crossing estimate for the bottom eigenvalue.  The data file is ready for any
plotting tool; nothing interactive here.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from mixlap import build_mesh, build_system
from mixlap.analysis import embedding_constant
from mixlap.spectrum import alpha_threshold, solve_pencil


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-elem", type=int, default=128)
    ap.add_argument("--s", type=float, default=0.5)
    ap.add_argument("--alpha-min", type=float, default=-4.0)
    ap.add_argument("--alpha-max", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=41)
    ap.add_argument("--m", type=int, default=6)
    ap.add_argument("--out", type=Path, default=Path("eigenvalue_flow.csv"))
    args = ap.parse_args()

    mesh = build_mesh(0.0, 1.0, args.n_elem)
    base = build_system(mesh, args.s, 0.0)
    rows = []
    for alpha in np.linspace(args.alpha_min, args.alpha_max, args.points):
        spec = solve_pencil(base.with_alpha(float(alpha)), args.m)
        rows.append([float(alpha)] + [float(x) for x in spec.lambdas])

    header = ["alpha"] + [f"lambda_{k}" for k in range(1, args.m + 1)]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) for x in row))
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({args.points} grid points, m={args.m})")

    thr = alpha_threshold(base, (args.alpha_min, max(args.alpha_max, 0.0)), tol=1e-8)
    C = embedding_constant(base).value
    print(f"bottom eigenvalue crosses zero at alpha* = {thr.alpha_star:.8f}")
    print(f"discrete embedding constant gives   -1/C = {-1.0 / C:.8f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
