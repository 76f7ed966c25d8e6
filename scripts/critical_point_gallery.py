#!/usr/bin/env python3
"""Certified critical points of the superlinear model across coupling regimes.

For each alpha the slope of the nonlinearity is placed relative to the local
spectrum (below lambda_1 for the ground level, between lambda_1 and lambda_2
for the level-1 linking point) and the certified energy levels are tabulated.
Solution profiles land in gallery_<tag>.csv.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from mixlap import build_mesh, build_system
from mixlap.functional import PowerPerturbed
from mixlap.solvers import SolverConfig, linking_search
from mixlap.spectrum import alpha_threshold, solve_pencil


def dump_profile(path: Path, rep) -> None:
    mesh = rep.u.mesh
    xs = np.concatenate([[mesh.a], mesh.nodes, [mesh.b]])
    vals = rep.u.padded()
    lines = ["x,u"] + [f"{repr(float(x))},{repr(float(v))}" for x, v in zip(xs, vals)]
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-elem", type=int, default=128)
    ap.add_argument("--s", type=float, default=0.5)
    ap.add_argument("--p", type=float, default=4.0)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args()

    mesh = build_mesh(0.0, 1.0, args.n_elem)
    base = build_system(mesh, args.s, 0.0)
    thr = alpha_threshold(base, (-10.0, 0.0), tol=1e-8)
    print(f"alpha* = {thr.alpha_star:.6f}")
    print(f"{'alpha':>10s} {'regime':>12s} {'route':>14s} {'J':>12s} {'grad':>9s} {'ok':>3s}")

    for alpha in (0.0, thr.alpha_star + 0.25, thr.alpha_star - 0.5):
        sys = base.with_alpha(float(alpha))
        spec = solve_pencil(sys, 2)
        lam1, lam2 = float(spec.lambdas[0]), float(spec.lambdas[1])
        regime = "definite" if lam1 > 0 else "indefinite"

        ground_slope = lam1 / 2 if lam1 > 0 else 1.5 * lam1
        rep = linking_search(sys, PowerPerturbed(ground_slope, args.p), 0, SolverConfig(tol=1e-8))
        print(
            f"{alpha:10.4f} {regime:>12s} {'ground':>14s} "
            f"{rep.J_value:12.6f} {rep.grad_norm:9.1e} {str(rep.converged):>3s}"
        )
        if rep.converged:
            dump_profile(args.out_dir / f"gallery_ground_a{alpha:+.3f}.csv", rep)

        link_slope = 0.5 * (lam1 + lam2)
        rep = linking_search(sys, PowerPerturbed(link_slope, args.p), 1, SolverConfig(tol=1e-6))
        print(
            f"{alpha:10.4f} {regime:>12s} {'linking k=1':>14s} "
            f"{rep.J_value:12.6f} {rep.grad_norm:9.1e} {str(rep.converged):>3s}"
        )
        if rep.converged:
            dump_profile(args.out_dir / f"gallery_linking_a{alpha:+.3f}.csv", rep)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
