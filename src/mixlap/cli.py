"""Batch front door: parse a config, dispatch a pipeline, emit reports.

Pipelines write machine-readable artifacts (JSON reports with the
effective config, less the output path, and the package version embedded,
CSV data files with header rows) into a staging directory that is renamed
into place only on success, so interrupted runs never leave partial
fixtures.  Identical (config, seed)
pairs produce byte-identical outputs: nothing time- or path-dependent goes
into the files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import sys as _sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import OperatorSystem, assemble_gagliardo, build_system, dump_matrix, load_matrix
from .analysis import _interp_ratio, embedding_constant, interpolation_constant, young_split_audit
from .config import ConfigError, RunConfig, parse_config
from .functional import AffineLinear, J_eval, J_gradient, J_hessian_operator, PowerPerturbed
from .mesh import FeField, build_mesh, interpolate
from .solvers import (
    CriticalPointReport,
    ResonanceError,
    SolverConfig,
    _probe,
    _slope_at_zero,
    _splitting,
    linking_search,
    solve_resolvent,
)
from .spectrum import (
    _lambda1,
    _violation,
    alpha_threshold,
    bound_checks,
    garding_constant,
    solve_pencil,
    verify_characterization,
)

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_report(path: Path, cfg: RunConfig, pipeline: str, **fields) -> None:
    """A JSON report: the pipeline, the package version and the effective config, then ``fields``."""
    payload = {"pipeline": pipeline, "version": __version__, "config": cfg.to_dict(), **fields}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _nonlinearity(cfg: RunConfig):
    if cfg.kind == "affine_linear":
        a_const = cfg.a_const
        return AffineLinear(cfg.lam, lambda x: np.full_like(np.asarray(x, dtype=float), a_const))
    return PowerPerturbed(cfg.lam, cfg.p)


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(tol=cfg.tol, max_iter=cfg.max_iter)


def _scalar_system(cfg: RunConfig, pipeline: str) -> OperatorSystem:
    """The system at the config's one alpha; a pipeline that needs this
    rejects an alpha grid."""
    if len(cfg.alpha) != 1:
        raise ConfigError(f"pipeline {pipeline!r} needs a scalar alpha, got a grid of {len(cfg.alpha)}")
    return build_system(build_mesh(cfg.a, cfg.b, cfg.n_elem), cfg.s, cfg.alpha[0])


def _write_critical_point(
    cfg: RunConfig, pipeline: str, report: CriticalPointReport, out_dir: Path, **extra
) -> bool:
    """report.json and solution.csv of a critical-point pipeline."""
    _write_report(out_dir / "report.json", cfg, pipeline, alpha=cfg.alpha[0], report=report.to_dict(), **extra)
    mesh = report.u.mesh
    xs = np.concatenate([[mesh.a], mesh.nodes, [mesh.b]])
    rows = [[float(x), float(v)] for x, v in zip(xs, report.u.padded())]
    _write_csv(out_dir / "solution.csv", ["x", "u"], rows)
    return report.converged


# ---------------------------------------------------------------------------
# pipelines (each returns certified: bool and writes into out_dir)
# ---------------------------------------------------------------------------


def _spectrum_single(cfg: RunConfig, sys: OperatorSystem, out_dir: Path) -> bool:
    gamma = garding_constant(sys)
    spec = solve_pencil(sys, cfg.m)
    V = spec.vectors
    gram_m = V.T @ sys.apply_M(V)
    gram_b = V.T @ sys.apply_A(V)
    rayleigh = np.abs(np.diag(gram_b) - spec.lambdas)
    m_orth = np.abs(gram_m - np.eye(spec.count)).max(axis=1)
    b_orth = np.abs(gram_b - np.diag(np.diag(gram_b))).max(axis=1)
    scale = max(1.0, float(np.max(np.abs(spec.lambdas))))
    certified = bool(
        rayleigh.max() <= 1e-8 * scale
        and m_orth.max() <= 1e-8
        and b_orth.max() <= 1e-8 * scale
    )
    rows = [
        [k + 1, float(spec.lambdas[k]), float(rayleigh[k]), float(m_orth[k])]
        for k in range(spec.count)
    ]
    _write_csv(out_dir / "spectrum.csv", ["k", "lambda", "rayleigh_residual", "m_orth_residual"], rows)
    _write_report(
        out_dir / "report.json", cfg, "spectrum",
        alpha=sys.alpha,
        s=cfg.s,
        mesh={"a": cfg.a, "b": cfg.b, "n_elem": cfg.n_elem, "h": sys.mesh.h},
        n0=spec.n0,
        gamma=gamma,
        certified=certified,
        max_rayleigh_residual=float(rayleigh.max()),
        max_m_orth_residual=float(m_orth.max()),
        max_b_orth_residual=float(b_orth.max()),
        solves=sys.solves,
    )
    return certified


def _pipeline_spectrum(cfg: RunConfig, out_dir: Path) -> bool:
    base = build_system(build_mesh(cfg.a, cfg.b, cfg.n_elem), cfg.s, cfg.alpha[0])
    if len(cfg.alpha) == 1:
        return _spectrum_single(cfg, base, out_dir)
    all_ok = True
    summary = []
    for i, alpha in enumerate(cfg.alpha):
        sub = out_dir / f"alpha_{i:03d}"
        sub.mkdir()
        ok = _spectrum_single(cfg, base.with_alpha(alpha), sub)
        summary.append({"alpha": alpha, "directory": sub.name, "certified": ok})
        all_ok = all_ok and ok
    _write_report(out_dir / "report.json", cfg, "spectrum", sub_runs=summary, certified=all_ok)
    return all_ok


def _pipeline_constants(cfg: RunConfig, out_dir: Path) -> bool:
    sys = _scalar_system(cfg, "constants")
    emb = embedding_constant(sys)
    interp = interpolation_constant(sys)
    young = young_split_audit(sys)
    _write_report(
        out_dir / "constants.json", cfg, "constants",
        C_embed=emb.value,
        C_interp=interp.value,
        gamma_exact=young.gamma_exact,
        gamma_split=young.gamma_split,
        alpha_star_bound=-1.0 / emb.value,
        young=young.to_dict(),
    )
    return sys.alpha >= 0 or young.certified


def _pipeline_threshold(cfg: RunConfig, out_dir: Path) -> bool:
    # alpha* does not depend on the coupling the system is built with
    sys = build_system(build_mesh(cfg.a, cfg.b, cfg.n_elem), cfg.s, 0.0)
    result = alpha_threshold(sys, (cfg.bracket_lo, cfg.bracket_hi), tol=cfg.threshold_tol)
    grid = np.linspace(cfg.bracket_lo, cfg.bracket_hi, 9)
    rows = [[float(a), _lambda1(sys, a)] for a in grid]
    _write_csv(out_dir / "lambda1_vs_alpha.csv", ["alpha", "lambda1"], rows)
    certified = abs(result.lambda1_at_star) <= cfg.threshold_tol
    _write_report(
        out_dir / "threshold.json", cfg, "threshold",
        alpha_star=result.alpha_star, lambda1_at_star=result.lambda1_at_star, certified=certified,
    )
    return certified


def _pipeline_solve_linear(cfg: RunConfig, out_dir: Path) -> bool:
    if cfg.kind != "affine_linear":
        raise ConfigError("pipeline 'solve-linear' needs nonlinearity kind affine_linear")
    sys = _scalar_system(cfg, "solve-linear")
    a_const = cfg.a_const
    a_field = interpolate(lambda x: np.full_like(x, a_const), sys.mesh)
    report = solve_resolvent(sys, cfg.lam, a_field, _solver_config(cfg))
    return _write_critical_point(cfg, "solve-linear", report, out_dir)


def _linking(cfg: RunConfig, out_dir: Path, pipeline: str, k: int) -> bool:
    """The linking search at level k; ``mountain-pass`` is its k = 0 case."""
    sys = _scalar_system(cfg, pipeline)
    report = linking_search(sys, _nonlinearity(cfg), k, _solver_config(cfg))
    return _write_critical_point(
        cfg, pipeline, report, out_dir, k=k, geometry=report.geometry.to_dict()
    )


def _pipeline_dump_matrices(cfg: RunConfig, out_dir: Path) -> bool:
    sys = _scalar_system(cfg, "dump-matrices")
    dump_matrix(out_dir / "K.txt", sys.K, "banded")
    dump_matrix(out_dir / "M.txt", sys.M, "banded")
    dump_matrix(out_dir / "S.txt", sys.S, "dense")
    _write_report(
        out_dir / "manifest.json", cfg, "dump-matrices", alpha=cfg.alpha[0], files=["K.txt", "M.txt", "S.txt"]
    )
    return True


def _audit_checks(cfg: RunConfig, sys: OperatorSystem) -> list[dict]:
    """Every oracle cross-check at desk scale; deterministic given the seed."""
    from .oracles import (
        RHO_GRID,
        _delta_boundary_max,
        _sphere_min,
        gagliardo_matrix_oracle,
        hessian_oracle,
        pencil_eigenvalues_oracle,
        quotient_max_oracle,
        threshold_oracle,
    )

    checks: list[dict] = []

    def add(name: str, metric: float, tolerance: float, note: str = ""):
        checks.append(
            {
                "name": name,
                "metric": float(metric),
                "tolerance": float(tolerance),
                "passed": bool(metric <= tolerance),
                "note": note,
            }
        )

    mesh = sys.mesh
    rng = np.random.default_rng(cfg.seed)

    # symmetry and positivity of the assembled forms
    for name, mat in (("K", sys.K), ("S", sys.S), ("M", sys.M)):
        add(
            f"symmetry_{name}",
            float(np.max(np.abs(mat - mat.T))) / max(1e-300, float(np.max(np.abs(mat)))),
            1e-12,
        )
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(sys.ndof)
        worst = min(
            float(u @ sys.K @ u), float(u @ sys.S @ u), float(u @ sys.M @ u), worst
        )
    add("positivity_random_fields", -worst, 0.0, "min quadratic form over 100 random fields")

    # nonlocal assembly vs adaptive quadrature (module contract is n_elem <= 4)
    mesh_o = build_mesh(cfg.a, cfg.b, min(cfg.n_elem, 4))
    S_prod = assemble_gagliardo(mesh_o, cfg.s)
    S_orc = gagliardo_matrix_oracle(mesh_o, cfg.s, eps=1e-10)
    add("gagliardo_oracle", float(np.max(np.abs(S_prod - S_orc))), 1e-6)

    # pencil eigenvalues vs inertia bisection
    worst = 0.0
    for a in (-10.0, -1.0, 0.0, 1.0):
        sa = sys.with_alpha(a)
        spec = solve_pencil(sa, m=sa.ndof)
        orc = pencil_eigenvalues_oracle(sa.A, sa.M, sa.ndof)
        worst = max(worst, float(np.max(np.abs(spec.lambdas - orc))))
    add("pencil_oracle", worst, 1e-8)

    # recursive characterization
    spec = solve_pencil(sys, m=cfg.m)
    worst = 0.0
    for k in range(1, min(4, spec.count) + 1):
        worst = max(worst, verify_characterization(spec, sys, k, seed=cfg.seed))
    add("characterization", worst, 1e-8)

    # two-sided Rayleigh bounds; one computed eigenpair has only the lower side
    k = min(3, spec.count - 1)
    if k >= 1:
        add("two_sided_bounds", bound_checks(spec, sys, k=k, seed=cfg.seed).max_violation, 1e-9)
    else:
        worst = _violation(sys, spec.vectors, spec.lambdas[0], np.random.default_rng(cfg.seed), -1.0)
        add("two_sided_bounds", worst, 1e-9, "lower side only: lambda_1 on span(u_1)")

    # coercivity shift on random fields
    interp = interpolation_constant(sys)
    young = young_split_audit(sys)
    worst = 0.0
    for _ in range(1000):
        u = rng.standard_normal(sys.ndof)
        qk = float(u @ sys.K @ u)
        lhs = float(u @ sys.A @ u) + young.gamma_exact * float(u @ sys.M @ u)
        worst = max(worst, (0.5 * qk - lhs) / max(1.0, qk))
    add("garding_certificate", worst, 1e-10)
    add("young_split_violations", float(young.violations), 0.0)
    if sys.alpha < 0:
        add(
            "young_split_dominates",
            (young.gamma_exact - young.gamma_split) / max(1.0, young.gamma_exact),
            1e-10,
        )
        # the split's top eigenvalue at each epsilon vs inertia bisection
        worst = 0.0
        for p, q, top in young.pencils:
            orc = -pencil_eigenvalues_oracle(-sys.S, p * sys.K + q * sys.M, 1)[0]
            worst = max(worst, abs(top - orc) / max(1.0, top))
        add("young_split_oracle", worst, 1e-8)
    else:
        add("young_split_oracle", 0.0, 1e-8, "skipped: alpha >= 0 needs no split")

    # gradient vs central differences
    worst = 0.0
    nls = [PowerPerturbed(1.0, 4.0), AffineLinear(1.0, lambda x: np.sin(np.pi * x))]
    for nl in nls:
        for _ in range(20):
            u = FeField(rng.standard_normal(sys.ndof), mesh)
            g = J_gradient(sys, nl, u).coeffs
            fd = np.zeros_like(g)
            eps = 1e-6
            for i in range(sys.ndof):
                up = u.coeffs.copy()
                dn = u.coeffs.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (
                    J_eval(sys, nl, FeField(up, mesh)) - J_eval(sys, nl, FeField(dn, mesh))
                ) / (2 * eps)
            worst = max(worst, float(np.linalg.norm(g - fd) / max(1e-300, np.linalg.norm(g))))
    add("gradient_fd", worst, 1e-6)

    # the Hessian operator's product with the identity vs the dense Hessian
    u = FeField(np.random.default_rng(cfg.seed).standard_normal(sys.ndof), mesh)
    worst = 0.0
    for nl in nls:
        H = hessian_oracle(sys, nl, u)
        worst = max(worst, float(np.max(np.abs(J_hessian_operator(sys, nl, u) @ np.eye(sys.ndof) - H))
                                 / max(1e-300, float(np.max(np.abs(H))))))
    add("hessian_operator", worst, 1e-12, "apply_A less the weighted-mass band, against the dense A less it")

    # interpolation constant audit: the eigenfields and 1000 random fields
    worst = max(
        quotient_max_oracle(lambda c: _interp_ratio(sys, c), sys.ndof, 1000, seed=cfg.seed),
        *(_interp_ratio(sys, v) for v in spec.vectors.T),
    )
    add("interpolation_audit", (worst - interp.value) / interp.value, 1e-8)

    # matrix export round trip
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "S.txt"
        dump_matrix(p, sys.S, "dense")
        back, kind = load_matrix(p)
        add(
            "matrix_roundtrip",
            float(np.max(np.abs(back - sys.S))) if kind == "dense" else np.inf,
            0.0,
        )

    # threshold vs inertia bisection
    thr = alpha_threshold(sys, (cfg.bracket_lo, cfg.bracket_hi), tol=cfg.threshold_tol)
    orc = threshold_oracle(sys.K, sys.S, (cfg.bracket_lo, cfg.bracket_hi))
    add("threshold_oracle", abs(thr.alpha_star - orc), 1e-6)
    add("indefinite_past_threshold", _lambda1(sys, thr.alpha_star - 1.0), 0.0,
        "lambda_1 must be <= 0 below the threshold")

    # certified linking bound at k = 1 vs the sampled sphere infimum and
    # half-cylinder boundary, at the slope halfway between lambda_1 and lambda_2
    if sys.ndof < 2:
        add("linking_geometry", 0.0, 1e-10, "skipped: ndof < 2 leaves no level-1 splitting")
    else:
        lambdas, U, V = split = _splitting(sys, 1)
        nl = PowerPerturbed(0.5 * float(lambdas[0] + lambdas[1]), 4.0)
        geo, _, (g, c_r, r, _) = _probe(sys, nl, split, _slope_at_zero(sys, nl))
        rng_geo = np.random.default_rng(cfg.seed)
        worst = max(
            (0.5 * g * rho**2 - c_r * rho**r - val) / max(1.0, abs(val))
            for rho, (val, _) in zip(RHO_GRID, _sphere_min(sys, nl, V, rng_geo))
        )
        v_dir = V[:, 0] / math.sqrt(float(V[:, 0] @ sys.apply_K(V[:, 0])))
        worst = max(worst, _delta_boundary_max(sys, nl, U, v_dir, geo.rho_big, rng_geo) - geo.boundary_sup)
        add("linking_geometry", worst if geo.certified else math.inf, 1e-10,
            "sampled sphere infimum >= certified bound at every radius, sampled boundary <= 0 at rho_big")
    return checks


def _pipeline_full_audit(cfg: RunConfig, out_dir: Path) -> bool:
    checks = _audit_checks(cfg, _scalar_system(cfg, "full-audit"))
    ok = all(c["passed"] for c in checks)
    _write_report(out_dir / "audit.json", cfg, "full-audit", alpha=cfg.alpha[0], checks=checks, certified=ok)
    rows = [[c["name"], c["metric"], c["tolerance"], c["passed"]] for c in checks]
    _write_csv(out_dir / "audit.csv", ["check", "metric", "tolerance", "passed"], rows)
    return ok


_DISPATCH = {
    "spectrum": _pipeline_spectrum,
    "constants": _pipeline_constants,
    "threshold": _pipeline_threshold,
    "solve-linear": _pipeline_solve_linear,
    "mountain-pass": lambda cfg, out_dir: _linking(cfg, out_dir, "mountain-pass", 0),
    "linking": lambda cfg, out_dir: _linking(cfg, out_dir, "linking", cfg.k),
    "dump-matrices": _pipeline_dump_matrices,
    "full-audit": _pipeline_full_audit,
}


def _replaceable(target: Path) -> bool:
    """Whether an existing output path may be replaced: an empty directory,
    or one holding a top-level JSON report of an earlier mixlap run."""
    if not target.is_dir():
        return False
    for path in target.glob("*.json"):
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(report, dict) and {"pipeline", "version"} <= report.keys():
            return True
    return not any(target.iterdir())


def _remove_empty(dirs: list[Path]) -> None:
    """Remove the given directories, deepest first, while they are empty."""
    for path in dirs:
        try:
            path.rmdir()
        except OSError:
            return


def run(cfg: RunConfig, pipeline: str) -> int:
    """Execute a pipeline; stage outputs and rename into place on completion."""
    if pipeline not in _DISPATCH:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    cfg.validate()
    target = Path(cfg.directory)
    if target.exists() and not _replaceable(target):
        raise ConfigError(f"output: {target} holds no mixlap report; refusing to replace it")
    # ancestors this run creates, deepest first; removed again if it fails
    created = list(itertools.takewhile(lambda p: not p.exists(), target.parents))
    target.parent.mkdir(parents=True, exist_ok=True)
    stage = None
    try:
        stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=target.parent))
        try:
            certified = _DISPATCH[pipeline](cfg, stage)
            status = 0 if certified else 1
        except ConfigError:
            raise
        except (ResonanceError, RuntimeError, ArithmeticError, ValueError) as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            _write_report(stage / "error.json", cfg, pipeline, error=error)
            status = 1
        # an earlier report is moved aside, not deleted, until the stage is in place
        aside = target.replace(stage.with_name(stage.name + ".old")) if target.exists() else None
        try:
            stage.replace(target)
        except OSError:
            if aside is not None:
                aside.replace(target)
            raise
        if aside is not None:
            shutil.rmtree(aside)
    except BaseException:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        _remove_empty(created)
        raise
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixlap",
        description="Spectra, constants and critical points of the mixed "
        "local-nonlocal operator on an interval",
    )
    parser.add_argument("pipeline", choices=list(_DISPATCH))
    parser.add_argument("--config", type=Path, default=None, help="INI configuration file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg.directory = str(args.out)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tol is not None:
            cfg.tol = args.tol
        if args.max_iter is not None:
            cfg.max_iter = args.max_iter
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    try:
        return run(cfg, args.pipeline)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
