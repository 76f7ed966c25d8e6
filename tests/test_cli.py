import configparser
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixlap.cli import main, run
from mixlap.config import _SCHEMA, ConfigError, RunConfig, parse_config


def write_cfg(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


MINIMAL = """
[domain]
a = 0
b = 1
n_elem = 64

[operator]
s = 0.5
alpha = -5
"""


def test_parse_minimal_fills_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path / "c.ini", MINIMAL))
    assert cfg.n_elem == 64
    assert cfg.alpha == (-5.0,)
    assert cfg.tol == 1e-8
    assert cfg.seed == 0
    assert cfg.kind == "power_perturbed"


EVERY_KEY = """
[domain]
a = -1.0
b = 2.0
n_elem = 20

[operator]
s = 0.3
alpha = -2.5

[nonlinearity]
kind = affine_linear
lambda = 3.5
p = 5.0
a_const = 0.25

[solver]
tol = 1e-7
max_iter = 50
seed = 4
m = 6
k = 2
bracket_lo = -30.0
bracket_hi = 1.0
threshold_tol = 1e-5

[output]
directory = elsewhere
"""


def test_every_config_key_round_trips_into_the_report(tmp_path):
    parser = configparser.ConfigParser()
    parser.read_string(EVERY_KEY)
    assert {name: set(parser[name]) for name in parser.sections()} == {
        name: set(keys) for name, keys in _SCHEMA.items()
    }
    cfg = parse_config(write_cfg(tmp_path / "c.ini", EVERY_KEY))
    assert cfg.to_dict() == {
        "domain": {"a": -1.0, "b": 2.0, "n_elem": 20},
        "operator": {"s": 0.3, "alpha": [-2.5]},
        "nonlinearity": {"kind": "affine_linear", "lambda": 3.5, "p": 5.0, "a_const": 0.25},
        "solver": {
            "tol": 1e-7,
            "max_iter": 50,
            "seed": 4,
            "m": 6,
            "k": 2,
            "bracket_lo": -30.0,
            "bracket_hi": 1.0,
            "threshold_tol": 1e-5,
        },
    }


def test_parse_rejects_bad_s(tmp_path):
    bad = MINIMAL.replace("s = 0.5", "s = 1.2")
    with pytest.raises(ConfigError, match="0 < s < 1"):
        parse_config(write_cfg(tmp_path / "c.ini", bad))


def test_parse_rejects_unknown_key(tmp_path):
    bad = MINIMAL + "\nwobble = 3\n"
    with pytest.raises(ConfigError, match="wobble"):
        parse_config(write_cfg(tmp_path / "c.ini", bad))


def test_parse_rejects_unknown_section(tmp_path):
    bad = MINIMAL + "\n[plotting]\ncolor = red\n"
    with pytest.raises(ConfigError, match="plotting"):
        parse_config(write_cfg(tmp_path / "c.ini", bad))


def test_alpha_grid_expansion(tmp_path):
    text = MINIMAL.replace("alpha = -5", "alpha = -10:0:11")
    cfg = parse_config(write_cfg(tmp_path / "c.ini", text))
    assert len(cfg.alpha) == 11
    assert cfg.alpha[0] == -10.0 and cfg.alpha[-1] == 0.0


def test_spectrum_baseline_run(tmp_path):
    cfg = RunConfig(n_elem=64, s=0.5, alpha=(0.0,), m=5, directory=str(tmp_path / "out"))
    assert run(cfg, "spectrum") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["certified"] is True
    assert report["n0"] == 1
    rows = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "k,lambda,rayleigh_residual,m_orth_residual"
    lams = [float(r.split(",")[1]) for r in rows[1:]]
    exact = [(k * np.pi) ** 2 for k in range(1, 6)]
    assert np.max(np.abs(np.array(lams) - exact) / exact) < 1e-2
    assert report["config"]["solver"]["seed"] == 0 and "version" in report


def test_spectrum_grid_subruns(tmp_path):
    cfg = RunConfig(
        n_elem=16, s=0.5, alpha=tuple(np.linspace(-2, 0, 3)), m=5,
        directory=str(tmp_path / "grid"),
    )
    assert run(cfg, "spectrum") == 0
    report = json.loads((tmp_path / "grid" / "report.json").read_text())
    assert len(report["sub_runs"]) == 3
    for sub in report["sub_runs"]:
        assert (tmp_path / "grid" / sub["directory"] / "spectrum.csv").exists()


def test_dump_matrices_roundtrip(tmp_path):
    from mixlap import load_matrix

    cfg = RunConfig(n_elem=8, alpha=(-1.0,), m=7, directory=str(tmp_path / "mats"))
    assert run(cfg, "dump-matrices") == 0
    K, kind = load_matrix(tmp_path / "mats" / "K.txt")
    assert kind == "banded" and K.shape == (7, 7)
    S, kind = load_matrix(tmp_path / "mats" / "S.txt")
    assert kind == "dense" and S.shape == (7, 7)


def test_solver_pipeline_writes_profile(tmp_path):
    cfg = RunConfig(
        n_elem=32, alpha=(0.0,), kind="power_perturbed", lam=4.9, p=4.0, m=5,
        directory=str(tmp_path / "mp"),
    )
    assert run(cfg, "mountain-pass") == 0
    rows = (tmp_path / "mp" / "solution.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u"
    assert len(rows) == 1 + 33  # nodes incl. endpoints
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert first == [0.0, 0.0] and last == [1.0, 0.0]
    # the mountain pass is the linking search at k = 0, gated by the same certified probe
    report = json.loads((tmp_path / "mp" / "report.json").read_text())
    assert report["k"] == 0 and report["geometry"]["k"] == 0
    assert report["geometry"]["certified"] and report["report"]["converged"]


def test_resonant_linear_solve_reports_error(tmp_path):
    cfg = RunConfig(
        n_elem=32, alpha=(0.0,), kind="affine_linear",
        lam=float(np.pi**2),  # essentially the first eigenvalue
        a_const=1.0, m=5, directory=str(tmp_path / "res"),
    )
    cfg.lam = 9.87014  # discrete lambda_1 at n=32 to 6 digits
    import mixlap
    from mixlap.spectrum import solve_pencil

    sys = mixlap.build_system(mixlap.build_mesh(0, 1, 32), 0.5, 0.0)
    cfg.lam = float(solve_pencil(sys, 1).lambdas[0])
    assert run(cfg, "solve-linear") == 1
    err = json.loads((tmp_path / "res" / "error.json").read_text())
    assert err["error"]["type"] == "ResonanceError"


def test_linking_level_past_the_last_eigenfield_reports_error(tmp_path):
    # n_elem = 4 has 3 degrees of freedom: the splitting levels are 0, 1, 2
    cfg = RunConfig(n_elem=4, alpha=(0.0,), lam=25.0, m=3, k=3, directory=str(tmp_path / "lk"))
    assert run(cfg, "linking") == 1
    err = json.loads((tmp_path / "lk" / "error.json").read_text())
    assert err["error"]["type"] == "ValueError"
    assert "k=3 is outside 0..2" in err["error"]["message"]


def test_affine_linking_at_level_zero_reports_error(tmp_path):
    # the saddle geometry of the affine kind needs a sphere in span(u_1..u_k);
    # mountain-pass is the linking search at k = 0
    for pipeline in ("linking", "mountain-pass"):
        cfg = RunConfig(
            n_elem=16, alpha=(0.0,), kind="affine_linear", lam=5.0, a_const=1.0, m=5, k=0,
            directory=str(tmp_path / pipeline),
        )
        assert run(cfg, pipeline) == 1
        err = json.loads((tmp_path / pipeline / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert "needs k >= 1" in err["error"]["message"]


def test_affine_linking_with_certified_saddle_reports_error(tmp_path):
    # lambda_1 < 25 < lambda_2 certifies the saddle geometry at k = 1, but J
    # of the affine kind is unbounded above along the ray: no peak to select
    cfg = RunConfig(
        n_elem=32, alpha=(0.0,), kind="affine_linear", lam=25.0, a_const=1.0, m=5, k=1,
        directory=str(tmp_path / "lk"),
    )
    assert run(cfg, "linking") == 1
    err = json.loads((tmp_path / "lk" / "error.json").read_text())
    assert err["error"]["type"] == "ValueError"
    assert "solve-linear" in err["error"]["message"]


@pytest.fixture(scope="module")
def audit4(tmp_path_factory):
    """The checks of one full-audit at n_elem = 4, m = 1 per alpha, each run once."""
    runs = {}

    def checks(alpha):
        if alpha not in runs:
            out = tmp_path_factory.mktemp("audit4") / "au"
            cfg = RunConfig(n_elem=4, alpha=(alpha,), m=1, directory=str(out))
            assert run(cfg, "full-audit") == 0
            runs[alpha] = json.loads((out / "audit.json").read_text())["checks"]
        return runs[alpha]

    return checks


def test_audit_with_one_eigenpair_checks_the_indefinite_side(audit4):
    # m = 1 computes only lambda_1 < 0; the check past the threshold reads
    # lambda_1 there, which needs no positive eigenvalue
    checks = audit4(-5.0)
    past = next(c for c in checks if c["name"] == "indefinite_past_threshold")
    assert past["passed"] and past["metric"] < 0.0
    # one eigenpair has no upper Rayleigh side: only lambda_1 on span(u_1) is checked
    bounds = next(c for c in checks if c["name"] == "two_sided_bounds")
    assert bounds["passed"] and bounds["note"].startswith("lower side only")


def test_audit_checks_the_linking_bound_against_the_sampled_geometry(audit4):
    checks = audit4(-5.0)
    geo = next(c for c in checks if c["name"] == "linking_geometry")
    assert geo["passed"] and not geo["note"].startswith("skipped")


@pytest.mark.parametrize("alpha", [-5.0, 0.0])
def test_audit_checks_the_split_eigenvalue_by_inertia_bisection(audit4, alpha):
    # the top eigenvalue that decides the Young split at each epsilon, against
    # the inertia-bisection oracle; alpha >= 0 has no split to check
    checks = audit4(alpha)
    row = next(c for c in checks if c["name"] == "young_split_oracle")
    assert row["passed"] and row["tolerance"] == 1e-8
    assert row["note"].startswith("skipped") == (alpha >= 0.0)


def test_audit_skips_the_linking_check_without_a_level_one_splitting(tmp_path):
    # one degree of freedom has no lambda_2, so no level-1 splitting
    cfg = RunConfig(n_elem=2, alpha=(-5.0,), m=1, directory=str(tmp_path / "au"))
    assert run(cfg, "full-audit") == 0
    checks = json.loads((tmp_path / "au" / "audit.json").read_text())["checks"]
    geo = next(c for c in checks if c["name"] == "linking_geometry")
    assert geo["passed"] and geo["note"].startswith("skipped: ndof < 2")


def test_full_audit_runs_with_one_degree_of_freedom(tmp_path):
    # past the threshold the one eigenvalue is negative, with no second one
    out = tmp_path / "one"
    text = MINIMAL.replace("n_elem = 64", "n_elem = 2") + "\n[solver]\nm = 1\n"
    code = main(["full-audit", "--config", str(write_cfg(tmp_path / "one.ini", text)), "--out", str(out)])
    assert code == 0
    assert (out / "audit.json").exists() and not (out / "error.json").exists()
    audit = json.loads((out / "audit.json").read_text())
    assert audit["certified"] and all(c["passed"] for c in audit["checks"])
    past = next(c for c in audit["checks"] if c["name"] == "indefinite_past_threshold")
    assert past["metric"] < 0.0


def test_audit_past_the_threshold_needs_no_positive_eigenvalue(tmp_path):
    # at s = 0.9 every eigenvalue of the mesh is negative one unit below
    # alpha*, so no first positive index exists; lambda_1 < 0 is the check
    cfg = RunConfig(n_elem=4, s=0.9, alpha=(-5.0,), m=1, directory=str(tmp_path / "au"))
    assert run(cfg, "full-audit") == 0
    checks = json.loads((tmp_path / "au" / "audit.json").read_text())["checks"]
    past = next(c for c in checks if c["name"] == "indefinite_past_threshold")
    assert past["passed"] and past["metric"] < 0.0


@pytest.mark.parametrize("alpha", [-1.0, 1.0])
def test_constants_runs_with_one_degree_of_freedom(tmp_path, alpha):
    cfg = RunConfig(n_elem=2, alpha=(alpha,), m=1, directory=str(tmp_path / "c"))
    assert run(cfg, "constants") == 0
    report = json.loads((tmp_path / "c" / "constants.json").read_text())
    assert report["young"]["certified"]


def test_constants_reports_the_same_interpolation_constant_for_every_seed(tmp_path):
    # the seed reaches only full-audit's randomized oracles
    values = set()
    for seed in range(5):
        out = tmp_path / f"c{seed}"
        assert run(RunConfig(n_elem=16, alpha=(-1.0,), m=1, seed=seed, directory=str(out)), "constants") == 0
        values.add(json.loads((out / "constants.json").read_text())["C_interp"])
    assert len(values) == 1
    assert values.pop() == pytest.approx(5.9382178, rel=1e-7)


@pytest.mark.parametrize(
    "pipeline, body, exc",
    [
        # eps ** (-s / (1 - s)) in the Young split overflows a float
        ("constants", "n_elem = 16\n[operator]\ns = 0.99\nalpha = -1\n", "OverflowError"),
        # the same overflow, in the audit's Young split
        ("full-audit", "n_elem = 8\n[operator]\ns = 0.99\nalpha = -5\n[solver]\nm = 7\n", "OverflowError"),
    ],
    ids=["constants", "full-audit"],
)
def test_arithmetic_faults_write_a_structured_error(tmp_path, pipeline, body, exc):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "c.ini", "[domain]\n" + body)
    assert main([pipeline, "--config", str(cfg), "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["type"] == exc


def test_constants_certifies_the_split_where_the_estimate_is_too_low(tmp_path):
    # at n_elem = 256 the reported estimate of the interpolation constant
    # is low enough that a split built on it fails at eps*/8; the split takes
    # 2/C(1,s) = 2 pi, which bounds every discrete quotient
    cfg = RunConfig(n_elem=256, alpha=(-1.0,), m=1, directory=str(tmp_path / "c"))
    assert run(cfg, "constants") == 0
    report = json.loads((tmp_path / "c" / "constants.json").read_text())
    assert report["young"]["violations"] == 0 and report["young"]["trials"] == 3
    assert report["young"]["certified"]
    assert report["young"]["c1"] == pytest.approx(np.pi, rel=1e-15)
    assert report["C_interp"] < 2.0 * np.pi


def test_broken_config_no_artifacts(tmp_path):
    out = tmp_path / "never"
    code = main(
        [
            "spectrum",
            "--config",
            str(write_cfg(tmp_path / "bad.ini", MINIMAL.replace("s = 0.5", "s = 2"))),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "replace, flags",
    [
        (None, ["--tol", "nan"]),
        (None, ["--tol", "inf"]),
        (("b = 1", "b = inf"), []),
        (("alpha = -5", "alpha = nan"), []),
        (("alpha = -5", "alpha = -inf:0:3"), []),
        (("alpha = -5", "alpha = -5\n[nonlinearity]\nlambda = nan"), []),
        (("alpha = -5", "alpha = -5\n[nonlinearity]\np = inf"), []),
        (("alpha = -5", "alpha = -5\n[solver]\nthreshold_tol = inf"), []),
        (("alpha = -5", "alpha = -5\n[solver]\nbracket_lo = -inf"), []),
    ],
    ids=[
        "tol-nan", "tol-inf", "b-inf", "alpha-nan", "alpha-grid-inf", "lambda-nan", "p-inf",
        "threshold_tol-inf", "bracket_lo-inf",
    ],
)
def test_non_finite_config_values_are_config_errors(tmp_path, replace, flags):
    out = tmp_path / "never"
    text = MINIMAL.replace("n_elem = 64", "n_elem = 16")
    if replace:
        text = text.replace(*replace)
    cfg = write_cfg(tmp_path / "c.ini", text)
    assert main(["threshold", "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert not out.exists()


def test_reversed_bracket_is_a_config_error(tmp_path):
    out = tmp_path / "never"
    text = MINIMAL.replace("n_elem = 64", "n_elem = 8") + "\n[solver]\nm = 3\nbracket_lo = 0\nbracket_hi = -10\n"
    code = main(["threshold", "--config", str(write_cfg(tmp_path / "c.ini", text)), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_pipeline_config_error_no_artifacts(tmp_path):
    # an alpha grid is a valid config that only the spectrum pipeline accepts
    out = tmp_path / "out_mp"
    text = MINIMAL.replace("n_elem = 64", "n_elem = 16").replace("alpha = -5", "alpha = -1:0:3")
    code = main(["mountain-pass", "--config", str(write_cfg(tmp_path / "c.ini", text)), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


def test_failed_run_removes_the_directories_it_created(tmp_path):
    # the refused run created pd/new/deeper; an existing pd/keep stays
    (tmp_path / "pd" / "keep").mkdir(parents=True)
    out = tmp_path / "pd" / "new" / "deeper" / "out"
    text = MINIMAL.replace("n_elem = 64", "n_elem = 16").replace("alpha = -5", "alpha = -1:0:3")
    code = main(["mountain-pass", "--config", str(write_cfg(tmp_path / "c.ini", text)), "--out", str(out)])
    assert code == 2
    assert sorted(p.name for p in (tmp_path / "pd").iterdir()) == ["keep"]


def test_refuses_to_replace_foreign_directory(tmp_path):
    cfgfile = write_cfg(tmp_path / "c.ini", MINIMAL.replace("n_elem = 64", "n_elem = 16"))
    out = tmp_path / "keep"
    out.mkdir()
    (out / "notes.txt").write_text("not mixlap output\n")
    (out / "data.json").write_text('{"pipeline": "mine"}\n')
    code = main(["spectrum", "--config", str(cfgfile), "--out", str(out)])
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["data.json", "notes.txt"]
    assert (out / "notes.txt").read_text() == "not mixlap output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "keep"]


def test_replaces_own_and_empty_directories(tmp_path):
    cfgfile = write_cfg(tmp_path / "c.ini", MINIMAL.replace("n_elem = 64", "n_elem = 16"))
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
    (out / "stale.csv").write_text("left by an earlier run\n")
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert not (out / "stale.csv").exists()
    assert (out / "report.json").exists()


def test_failed_move_keeps_the_earlier_report(tmp_path, monkeypatch):
    cfgfile = write_cfg(tmp_path / "c.ini", MINIMAL.replace("n_elem = 64", "n_elem = 16"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_replace = Path.replace
    moved = []

    def failing_replace(self, target):
        if Path(target) == out and not moved:
            moved.append(self.name)
            raise OSError("injected failure at the stage move")
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        main(["spectrum", "--config", str(cfgfile), "--out", str(out), "--seed", "7"])
    assert moved[0].startswith(".stage-")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "out"]


def test_cli_flag_overrides(tmp_path):
    cfgfile = write_cfg(
        tmp_path / "c.ini",
        """
[domain]
n_elem = 16
[operator]
s = 0.5
alpha = 0.0
[solver]
m = 5
""",
    )
    out = tmp_path / "flagged"
    code = main(
        ["spectrum", "--config", str(cfgfile), "--out", str(out), "--seed", "9", "--tol", "1e-7"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["solver"]["seed"] == 9
    assert report["config"]["solver"]["tol"] == 1e-7
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "spectrum.csv"]


def test_repeated_runs_byte_identical(tmp_path):
    out = tmp_path / "repeat"
    cfg = RunConfig(n_elem=16, alpha=(-2.0,), m=5, seed=3, directory=str(out))
    assert run(cfg, "spectrum") == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(cfg, "spectrum") == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_reports_do_not_depend_on_the_output_path(tmp_path):
    text = MINIMAL.replace("n_elem = 64", "n_elem = 16").replace("alpha = -5", "alpha = -2:0:2")
    cfgfile = write_cfg(tmp_path / "c.ini", text)
    outputs = []
    for out in (tmp_path / "one", tmp_path / "elsewhere" / "two"):
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]


def test_console_entry_point(tmp_path):
    cfgfile = write_cfg(
        tmp_path / "c.ini",
        """
[domain]
n_elem = 16
[operator]
s = 0.5
alpha = 0.0
[solver]
m = 5
""",
    )
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "mixlap.cli", "spectrum", "--config", str(cfgfile), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()


def test_cli_import_loads_no_optimizer_integrator_or_oracle():
    # the oracles belong to full-audit, and scipy to the few routines that
    # import it where they run: importing the CLI loads neither
    code = (
        "import sys, mixlap.cli; print(sorted(m for m in sys.modules "
        "if m == 'mixlap.oracles' or m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scipy_is_imported_only_by_the_oracles_and_the_characterization_audit():
    # every pipeline but full-audit runs on numpy alone: scipy appears in no
    # import statement outside mixlap.oracles and verify_characterization
    import ast

    import mixlap

    found = set()
    for path in sorted(Path(mixlap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> innermost enclosing function; ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope.update((node, getattr(fn, "name", "<lambda>")) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.add((path.stem, scope.get(node)))
    assert {(m, f) for m, f in found if m != "oracles"} == {("spectrum", "verify_characterization")}


def test_random_numbers_are_drawn_only_by_the_oracles_and_the_audits():
    # every certified flag a pipeline reports is decided by eigenvalues or
    # closed forms: np.random and default_rng appear, outside annotations,
    # only in mixlap.oracles, the full-audit checks and the randomized bound
    # checks
    import ast

    import mixlap

    found = set()
    for path in sorted(Path(mixlap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> innermost enclosing function; ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope.update((node, getattr(fn, "name", "<lambda>")) for node in ast.walk(fn))
        hints = {
            node
            for owner in ast.walk(tree)
            for hint in (getattr(owner, "annotation", None), getattr(owner, "returns", None))
            if isinstance(hint, ast.AST)
            for node in ast.walk(hint)
        }
        for node in ast.walk(tree):
            if node in hints:
                continue
            np_random = (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
            if isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                name = getattr(node, "attr", getattr(node, "id", None))
            imported = isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random")
            if np_random or name == "default_rng" or imported:
                found.add((path.stem, scope.get(node)))
    assert {(m, f) for m, f in found if m != "oracles"} == {
        ("cli", "_audit_checks"),
        ("spectrum", "bound_checks"),
    }


def test_spectral_and_critical_point_runs_load_no_scipy(tmp_path):
    # every pipeline but full-audit runs on numpy alone
    runs = {
        "spectrum": "[operator]\nalpha = -1\n",
        "spectrum-grid": "[operator]\nalpha = -2:0:5\n",
        "threshold": "[operator]\nalpha = -5\n[solver]\nbracket_lo = -10\nbracket_hi = 0\n",
        "constants": "[operator]\nalpha = -5\n",
        "mountain-pass": "[operator]\nalpha = 0\n[nonlinearity]\nlambda = 5\n",
        "linking": "[operator]\nalpha = 0\n[nonlinearity]\nlambda = 25\n[solver]\nk = 1\n",
        "solve-linear": "[operator]\nalpha = -1\n"
        "[nonlinearity]\nkind = affine_linear\nlambda = 10\na_const = 1\n",
    }
    argvs = []
    for label, body in runs.items():
        cfgfile = write_cfg(tmp_path / f"{label}.ini", "[domain]\nn_elem = 16\n" + body)
        pipeline = label.removesuffix("-grid")
        argvs.append([pipeline, "--config", str(cfgfile), "--out", str(tmp_path / label)])
    code = (
        "import sys; from mixlap.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    print(main(argv), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('mixlap.oracles' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["0 []"] * len(runs)
    # the sampled geometry probe lives in the oracles, off the linking run's path
    assert proc.stderr.strip() == "False"


@pytest.mark.parametrize(
    "body",
    [
        "[operator]\nalpha = 0\n[nonlinearity]\nlambda = 25\n[solver]\nk = 1\n",
        "[operator]\nalpha = -1\n[nonlinearity]\nlambda = 20\n[solver]\nk = 2\n",
    ],
    ids=["linking-64", "k2-alpha-1"],
)
def test_no_linking_report_is_both_inconclusive_and_certified(tmp_path, body):
    # the geometry is a certified bound: it has no multistart scatter to flag
    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 64\n" + body)
    assert main(["linking", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    geometry = json.loads((tmp_path / "out" / "report.json").read_text())["geometry"]
    assert geometry["certified"] and geometry.get("inconclusive") is not True
    assert set(geometry) == {"k", "rho_small", "alpha_tilde", "rho_big", "boundary_sup", "certified", "mode"}


def test_spectrum_at_1024_peaks_below_one_and_three_quarters_dense_matrices(tmp_path):
    # K, S and M are held by their columns, A acts by the circulant S product
    # and only the reported eigenvectors reach the nodes: the run peaks while
    # it builds the sine blocks, at about 1.5 dense matrices
    import tracemalloc

    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 1024\n[operator]\nalpha = -1\n")
    tracemalloc.start()
    try:
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 8 * 1023**2


def test_spectrum_certifies_a_cluster_of_two_parities(tmp_path):
    # lambda_1 (a flip-even eigenfield) and lambda_2 (flip-odd) are 1.24e-3
    # apart, inside one eigenvalue cluster: each reported column must carry
    # its own eigenvalue
    from mixlap import build_mesh, build_system

    alpha = -2.5039284465
    cfgfile = write_cfg(tmp_path / "c.ini", f"[domain]\nn_elem = 512\n[operator]\nalpha = {alpha}\n")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["certified"]
    for name in ("report.json", "spectrum.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    rows = (outs[0] / "spectrum.csv").read_text().splitlines()[1:3]
    lambdas = [float(row.split(",")[1]) for row in rows]
    sine = build_system(build_mesh(0.0, 1.0, 512), 0.5, alpha).sine
    blocks = [np.linalg.eigvalsh(sine.scaled(b, 1.0, alpha, 0.0, 0.0, 1.0).dense()) for b in (0, 1)]
    scale = max(np.abs(w).max() for w in blocks)
    assert abs(lambdas[0] - blocks[0][0]) <= 1e-12 * scale
    assert abs(lambdas[1] - blocks[1][0]) <= 1e-12 * scale
    assert 1e-3 < lambdas[1] - lambdas[0] < 1e-9 * scale


def test_spectrum_builds_no_dense_a_or_s(tmp_path):
    from mixlap import build_mesh, build_system
    from mixlap.cli import _spectrum_single

    cfg = RunConfig(n_elem=64, alpha=(-1.0,), m=12)
    sys_ = build_system(build_mesh(0.0, 1.0, 64), 0.5, -1.0)
    assert _spectrum_single(cfg, sys_, tmp_path)
    assert "A" not in sys_.__dict__ and "S" not in sys_.__dict__


def test_pipelines_build_no_dense_stiffness_or_mass(tmp_path, monkeypatch):
    # K and M act through their three-term stencils; only full-audit and
    # dump-matrices read them as dense matrices
    from mixlap.assembly import OperatorSystem

    def refuse(self):
        raise AssertionError("a pipeline built a dense K or M")

    monkeypatch.setattr(OperatorSystem, "K", property(refuse))
    monkeypatch.setattr(OperatorSystem, "M", property(refuse))
    runs = {
        "spectrum": "[operator]\nalpha = -1\n",
        "spectrum-grid": "[operator]\nalpha = -2:0:5\n",
        "threshold": "[operator]\nalpha = -5\n[solver]\nbracket_lo = -10\nbracket_hi = 0\n",
        "mountain-pass": "[operator]\nalpha = 0\n[nonlinearity]\nlambda = 5\n",
        "linking": "[operator]\nalpha = 0\n[nonlinearity]\nlambda = 25\n[solver]\nk = 1\n",
        "solve-linear": "[operator]\nalpha = -1\n"
        "[nonlinearity]\nkind = affine_linear\nlambda = 10\na_const = 1\n",
        "constants": "[operator]\nalpha = -5\n",
    }
    for label, body in runs.items():
        cfgfile = write_cfg(tmp_path / f"{label}.ini", "[domain]\nn_elem = 16\n" + body)
        argv = [label.removesuffix("-grid"), "--config", str(cfgfile), "--out", str(tmp_path / label)]
        assert main(argv) == 0, label


def test_spectrum_grid_and_threshold_transform_s_once(tmp_path, monkeypatch):
    # every alpha of a grid, alpha* and every point of the lambda_1 curve
    # share one sine basis
    from mixlap import assembly

    init = assembly.SineBasis.__init__
    made = []

    def counting(self, K, S, M):
        made.append(S.shape[0])
        init(self, K, S, M)

    monkeypatch.setattr(assembly.SineBasis, "__init__", counting)
    grid = write_cfg(tmp_path / "grid.ini", "[domain]\nn_elem = 32\n[operator]\nalpha = -2:0:5\n")
    assert main(["spectrum", "--config", str(grid), "--out", str(tmp_path / "grid")]) == 0
    assert len(list((tmp_path / "grid").glob("alpha_*/spectrum.csv"))) == 5
    assert made == [31]
    made.clear()
    thr = write_cfg(
        tmp_path / "thr.ini",
        "[domain]\nn_elem = 32\n[operator]\nalpha = -5\n[solver]\nbracket_lo = -10\nbracket_hi = 0\n",
    )
    assert main(["threshold", "--config", str(thr), "--out", str(tmp_path / "thr")]) == 0
    assert len((tmp_path / "thr" / "lambda1_vs_alpha.csv").read_text().splitlines()) == 10
    assert made == [31]


def test_linking_run_loads_no_optimizer(tmp_path):
    # peak selection is Newton on the span's coefficients: a whole linking
    # run, not only the import, leaves scipy.optimize unloaded
    cfgfile = write_cfg(
        tmp_path / "link.ini",
        "[domain]\nn_elem = 16\n[operator]\nalpha = 0\n"
        "[nonlinearity]\nlambda = 25\n[solver]\nk = 1\n",
    )
    code = (
        "import sys; from mixlap.cli import main; "
        f"code = main(['linking', '--config', {str(cfgfile)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert json.loads((tmp_path / "out" / "report.json").read_text())["report"]["converged"]


def test_the_readme_example_config_parses_and_names_every_key(tmp_path):
    # the README block carries inline "; ..." comments after its values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_cfg(tmp_path / "readme.ini", block))
    assert cfg.alpha == (-5.0,) and cfg.kind == "power_perturbed" and cfg.p == 4.0 and cfg.k == 1
    named = configparser.ConfigParser(inline_comment_prefixes=(";",))
    named.read_string(block)
    assert {s: set(named[s]) for s in named.sections()} == {s: set(keys) for s, keys in _SCHEMA.items()}


@pytest.mark.parametrize("extra, flags", [("seed = -1\n", []), ("", ["--seed", "-3"])], ids=["ini-key", "flag"])
@pytest.mark.parametrize("pipeline", ["spectrum", "full-audit"])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, pipeline, extra, flags):
    out = tmp_path / "never"
    text = MINIMAL.replace("n_elem = 64", "n_elem = 8") + "\n[solver]\nm = 3\n" + extra
    cfg = write_cfg(tmp_path / "c.ini", text)
    assert main([pipeline, "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["c.ini"]


def test_large_spectrum_and_threshold_run_no_full_block_solve(tmp_path, monkeypatch):
    # at n_elem = 2048 every lowest pair, gamma, every lambda_1 and the top
    # pair of (S, K) behind alpha* come from the certified block route, and
    # neither pipeline builds the dense S or A
    from mixlap import assembly

    def guarded(solve):
        def guard(a, *args, **kwargs):
            if np.shape(a)[-1] >= 128:
                raise AssertionError(f"a full solve of a {np.shape(a)} block")
            return solve(a, *args, **kwargs)

        return guard

    def refused(name):
        def read(self):
            raise AssertionError(f"the dense {name} was read")

        return property(read)

    monkeypatch.setattr(assembly.np.linalg, "eigh", guarded(np.linalg.eigh))
    monkeypatch.setattr(assembly.np.linalg, "eigvalsh", guarded(np.linalg.eigvalsh))
    for name in ("S", "A"):
        monkeypatch.setattr(assembly.OperatorSystem, name, refused(name))
    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 2048\n[operator]\nalpha = -1\n")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
    report = json.loads((outs[0] / "report.json").read_text())
    assert report["certified"]
    for solve in ("gamma", "pairs"):
        counters = report["solves"][solve]
        assert counters["route"] == "block" and counters["fallbacks"] == 0
        assert len(counters["iterations"]) == 2 and min(counters["iterations"]) > 0
    for name in ("report.json", "spectrum.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    thr = write_cfg(tmp_path / "thr.ini", "[domain]\nn_elem = 2048\n[solver]\nbracket_lo = -10\nbracket_hi = 0\n")
    assert main(["threshold", "--config", str(thr), "--out", str(tmp_path / "thr")]) == 0
    assert json.loads((tmp_path / "thr" / "threshold.json").read_text())["certified"]


def test_large_spectrum_traces_no_more_than_its_blocks_and_8_mb(tmp_path):
    # the half-row build and the certificate in each block's idle triangle
    # hold no n x n array beyond the two blocks of Q S Q
    import tracemalloc

    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 2048\n[operator]\nalpha = -1\n")
    tracemalloc.start()
    try:
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = 8 * (1024**2 + 1023**2)  # ndof 2047: blocks of 1024 and 1023 rows
    assert peak <= blocks + 8e6, peak / 1e6


def test_small_spectrum_reports_the_dense_route(tmp_path):
    cfgfile = write_cfg(tmp_path / "c.ini", MINIMAL)
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    solves = json.loads((tmp_path / "out" / "report.json").read_text())["solves"]
    assert solves == {s: {"route": "dense", "iterations": [0, 0], "fallbacks": 0} for s in ("gamma", "pairs")}


def _refuse_dense_a_and_s(monkeypatch):
    from mixlap import assembly

    def refused(name):
        def read(self):
            raise AssertionError(f"the dense {name} was read")

        return property(read)

    for name in ("S", "A"):
        monkeypatch.setattr(assembly.OperatorSystem, name, refused(name))


def test_large_mountain_pass_reads_no_dense_a_or_s_and_traces_its_blocks_and_8_mb(tmp_path, monkeypatch):
    # J, its gradient, the peak Hessian and Newton's MINRES act through
    # apply_A: the run holds the sine blocks and O(n) vectors
    import tracemalloc

    _refuse_dense_a_and_s(monkeypatch)
    cfgfile = write_cfg(
        tmp_path / "c.ini", "[domain]\nn_elem = 2048\n[operator]\nalpha = -1\n[nonlinearity]\nlambda = -9\n"
    )
    tracemalloc.start()
    try:
        assert main(["mountain-pass", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert report["converged"]
    krylov = report["krylov_iterations"]
    assert krylov["fallbacks"] == 0 and krylov["steps"] and all(0 < n <= 200 for n in krylov["steps"])
    blocks = 8 * (1024**2 + 1023**2)  # ndof 2047: blocks of 1024 and 1023 rows
    assert peak <= blocks + 8e6, peak / 1e6


def test_constants_reads_no_dense_a_or_s(tmp_path, monkeypatch):
    # the interpolation sweep reads S's rows as Toeplitz windows of its column
    _refuse_dense_a_and_s(monkeypatch)
    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 256\n[operator]\nalpha = -1\n")
    assert main(["constants", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0


def test_solve_linear_reads_no_dense_a_or_s_and_certifies_at_round_off(tmp_path, monkeypatch):
    # the resolvent refinement applies A by the same apply_A as the gradient
    # its certificate reads, so the two agree to round-off
    _refuse_dense_a_and_s(monkeypatch)
    cfgfile = write_cfg(
        tmp_path / "c.ini",
        "[domain]\nn_elem = 256\n[operator]\nalpha = -1\n[nonlinearity]\nkind = affine_linear\nlambda = 10\na_const = 1\n",
    )
    assert main(["solve-linear", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert report["converged"] and report["status"] == "converged"
    assert report["grad_norm"] <= 1e-14, report["grad_norm"]


def test_critical_point_reports_carry_their_krylov_work(tmp_path):
    runs = {
        "mountain-pass": "[domain]\nn_elem = 64\n[operator]\nalpha = 0\n[nonlinearity]\nlambda = 5\n",
        "solve-linear": "[domain]\nn_elem = 64\n[nonlinearity]\nkind = affine_linear\nlambda = 10\na_const = 1\n",
    }
    for pipeline, text in runs.items():
        cfgfile = write_cfg(tmp_path / f"{pipeline}.ini", text)
        outs = [tmp_path / f"{pipeline}-{i}" for i in range(2)]
        for out in outs:
            assert main([pipeline, "--config", str(cfgfile), "--out", str(out)]) == 0
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        krylov = json.loads((outs[0] / "report.json").read_text())["report"]["krylov_iterations"]
        if pipeline == "solve-linear":  # the resolvent solve takes no Newton step
            assert krylov == {"steps": [], "fallbacks": 0}
        else:
            assert krylov["fallbacks"] == 0 and krylov["steps"] and min(krylov["steps"]) > 0


def test_audit_checks_the_hessian_operator_and_catches_a_wrong_band_sign(tmp_path, monkeypatch):
    from mixlap import functional

    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 8\n[operator]\nalpha = -5\n[solver]\nm = 7\nbracket_lo = -10\n")

    def hessian_row(out):
        main(["full-audit", "--config", str(cfgfile), "--out", str(out)])
        checks = json.loads((out / "audit.json").read_text())["checks"]
        return next(c for c in checks if c["name"] == "hessian_operator")

    good = hessian_row(tmp_path / "good")
    assert good["passed"] and good["metric"] <= 1e-12
    # negate the band where HessianOperator looks it up, not the product K and M share
    real_band = functional.tridiagonal_product
    monkeypatch.setattr(functional, "tridiagonal_product", lambda d, o, X: -real_band(d, o, X))
    assert not hessian_row(tmp_path / "wrong_sign")["passed"]
