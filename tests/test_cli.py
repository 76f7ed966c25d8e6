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
    # the saddle geometry of the affine kind needs a sphere in span(u_1..u_k)
    cfg = RunConfig(
        n_elem=16, alpha=(0.0,), kind="affine_linear", lam=5.0, a_const=1.0, m=5, k=0,
        directory=str(tmp_path / "lk"),
    )
    assert run(cfg, "linking") == 1
    err = json.loads((tmp_path / "lk" / "error.json").read_text())
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


def test_audit_with_one_eigenpair_checks_the_indefinite_side(tmp_path):
    # m = 1 computes only lambda_1 < 0; the check past the threshold solves
    # every eigenpair, so it still finds the first positive one
    cfg = RunConfig(n_elem=4, alpha=(-5.0,), m=1, directory=str(tmp_path / "au"))
    assert run(cfg, "full-audit") == 0
    checks = json.loads((tmp_path / "au" / "audit.json").read_text())["checks"]
    past = next(c for c in checks if c["name"] == "indefinite_past_threshold")
    assert past["passed"]
    # one eigenpair has no upper Rayleigh side: only lambda_1 on span(u_1) is checked
    bounds = next(c for c in checks if c["name"] == "two_sided_bounds")
    assert bounds["passed"] and bounds["note"].startswith("lower side only")


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


def test_spectral_and_critical_point_runs_load_no_scipy(tmp_path):
    # the spectrum, mountain-pass, linking and solve-linear pipelines run on
    # numpy alone; threshold, constants and full-audit import scipy
    runs = {
        "spectrum": "[operator]\nalpha = -1\n",
        "spectrum-grid": "[operator]\nalpha = -2:0:5\n",
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
        "    print(main(argv), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["0 []"] * len(runs)


def test_spectrum_at_1024_peaks_below_four_dense_matrices(tmp_path):
    # K, S and M are held by their columns: at its peak the run holds A, the
    # eigenvectors and the sine blocks
    import tracemalloc

    cfgfile = write_cfg(tmp_path / "c.ini", "[domain]\nn_elem = 1024\n[operator]\nalpha = -1\n")
    tracemalloc.start()
    try:
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 1023**2


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
