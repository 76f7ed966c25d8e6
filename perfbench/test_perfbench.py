"""Tests of the benchmark itself: the correctness gate, the tracer and the metric list.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import gate
import run
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def threshold_out(tmp_path_factory):
    """One certified threshold run at desk size, and its recorded headline values."""
    from mixlap.cli import main

    base = tmp_path_factory.mktemp("threshold")
    cfg = base / "cfg.ini"
    cfg.write_text("[domain]\nn_elem = 16\n[solver]\nbracket_lo = -10.0\nseed = 0\n")
    out = base / "good"
    assert main(["threshold", "--config", str(cfg), "--out", str(out)]) == 0
    return out, gate.headline_values("threshold", out)


def _tampered(good: Path, dest: Path, edit) -> Path:
    shutil.copytree(good, dest)
    path = dest / "threshold.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    return dest


def test_gate_passes_the_good_report_and_fails_tampered_ones(threshold_out, tmp_path):
    good, reference = threshold_out
    assert gate.check_invocation("threshold", 0, good, reference) == []

    def flip(report):
        report["certified"] = False

    def perturb(report):
        report["alpha_star"] += 10 * report["config"]["solver"]["threshold_tol"]

    flipped = _tampered(good, tmp_path / "flipped", flip)
    perturbed = _tampered(good, tmp_path / "perturbed", perturb)
    assert gate.check_invocation("threshold", 0, flipped, reference)
    assert gate.check_invocation("threshold", 0, perturbed, reference)
    assert gate.check_invocation("threshold", 1, good, reference)


def test_tracer_counts_J_eval_called_from_solvers():
    import numpy as np

    import mixlap
    import mixlap.solvers as solvers
    from mixlap import build_mesh, build_system, interpolate
    from mixlap.solvers import SolverConfig

    mesh = build_mesh(0.0, 1.0, 16)
    system = build_system(mesh, 0.5, -1.0)
    a_field = interpolate(lambda x: np.ones_like(x), mesh)
    tracer = Tracer()
    tracer.install(mixlap)
    try:
        report = solvers.solve_resolvent(system, 10.0, a_field, SolverConfig())
    finally:
        tracer.uninstall()
    assert report.converged
    assert tracer.calls["functional.J_eval"] >= 1
    names = {span_id: name for span_id, _, _, name, _, _ in tracer.spans}
    parents = {names[p] for _, p, _, name, _, _ in tracer.spans if name == "functional.J_eval"}
    assert parents == {"solvers.solve_resolvent"}
    assert not hasattr(solvers.J_eval, "__wrapped__")


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
