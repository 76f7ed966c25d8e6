"""mixlap benchmark: CLI pipelines end to end, and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectral-large --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --record-reference

``--trace 0`` runs passes through the workload's invocations until
``--seconds`` of passes have been measured. Each invocation is a fresh
``python -m mixlap.cli <pipeline>`` subprocess, started after the previous
one exits (a closed loop with one client). It reports, as medians over the
passes, the wall time of a pass (``wall_s``, the sum over invocations of each
one's median wall time), the largest max-RSS of any one invocation
(``peak_rss_mb``, read per child with ``os.wait4``) and the time a fresh
interpreter takes to import ``mixlap.cli`` and exit (``setup_s``, sampled
once before every invocation).

``--trace 1`` runs the invocations through ``mixlap.cli.main`` in one fresh
interpreter with every ``mixlap`` function wrapped by ``tracer.py``, then
again in another fresh interpreter without wrappers, and reports per-layer
counts and self times, the trace overhead and the span attribution check.

Every invocation's outputs go through the correctness gate in ``gate.py``
outside the timed region; ``failed`` counts the invocations that failed it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` runs every workload once at seed 0 and writes the
headline values the gate compares against to ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
from workloads import WORKLOADS, Invocation

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"

# One BLAS thread: the n=2048 spectrum call is steadier with one thread than
# with the default of one per core.
BLAS_THREADS = 1
# Set-up is sampled before every invocation, topped up to this many samples.
MIN_SETUP_SAMPLES = 6
# Children still running this long after the start are killed, so a run ends
# within the 180 s it is allowed even when an invocation hangs.
RUN_DEADLINE_S = 170.0
# Span self times of one invocation must sum to its traced wall time within
# this share of that wall time.
ATTRIBUTION_TOL = 0.01

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run, by span name (module.function).
CALLS = (
    "assembly.assemble_gagliardo",
    "assembly.build_system",
    "spectrum.solve_pencil",
    "spectrum.garding_constant",
    "functional.J_eval",
    "functional.J_gradient",
    "functional.weighted_mass",
    "solvers.verify_geometry",
    "solvers.newton_refine",
    "analysis.interpolation_constant",
    "analysis._interp_ratio",
    "oracles.gagliardo_entry_oracle",
    "oracles.pencil_eigenvalues_oracle",
    "mesh.FeField",
)
SELF_TIMES = (
    "assembly.assemble_gagliardo",
    "spectrum.solve_pencil",
    "spectrum.alpha_threshold",
    "spectrum.garding_constant",
    "spectrum.verify_characterization",
    "functional.J_eval",
    "functional.J_gradient",
    "solvers.verify_geometry",
    "solvers.linking_search",
    "solvers.mountain_pass",
    "solvers.newton_refine",
    "solvers.solve_resolvent",
    "analysis.interpolation_constant",
    "analysis.embedding_constant",
    "analysis.young_split_audit",
    "oracles.gagliardo_entry_oracle",
    "oracles.pencil_eigenvalues_oracle",
    "cli.run",
    "config.parse_config",
)
LAYERS = ("mesh", "assembly", "spectrum", "functional", "solvers", "analysis", "oracles", "config", "cli")
# Pipelines whose untraced in-process wall time is reported per layer.
PIPELINES = ("spectrum", "threshold", "mountain-pass", "linking", "solve-linear", "constants", "full-audit")
SOLVER_PIPELINES = ("mountain-pass", "linking", "solve-linear")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in SELF_TIMES:
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "assembly.S_bytes": "bytes",
            "spectrum.bisection_iters": "count",
            "functional.J_eval.us_per_call": "us",
            "solvers.iterations": "count",
            "solvers.evals_per_iteration": "evals/iter",
        }
    )
    for pipeline in PIPELINES:
        units[f"cli.{pipeline.replace('-', '_')}.wall_s"] = "s"
    units.update(
        {
            "cli.output_bytes": "bytes",
            "trace_overhead": "ratio",
            "trace.attribution_error": "ratio",
            "trace.spans": "count",
        }
    )
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    invocation: Invocation
    exit_code: int
    wall_s: float
    rss_mb: float
    out_dir: Path


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


class Children:
    """Runs the benchmark's child processes one at a time with BLAS threads
    pinned and ``src/`` on the path, killing any child still running at the
    run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def run(self, cmd: list[str], log_path: Path) -> tuple[int, float, float]:
        """Run one child to completion; returns exit code, wall seconds and its own peak RSS in MB."""
        with log_path.open("wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _log_tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def write_configs(invocations, seed: int, run_dir: Path) -> list[Path]:
    paths = []
    for inv in invocations:
        path = run_dir / f"{inv.label}.ini"
        inv.write_config(path, seed)
        paths.append(path)
    return paths


def time_import(children: Children, log: Path) -> float:
    """Wall time of a fresh interpreter that imports mixlap.cli and exits."""
    code, wall, _ = children.run([sys.executable, "-c", "import mixlap.cli"], log)
    if code != 0:
        raise BenchError(f"cannot import mixlap.cli:\n{_log_tail(log)}")
    return wall


def run_pass(invocations, configs, pass_dir: Path, children: Children, setup: list[float]) -> list[Call]:
    """One pass through the invocations; a set-up sample is appended to
    ``setup`` before each one, so set-up is sampled across the whole run."""
    pass_dir.mkdir()
    calls = []
    for inv, cfg in zip(invocations, configs):
        setup.append(time_import(children, pass_dir / "setup.log"))
        out = pass_dir / inv.label
        cmd = [sys.executable, "-m", "mixlap.cli", *inv.argv(cfg, out)]
        code, wall, rss = children.run(cmd, pass_dir / f"{inv.label}.log")
        calls.append(Call(inv, code, wall, rss, out))
    return calls


def gate_calls(calls: list[Call], reference: dict) -> list[tuple[str, list[str]]]:
    failures = []
    for call in calls:
        reasons = gate.check_invocation(
            call.invocation.pipeline, call.exit_code, call.out_dir, reference.get(call.invocation.label, {})
        )
        if reasons:
            failures.append((call.invocation.label, reasons))
    return failures


# ---------------------------------------------------------------------------
# untraced end-to-end run
# ---------------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path, children: Children, reference: dict) -> dict:
    invocations = WORKLOADS[workload]
    configs = write_configs(invocations, seed, run_dir)
    time_import(children, run_dir / "setup.log")  # warm-up: writes bytecode caches, untimed
    setup: list[float] = []
    walls: list[list[float]] = [[] for _ in invocations]
    rss: list[list[float]] = [[] for _ in invocations]
    failures, measured, passes = [], 0.0, 0
    while not passes or (measured < seconds and not children.expired()):
        pass_dir = run_dir / f"pass{passes}"
        calls = run_pass(invocations, configs, pass_dir, children, setup)
        failures.extend(gate_calls(calls, reference))
        shutil.rmtree(pass_dir)
        wall = sum(c.wall_s for c in calls)
        measured += wall
        passes += 1
        for i, c in enumerate(calls):
            walls[i].append(c.wall_s)
            rss[i].append(c.rss_mb)
        print(
            f"pass {passes}: wall {wall:.3f} s; "
            + "; ".join(f"{c.invocation.label} {c.wall_s:.3f} s {c.rss_mb:.0f} MB exit {c.exit_code}" for c in calls),
            flush=True,
        )
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(time_import(children, run_dir / "setup.log"))
    # A pass is summarised invocation by invocation, so that a burst of load
    # from outside that slows one call in one pass does not move the median.
    median_walls = [statistics.median(w) for w in walls]
    metrics = {
        "wall_s": sum(median_walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(r) for r in rss),
    }
    print(f"setup samples (s): {', '.join(f'{t:.4f}' for t in setup)}")
    for pipeline in dict.fromkeys(inv.pipeline for inv in invocations):
        total = sum(w for w, inv in zip(median_walls, invocations) if inv.pipeline == pipeline)
        print(f"info: {pipeline.replace('-', '_')}_s = {total:.4f} s (median of {passes} passes)")
    return {"metrics": metrics, "units": END_TO_END, "attempted": passes * len(invocations), "failures": failures}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _inprocess(mode: str, invocations, configs, run_dir: Path, children: Children) -> tuple[dict, list[Call]]:
    mode_dir = run_dir / mode
    mode_dir.mkdir()
    WORK_DIR.mkdir(exist_ok=True)
    plan = {
        "trace": mode == "traced",
        "spans": str(WORK_DIR / "spans.csv"),
        "invocations": [
            {"label": inv.label, "argv": inv.argv(cfg, mode_dir / inv.label)}
            for inv, cfg in zip(invocations, configs)
        ],
    }
    plan_path, result_path, log = run_dir / f"{mode}.plan.json", run_dir / f"{mode}.result.json", run_dir / f"{mode}.log"
    plan_path.write_text(json.dumps(plan))
    code, _, rss = children.run([sys.executable, str(BENCH_DIR / "inprocess.py"), str(plan_path), str(result_path)], log)
    if code != 0:
        raise BenchError(f"{mode} in-process run exited {code}:\n{_log_tail(log)}")
    result = json.loads(result_path.read_text())
    calls = [
        Call(inv, exit_code, wall, rss, mode_dir / inv.label)
        for inv, exit_code, wall in zip(invocations, result["exit_codes"], result["walls"])
    ]
    return result, calls


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def traced_run(workload: str, seed: int, run_dir: Path, children: Children, reference: dict) -> dict:
    invocations = WORKLOADS[workload]
    configs = write_configs(invocations, seed, run_dir)
    traced, traced_calls = _inprocess("traced", invocations, configs, run_dir, children)
    plain, plain_calls = _inprocess("plain", invocations, configs, run_dir, children)
    failures = gate_calls(traced_calls, reference) + gate_calls(plain_calls, reference)

    calls, self_s, layer_self = traced["calls"], traced["self_s"], traced["layer_self_s"]
    missing = sorted(set(CALLS + SELF_TIMES) - set(traced["installed"]))
    if missing:
        print(f"warning: no traced function named {', '.join(missing)}; their metrics read 0")
    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    j_calls = calls.get("functional.J_eval", 0)
    iterations = 0
    for call in traced_calls:
        report = call.out_dir / "report.json"
        if call.invocation.pipeline in SOLVER_PIPELINES and report.exists():
            iterations += json.loads(report.read_text())["report"]["iterations"]
    m["assembly.S_bytes"] = traced["counters"].get("S_bytes", 0)
    m["spectrum.bisection_iters"] = traced["counters"].get("bisection_iters", 0)
    m["functional.J_eval.us_per_call"] = (
        1e6 * traced["total_s"].get("functional.J_eval", 0.0) / j_calls if j_calls else 0.0
    )
    m["solvers.iterations"] = iterations
    m["solvers.evals_per_iteration"] = (
        (j_calls + calls.get("functional.J_gradient", 0)) / iterations if iterations else 0.0
    )
    for pipeline in PIPELINES:
        m[f"cli.{pipeline.replace('-', '_')}.wall_s"] = sum(
            c.wall_s for c in plain_calls if c.invocation.pipeline == pipeline
        )
    m["cli.output_bytes"] = sum(_tree_bytes(c.out_dir) for c in traced_calls)
    m["trace_overhead"] = sum(traced["walls"]) / sum(plain["walls"]) - 1.0
    errors = [abs(s - w) / w for s, w in zip(traced["self_sum_by_invocation"], traced["walls"])]
    m["trace.attribution_error"] = max(errors)
    m["trace.spans"] = traced["spans"]

    for i, call in enumerate(traced_calls):
        counts = traced["calls_by_invocation"][i]
        shown = ", ".join(f"{n}={counts[n]}" for n in CALLS if counts.get(n))
        print(
            f"invocation {call.invocation.label}: traced {call.wall_s:.3f} s, "
            f"span self sum {traced['self_sum_by_invocation'][i]:.3f} s, "
            f"untraced {plain_calls[i].wall_s:.3f} s; calls: {shown}"
        )
    attribution_ok = all(e <= ATTRIBUTION_TOL for e in errors)
    print(
        f"attribution check: worst |sum(self) - wall| / wall = {max(errors):.2e} "
        f"(tolerance {ATTRIBUTION_TOL}) -> {'ok' if attribution_ok else 'FAILED'}"
    )
    print(f"trace_overhead = {m['trace_overhead']:.4f}; spans file: {WORK_DIR / 'spans.csv'}")
    if not attribution_ok:
        failures.append(("attribution", ["span self times do not sum to the traced wall time"]))
    return {
        "metrics": m,
        "units": per_layer_units(),
        "attempted": len(traced_calls) + len(plain_calls),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# environment, reference, entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def record_reference(run_dir: Path, children: Children) -> None:
    reference = {}
    for workload, invocations in WORKLOADS.items():
        configs = write_configs(invocations, 0, run_dir)
        calls = run_pass(invocations, configs, run_dir / workload, children, [])
        reference[workload] = {}
        for call in calls:
            reasons = gate.certificate_failures(call.exit_code, call.out_dir)
            if reasons:
                raise BenchError(f"{call.invocation.label} is not certified: {reasons}")
            reference[workload][call.invocation.label] = gate.headline_values(call.invocation.pipeline, call.out_dir)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "mixlap" / "cli.py").is_file():
        print(f"error: no mixlap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    children = Children(perf_counter() + (3600.0 if args.record_reference else RUN_DEADLINE_S))
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.record_reference:
            record_reference(run_dir, children)
            print(f"wrote {REFERENCE}")
            return 0
        reference = json.loads(REFERENCE.read_text())[args.workload]
        print("environment: " + json.dumps(environment(), sort_keys=True), flush=True)
        if args.trace:
            result = traced_run(args.workload, args.seed, run_dir, children, reference)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, run_dir, children, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed_labels = {label for label, _ in result["failures"]}
    for label, reasons in result["failures"]:
        print(f"FAILED {label}: {'; '.join(reasons)}")
    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"info: failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} invocations; {sorted(failed_labels)})")
    metrics = {}
    for name, unit in result["units"].items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric: {name} = {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
