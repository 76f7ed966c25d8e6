"""Correctness gate for one CLI invocation.

An invocation fails when its exit code is not 0, when any ``certified`` or
``converged`` flag in its JSON reports is false, or when a headline value
differs from the recorded reference by more than that value's certificate
tolerance. Headline values are the ``spectrum.csv`` eigenvalues,
``alpha_star``, ``J_value``, ``C_embed`` and ``C_interp``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

FLAG_KEYS = ("certified", "converged")
# The relative tolerance of the full-audit interpolation check, also used for
# the embedding constant (both are maxima of a Rayleigh-type quotient).
CONSTANT_RTOL = 1e-8
# The spectrum pipeline certifies residuals at 1e-8 * max(1, max |lambda|).
EIGEN_RTOL = 1e-8


def _false_flags(node, path="") -> list[str]:
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}" if path else key
            if key in FLAG_KEYS and value is not True:
                found.append(where)
            found.extend(_false_flags(value, where))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found.extend(_false_flags(value, f"{path}[{i}]"))
    return found


def _reports(out_dir: Path) -> dict[str, dict]:
    return {
        str(p.relative_to(out_dir)): json.loads(p.read_text())
        for p in sorted(out_dir.rglob("*.json"))
    }


def headline_values(pipeline: str, out_dir: Path) -> dict[str, list[float]]:
    """The values an invocation must reproduce, keyed by name."""
    if pipeline == "spectrum":
        values = {}
        for path in sorted(out_dir.rglob("spectrum.csv")):
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            values[f"lambda:{path.parent.relative_to(out_dir).as_posix()}"] = [
                float(row["lambda"]) for row in rows
            ]
        return values
    if pipeline == "threshold":
        report = json.loads((out_dir / "threshold.json").read_text())
        return {"alpha_star": [report["alpha_star"]]}
    if pipeline == "constants":
        report = json.loads((out_dir / "constants.json").read_text())
        return {"C_embed": [report["C_embed"]], "C_interp": [report["C_interp"]]}
    if pipeline in ("mountain-pass", "linking", "solve-linear"):
        report = json.loads((out_dir / "report.json").read_text())
        return {"J_value": [report["report"]["J_value"]]}
    return {}


def _tolerance(name: str, reference: list[float], config: dict) -> float:
    if name.startswith("lambda:"):
        return EIGEN_RTOL * max(1.0, max(abs(v) for v in reference))
    if name == "alpha_star":
        return config["solver"]["threshold_tol"]
    if name == "J_value":
        return config["solver"]["tol"] * max(1.0, abs(reference[0]))
    return CONSTANT_RTOL * abs(reference[0])


def certificate_failures(exit_code: int, out_dir: Path) -> list[str]:
    """Reasons from the exit code and the reports' certificate flags."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        reports = _reports(out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    if not reports:
        return ["no JSON report written"]
    return [f"{name}: {flag} is not true" for name, report in reports.items() for flag in _false_flags(report)]


def reference_failures(pipeline: str, out_dir: Path, reference: dict) -> list[str]:
    """Reasons from headline values that left their tolerance around the reference."""
    try:
        values = headline_values(pipeline, out_dir)
        config = next(iter(_reports(out_dir).values()))["config"]
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if set(values) != set(reference):
        return [f"headline values {sorted(values)} differ from reference {sorted(reference)}"]
    reasons = []
    for name, ref in reference.items():
        got = values[name]
        if len(got) != len(ref):
            reasons.append(f"{name}: {len(got)} values, reference has {len(ref)}")
            continue
        tol = _tolerance(name, ref, config)
        worst = max(abs(g - r) for g, r in zip(got, ref))
        if not worst <= tol:
            reasons.append(f"{name}: deviates by {worst:.3e} from reference, tolerance {tol:.3e}")
    return reasons


def check_invocation(pipeline: str, exit_code: int, out_dir: Path, reference: dict) -> list[str]:
    """Reasons the invocation failed the gate; an empty list means it passed."""
    return certificate_failures(exit_code, out_dir) or reference_failures(pipeline, out_dir, reference)
