"""The benchmark's workloads: fixed sequences of ``mixlap`` CLI invocations.

Sizes and parameters are fixed. The workload seed only sets ``[solver] seed``
in every generated INI file; it drives the linking restarts, the constants
multistarts and the audit's random fields. The program receives nothing but
these INI files and the ``--config``/``--out`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    label: str
    pipeline: str
    config: dict

    def write_config(self, path: Path, seed: int) -> None:
        sections = {name: dict(keys) for name, keys in self.config.items()}
        sections.setdefault("solver", {})["seed"] = seed
        lines = []
        for name, keys in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
        path.write_text("\n".join(lines) + "\n")

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.pipeline, "--config", str(config_path), "--out", str(out_dir)]


# Each workload loads a different group of layers (see BENCHMARK.json for the
# one-line reasons):
#   spectral-large  - assembly and spectrum: one large pencil solve, the
#                     alpha* bisection, and S assembled again per alpha.
#   critical-points - functional and solvers: J/grad J evaluations, the
#                     linking geometry probe, Newton; many small full
#                     eigendecompositions through the system cache.
#   audit-desk      - oracles and analysis: the independent cross-checks and
#                     the interpolation-constant multistart, at desk size.
WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "spectral-large": (
        Invocation("spectrum-2048", "spectrum",
                   {"domain": {"n_elem": 2048}, "operator": {"alpha": -1.0}}),
        Invocation("threshold-1024", "threshold",
                   {"domain": {"n_elem": 1024}, "solver": {"bracket_lo": -10.0, "bracket_hi": 0.0}}),
        Invocation("spectrum-grid-512", "spectrum",
                   {"domain": {"n_elem": 512}, "operator": {"alpha": "-2:0:5"}}),
    ),
    "critical-points": (
        Invocation("mountain-pass-512", "mountain-pass",
                   {"domain": {"n_elem": 512}, "operator": {"alpha": 0.0},
                    "nonlinearity": {"lambda": 5.0}}),
        Invocation("mountain-pass-indefinite-512", "mountain-pass",
                   {"domain": {"n_elem": 512}, "operator": {"alpha": -1.0},
                    "nonlinearity": {"lambda": -9.0}}),
        Invocation("linking-64", "linking",
                   {"domain": {"n_elem": 64}, "operator": {"alpha": 0.0},
                    "nonlinearity": {"lambda": 25.0}, "solver": {"k": 1}}),
        Invocation("solve-linear-256", "solve-linear",
                   {"domain": {"n_elem": 256}, "operator": {"alpha": -1.0},
                    "nonlinearity": {"kind": "affine_linear", "lambda": 10.0, "a_const": 1.0}}),
    ),
    "audit-desk": (
        Invocation("full-audit-8", "full-audit",
                   {"domain": {"n_elem": 8}, "operator": {"alpha": -5.0},
                    "solver": {"m": 7, "bracket_lo": -10.0}}),
        Invocation("constants-128", "constants",
                   {"domain": {"n_elem": 128}, "operator": {"alpha": -1.0}}),
    ),
}
