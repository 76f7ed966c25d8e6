"""Run configuration: INI-style file with sections, validated into a dataclass.

Schema (all keys optional unless noted; unknown sections or keys are
rejected; a ``;`` after whitespace starts an inline comment):

    [domain]        a, b, n_elem (required as a group for non-default runs)
    [operator]      s, alpha            alpha: scalar or grid "lo:hi:count"
    [nonlinearity]  kind (affine_linear | power_perturbed), lambda, p, a_const
    [solver]        tol, max_iter, seed, m, k, bracket_lo, bracket_hi,
                    threshold_tol
    [output]        directory
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["RunConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    pass


_SCHEMA: dict[str, dict[str, type]] = {
    "domain": {"a": float, "b": float, "n_elem": int},
    "operator": {"s": float, "alpha": str},
    "nonlinearity": {"kind": str, "lambda": float, "p": float, "a_const": float},
    "solver": {
        "tol": float,
        "max_iter": int,
        "seed": int,
        "m": int,
        "k": int,
        "bracket_lo": float,
        "bracket_hi": float,
        "threshold_tol": float,
    },
    "output": {"directory": str},
}
_FIELDS = {"lambda": "lam"}  # config keys whose RunConfig field has another name


@dataclass
class RunConfig:
    a: float = 0.0
    b: float = 1.0
    n_elem: int = 64
    s: float = 0.5
    alpha: tuple[float, ...] = (-5.0,)  # one entry per sub-run
    kind: str = "power_perturbed"
    lam: float = 1.0
    p: float = 4.0
    a_const: float = 0.0
    tol: float = 1e-8
    max_iter: int = 600
    seed: int = 0
    m: int = 12
    k: int = 1
    bracket_lo: float = -20.0
    bracket_hi: float = 0.0
    threshold_tol: float = 1e-6
    directory: str = "mixlap-out"

    def validate(self) -> None:
        for section, keys in _SCHEMA.items():
            for key, kind in keys.items():
                value = getattr(self, _FIELDS.get(key, key))
                if kind is float and not math.isfinite(value):
                    raise ConfigError(f"{section}: {key} must be finite, got {value}")
        if not all(map(math.isfinite, self.alpha)):
            raise ConfigError(f"operator: alpha must be finite, got {list(self.alpha)}")
        if not self.b > self.a:
            raise ConfigError(f"domain: need b > a, got a={self.a}, b={self.b}")
        if self.n_elem < 2:
            raise ConfigError(f"domain: n_elem must be >= 2, got {self.n_elem}")
        if not (0.0 < self.s < 1.0):
            raise ConfigError(f"operator: s must satisfy 0 < s < 1, got s={self.s}")
        if not self.alpha:
            raise ConfigError("operator: alpha grid is empty")
        if self.kind not in ("affine_linear", "power_perturbed"):
            raise ConfigError(
                f"nonlinearity: kind must be affine_linear or power_perturbed, got {self.kind!r}"
            )
        if self.kind == "power_perturbed" and not self.p > 2.0:
            raise ConfigError(f"nonlinearity: p must satisfy p > 2, got p={self.p}")
        if self.tol <= 0:
            raise ConfigError(f"solver: tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"solver: max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ConfigError(f"solver: seed must be >= 0, got {self.seed}")
        if self.m < 1:
            raise ConfigError(f"solver: m must be >= 1, got {self.m}")
        if self.m > self.n_elem - 1:
            raise ConfigError(
                f"solver: m={self.m} exceeds the {self.n_elem - 1} degrees of freedom"
            )
        if self.k < 0:
            raise ConfigError(f"solver: k must be >= 0, got {self.k}")
        if not self.bracket_lo < self.bracket_hi:
            raise ConfigError(
                f"solver: need bracket_lo < bracket_hi, got {self.bracket_lo} and {self.bracket_hi}"
            )
        if self.threshold_tol <= 0:
            raise ConfigError(f"solver: threshold_tol must be positive, got {self.threshold_tol}")

    def to_dict(self) -> dict:
        """The config as embedded in reports.  The output directory is left
        out, so a report's bytes do not depend on where it is written."""
        out = {
            section: {key: getattr(self, _FIELDS.get(key, key)) for key in keys}
            for section, keys in _SCHEMA.items()
            if section != "output"
        }
        out["operator"]["alpha"] = list(self.alpha)
        return out


def _parse_alpha(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"operator: alpha grid must be 'lo:hi:count', got {raw!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"operator: cannot parse alpha grid {raw!r}") from exc
        if count < 1:
            raise ConfigError(f"operator: alpha grid count must be >= 1, got {count}")
        return tuple(float(x) for x in np.linspace(lo, hi, count))
    try:
        return (float(raw),)
    except ValueError as exc:
        raise ConfigError(f"operator: cannot parse alpha value {raw!r}") from exc


def parse_config(path: str | Path) -> RunConfig:
    """Read, validate and default-fill a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if section == "operator" and key == "alpha":
                cfg.alpha = _parse_alpha(raw)
                continue
            caster = _SCHEMA[section][key]
            try:
                value = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"key {key!r} in [{section}]: cannot convert {raw!r} to {caster.__name__}"
                ) from exc
            setattr(cfg, _FIELDS.get(key, key), value)
    cfg.validate()
    return cfg
