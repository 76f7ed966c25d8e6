"""The benchmark harness names package functions by string; check that they exist."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
# perfbench/run.py still times the mountain pass by its old name; it now runs
# inside solvers.linking_search
KNOWN_STALE = {"solvers.mountain_pass"}


def _tuple_constants(path: Path, names: tuple[str, ...]) -> dict[str, tuple]:
    """The module-level tuple literals ``names`` of the file, read without importing it."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    return found


def _resolves(span: str) -> bool:
    module, _, attr = span.partition(".")
    try:
        return callable(getattr(importlib.import_module(f"mixlap.{module}"), attr))
    except (ImportError, AttributeError):
        return False


def test_every_traced_name_is_a_callable_of_the_package():
    tables = _tuple_constants(RUN, ("CALLS", "SELF_TIMES"))
    assert set(tables) == {"CALLS", "SELF_TIMES"}
    names = set(tables["CALLS"]) | set(tables["SELF_TIMES"])
    assert len(names) > 20
    unresolved = {name for name in names if not _resolves(name)}
    assert unresolved <= KNOWN_STALE, sorted(unresolved - KNOWN_STALE)
