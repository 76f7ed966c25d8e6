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


SINE_READS = {"lowest", "k", "m"}  # what production code outside mixlap.assembly reads of the sine basis


def test_only_assembly_solves_the_sine_blocks():
    # outside mixlap.assembly the sine basis is reached through ``lowest`` and
    # its diagonals alone: no block, no reduced block and no np.linalg call
    # on either, so that no second eigensolver of the blocks grows back
    import mixlap

    found = []
    for path in sorted(Path(mixlap.__file__).parent.glob("*.py")):
        if path.stem == "assembly":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                on_sine = getattr(node.value, "attr", getattr(node.value, "id", None)) == "sine"
                if node.attr in ("blocks", "reduced") or (on_sine and node.attr not in SINE_READS):
                    found.append((path.stem, node.lineno, node.attr))
            elif isinstance(node, ast.Name) and node.id == "SineBasis":
                found.append((path.stem, node.lineno, node.id))
            elif isinstance(node, ast.Call) and "linalg" in ast.unparse(node.func):
                if any(isinstance(n, (ast.Name, ast.Attribute)) and "sine" in ast.unparse(n) for n in ast.walk(node)):
                    found.append((path.stem, node.lineno, ast.unparse(node.func)))
    assert found == []


# the callers of assembly._toeplitz, the one builder of a dense n x n Toeplitz matrix
TOEPLITZ_CALLERS = {"assembly.assemble_gagliardo", "assembly.OperatorSystem.A", "assembly.OperatorSystem.K",
                    "assembly.OperatorSystem.S", "assembly.OperatorSystem.M"}


def test_only_the_dense_forms_build_a_dense_toeplitz_matrix():
    # no solve path builds an n x n S: the sine blocks, the block route and
    # the embedding constant read S's rows as windows of its column
    import mixlap

    def owners(node, name):  # the qualified owner of each _toeplitz call under node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from owners(child, f"{name}.{child.name}")
            elif isinstance(child, ast.Assign) and isinstance(node, ast.ClassDef):
                yield from owners(child, f"{name}.{ast.unparse(child.targets[0])}")
            elif isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "_toeplitz":
                yield name
                yield from owners(child, name)
            else:
                yield from owners(child, name)

    found = set()
    for path in sorted(Path(mixlap.__file__).parent.glob("*.py")):
        found |= set(owners(ast.parse(path.read_text()), path.stem))
    assert "assembly.assemble_gagliardo" in found
    assert found <= TOEPLITZ_CALLERS, sorted(found - TOEPLITZ_CALLERS)
