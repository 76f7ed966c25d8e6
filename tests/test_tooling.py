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
    # its diagonals alone: no block, no scaled block or dense copy of one and
    # no np.linalg call on either, so that no second eigensolver of the
    # blocks grows back
    import mixlap

    found = []
    for path in sorted(Path(mixlap.__file__).parent.glob("*.py")):
        if path.stem == "assembly":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                on_sine = getattr(node.value, "attr", getattr(node.value, "id", None)) == "sine"
                if node.attr in ("blocks", "scaled", "reduced") or (on_sine and node.attr not in SINE_READS):
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


def _dense_system_reads(source: str) -> list[tuple[str, int, str]]:
    """(function, line, attribute) of every ``.A`` or ``.S`` read on a system,
    a parameter named ``sys`` or annotated ``OperatorSystem``."""
    found = []

    def visit(node, func, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                systems = {
                    a.arg for a in args
                    if a.arg == "sys" or (a.annotation is not None and "OperatorSystem" in ast.unparse(a.annotation))
                }
                visit(child, getattr(child, "name", func), names | systems)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in ("A", "S") and isinstance(child.value, ast.Name)
                    and child.value.id in names):
                found.append((func, child.lineno, child.attr))
            visit(child, func, names)

    visit(ast.parse(source), "<module>", set())
    return found


def test_the_critical_point_path_reads_no_dense_a_or_s():
    # J, its gradient, the peak Hessian, Newton and the resolvent refinement
    # act through apply_A
    import mixlap

    root = Path(mixlap.__file__).parent
    for stem in ("functional", "solvers"):
        assert _dense_system_reads((root / f"{stem}.py").read_text()) == [], stem
    # the guard sees a dense product restored in J_gradients
    source = (root / "functional.py").read_text()
    restored = source.replace("return _apply_A_rows(sys, U) - _scatter_quad", "return _apply_rows(sys.A, U) - _scatter_quad")
    assert restored != source
    assert [(func, attr) for func, _, attr in _dense_system_reads(restored)] == [("J_gradients", "A")]
    # and sees the dense refinement restored in the resolvent solve
    source = (root / "solvers.py").read_text()
    restored = source.replace("rhs - (sys.apply_A(x) - lam", "rhs - (sys.A @ x - lam")
    assert restored != source
    assert [(func, attr) for func, _, attr in _dense_system_reads(restored)] == [("solve_resolvent", "A")]


def _private_imports(source: str, module: str) -> list[str]:
    """The underscore names that ``source`` imports from ``module`` (relative or absolute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value).endswith(module):
            found.append(node.attr)
    return found


def test_solvers_import_no_private_name_of_assembly():
    # the Riesz map and the tau preconditioner are OperatorSystem methods;
    # the sine-diagonal solve behind them stays inside mixlap.assembly
    import mixlap

    source = (Path(mixlap.__file__).parent / "solvers.py").read_text()
    assert _private_imports(source, "assembly") == []
    # the check sees the import this module used to make
    restored = source.replace("from .assembly import OperatorSystem\n", "from .assembly import OperatorSystem, _dst\n")
    assert restored != source
    assert _private_imports(restored, "assembly") == ["_dst"]
