"""Span tracer that wraps ``mixlap`` functions from outside the package.

``Tracer.install`` wraps every function in each module's ``__all__`` (the
public module-level functions where a module has no ``__all__``), every
module-level function that another ``mixlap`` module imports by name, and the
constructor of each class in ``CONSTRUCTED``. Each wrapper is bound in every
``mixlap`` module namespace that holds the original object, because ``cli``,
``solvers`` and ``analysis`` import functions by name and a wrapper on the
defining module alone would miss their calls.

Every call records a span ``(id, parent id, invocation, name, start, end)``
in memory. A span's self time is its duration minus the time its child spans
cover; calls, total and self time are also accumulated per name as spans
close.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Classes whose construction is counted: each FeField construction copies its
# coefficient vector.
CONSTRUCTED = ("mesh.FeField",)


def _package_modules(package) -> list:
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


def _imported_by_name(package, modules) -> set[tuple[str, str]]:
    """(module, name) pairs that some package module imports with ``from .module import name``."""
    pairs = set()
    for mod in modules:
        tree = ast.parse(Path(mod.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                pairs.update((f"{package.__name__}.{node.module}", a.name) for a in node.names)
    return pairs


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, hooks: dict | None = None):
        # hooks: span name -> fn(args, kwargs, result) returning counter increments
        self.hooks = hooks or {}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.invocation = 0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        span_id = len(self.spans) + len(self._stack)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.spans.append((span_id, parent, self.invocation, name, start, end))
        hook = self.hooks.get(name)
        if hook is not None:
            self.counters.update(hook(args, kwargs, result))
        return result

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> list[str]:
        """Wrap the package's functions; returns the span names installed."""
        modules = _package_modules(package)
        targets: dict[int, tuple[object, str]] = {}
        for mod in modules:
            exported = getattr(mod, "__all__", None)
            if exported is None:
                exported = [n for n in vars(mod) if not n.startswith("_")]
            for attr in exported:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, f"{_short(mod.__name__)}.{obj.__name__}")
        for mod_name, attr in _imported_by_name(package, modules):
            obj = getattr(importlib.import_module(mod_name), attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod_name:
                targets[id(obj)] = (obj, f"{_short(mod_name)}.{obj.__name__}")

        for obj, name in targets.values():
            wrapper = self._wrapper(name, obj)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        names = sorted(name for _, name in targets.values())
        for qualified in CONSTRUCTED:
            mod_name, cls_name = qualified.split(".")
            cls = getattr(importlib.import_module(f"{package.__name__}.{mod_name}"), cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrapper(qualified, cls.__init__)
            names.append(qualified)
        return names

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        layers: defaultdict = defaultdict(float)
        for name, value in self.self_s.items():
            layers[name.split(".", 1)[0]] += value
        return dict(layers)

    def self_by_invocation(self) -> dict[int, float]:
        """Sum of span self times per invocation, recomputed from the spans alone."""
        child: defaultdict = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for span_id, _, invocation, _, start, end in self.spans:
            totals[invocation] += (end - start) - child[span_id]
        return dict(totals)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("span,parent,invocation,name,start,end\n")
            fh.writelines(
                f"{s},{p},{i},{n},{t0!r},{t1!r}\n" for s, p, i, n, t0, t1 in self.spans
            )
