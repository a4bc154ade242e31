"""The ``src/repro`` modules form a layering.

1. The module import graph has no cycle. Every import counts, including
   the function-local ones that only run on some path; the only imports
   left out are those under ``if TYPE_CHECKING:``, which never run.
2. No private name crosses a package: ``from m import _name`` appears
   only inside ``m``'s own package, in ``src/``, in
   ``benchmarks/report.py`` and in ``examples/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}


class _Imports(ast.NodeVisitor):
    """``(module, name)`` pairs of every import that can run; ``name`` is
    None for ``import module``."""

    def __init__(self):
        self.found = []

    def visit_If(self, node):
        test = node.test
        if getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING":
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Import(self, node):
        self.found.extend((alias.name, None) for alias in node.names)

    def visit_ImportFrom(self, node):
        assert node.level == 0, "relative imports are not used"
        self.found.extend((node.module, alias.name) for alias in node.names)


def _imports(path: Path):
    visitor = _Imports()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.found


def _package_of(module: str) -> str:
    """A package is its own package; a plain module belongs to its parent."""
    path = MODULES.get(module)
    if path is not None and path.name == "__init__.py":
        return module
    return module.rpartition(".")[0]


def _import_graph():
    graph = {}
    for module, path in MODULES.items():
        edges = set()
        for target, name in _imports(path):
            if name is not None and f"{target}.{name}" in MODULES:
                target = f"{target}.{name}"
            while target and target not in MODULES:
                target = target.rpartition(".")[0]
            if target and target != module:
                edges.add(target)
        graph[module] = edges
    return graph


def _find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}  # module -> "open" while on the DFS stack, "done" after
    stack = []

    def visit(module):
        state[module] = "open"
        stack.append(module)
        for target in sorted(graph[module]):
            if state.get(target) == "open":
                return stack[stack.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        stack.pop()
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module)
            if cycle:
                return cycle
    return None


def test_module_import_graph_is_acyclic():
    graph = _import_graph()
    assert len(graph) > 50, "the scan found too few modules under src/repro"
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_no_private_name_is_imported_from_another_package():
    files = {path: _package_of(module) for module, path in MODULES.items()}
    files[ROOT / "benchmarks" / "report.py"] = "benchmarks"
    for example in (ROOT / "examples").glob("*.py"):
        files[example] = "examples"
    crossings = [
        f"{path.relative_to(ROOT)}: {module}.{name}"
        for path, own in files.items()
        for module, name in _imports(path)
        if name is not None and name.startswith("_") and _package_of(module) != own
    ]
    assert crossings == []
