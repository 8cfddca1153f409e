"""Every module-level import is read by its module.

The check parses each non-``__init__`` module under ``src/repro``,
``tests``, ``benchmarks`` and ``examples`` (package ``__init__`` modules
import to re-export) and fails on a module-level import whose bound
name the module never reads: not as a name, not inside a string
annotation and not in ``__all__``.  An import statement carrying a
``noqa`` comment is a deliberate re-export or side-effect import and is
skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/repro", "tests", "benchmarks", "examples")


def modules() -> List[Path]:
    return sorted(path for folder in SCANNED for path in (ROOT / folder).rglob("*.py")
                  if path.name != "__init__.py")


def module_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements of the module body, also inside module-level
    ``if`` / ``try`` blocks, but not inside functions or classes."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    pending.extend(handler.body)


def bound_names(node: ast.stmt) -> Dict[str, int]:
    """``{name: line}`` of what one import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return {}
    names = {}
    for alias in node.names:
        if alias.name == "*":
            continue
        names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations and ``__all__``
    included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= read_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            names |= {element.value for element in ast.walk(node.value)
                      if isinstance(element, ast.Constant)}
    return names


def unused_imports(path: Path, root: Path = ROOT) -> List[str]:
    """``path:line: name`` of each unused module-level import."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = read_names(tree)
    unused = []
    for node in module_imports(tree):
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [f"{path.relative_to(root)}:{line}: {name}"
                   for name, line in bound_names(node).items() if name not in used]
    return unused


def test_scan_covers_every_tree():
    scanned = {path.relative_to(ROOT).parts[0] for path in modules()}
    assert scanned == {"src", "tests", "benchmarks", "examples"}


def test_no_unused_module_level_imports():
    unused = [finding for path in modules() for finding in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_scanner_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys\nfrom typing import List, Tuple\n"
                      "def f(x: 'List[int]') -> None:\n    return sys.argv\n",
                      encoding="utf-8")
    assert unused_imports(module, root=tmp_path) == ["module.py:1: os",
                                                     "module.py:3: Tuple"]
