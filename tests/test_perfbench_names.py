"""The names the layer-ledger benchmark wraps and imports still exist.

``perfbench/`` is frozen and runs only in CI's last serial step, so a
method moved out of its class body (the ledger looks it up in the class's
own ``__dict__``) or a renamed import would otherwise fail there first.
These checks parse its sources with :mod:`ast` and import no perfbench code.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _ledger_pairs():
    """Every ``(module, attribute path)`` of the ledger's ``SPANS`` and ``COUNTERS``."""
    pairs = []
    for node in _parse("ledger.py").body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTERS"):
            pairs += [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return pairs


def _repro_imports():
    """Every ``from repro... import name [as alias]`` of every perfbench module."""
    imports = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                imports += [(path.name, node.module, alias.name, alias.asname or alias.name)
                            for alias in node.names]
    return imports


def _resolve(module, name):
    """``module.name``, importing it as a submodule when it is not an attribute."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


LEDGER_PAIRS = _ledger_pairs()
IMPORTS = _repro_imports()


def test_the_ledger_and_the_imports_are_all_found():
    assert len(LEDGER_PAIRS) == 31
    assert len(IMPORTS) == 40


@pytest.mark.parametrize("module,attribute", LEDGER_PAIRS,
                         ids=[f"{module}:{attribute}" for module, attribute in LEDGER_PAIRS])
def test_ledger_names_resolve_where_the_ledger_wraps_them(module, attribute):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        assert name in vars(owner), f"{attribute} is not in its class's own __dict__"
    else:
        assert hasattr(owner, name)


@pytest.mark.parametrize("source,module,name,alias", IMPORTS,
                         ids=[f"{source}:{module}.{name}" for source, module, name, _ in IMPORTS])
def test_perfbench_imports_resolve(source, module, name, alias):
    _resolve(module, name)


def test_module_attributes_perfbench_reads_exist():
    """``runtime_plan._OPERAND_CACHE`` and the like: the memos perfbench empties or counts."""
    modules = {(source, alias): _resolve(module, name)
               for source, module, name, alias in IMPORTS}
    read = set()
    for source in {source for source, *_ in IMPORTS}:
        for node in ast.walk(_parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = modules.get((source, node.value.id))
                if isinstance(owner, types.ModuleType):
                    assert hasattr(owner, node.attr), f"{source}: {node.value.id}.{node.attr}"
                    read.add(node.value.id)
    assert {"runtime_jobs", "runtime_plan", "timing_sta", "pareto"} <= read
