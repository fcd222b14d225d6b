"""Every regmod name the benchmark reaches for exists in `src/regmod`.

`perfbench/tracer.py` patches regmod by name: `SPANNED` lists the module
attributes it wraps and `COUNTED` the class methods it counts.
`perfbench/checks.py` and `perfbench/workloads.py` import from regmod.  A
rename in the package would otherwise surface only when the benchmark runs,
as an `AttributeError` in `Tracer.wrap` or an `ImportError`.  These tests
read perfbench's sources as syntax trees (`ast.literal_eval` for the two
tables), so nothing in `perfbench/` is imported or run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _table(name: str) -> tuple:
    """The literal value of a top-level assignment in tracer.py."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py assigns no {name}")


def _regmod_imports(name: str) -> list[tuple[str, str]]:
    """(module, name) for every `from regmod… import name` in a perfbench file."""
    return [(node.module, alias.name) for node in ast.walk(_tree(name))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "regmod"
            for alias in node.names]


SPANNED = _table("SPANNED")
COUNTED = _table("COUNTED")
IMPORTED = {name: _regmod_imports(name) for name in ("checks.py", "workloads.py")}


def test_the_tables_are_read():  # an empty table would leave its test below with no cases
    assert SPANNED and COUNTED and all(IMPORTED.values())


@pytest.mark.parametrize("module, attr, span", SPANNED, ids=[f"{m}.{a}" for m, a, _ in SPANNED])
def test_every_wrapped_attribute_resolves(module, attr, span):
    if not module.startswith("regmod"):  # a perfbench module: the name is one it imports
        found = [m for m, name in IMPORTED[f"{module}.py"] if name == attr]
        assert found, f"{module}.py imports no {attr} from regmod"
        module = found[0]
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module, cls, attr, key", COUNTED,
                         ids=[f"{c}.{a}" for _, c, a, _ in COUNTED])
def test_every_counted_method_resolves(module, cls, attr, key):
    owner = getattr(importlib.import_module(module), cls, None)
    assert owner is not None, f"{module}.{cls}"
    assert callable(getattr(owner, attr, None)), f"{module}.{cls}.{attr}"


@pytest.mark.parametrize("source, module, name",
                         [(s, m, n) for s, pairs in IMPORTED.items() for m, n in pairs])
def test_every_imported_name_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"
