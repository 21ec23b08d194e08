"""Every exported name resolves: no stale ``__all__`` entry or package import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import anchorpriv

MODULES = sorted(m.name for m in pkgutil.iter_modules(anchorpriv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"anchorpriv.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(anchorpriv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"anchorpriv.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(anchorpriv, name) is getattr(source, alias.name)



def test_budget_rule_lives_in_budget_alone():
    # budget.py once imported apo's private arc, and apo exported the budget names.
    from anchorpriv import apo, budget

    imported = set()
    for node in ast.walk(ast.parse(Path(budget.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}".lstrip(".") for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert [m for m in imported if "apo" in m.split(".")] == []
    assert set(apo.__all__).isdisjoint(budget.__all__)
    assert [n for n in ("BUDGET_TOL", "CONVENTIONS", "BudgetCheck", "_arc")
            if hasattr(apo, n)] == []
    assert anchorpriv.BudgetVector is budget.BudgetVector
    assert anchorpriv.check_budget is budget.check_budget
