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
