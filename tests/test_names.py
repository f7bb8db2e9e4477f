"""Each public function and class has one name, and the library uses it.

A second name for the same object is a second thing for a reader to learn
and for a caller to pick between. The package keeps two, the oracle class
spellings that perfbench/workloads.py still calls; no module exports any.

A public name that no library code uses is API kept for its tests alone:
the library holds what its pipeline runs, and test references live in
tests/oracles.py. So every name in a module's ``__all__`` must be loaded by
the library's own code, ``__init__.py`` (which only re-exports) not
counted, unless ``UNUSED_EXPORTS`` gives it a reason.
"""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import epithresh

BENCHMARK_ALIASES = {("LocalOracle", "local_oracle"), ("RemoteOracle", "remote_oracle")}

UNUSED_EXPORTS = {
    "adjacency_matvec": "the public, tested face of the operator's shape refusal",
}

MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(epithresh.__path__)
    if hasattr(importlib.import_module(f"epithresh.{name}"), "__all__")
]


def _shared_names(namespace: dict) -> set[tuple[str, ...]]:
    """The sorted names of each callable that ``namespace`` binds more than once."""
    names = defaultdict(list)
    for name, obj in namespace.items():
        if callable(obj):
            names[id(obj)].append(name)
    return {tuple(sorted(group)) for group in names.values() if len(group) > 1}


def test_the_package_names_each_callable_once_but_the_benchmark_aliases():
    assert _shared_names(vars(epithresh)) == BENCHMARK_ALIASES


@pytest.mark.parametrize("module", MODULES)
def test_a_module_exports_each_callable_under_one_name(module):
    mod = importlib.import_module(f"epithresh.{module}")
    assert _shared_names({name: getattr(mod, name) for name in mod.__all__}) == set()


def _loaded_names() -> set[str]:
    """Every name and attribute that the library's modules, ``__init__.py``
    aside, read in code: loads in the AST, so a name in a string or a
    comment does not count."""
    loaded = set()
    for path in Path(epithresh.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


@pytest.mark.parametrize("module", MODULES)
def test_the_library_uses_every_name_a_module_exports(module):
    exported = set(importlib.import_module(f"epithresh.{module}").__all__)
    assert exported - _loaded_names() == exported & UNUSED_EXPORTS.keys()
