"""Each public function and class has one name.

A second name for the same object is a second thing for a reader to learn
and for a caller to pick between. The package keeps two, the oracle class
spellings that perfbench/workloads.py still calls; no module exports any.
"""

import importlib
import pkgutil
from collections import defaultdict

import pytest

import epithresh

BENCHMARK_ALIASES = {("LocalOracle", "local_oracle"), ("RemoteOracle", "remote_oracle")}

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
