"""Every public name of every ``repro`` package resolves.

Some package ``__init__`` files export names lazily through a module-level
``__getattr__`` (PEP 562); a typo in such a map shows only when the name is
first used, so every ``__all__`` entry is resolved here.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    *(f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg),
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), f"duplicate entries in {name}.__all__"
    for attr in exported:
        getattr(package, attr)
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
