"""Package surface: each module's public names, and a package root that re-exports nothing."""

import importlib
import types

import pytest

import packedflow

MODULES = ["bench", "cli", "data", "formats", "metrics", "packed_net", "training"]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"packedflow.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_root_holds_only_the_version():
    for name in MODULES:
        importlib.import_module(f"packedflow.{name}")
    # Importing a submodule binds it on the package; nothing else may be there.
    names = {n for n, value in vars(packedflow).items() if not isinstance(value, types.ModuleType)}
    assert {n for n in names if not (n.startswith("__") and n.endswith("__"))} == set()
    assert isinstance(packedflow.__version__, str)
