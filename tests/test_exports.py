import importlib
import pkgutil

import pytest

import nbesov


def _modules():
    yield nbesov.__name__
    for info in pkgutil.walk_packages(nbesov.__path__, prefix="nbesov."):
        yield info.name


@pytest.mark.parametrize("name", list(_modules()))
def test_every_exported_name_resolves(name):
    """A name left in __all__ after its definition is deleted is caught here."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
