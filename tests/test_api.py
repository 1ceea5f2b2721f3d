import importlib
import pkgutil

import pytest

import polycauchy

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(polycauchy.__path__, "polycauchy.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"
