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


LIBRARY = sorted(f"polycauchy.{info.name}" for info in pkgutil.iter_modules(polycauchy.__path__)
                 if not info.ispkg and info.name != "cli")


def test_every_library_name_is_republished():
    # the package namespaces restate no list of names: each republishes its modules' __all__
    from polycauchy import identities
    from polycauchy.identities import engine

    pairs = [(polycauchy, importlib.import_module(name)) for name in LIBRARY]
    pairs.append((identities, engine))
    missing = [f"{module.__name__}.{attr}" for package, module in pairs
               for attr in module.__all__ if getattr(package, attr, None) is not getattr(module, attr)]
    assert not missing, f"not republished as the same object: {missing}"
    declared = [attr for _, module in pairs for attr in module.__all__]
    assert sorted({a for a in declared if declared.count(a) > 1}) == []
