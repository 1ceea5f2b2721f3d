import importlib
import pkgutil

import pytest

import polycauchy
from polycauchy import Poly, Series, binom_poly, cauchy_derivative, gen_bernoulli_poly
from polycauchy.identities import Grid

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


@pytest.mark.parametrize("call, message", [
    (lambda: gen_bernoulli_poly(-1, 1), "degree must be >= 0"),
    (lambda: cauchy_derivative("first", 3, 1, -1), "derivative order must be >= 0"),
    (lambda: Poly([1, 1]) ** -1, "negative polynomial power"),
    (lambda: Poly([1, 1]).derivative(-1), "derivative order must be >= 0"),
    (lambda: binom_poly(0, 2, 1), "sign must be +1 or -1"),
    (lambda: Series([]), "a truncated series needs at least the t^0 coefficient"),
    (lambda: Grid.from_text("max_n"), "bad config line (want key=value): 'max_n'"),
], ids=["gen-bernoulli-degree", "cauchy-derivative-order", "poly-power", "poly-derivative-order",
        "binom-poly-sign", "empty-series", "grid-line-without-value"])
def test_bad_argument_is_a_value_error(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
