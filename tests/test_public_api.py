"""The package's public names are its modules' ``__all__`` lists, each the module's own object."""

import types

import pytest

import diracflow
from diracflow import dirac_exact, errors, packets, spa, specfun, trajectories

REEXPORTED = (dirac_exact, errors, packets, spa, specfun, trajectories)


@pytest.mark.parametrize("module", REEXPORTED, ids=lambda module: module.__name__)
def test_package_re_exports_each_modules_all(module):
    for name in module.__all__:
        assert getattr(diracflow, name) is getattr(module, name), name


def test_errors_all_is_its_eight_exception_classes():
    assert sorted(errors.__all__) == [
        "BracketingError", "DiracflowError", "DomainError", "InfiniteMomentumError",
        "IntegrationError", "NodeError", "UndefinedSecantError", "ValidationError"]
    assert all(issubclass(getattr(errors, name), Exception) for name in errors.__all__)


def test_package_names_are_the_modules_all_and_the_submodules():
    public = {name for name in vars(diracflow) if not name.startswith("_")}
    submodules = {name for name in public
                  if isinstance(getattr(diracflow, name), types.ModuleType)}
    # quadrature is loaded by dirac_exact; cli appears once something imports it.
    assert {module.__name__ for module in REEXPORTED} | {"diracflow.quadrature"} <= {
        f"diracflow.{name}" for name in submodules}
    assert all(getattr(diracflow, name).__name__ == f"diracflow.{name}" for name in submodules)
    exported = [name for module in REEXPORTED for name in module.__all__]
    # No module's name shadows another's.
    assert len(set(exported)) == len(exported)
    assert public - submodules == set(exported)
