"""The package namespace: each layer module's `__all__`, re-exported."""

import importlib
import inspect

import pytest

import degengeo
from degengeo import errors

#: The modules whose `__all__` the package re-exports; `models` is imported
#: on its own.
REEXPORTED = ("hermitian", "matrixio", "projection", "spectra", "splitting",
              "swtransform", "weyl")


@pytest.mark.parametrize("name", (*REEXPORTED, "models"))
def test_every_all_entry_resolves(name):
    # A traced benchmark run looks up every `__all__` entry with getattr, so
    # an entry left behind by a deletion would fail there.
    module = importlib.import_module(f"degengeo.{name}")
    for attr in module.__all__:
        value = getattr(module, attr)
        if name in REEXPORTED:
            assert getattr(degengeo, attr) is value


def test_the_package_exports_the_all_lists_and_the_errors_only():
    exported = {attr for name in REEXPORTED
                for attr in importlib.import_module(f"degengeo.{name}").__all__}
    exported |= {attr for attr, value in vars(errors).items()
                 if inspect.isclass(value)}
    public = {attr for attr, value in vars(degengeo).items()
              if not attr.startswith("_") and not inspect.ismodule(value)}
    assert public == exported
