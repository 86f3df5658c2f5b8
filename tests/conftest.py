"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """(name, shape) of every np.linalg.eigh, eigvalsh and svd call made
    while the test runs, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
