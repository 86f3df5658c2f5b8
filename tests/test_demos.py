"""Every demo script runs to completion."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: A line each demo must print, where a wrong result would otherwise pass.
EXPECTED = {
    "eigenvalue_branches": "pair separation levels: {(1, 2): 3}",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    assert EXPECTED.get(path.stem, "") in out.getvalue()
