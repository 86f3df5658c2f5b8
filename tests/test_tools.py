"""The byte-identity digest tool."""

import difflib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_digests_runs_every_call_and_repeats():
    # Two runs on this checkout print the same lines: a SHA-256 of stdout,
    # the exit code and the argv of each call. The list holds parse,
    # precondition, numerical and inconclusive-fit failures next to the
    # successes. An exception that escapes `main` is printed as "raised
    # Type: message" in place of the exit code, which fails the pattern.
    runs = [
        subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digests.py")],
                       capture_output=True, text=True, check=True,
                       cwd=ROOT).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    # The first run against the checked-in lines: first the environment
    # they were taken in, then every digest line.
    header, *lines = runs[0].splitlines()
    want_header, *want = (ROOT / "tools" / "cli_digests.txt").read_text(
        encoding="utf-8").splitlines()
    assert header == want_header, (
        f"tools/cli_digests.txt was taken in {want_header!r}, this run is in "
        f"{header!r}; regenerate it there on an unchanged checkout")
    moved = "\n".join(difflib.unified_diff(want, lines, "cli_digests.txt",
                                           "this checkout", n=0, lineterm=""))
    assert not moved, f"CLI digest lines differ:\n{moved}"
    assert len(lines) > 100
    line = re.compile(r"[0-9a-f]{64} (\d) (decompose|distance|project|order"
                      r"|weyl-scan|model|cascade|demo) .* \| .*")
    codes = [int(line.fullmatch(text).group(1)) for text in lines]
    assert sorted(set(codes)) == [0, 2, 3, 4, 5]
    # The last lines digest the stdout of every demo script, which ran to
    # its end.
    demos = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
    assert [text.split()[1:4] for text in lines[-len(demos):]] == [
        ["0", "demo", name] for name in demos]
