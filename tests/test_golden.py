"""Byte-identical CLI output against files captured from an earlier build.

``golden/commands.json`` lists each command (smallest truncation box first)
with its exit code; ``golden/<name>.stdout`` holds its stdout.  The list runs
through ``cli.main`` in one process, once small boxes first and once large
boxes first, so later commands are answered from the cells grown for earlier
ones.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hurwitz_toda import hurwitz
from hurwitz_toda.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("order", ["small-first", "large-first"])
def test_cli_output_is_byte_identical(order, monkeypatch):
    monkeypatch.setattr(hurwitz, "_STORE", hurwitz._Cells(hurwitz.DEFAULT_CACHE))
    cases = CASES if order == "small-first" else CASES[::-1]
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(case["argv"])
        assert code == case["exit"], case["name"]
        want = (GOLDEN / f"{case['name']}.stdout").read_bytes().decode()
        assert out.getvalue() == want, case["name"]
    assert hurwitz._STORE.tau_box == (6, 10)
