"""Byte-for-byte CLI output: every subcommand and format against stored goldens.

Each case in golden/cases.json names an argv, the exit code `main` returns
and the file holding its exact stdout.  The files were captured from the CLI
before its output code was restructured; a change here is a change to the
documented output.
"""

import json
import pathlib

import pytest

from lieball.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"] for c in CASES])
def test_golden_output(case, capsysbinary):
    code = main(case["argv"])
    out = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / case["stdout"]).read_bytes()
