"""Byte-for-byte CLI output: every subcommand and format against stored goldens.

Each case in golden/cases.json names an argv, the exit code `main` returns
and the file holding its exact stdout.  The files were captured from the CLI
before its output code was restructured; a change here is a change to the
documented output.  The help goldens, `help.txt` and `help_<cmd>.txt`, are
`lieball -h` and `lieball <cmd> -h` at 80 columns.  One case per subcommand
and format is also run as `python -m lieball`, through the process entry.
"""

import json
import pathlib
import subprocess
import sys

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


def first_per_subcommand_and_format(cases):
    first = {}
    for case in cases:
        argv = case["argv"]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        first.setdefault((argv[0], fmt), case)
    return list(first.values())


PROCESS_CASES = first_per_subcommand_and_format(CASES)


def lieball_process(argv):
    return subprocess.run([sys.executable, "-m", "lieball", *argv], capture_output=True)


def test_process_cases_cover_every_subcommand_and_format():
    assert len(PROCESS_CASES) == 7 * 3


@pytest.mark.parametrize("case", PROCESS_CASES, ids=[c["stdout"] for c in PROCESS_CASES])
def test_golden_output_through_the_process(case):
    proc = lieball_process(case["argv"])
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / case["stdout"]).read_bytes()


def test_golden_out_file_through_the_process(tmp_path):
    target = tmp_path / "table.txt"
    proc = lieball_process(["harmonic", "--m", "4", "--max-l", "16", "--out", str(target)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert target.read_bytes() == (GOLDEN / "harmonic_m4_l16.txt").read_bytes()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_both_routes_write_the_same_table_file(m, fmt):
    # ktypes and harmonic share the JSON and CSV table layout, so the two
    # routes' tables agree byte for byte; only their text reports differ
    euler = (GOLDEN / f"ktypes_m{m}.{fmt}").read_bytes()
    assert euler and euler == (GOLDEN / f"harmonic_m{m}.{fmt}").read_bytes()


HELP = ["", "ktypes", "harmonic", "verify", "weyl", "ranges", "verma", "ehw"]


@pytest.mark.parametrize("command", HELP, ids=[c or "lieball" for c in HELP])
def test_help_output(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "-h"] if command else ["-h"])
    assert exit_.value.code == 0
    name = f"help_{command}.txt" if command else "help.txt"
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
