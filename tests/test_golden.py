"""Byte-for-byte CLI output: every subcommand and format against stored goldens.

Each case in golden/cases.json names an argv, the exit code `main` returns
and the file holding its exact stdout.  The files were captured from the CLI
before its output code was restructured; a change here is a change to the
documented output.  `ktypes` and `harmonic` share the JSON and CSV table
layout, so at m = 2, 3 both routes' cases in those formats point at one
file, `ktypes_m<m>.<format>`: the two routes' tables agree byte for byte.
The help goldens, `help.txt` and `help_<cmd>.txt`, are `lieball -h` and
`lieball <cmd> -h` at 80 columns.  One case per subcommand and format is
also run as `python -m lieball`, through the process entry, and so are the
end-to-end runs in `PROCESS_RUNS` and the README's loops over a range of
ranks.  A run too long for a golden is held to the benchmark's oracle, the
table rows in closed form.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
from typing import NamedTuple, Optional

import pytest

import lieball
from lieball.cli import main
from oracles import perfbench

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def case_id(case):
    """The golden's name with the subcommand in front, unique even where two
    subcommands' cases share one file: `harmonic_m2.json` for `ktypes_m2.json`."""
    return case["argv"][0] + "_" + case["stdout"].partition("_")[2]


@pytest.mark.parametrize("case", CASES, ids=case_id)
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


def lieball_process(argv, timeout=60, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lieball", *argv], capture_output=True, timeout=timeout, **kwargs)


def test_process_cases_cover_every_subcommand_and_format():
    assert len(PROCESS_CASES) == 7 * 3


@pytest.mark.parametrize("case", PROCESS_CASES, ids=case_id)
def test_golden_output_through_the_process(case):
    proc = lieball_process(case["argv"])
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / case["stdout"]).read_bytes()


def test_golden_out_file_through_the_process(tmp_path):
    target = tmp_path / "table.txt"
    proc = lieball_process(["harmonic", "--m", "4", "--max-l", "16", "--out", str(target)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert target.read_bytes() == (GOLDEN / "harmonic_m4_l16.txt").read_bytes()


class ProcessRun(NamedTuple):
    """A `python -m lieball` run and what it must give: its exit code, the
    golden its stdout equals (or, with `oracle`, the table perfbench/oracle.py
    builds from closed forms for `harmonic --m M --max-l L`), and a line its
    stderr holds.  Only where the run needs one: an environment variable, the
    100,000 KiB cap on the address space, or a bound in seconds tighter than
    the default 60."""

    argv: list
    code: int = 0
    golden: Optional[str] = None
    oracle: bool = False
    err: Optional[str] = None
    env: Optional[dict] = None
    capped: bool = False
    seconds: int = 60


PROCESS_RUNS = {
    "verify-m32": ProcessRun(["verify", "--m", "32", "--max-l", "10"]),
    # the equivariance check at n = 128, on the support only
    "verify-m64-in-10s": ProcessRun(["verify", "--m", "64", "--max-l", "10"], seconds=10),
    "ktypes-m64": ProcessRun(["ktypes", "--m", "64", "--max-l", "10"]),
    # each Weyl dimension cancelled as it goes
    "harmonic-m20000": ProcessRun(["harmonic", "--m", "20000", "--max-l", "2"]),
    # the witness counts in closed form; building the witnesses runs out of memory
    "ranges-csv-m1000-in-100MB": ProcessRun(
        ["ranges", "--m", "1000", "--lambda", "0", "--format", "csv"], capped=True),
    # the heading from the closed-form range verdict
    "ktypes-m300": ProcessRun(["ktypes", "--m", "300", "--max-l", "10"]),
    # outside the weakly fair range, the heading without witnesses
    "ktypes-m3000-lambda0": ProcessRun(["ktypes", "--m", "3000", "--lambda", "0", "--max-l", "1"]),
    "ranges-json-m1000": ProcessRun(["ranges", "--m", "1000", "--lambda", "999", "--format", "json"]),
    "digit-bound-follows-PYTHONINTMAXSTRDIGITS": ProcessRun(
        ["ehw", "--n", "4", "--z", "1e1000"], 2, err="more than 640 digits",
        env={"PYTHONINTMAXSTRDIGITS": "640"}),
    "help": ProcessRun(["--help"]),
    # each block shape certified by its lemma
    "harmonic-m8-l60-in-10s": ProcessRun(
        ["harmonic", "--m", "8", "--max-l", "60"], golden="harmonic_m8_l60.txt", seconds=10),
    # every shape certified, and the kernel dimension read off the rank
    "harmonic-m2-l2000-in-10s": ProcessRun(
        ["harmonic", "--m", "2", "--max-l", "2000"], oracle=True, seconds=10),
    # argparse takes the last --m, then main's range check refuses it
    "repeated-m": ProcessRun(["ktypes", "--m", "2", "--m", "-1"], 2, err="--m must be at least 2"),
}


def cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (100_000 * 1024,) * 2)


@pytest.mark.parametrize("run", PROCESS_RUNS.values(), ids=PROCESS_RUNS)
def test_run_through_the_process(run):
    proc = lieball_process(
        run.argv, timeout=run.seconds, env=run.env and {**os.environ, **run.env},
        preexec_fn=cap_address_space if run.capped else None)
    assert proc.returncode == run.code, proc.stderr
    if run.golden:
        assert proc.stdout == (GOLDEN / run.golden).read_bytes()
    if run.oracle:
        workloads, oracle, _ = perfbench()
        command, _, m, _, max_l = run.argv
        want = oracle.expected(workloads.Workload(command, command, int(m), int(max_l)), 0)
        assert want.check(proc.returncode, proc.stdout.decode()) is None
    if run.err:
        assert run.err.encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


HELP = ["", "ktypes", "harmonic", "verify", "weyl", "ranges", "verma", "ehw"]


@pytest.mark.parametrize("command", HELP, ids=[c or "lieball" for c in HELP])
def test_help_output(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "-h"] if command else ["-h"])
    assert exit_.value.code == 0
    name = f"help_{command}.txt" if command else "help.txt"
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def readme_range_loops():
    """The bash blocks of the README's section "A range of ranks"."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").partition("\n## A range of ranks\n")[2]
    return re.findall(r"```bash\n(.*?)```", section.partition("\n## ")[0], re.DOTALL)


def test_readme_range_loops_run_as_written(tmp_path):
    # both loops as the README gives them, `lieball` being `python -m lieball`;
    # under -e a `cmp` of a differing pair stops the script
    loops = readme_range_loops()
    assert len(loops) == 2
    src = str(pathlib.Path(lieball.__file__).resolve().parent.parent)
    env = {**os.environ, "LIEBALL_PYTHON": sys.executable,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "\n".join(['lieball() { "$LIEBALL_PYTHON" -m lieball "$@"; }', *loops])
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("m=")]
    assert verdicts and all(line.endswith(": exit 0") for line in verdicts)
    assert proc.stdout.endswith("worst exit code: 0\n")
