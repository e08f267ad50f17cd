"""Command line behaviour: formats, exit codes, determinism."""

import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieball import cli, listings
from lieball.cli import _SUBCOMMANDS, _parse, _read_flags, main
from oracles import perfbench, reference_parser

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# `verify --m 2 --max-l 3` with `blattner.rho_c` patched to zero.
FAULT_ARGV = ["verify", "--m", "2", "--max-l", "3"]
FAULT_REPORT = (
    "verification report  m=2  lambda=1  max_l=3  seed=0\n"
    "[FAIL] ktype tables: first difference at (mu0=1; mu=(0, 0)): "
    "euler-sum=0 harmonic-kernel=1\n"
    "[FAIL] unique scalar match: exhaustive over the dominant grid with bound 4\n"
    "[PASS] positivity ranges: lambda=1 weakly_fair=True good=False; "
    "good witness <shift, (1, 0, 1)> = 0\n"
    "[PASS] infinitesimal character: (1, 0, -1) is singular\n"
    "[PASS] verma homomorphisms: degrees 0..5 accepted with orbit-equal parameters\n"
    "[PASS] laplacian equivariance: n=4, 15 trials, seed=0\n"
    "result: FAIL (4/6)\n"
)


def test_verify_detects_injected_fault(capsys, monkeypatch):
    import lieball.blattner as bl

    monkeypatch.setattr(bl, "rho_c", lambda m: (0,) * m)
    assert run(capsys, FAULT_ARGV) == (1, FAULT_REPORT)


def test_verify_names_the_smallest_difference_on_either_side(capsys, monkeypatch):
    # the analytic table lacks its last row and has an extra, smaller one
    import lieball.harmonic as hm
    from lieball.ktype import KTypeParam

    real = hm.sol_ktype_table

    def skewed(m, max_l):
        table = real(m, max_l)
        entries = {pi: k for pi, k in table.entries.items() if pi.mu[0] != max_l}
        entries[KTypeParam(m - 1, (1, 1) + (0,) * (m - 2))] = 1
        return table._replace(entries=entries)

    monkeypatch.setattr(hm, "sol_ktype_table", skewed)
    code, out = run(capsys, ["verify", "--m", "3", "--max-l", "3"])
    assert code == 1
    assert out == (
        "verification report  m=3  lambda=2  max_l=3  seed=0\n"
        "[FAIL] ktype tables: first difference at (mu0=2; mu=(1, 1, 0)): "
        "euler-sum=0 harmonic-kernel=1\n"
        "[PASS] unique scalar match: exhaustive over the dominant grid with bound 4\n"
        "[PASS] positivity ranges: lambda=2 weakly_fair=True good=False; "
        "good witness <shift, (0, 1, 0, 1)> = 0\n"
        "[PASS] infinitesimal character: (2, 1, 0, -1) is singular\n"
        "[PASS] verma homomorphisms: degrees 0..5 accepted with orbit-equal parameters\n"
        "[PASS] laplacian equivariance: n=6, 15 trials, seed=0\n"
        "result: FAIL (5/6)\n"
    )


def test_verify_reports_certification_failure(capsys, monkeypatch):
    import lieball.harmonic as hm

    monkeypatch.setattr(hm, "weyl_dim_so2m", lambda m, mu: 999)
    code = main(["verify", "--m", "2", "--max-l", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "certification failure" in captured.err


@pytest.mark.parametrize("module, name", [
    ("lieball.blattner", "_target_hw"),  # while building the report
    ("lieball.cli", "render"),  # while rendering it
])
def test_out_of_memory_is_a_usage_error(capsys, monkeypatch, module, name):
    # the huge request itself is never made: the patched step raises at once
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(f"{module}.{name}", exhaust)
    code = main(["ktypes", "--m", "99999999999", "--max-l", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "lieball ktypes: error: request too large: out of memory\n"
    assert "Traceback" not in captured.err


def test_ktypes_heading_builds_no_range_verdict(capsys, monkeypatch):
    import lieball.repdata as rd

    def refuse(*args):
        raise AssertionError("range_verdict was called for the ktypes heading")

    monkeypatch.setattr(rd, "range_verdict", refuse)
    for m, lam, semantics in ((6, 2, "Euler characteristic"), (6, 3, "multiplicity")):
        code, out = run(capsys, ["ktypes", "--m", str(m), "--lambda", str(lam), "--max-l", "1"])
        assert code == 0
        assert f"K-type table  m={m}  lambda={lam}  ({semantics})" in out


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_ranges_builds_only_the_format_printed(capsys, monkeypatch, fmt):
    def refuse(*args):
        raise AssertionError("the JSON witnesses were built for --format " + fmt)

    monkeypatch.setattr(listings, "_witnesses_json", refuse)
    code, out = run(capsys, ["ranges", "--m", "3", "--lambda", "0", "--format", fmt])
    assert code == 0
    assert ("weakly_fair: false" if fmt == "text" else "weakly_fair_violations,6") in out


def test_ranges_csv_builds_no_range_verdict(capsys, monkeypatch):
    import lieball.repdata as rd

    def refuse(*args):
        raise AssertionError("range_verdict was called for --format csv")

    monkeypatch.setattr(rd, "range_verdict", refuse)
    for lam, counts in ((0, "weakly_fair_violations,6\ngood_violations,6"),
                        (2, "weakly_fair_violations,0\ngood_violations,2")):
        code, out = run(capsys, ["ranges", "--m", "3", "--lambda", str(lam), "--format", "csv"])
        assert code == 0
        assert counts in out


def test_negative_fraction_as_its_own_argument(capsys):
    code, joined = run(capsys, ["verma", "--m", "3", "--lambda=-3/2", "--nu", "1"])
    assert code == 0
    # argparse also reads an unambiguous prefix of the flag as the flag
    for flag in ("--lambda", "--lambd", "--lamb", "--la", "--l"):
        assert run(capsys, ["verma", "--m", "3", flag, "-3/2", "--nu", "1"]) == (0, joined)
    assert run(capsys, ["verma", "--m", "3", "--lamb=-3/2", "--n", "1"]) == (0, joined)


def test_prefix_is_joined_only_where_it_names_a_rational_flag(capsys):
    # --n abbreviates --nu for verma, but is ehw's own integer flag
    _, joined = run(capsys, ["verma", "--m", "3", "--lambda", "1", "--nu=-1/2"])
    assert run(capsys, ["verma", "--m", "3", "--lambda", "1", "--n", "-1/2"]) == (0, joined)
    with pytest.raises(SystemExit) as exc:
        main(["ehw", "--n", "-1/3", "--z", "1"])
    assert exc.value.code == 2
    assert "argument --n: expected one argument" in capsys.readouterr().err


def test_negative_z_as_its_own_argument_matches_golden(capsysbinary):
    assert main(["ehw", "--n", "4", "--z", "-1/3", "--format", "text"]) == 0
    golden = pathlib.Path(__file__).parent / "golden" / "ehw_n4_z-1o3.txt"
    assert capsysbinary.readouterr().out == golden.read_bytes()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ktypes", "--m", "1"], "--m must be at least 2"),
        (["harmonic", "--m", "0"], "--m must be at least 2"),
        (["verify", "--m", "-3"], "--m must be at least 2"),
        (["weyl", "--m", "9"], "--m exceeds the enumeration bound 8"),
        (["ktypes", "--m", "2", "--lambda", "3/2"], "--lambda must be an integer for ktypes"),
        (["ranges", "--m", "3", "--lambda", "1/2"], "--lambda must be an integer for ranges"),
        (["verma", "--m", "3", "--nu", "1"], "verma needs both --lambda and --nu, or neither"),
        (["ehw", "--n", "3", "--z", "1"], "--n must be at least 4"),
        (["ehw", "--n", "5", "--z", "1", "--lambda", "1"],
         "--lambda requires even --n for the residue degree"),
        (["ktypes", "--m", "99999999999999999999", "--max-l", "0"],
         f"--m must be at most {sys.maxsize}"),
        (["harmonic", "--m", "99999999999999999999", "--max-l", "1"],
         f"--m must be at most {sys.maxsize}"),
        (["verify", "--m", "99999999999999999999", "--max-l", "0"],
         f"--m must be at most {sys.maxsize}"),
        (["verma", "--m", str(sys.maxsize + 1), "--max-l", "1"],
         f"--m must be at most {sys.maxsize}"),
        (["weyl", "--m", "1"], "--m must be at least 2"),
        (["ranges", "--m", "1"], "--m must be at least 2"),
        (["verma", "--m", "2", "--lambda", "1"], "verma needs both --lambda and --nu, or neither"),
    ],
)
def test_checked_usage_errors_name_the_subcommand(capsys, monkeypatch, argv, message):
    # the same usage and prefix as argparse's own errors for that subcommand
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == usage(argv[0]) + f"lieball {argv[0]}: error: {message}\n"


def usage(command=""):
    """The usage lines that head `lieball [command] -h` at 80 columns, read
    off its help golden."""
    help_ = GOLDEN / (f"help_{command}.txt" if command else "help.txt")
    return help_.read_text(encoding="utf-8").partition("\n\n")[0] + "\n"


@pytest.mark.parametrize("argv, code, same_as, err", [
    # the top-level parser reports what no subcommand parser claims
    (["harmonic", "--m", "4", "--bogus"], 2, None,
     usage() + "lieball: error: unrecognized arguments: --bogus\n"),
    # an unambiguous prefix names its flag, and the last of a repeated flag wins
    (["harmonic", "--ma", "3", "--m", "4"], 0, ["harmonic", "--m", "4", "--max-l", "3"], ""),
    (["harmonic", "--m", "3", "--m", "4"], 0, ["harmonic", "--m", "4"], ""),
    (["harmonic", "--m=3"], 0, ["harmonic", "--m", "3"], ""),
    # after `--` every token is a positional argument, and none is expected
    (["harmonic", "--", "--m", "3"], 2, None,
     usage("harmonic") + "lieball harmonic: error: the following arguments are required: --m\n"),
    # no subcommand at all
    ([], 2, None, usage() + "lieball: error: the following arguments are required: command\n"),
], ids=["unrecognized", "prefix", "repeated", "equals", "double-dash", "empty"])
def test_argparse_forms_keep_their_output(capsys, monkeypatch, argv, code, same_as, err):
    monkeypatch.setenv("COLUMNS", "80")
    expected = ""
    if same_as is not None:
        assert main(same_as) == 0
        expected = capsys.readouterr().out
    if code:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    else:
        assert main(argv) == 0
    assert capsys.readouterr() == (expected, err)


@pytest.mark.parametrize("command", ["ktypes", "harmonic", "verify", "verma"])
def test_largest_index_sized_m_runs_out_of_memory(command):
    # --m = sys.maxsize passes the up-front check and fails on its first
    # tuple of rank m; run capped at 1 GB of address space, with a timeout
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "lieball", command, "--m", str(sys.maxsize), "--max-l", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"lieball {command}: error: request too large: out of memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["harmonic", "--m", "2", "--max-l", "-1"],
        ["verify", "--m", "2", "--max-l", "-1"],
        ["ktypes", "--m", "2", "--max-l", "-1"],
        ["verma", "--m", "2", "--max-l", "-3"],
        ["ktypes", "--m", "2", "--max-l", "two"],
    ],
)
def test_bad_max_l_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-l" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["ktypes", "--m", "3", "--lambda", "1/0"], "--lambda"),
        (["ranges", "--m", "3", "--lambda", "1/0"], "--lambda"),
        (["verma", "--m", "3", "--nu", "1/0"], "--nu"),
        (["ehw", "--n", "4", "--z", "1/0"], "--z"),
        (["verma", "--m", "3", "--lambda", "-1/0"], "--lambda"),
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    raw = argv[argv.index(flag) + 1]
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"lieball {argv[0]}: error: argument {flag}: not a rational number: '{raw}'"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["ranges", "--m", "2", "--lambda", "1e5000"], "--lambda"),
        (["ehw", "--n", "4", "--z", "1e-5000"], "--z"),
        (["verma", "--m", "2", "--lambda", "1e20000000", "--nu", "4"], "--lambda"),
        # with no exponent the digits of p and q are still counted
        (["ehw", "--n", "4", "--z", "1" * 4301], "--z"),
        (["ranges", "--m", "2", "--lambda", "1" * 4301 + "/3"], "--lambda"),
    ],
)
def test_huge_exponent_is_usage_error(capsys, argv, flag):
    # refused before Fraction builds the value, which for 1e20000000 alone
    # takes tens of seconds
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    raw = argv[argv.index(flag) + 1]
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"lieball {argv[0]}: error: argument {flag}: more than 4300 digits: '{raw}'"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ranges", "--m", "2", "--lambda", "1e3"],
        ["ehw", "--n", "4", "--z", "5/2"],
        # a 4300-digit numerator or denominator still renders
        ["ehw", "--n", "4", "--z", "1e4299"],
        ["ehw", "--n", "4", "--z=-1E-4299", "--format", "json"],
        # the digits of p and of q are counted apart
        ["ehw", "--n", "4", "--z", "1" * 4300 + "/3"],
    ],
)
def test_exponent_notation_within_bound_is_accepted(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.fixture
def int_digit_limit(request):
    """Python's limit on int <-> str conversion set to request.param for the
    test, and restored after it."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(saved)


def assert_one_error_line(capsys, argv, message):
    """argv exits 2 at parsing, before any output, with `message` as its one
    error line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [message]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_flag_whose_double_does_not_print_is_usage_error(capsys, fmt):
    # -9e4299 has 4300 digits, but 2λ − m, which ranges prints, has 4301
    raw = "-9e4299"
    assert_one_error_line(
        capsys, ["ranges", "--m", "2", f"--lambda={raw}", "--format", fmt],
        f"lieball ranges: error: argument --lambda: too large: values derived from it "
        f"may not print in 4300 digits: '{raw}'")


@pytest.mark.parametrize("argv,flag", [
    (["ehw", "--n", "4", "--z", "1e1000"], "--z"),
    (["ranges", "--m", "2", "--lambda", "1e1000"], "--lambda"),
    (["ktypes", "--m", "2", "--lambda", "1e700", "--max-l", "0"], "--lambda"),
])
@pytest.mark.parametrize("int_digit_limit", [640], indirect=True)
def test_digit_bound_follows_the_int_string_limit(capsys, int_digit_limit, argv, flag):
    raw = argv[argv.index(flag) + 1]
    assert_one_error_line(
        capsys, argv, f"lieball {argv[0]}: error: argument {flag}: more than 640 digits: '{raw}'")


@pytest.mark.parametrize("int_digit_limit", [640], indirect=True)
def test_flag_within_a_lowered_limit_is_accepted(capsys, int_digit_limit):
    # 10^639 has 640 digits and its double prints
    assert main(["ehw", "--n", "4", "--z", "1e639", "--lambda=-2e639"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("int_digit_limit", [10_000_000], indirect=True)
def test_small_flag_under_a_raised_limit_builds_no_power_of_ten(capsys, int_digit_limit):
    # 10^limit alone would take seconds to build at this limit
    start = time.perf_counter()
    assert main(["ehw", "--n", "4", "--z", "5/2", "--lambda=-3"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("int_digit_limit", [0], indirect=True)
def test_digit_bound_without_a_limit_is_the_default(capsys, int_digit_limit):
    # still refused before Fraction builds the value
    start = time.perf_counter()
    assert_one_error_line(
        capsys, ["verma", "--m", "2", "--lambda", "1e20000000", "--nu", "4"],
        "lieball verma: error: argument --lambda: more than 4300 digits: '1e20000000'")
    assert time.perf_counter() - start < 1
    for raw in ("1" * 4301, "1" * 4301 + "/3"):
        assert_one_error_line(
            capsys, ["ehw", "--n", "4", "--z", raw],
            f"lieball ehw: error: argument --z: more than 4300 digits: '{raw}'")
    assert main(["ehw", "--n", "4", "--z", "1e4299"]) == 0


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "table.json"
    with pytest.raises(SystemExit) as exc:
        main(["ktypes", "--m", "2", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"lieball: error: cannot write --out: [Errno 2] No such file or directory: "
        f"{str(target)!r}\n")
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ["weyl", "--m", "9"],  # the handler's bound
    ["ranges", "--m", "3", "--lambda", "1/2"],  # _integer_lambda
], ids=["weyl-bound", "integer-lambda"])
def test_cli_module_prints_handler_usage_errors_as_the_package(argv):
    # `python -m lieball.cli` runs the module as __main__, not as lieball.cli;
    # a handler's UsageError must still be printed, not raised as a traceback
    package, module = (
        subprocess.run(
            [sys.executable, "-m", name, *argv], capture_output=True, text=True, timeout=60)
        for name in ("lieball", "lieball.cli"))
    assert package.returncode == module.returncode == 2
    assert module.stderr == package.stderr
    assert package.stderr.startswith(f"usage: lieball {argv[0]} ")
    assert module.stdout == package.stdout == ""


# --- The process entry ----------------------------------------------------------

SRC = str(pathlib.Path(cli.__file__).resolve().parent.parent)


def entry(argv, setup=""):
    """Exit code, stdout and stderr of `python -m lieball argv`, started in a
    fresh interpreter through runpy after the statements `setup`.  An atexit
    hook registered before the run writes `frozen <count>` as the last line of
    stderr, the count being what `gc.get_freeze_count()` gained over the run:
    some interpreters (3.12) start with objects already frozen."""
    script = "\n".join([
        "import atexit, gc, runpy, sys",
        f"sys.path.insert(0, {SRC!r})",
        setup,
        "start = gc.get_freeze_count()",
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() - start, file=sys.stderr))",
        f"sys.argv = ['lieball', *{list(argv)!r}]",
        "runpy.run_module('lieball', run_name='__main__')",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def frozen(stderr):
    """The freeze count the run gained, as the atexit hook saw it, and the
    stderr before it."""
    *before, last = stderr.splitlines(keepends=True)
    name, count = last.split()
    assert name == "frozen"
    return int(count), "".join(before)


def test_console_script_is_the_entry():
    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    assert 'lieball = "lieball.cli:run"' in pyproject.read_text(encoding="utf-8").splitlines()


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["harmonic", "--m", "4", "--max-l", "16"]) == 0
    assert main(["weyl", "--m", "3", "--format", "json"]) == 0
    assert gc.get_freeze_count() == before


KERNEL_ARGV = ["harmonic", "--m", "4", "--max-l", "16"]
VERIFY_ARGV = ["verify", "--m", "6", "--max-l", "10"]
# Faults that make one kernel dimension disagree with its Weyl dimension, each
# the name of `lieball.harmonic` it wraps and the wrapper as source, so that
# one fault runs both in process and in a fresh interpreter.
COLUMN_DROP = ("harmonic_dimension",  # the kernel at l = 3 loses a vector
               "lambda dim: lambda n, l: dim(n, l) - (l == 3)")
WEYL_FAULT = ("weyl_dim_so2m",  # V_(5,0,...,0) gains a dimension
              "lambda weyl: lambda m, mu: weyl(m, mu) + (mu[0] == 5)")


def fault_setup(fault):
    """The statements that install `fault` in a fresh interpreter."""
    name, wrapper = fault
    return f"import lieball.harmonic as hm\nhm.{name} = ({wrapper})(hm.{name})"


@pytest.mark.parametrize("argv, setup, code, out, err", [
    (KERNEL_ARGV, "", 0, (GOLDEN / "harmonic_m4_l16.txt").read_text(encoding="utf-8"), ""),
    (FAULT_ARGV, "import lieball.blattner as bl; bl.rho_c = lambda m: (0,) * m",
     1, FAULT_REPORT, ""),
    (KERNEL_ARGV, fault_setup(WEYL_FAULT), 3, "",
     "certification failure: kernel dimension 672 != Weyl dimension 673 "
     "of weight (5, 0, 0, 0) for n=8, l=5\n"),
], ids=["ok", "verification-failure", "certification-failure"])
def test_entry_freezes_the_heap_once_main_returns(argv, setup, code, out, err):
    # main's exit code and output pass through the entry unchanged
    result = entry(argv, setup)
    assert result[:2] == (code, out)
    count, rest = frozen(result[2])
    assert count > 0
    assert rest == err


@pytest.mark.parametrize("argv, fault, line", [
    (KERNEL_ARGV, COLUMN_DROP, "kernel dimension 111 != Weyl dimension 112 "
                               "of weight (3, 0, 0, 0) for n=8, l=3"),
    (VERIFY_ARGV, COLUMN_DROP, "kernel dimension 351 != Weyl dimension 352 "
                               "of weight (3, 0, 0, 0, 0, 0) for n=12, l=3"),
    (KERNEL_ARGV, WEYL_FAULT, "kernel dimension 672 != Weyl dimension 673 "
                              "of weight (5, 0, 0, 0) for n=8, l=5"),
    (VERIFY_ARGV, WEYL_FAULT, "kernel dimension 4004 != Weyl dimension 4005 "
                              "of weight (5, 0, 0, 0, 0, 0) for n=12, l=5"),
], ids=["harmonic-column-drop", "verify-column-drop", "harmonic-weyl", "verify-weyl"])
def test_a_wrong_dimension_is_refused_with_exit_3(capsys, monkeypatch, argv, fault, line):
    # one line on stderr and nothing on stdout, though earlier rows passed,
    # through main and through the process
    import lieball.harmonic as hm

    name, wrapper = fault
    monkeypatch.setattr(hm, name, eval(wrapper)(getattr(hm, name)))
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"certification failure: {line}\n")
    code, out, err = entry(argv, fault_setup(fault))
    assert (code, out, frozen(err)[1]) == (3, "", f"certification failure: {line}\n")


def test_entry_leaves_a_usage_error_unfrozen():
    # a SystemExit raised inside main passes through the entry as it is
    code, out, err = entry(["weyl", "--m", "9"])
    assert (code, out) == (2, "")
    count, rest = frozen(err)
    assert count == 0
    assert rest.endswith("lieball weyl: error: --m exceeds the enumeration bound 8\n")


@pytest.mark.parametrize("redirect, reason", [
    ("> /dev/full", "[Errno 28] No space left on device"),
    (">&-", "[Errno 9] Bad file descriptor"),
], ids=["full-device", "closed"])
def test_a_failed_stdout_write_is_usage_error(redirect, reason):
    # the one line an unwritable --out prints, and no second error from the
    # flush at exit
    proc = subprocess.run(
        ["bash", "-c", f'"$0" -m lieball "$@" {redirect}', sys.executable, *KERNEL_ARGV],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, f"lieball: error: cannot write stdout: {reason}\n")


# --- Random command lines -------------------------------------------------------

# The values each flag is drawn with: in range and out of it, negative,
# fractional, malformed, led by '-', and '--'.  Every run stays small (--m
# at most 7, --n at most 8, --max-l at most 6), since no subcommand refuses
# a large request up front.  The values of --m are read alike below 2 too,
# and a stray --m and a stray -1 can combine into one: only `main` refuses
# an --m below 2, after parsing, with a usage error of its own.
VALUES = {
    "--m": ["2", "3", "4", "007", "1", "0", "-1", " 3", "x", "2.5", "", "-3/2", "-", "-1/2", "--"],
    "--n": ["4", "5", "6", "8", "2", "3", "-4", "x", "-1/3", "--"],
    "--seed": ["0", "7", "-2", "1_0", "seed", "-1/2", "--"],
    "--max-l": ["0", "1", "3", "4", "6", "-1", "-3", "two", "-1/2", "--"],
    "--lambda": ["1", "3/2", "2", "0", "1/2", "3", "7/2", "1e3", "1/0", "x", "-1", "-2", "-3/2",
                 "-1/2", "-1e3", "-1/0", "-", "-x", "-h", "--"],
    "--nu": ["1", "5/2", "2", "0", "1/2", "3/2", "3", "7/2", "1/0", "-1", "-2", "-1/2", "-3/2",
             "-5/2", "-", "--"],
    "--z": ["2", "5/2", "1", "0", "1/2", "3/2", "3", "7/2", "1e-3", "1/0", "-1", "-2", "-1/2",
            "-3/2", "-1/3", "-1e-3", "-1/0", "--z", "--"],
    "--format": ["text", "json", "csv", "xml", "-", "--"],
    "--out": ["table.txt", "", "-", "-table.txt", "--"],
}
STRAYS = [["-h"], ["--help"], ["--"], ["--bogus"], ["7"], ["-3/2"], ["-1"], ["-"], ["-x"],
          ["--m"], ["--z"], ["--nu=1"], ["--format=xml"], ["--lambda=-1"], ["--lamb", "-3/2"],
          ["--l", "-1/2"], ["--n", "-1/3"], ["--nu", "-"], ["--z", "-1/3"], ["--m", "-3/2"],
          ["--lambda", "-h"], *([name] for name in _SUBCOMMANDS)]


@st.composite
def command_lines(draw):
    """A command line drawn from the flag tables: mostly a subcommand and its
    flags as `--flag value` pairs, with prefixes, `=` forms, repeated and
    missing flags mixed in, and up to three stray tokens or flag and value
    pairs anywhere, before the subcommand too."""
    name = draw(st.sampled_from(list(_SUBCOMMANDS)))
    table = _SUBCOMMANDS[name][2]
    options = list(table)
    required = [o for o in options if table[o].get("required")]
    optional = draw(st.lists(st.sampled_from(options), unique=True))
    flags = draw(st.permutations(sorted(set(required) | set(optional))))
    argv = [name]
    for flag in flags:
        value = draw(st.sampled_from(VALUES[flag]))
        form = draw(st.sampled_from(["pair"] * 12 + ["prefix", "equals", "repeat", "drop"]))
        if form == "prefix":
            argv += [flag[:draw(st.integers(3, len(flag)))], value]
        elif form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "repeat":
            argv += [flag, draw(st.sampled_from(VALUES[flag])), flag, value]
        elif form == "pair":
            argv += [flag, value]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.sampled_from(STRAYS))
    return argv


def parse_outcome(parse, argv):
    """What parse(argv) reads: the namespace's attributes (None where it
    exits), the exit code, stdout and stderr, at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    read, code = None, None
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            read = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return read, code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example(["ktypes", "--m", "2", "--m", "-1"])
@example(["ktypes", "--m", "3", "--lambda=--"])
@example(["verma", "--m", "3", "--out=--", "--nu=--"])
@example(["ktypes", "--m", "3", "--lambda=--", "--bogus"])
def test_main_reads_argv_as_the_joining_reference_parser(argv):
    # every negative fraction is read where the parser that joins it to its
    # flag itself reads it, with the same output and exit code elsewhere; an
    # argv the table reader takes has no '-'-led value, so argparse reads it alike
    reference = parse_outcome(lambda a: reference_parser().parse_args(a), argv)
    assert parse_outcome(_parse, argv) == reference, argv


def run_outcome(argv):
    """Exit code, stdout, stderr and the files written of main(argv), run in
    an empty temporary working directory."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                    assert code in (0, 1, 3), argv  # no drawn run is too large for memory
                except SystemExit as exc:
                    assert exc.code in (0, 2), argv  # help, or a usage error
                    code = exc.code
            files = {path.name: path.read_bytes() for path in pathlib.Path(cwd).iterdir()}
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example(["ktypes", "--m", "3", "--lambda=--"])
def test_every_run_keeps_the_exit_code_contract(argv):
    # 0 ok, 1 verification failure, 2 usage, 3 certification; no traceback,
    # stdout only with a report, and the same outcome every time
    code, out, err, _ = outcome = run_outcome(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert code in (0, 1) or out == "", argv
    assert run_outcome(argv) == outcome, argv


@pytest.mark.parametrize("argv", [
    [name, *(["--n", "4", "--z", "1"] if name == "ehw" else ["--m", "3"]), f"{flag}=--"]
    for name, (_, _, flags) in _SUBCOMMANDS.items() for flag in flags
], ids=lambda argv: argv[0] + argv[-1][:-3])
def test_a_flag_given_double_dash_is_usage_error(argv):
    # every flag of every subcommand: argparse before Python 3.13 reads
    # `--flag=--` as [] without calling the flag's type, and `argparser` refuses
    # it; 3.13 calls the type on '--', which refuses it for every flag but
    # --out, whose report goes to the file '--'
    code, out, err, files = run_outcome(argv)
    assert out == "" and "Traceback" not in err
    if code == 0:
        assert _parse(argv).out == "--" and files["--"]
    else:
        assert code == 2 and f"lieball {argv[0]}: error: argument {argv[-1][:-3]}: " in err


@pytest.mark.parametrize("name", _SUBCOMMANDS)
def test_reader_leaves_every_double_dash_value_to_argparse(name):
    # '--' as a value, or `--flag=--`, which argparse before 3.13 reads as
    # [], never comes out of the table reader, so only the argparse path
    # needs to refuse []
    required = ["--n", "4", "--z", "1"] if name == "ehw" else ["--m", "3"]
    assert _read_flags([name, *required]) is not None
    for flag in _SUBCOMMANDS[name][2]:
        assert _read_flags([name, *required, flag, "--"]) is None
        assert _read_flags([name, *required, f"{flag}=--"]) is None


def test_a_flag_type_raising_no_refusal_propagates(monkeypatch):
    # the table reader leaves the value to argparse, which calls the type
    # again and lets anything but a refusal out of `main`
    def broken(raw):
        raise RuntimeError(f"broken type on {raw!r}")

    flags = _SUBCOMMANDS["verify"][2]
    monkeypatch.setitem(flags, "--seed", {**flags["--seed"], "type": broken})
    with pytest.raises(RuntimeError, match="broken type on '1'"):
        main(["verify", "--m", "2", "--seed", "1"])


def benchmark_argv():
    """The invocations the benchmark times, as perfbench/workloads.py builds
    them for the workloads BENCHMARK.json names."""
    workloads, _, names = perfbench()
    return [workloads.WORKLOADS[name].argv(seed) for name in names for seed in (0, 1, 9)]


def test_the_benchmark_oracle_accepts_each_workload_golden():
    # the oracle that judges the benchmark's runs holds each timed
    # invocation's golden at seed 1, so an output change that it would
    # refuse fails here too; its corrupted copy refuses the golden
    workloads, oracle, names = perfbench()
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    for name in names:
        workload = workloads.WORKLOADS[name]
        argv = workload.argv(1) + ["--format", "text"]
        [golden] = [c["stdout"] for c in cases if c["argv"] == argv]
        out = (GOLDEN / golden).read_text(encoding="utf-8")
        want = oracle.expected(workload, 1)
        assert want.check(0, out) is None, name
        assert want.corrupted().check(0, out) is not None, name


def test_reader_takes_the_benchmark_and_golden_invocations():
    # the fast path applies to what is timed and to every well-formed golden
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    well_formed = [
        c["argv"] for c in cases
        if not any(token.startswith("-") for token in c["argv"][2::2])
        and all(token in VALUES for token in c["argv"][1::2])
    ]
    assert len(well_formed) > len(cases) // 2
    argvs = benchmark_argv() + well_formed
    assert [argv for argv in argvs if _read_flags(argv) is None] == []
    for argv in argvs:
        assert vars(_read_flags(argv)) == vars(reference_parser().parse_args(argv))
