"""Command line behaviour: formats, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieball.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_ktypes_text(capsys):
    code, out = run(capsys, ["ktypes", "--m", "2", "--max-l", "3"])
    assert code == 0
    assert "K-type table  m=2  lambda=1  (multiplicity)" in out
    assert "1  (0, 0)  1" in out
    assert "entries: 4" in out


def test_ktypes_json_schema(capsys):
    code, out = run(capsys, ["ktypes", "--m", "3", "--max-l", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"m", "lambda", "entries"}
    assert payload["m"] == 3 and payload["lambda"] == 2
    for entry in payload["entries"]:
        assert set(entry) == {"mu0", "mu", "mult"}
        assert len(entry["mu"]) == 3
    assert payload["entries"][0] == {"mu0": 2, "mu": [0, 0, 0], "mult": 1}


def test_ktypes_csv(capsys):
    code, out = run(capsys, ["ktypes", "--m", "2", "--max-l", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu0,mu_1,mu_2,mult"
    assert lines[1:] == ["1,0,0,1", "2,1,0,1", "3,2,0,1"]


def test_ktypes_euler_label_outside_weakly_fair(capsys):
    code, out = run(capsys, ["ktypes", "--m", "3", "--lambda", "1", "--max-l", "2"])
    assert code == 0
    assert "(Euler characteristic)" in out


def test_ktypes_matches_harmonic_bytes(capsys):
    code, algebraic = run(capsys, ["ktypes", "--m", "2", "--max-l", "4", "--format", "json"])
    assert code == 0
    code, analytic = run(capsys, ["harmonic", "--m", "2", "--max-l", "4", "--format", "json"])
    assert code == 0
    assert algebraic == analytic


def test_harmonic_text_reports_dimensions(capsys):
    code, out = run(capsys, ["harmonic", "--m", "2", "--max-l", "2"])
    assert code == 0
    assert "kernel_dim" in out
    assert "3  (2, 0)  1  9  9" in out


def test_verify_passes(capsys):
    code, out = run(capsys, ["verify", "--m", "2", "--max-l", "3"])
    assert code == 0
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out
    assert out.strip().endswith("result: PASS (6/6)")


def test_verify_json(capsys):
    code, out = run(capsys, ["verify", "--m", "2", "--max-l", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["seed"] == 0
    assert len(payload["checks"]) == 6
    assert all(c["pass"] for c in payload["checks"])


def test_verify_is_byte_stable(capsys):
    args = ["verify", "--m", "2", "--max-l", "3", "--seed", "7"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    assert first == second


def test_verify_detects_injected_fault(capsys, monkeypatch):
    import lieball.kostant as ks

    monkeypatch.setattr(ks, "rho_c", lambda m: (0,) * m)
    code, out = run(capsys, ["verify", "--m", "2", "--max-l", "3"])
    assert code == 1
    assert "[FAIL] ktype tables" in out
    assert "first difference" in out
    assert "[FAIL] unique scalar match" in out
    assert "result: FAIL" in out


def test_verify_reports_certification_failure(capsys, monkeypatch):
    import lieball.harmonic as hm

    monkeypatch.setattr(hm, "weyl_dim_so2m", lambda m, mu: 999)
    code = main(["verify", "--m", "2", "--max-l", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "certification failure" in captured.err


@pytest.mark.parametrize("module, name", [
    ("lieball.blattner", "s_u_cap_p_component"),  # while building the report
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
    import lieball.commands.ranges as ranges

    def refuse(*args):
        raise AssertionError("the JSON witnesses were built for --format " + fmt)

    monkeypatch.setattr(ranges, "_witnesses_json", refuse)
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


def test_out_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "table.json"
    code, out = run(capsys, ["ktypes", "--m", "2", "--format", "json"])
    assert code == 0
    code2 = main(["ktypes", "--m", "2", "--format", "json", "--out", str(target)])
    captured = capsys.readouterr()
    assert code2 == 0
    assert captured.out == ""
    assert target.read_text(encoding="utf-8") == out


def test_weyl_listing(capsys):
    code, out = run(capsys, ["weyl", "--m", "3"])
    assert code == 0
    assert "count=4" in out
    code, out = run(capsys, ["weyl", "--m", "4", "--format", "json"])
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["elements"][0]["length"] == 0
    assert max(e["length"] for e in payload["elements"]) == 6


def test_weyl_rejects_large_rank():
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--m", "9"])
    assert exc.value.code == 2


def test_ktypes_beyond_the_weyl_listing_bound(capsys):
    code, out = run(capsys, ["ktypes", "--m", "12", "--max-l", "4"])
    assert code == 0
    rows = out.splitlines()[3:-1]
    assert rows == [f"{l + 11}  ({l}, {', '.join(['0'] * 11)})  1" for l in range(5)]


def test_verify_beyond_the_weyl_listing_bound(capsys):
    code, out = run(capsys, ["verify", "--m", "12", "--max-l", "4"])
    assert code == 0
    assert out.strip().endswith("result: PASS (6/6)")


def test_rejects_small_rank():
    for sub in ("ktypes", "weyl", "verify", "harmonic", "ranges"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--m", "1"])
        assert exc.value.code == 2


def test_ranges_text(capsys):
    code, out = run(capsys, ["ranges", "--m", "2"])
    assert code == 0
    assert "weakly_fair: true" in out
    assert "good: false" in out
    assert "singular" in out


def test_ranges_json(capsys):
    code, out = run(capsys, ["ranges", "--m", "2", "--lambda", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload["weakly_fair"] is True and payload["good"] is True
    assert payload["good_witnesses"] == []
    assert payload["inf_char"] == [2, 1, 0]


def test_verma_sweep(capsys):
    code, out = run(capsys, ["verma", "--m", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,lambda,nu,degree,orbit_equal"
    assert lines[1] == "0,2,2,0,true"
    assert lines[2] == "1,1,3,1,true"


def test_verma_pair(capsys):
    code, out = run(capsys, ["verma", "--m", "2", "--lambda", "1", "--nu", "3"])
    assert code == 0
    assert "degree 1" in out
    code, out = run(capsys, ["verma", "--m", "2", "--lambda", "1", "--nu", "2"])
    assert code == 0
    assert "no homomorphism" in out


def test_verma_requires_both_params():
    with pytest.raises(SystemExit) as exc:
        main(["verma", "--m", "2", "--lambda", "1"])
    assert exc.value.code == 2


def test_ehw_text(capsys):
    code, out = run(capsys, ["ehw", "--n", "4", "--z", "2", "--lambda", "1"])
    assert code == 0
    assert "unitarizable: true" in out
    assert "Laplacian power 1" in out
    code, out = run(capsys, ["ehw", "--n", "4", "--z", "5/2"])
    assert code == 0
    assert "unitarizable: false" in out


def test_ehw_json(capsys):
    code, out = run(capsys, ["ehw", "--n", "6", "--z", "3", "--format", "json"])
    payload = json.loads(out)
    assert payload["unitarizable"] is True
    assert payload["first_reduction_point"] == 3
    assert payload["last_unitary_point"] == 5


def test_ehw_rejects_odd_rank_with_lambda():
    with pytest.raises(SystemExit) as exc:
        main(["ehw", "--n", "5", "--z", "1", "--lambda", "1"])
    assert exc.value.code == 2


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


def test_ktypes_rejects_fractional_lambda():
    with pytest.raises(SystemExit) as exc:
        main(["ktypes", "--m", "2", "--lambda", "3/2"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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
    ],
)
def test_checked_usage_errors_name_the_subcommand(capsys, argv, message):
    # the same prefixes as argparse's own errors for that subcommand
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: lieball {argv[0]} [-h] ")
    assert captured.err.splitlines()[-1] == f"lieball {argv[0]}: error: {message}"


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
    ],
)
def test_exponent_notation_within_bound_is_accepted(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "table.json"
    with pytest.raises(SystemExit) as exc:
        main(["ktypes", "--m", "2", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lieball: error: cannot write --out")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


SMALL_PARAMS = st.sampled_from(["-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2", "3", "7/2", "1/0"])
OPTIONAL_FLAGS = {
    "ktypes": ("--lambda",),
    "harmonic": (),
    "verify": ("--seed",),
    "weyl": (),
    "ranges": ("--lambda",),
    "verma": ("--lambda", "--nu"),
    "ehw": ("--lambda",),
}


@st.composite
def cli_argv(draw):
    """A small invocation: m <= 4 and max_l <= 4, so nothing large runs.
    Values may be out of range, and a junk token may be inserted anywhere."""
    sub = draw(st.sampled_from(sorted(OPTIONAL_FLAGS)))
    argv = [sub]
    if sub == "ehw":
        z = draw(SMALL_PARAMS)
        argv.append(f"--n={draw(st.integers(2, 8))}")
        argv += ["--z", z] if draw(st.booleans()) else [f"--z={z}"]
    else:
        argv.append(f"--m={draw(st.integers(-1, 4))}")
    if sub in ("ktypes", "harmonic", "verify", "verma"):
        argv.append(f"--max-l={draw(st.integers(-3, 4))}")
    for flag in OPTIONAL_FLAGS[sub]:
        if draw(st.booleans()):
            value = draw(SMALL_PARAMS)
            argv += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    argv.append(f"--format={draw(st.sampled_from(['text', 'json', 'csv']))}")
    if draw(st.integers(0, 4)) == 0:
        junk = draw(st.sampled_from(["--bogus", "7", "--m", "--nu=1", "--format=xml", "--z"]))
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


def _invoke(argv):
    """Exit code, stdout and stderr of main(argv); usage errors must be
    SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = 2
        else:
            assert code in (0, 1, 3), argv
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(cli_argv())
def test_random_argv_maps_to_an_exit_code(argv):
    result = _invoke(argv)
    assert result == _invoke(argv)
    # a drawn -p/q given as its own argument is read as the flag's value (a
    # junk copy of the flag elsewhere may still lack one)
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--lambda", "--nu", "--z") and argv.count(flag) == 1:
            if re.fullmatch(r"-\d+/\d+", value):
                assert f"argument {flag}: expected one argument" not in result[2], argv


def test_subprocess_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lieball", "verify", "--m", "2", "--max-l", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


def test_subprocess_matches_in_process(capsys):
    args = ["ktypes", "--m", "2", "--max-l", "3", "--format", "json"]
    _, inproc = run(capsys, args)
    proc = subprocess.run(
        [sys.executable, "-m", "lieball", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == inproc
