"""The scripts in `scripts/`, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_make_tables_writes_equal_tables(tmp_path, fmt):
    proc = run_script(
        "make_tables.py", "--min-m", "2", "--max-m", "3", "--max-l", "4",
        "--format", fmt, "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"ktypes_m{m}_{tag}.{fmt}" for m in (2, 3) for tag in ("euler", "kernel")
    ]
    for m in (2, 3):
        euler = (tmp_path / f"ktypes_m{m}_euler.{fmt}").read_bytes()
        assert euler
        assert euler == (tmp_path / f"ktypes_m{m}_kernel.{fmt}").read_bytes()


def test_run_verification_passes():
    proc = run_script("run_verification.py", "--max-m", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: PASS"
