"""Golden stdout snapshots of every ``colorhom`` command shown in the README.

Each command runs in-process through ``cli.run_command`` from the repository
root, as the README writes it; its stdout and exit code must match the
snapshot under ``tests/golden/`` byte for byte.  The deformation commands read
the term files committed next to the snapshots.  When an output change is
intended, re-record with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""
import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from colorhomlie import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "src/colorhomlie/data"

COMMANDS = {
    "validate": ["validate", f"{DATA}/sl2c_z2z2.alg"],
    "twists": ["twists", "--algebra", f"{DATA}/sl2c_z2z3.alg", "--entries", "-1,0,1"],
    "cohomology": ["cohomology", "--algebra", f"{DATA}/sl2c_z2z2.alg",
                   "--module", "adjoint", "--n", "2", "--r", "0", "--degree", "1,0",
                   "--restrict", "free"],
    "structure": ["structure", "--algebra", f"{DATA}/sl2c_z2z2.alg",
                  "--kind", "gder", "--k", "1"],
    "jordan": ["jordan", "--algebra", f"{DATA}/sl2c_z2z2.alg", "--k", "2"],
    "derived": ["derived", "--algebra", f"{DATA}/sl2c_z2z2.alg", "--n", "1"],
    "hls": ["hls", "--algebra", f"{DATA}/qwitt_trunc_q2.alg",
            "--sigma", '[["1","0","0"],["0","2","0"],["0","0","4"]]',
            "--delta-map", '[["0","1","0"],["0","0","3"],["0","0","0"]]',
            "--delta-scalar", "2"],
    "deform_compose": ["deform", "compose", "--algebra", f"{DATA}/sl2c_z2z3.alg",
                       "--alpha-terms", "tests/golden/alpha_terms.json", "--order", "3"],
    "deform_check": ["deform", "check", "--algebra", f"{DATA}/sl2c_z2z2.alg",
                     "--bracket-terms", "tests/golden/terms.json"],
}


def run_in_root(argv):
    """(exit code, stdout, stderr) of one command run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def load_exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden_stdout(name):
    code, out, _ = run_in_root(COMMANDS[name])
    assert code == load_exit_codes()[name]
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert out.encode("utf-8") == expected


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_writes_one_summary_line_to_stderr(name):
    _, _, err = run_in_root(COMMANDS[name])
    assert len(err.splitlines()) == 1 and err.endswith("\n") and err.strip()


def test_every_snapshot_has_a_command():
    recorded = {p.stem for p in GOLDEN.glob("*.out")}
    assert recorded == set(COMMANDS) == set(load_exit_codes())


def record():
    codes = {}
    for name, argv in sorted(COMMANDS.items()):
        codes[name], out, _ = run_in_root(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True)
                                            + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
