"""Byte-for-byte CLI regression: stdout, stderr and exit code of fixed
commands, each run in exact and in numeric mode.

The expected output lives in ``tests/golden/cli.json``; the matrix and
path files the commands read sit next to it.  After an intended change
of output, rewrite the expectations with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/golden/cli.json``.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from spectral_stokes import cli

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
GOLDEN_FILE = GOLDEN_DIR / "cli.json"

COMMANDS = [
    "hor spectrum --k 1 --beta 1/3,2/3",
    "hor spectrum --k 2 --beta 0,1/4,1/2,3/4",
    "hor spectrum --k 1 --beta 0,0.5,1",
    "hor spectrum --k 1 --beta 1/5,2/5,3/5,4/5",
    "hor matrix --poly 1,1,1",
    "hor matrix --poly=-1,1,-1,1",
    "hor matrix --poly=-1.0,1 --k 2",
    "hor matrix --poly 1,4,6,4,1 --k 1",
    "hor matrix --poly 1,1/2,1",
    "hor verify --n 4 --samples 5",
    "--seed 3 hor verify --n 6 --samples 3",
    "hor track --k 1 --target-poly 1,2,1 --steps 50",
    "hor track --k 2 --target-poly=-1,1,-1,1 --steps 60",
    "hor track --k 1 --target-poly 1,1,1,1,1 --steps 40",
    "seifert classify --matrix m2.json",
    "seifert classify --matrix m3.json --gram gram",
    "seifert classify --matrix m3sym.json",
    "seifert classify --matrix m4jordan.json --exact",
    "seifert classify --matrix m4kron.json --exact",
    "seifert iso m2.json m2b.json",
    "seifert iso m2.json m3.json",
    "chain verify --a 3,2,2",
    "chain spectrum --a 3,3",
    "chain spectrum --a 3,2 --format csv",
    "--output csv chain grid --a0-max 3 --aj-max 2 --m-max 1",
    "chain grid --a0-max 4 --aj-max 2 --m-max 2",
    "strata3 classify --a 1,1,1",
    "strata3 classify --a 2,2,2",
    "strata3 classify --a 0,0,0",
    "strata3 classify --a 2,1,1",
    "strata3 classify --a=-2,1,-1",
    "strata3 classify --a 1,1/2,0",
    "strata3 classify --a 3,3,3",
    "strata3 classify --a 0,2,1/2",
    "strata3 classify --a 5,0,0",
    "strata3 scan --step 1 --lo -2 --hi 2",
    "solve2 --a 1",
    "solve2 --a 2",
    "solve2 --a 0",
    "solve2 --a 1/2",
    "solve2 --a=-2",
    "solve2 --a 5",
    "--output table solve2 --a 0",
    "orbit conj16 --n 6",
    "orbit explore --matrix m3.json --depth 2 --budget 50",
    "track --path-file path.json --steps 100",
]

MODES = ("exact", "numeric")


def _argv(mode, command):
    return ["--mode", mode] + command.split()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load():
    with open(GOLDEN_FILE) as fh:
        return {tuple(case["argv"]): case for case in json.load(fh)}


@pytest.fixture(scope="module")
def golden():
    return _load()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_unchanged(golden, monkeypatch, mode, command):
    monkeypatch.delenv("SPECTRAL_STOKES_MODE", raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    argv = _argv(mode, command)
    want = golden[tuple(argv)]
    got = _run(argv)
    assert (got["exit"], got["stdout"], got["stderr"]) == \
        (want["exit"], want["stdout"], want["stderr"])


def test_golden_file_matches_command_list(golden):
    assert set(golden) == {tuple(_argv(m, c)) for c in COMMANDS for m in MODES}


if __name__ == "__main__":
    os.environ.pop("SPECTRAL_STOKES_MODE", None)
    os.chdir(GOLDEN_DIR)
    cases = [dict(argv=_argv(m, c), **_run(_argv(m, c))) for c in COMMANDS for m in MODES]
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
