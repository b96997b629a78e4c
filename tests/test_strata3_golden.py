"""Pinned size-3 outputs: the sha256 and row count of the step-1/4
``strata3 scan`` CSV, and ``strata3 classify`` in exact and numeric mode
on the points where the closed form switches rule: a cone point, both
f = 0 sheets (each also at |a1| = 2), the Jordan-3 boundary and one point
of each interior component.

The expectations live in ``tests/golden/strata3.json``.  After an intended
change of output, rewrite them with

    PYTHONPATH=src python tests/test_strata3_golden.py

and review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

import pytest

from spectral_stokes import cli

GOLDEN_FILE = pathlib.Path(__file__).with_name("golden") / "strata3.json"

SCAN = ["strata3", "scan", "--step", "1/4"]

POINTS = [
    "2,-2,-2",          # cone point
    "-7/4,-1/2,-1/2",   # f = 0, definite sheet
    "-2,-3/2,3/2",      # f = 0, definite sheet, |a1| = 2
    "-4,-4,2",          # f = 0, indefinite sheet
    "-2,-7/2,7/2",      # f = 0, indefinite sheet, |a1| = 2
    "3,-3,-3",          # Jordan-3 boundary
    "-7/4,-7/4,5/4",    # interior, definite
    "-4,-4,9/4",        # interior, indefinite
]

MODES = ("exact", "numeric")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _scan():
    got = _run(["--mode", "exact"] + SCAN)
    assert got["exit"] == 0 and got["stderr"] == ""
    return {"sha256": hashlib.sha256(got["stdout"].encode()).hexdigest(),
            "rows": len(got["stdout"].strip().split("\n")) - 1}


def _classify_argv(mode, point):
    return ["--mode", mode, "strata3", "classify", f"--a={point}"]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _no_mode_override(monkeypatch):
    monkeypatch.delenv("SPECTRAL_STOKES_MODE", raising=False)


def test_scan_is_unchanged(golden):
    assert _scan() == golden["scan"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("point", POINTS)
def test_classify_is_unchanged(golden, mode, point):
    want = golden["classify"][f"{mode} {point}"]
    assert _run(_classify_argv(mode, point)) == want


def test_golden_file_matches_point_list(golden):
    assert set(golden["classify"]) == {f"{m} {p}" for p in POINTS for m in MODES}


if __name__ == "__main__":
    os.environ.pop("SPECTRAL_STOKES_MODE", None)
    data = {"scan": _scan(),
            "classify": {f"{m} {p}": _run(_classify_argv(m, p)) for p in POINTS for m in MODES}}
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
