"""Self-test of the benchmark; outside the library's test paths, run with

    python3 -m pytest -q perfbench
"""

import benchenv

benchenv.prepare()

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from spectral_stokes import chain, hor, matrices as mx, polycore  # noqa: E402
from spectral_stokes import seifert as sf  # noqa: E402


def _small_pass(name):
    """A few items of each part of the workload, from its seed-0 pass."""
    wl = workloads.WORKLOADS[name]
    first = wl.make_inputs(0)
    if name == "numeric":
        return wl, first[:8], wl.reference()
    xs = [x for part in wl.parts for x in [y for y in first if y[1] is part][:4]]
    return wl, xs, wl.reference()


def _drop_last_type(fn):
    return lambda *a, **k: fn(*a, **k)[:-1]


CORRUPTIONS = {
    "family": ("exact", sf, "class_from_spp", _drop_last_type),
    "grid3": ("exact", mx, "signature_exact", lambda fn: lambda *a, **k: (0, 0, 0)),
    "chain": ("exact", chain, "verify_spectrum_shift", lambda fn: lambda *a, **k: False),
    "numeric": ("numeric", hor, "simplex_path_track",
                lambda fn: lambda *a, **k: type("T", (), {"endpoint": [0.0]})()),
}


@pytest.mark.parametrize("part", sorted(CORRUPTIONS))
def test_corrupted_answer_raises_fail_frac(part, monkeypatch):
    name, module, attr, corrupt = CORRUPTIONS[part]
    wl, xs, ref = _small_pass(name)
    clean = run.run_pass(wl, xs)
    assert run.count_failures(wl, clean, ref) == 0

    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    bad = run.run_pass(wl, xs)
    assert run.count_failures(wl, bad, ref) / len(xs) > 0


def test_tracer_wraps_name_bound_calls():
    tr = tracing.Tracer()
    original = hor.unit_circle_angles
    M = hor.poly_to_matrix(polycore.poly_from_cyclotomic_mults({1: 2, 3: 1}), 1)
    tr.install()
    try:
        assert hor.unit_circle_angles is not original
        hor.matrix_to_scal(M)
    finally:
        tr.uninstall()
    assert hor.unit_circle_angles is original
    rows = tr.collect()
    # hor imports these by name; polycore calls them through its globals
    assert rows["polycore.unit_circle_angles"]["calls"] >= 1
    assert rows["polycore.factor_cyclotomic"]["calls"] >= 1
    assert rows["polycore.totient"]["calls"] > 0
    assert rows["polycore.unit_circle_angles"]["tags"]["exact_rational"] >= 1


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    S = hor.poly_to_matrix(polycore.poly_from_cyclotomic_mults({2: 1, 4: 1, 6: 1}), 1).S
    outer = tr.wrap("outer", lambda: sf.classify(sf.SeifertPair.from_triangular(S)))
    tr.install()
    try:
        outer()
    finally:
        tr.uninstall()
    rows = tr.collect()
    row = rows["outer"]
    inside = sum(r["self_s"] for n, r in rows.items() if n != "outer")
    assert row["self_s"] >= 0
    assert abs(row["total_s"] - row["self_s"] - inside) < 1e-9


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(benchenv.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
