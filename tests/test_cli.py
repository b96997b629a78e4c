import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from spectral_stokes import cli, errors, hor, lowdim, polycore


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_chain_verify(self, capsys):
        code, out, err = run_cli(capsys, "chain", "verify", "--a", "3,2")
        assert code == 0
        data = json.loads(out)
        assert data["a"] == [3, 2] and data["mu"] == 4 and data["holds"] is True

    def test_domain_error_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "solve2", "--a", "5")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "OutOfT"

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["not-a-command"])
        assert exc.value.code == 2

    def test_hor_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "hor", "spectrum", "--k", "1",
                               "--beta", "1/3,2/3")
        data = json.loads(out)
        assert code == 0 and data["spectrum"] == ["1/6", "-1/6"]

    def test_hor_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "hor", "matrix", "--poly", "1,1,1")
        data = json.loads(out)
        assert code == 0
        assert data["S"]["entries"] == [["1", "1"], ["0", "1"]]
        assert data["R"]["entries"] == [["-1", "-1"], ["1", "0"]]

    def test_hor_matrix_rational_double_root(self, capsys):
        # (x + 1)^2 (x^2 + x/2 + 1): the double root -1 is split off
        # exactly, where float roots put it 1.2e-8 off the circle
        code, out, err = run_cli(capsys, "--mode", "exact", "hor", "matrix",
                                 "--poly", "1,5/2,3,5/2,1")
        assert code == 0, err
        assert json.loads(out)["k"] == 1

    @pytest.mark.parametrize("k_args", [[], ["--k", "1"]])
    def test_hor_matrix_splits_its_polynomial_once(self, capsys, monkeypatch, k_args):
        # without --k the symmetry class found for k is not checked again
        calls = []
        real = polycore.unit_circle_angles
        monkeypatch.setattr(polycore, "unit_circle_angles",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        code, out, err = run_cli(capsys, "hor", "matrix", "--poly", "1,1,1", *k_args)
        assert code == 0, err
        assert json.loads(out)["k"] == 1 and len(calls) == 1

    def test_strata3_scan_row(self, capsys):
        code, out, _ = run_cli(capsys, "strata3", "scan", "--step", "1",
                               "--lo", "-2", "--hi", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("a1,a2,a3,f,stratum")
        assert any(line.startswith("2,2,2,0,Exceptional") for line in lines)

    def test_solve2_values(self, capsys):
        code, out, _ = run_cli(capsys, "solve2", "--a", "2")
        data = json.loads(out)
        assert data["alpha1"] == "1/2"
        assert data["spectral_pairs"] == [
            {"alpha": "-1/2", "level": 2, "mult": 1},
            {"alpha": "1/2", "level": 0, "mult": 1}]

    def test_seifert_classify_file(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": 2, "entries": [["1", "2"], ["0", "1"]]}))
        code, out, _ = run_cli(capsys, "seifert", "classify", "--matrix", str(f))
        data = json.loads(out)
        assert code == 0 and data["label"] == "Seif(-1,1,2,1)"

    def test_seifert_iso(self, capsys, tmp_path):
        fa = tmp_path / "a.json"
        fb = tmp_path / "b.json"
        fa.write_text(json.dumps({"n": 2, "entries": [["1", "1"], ["0", "1"]]}))
        fb.write_text(json.dumps({"n": 2, "entries": [["1", "-1"], ["0", "1"]]}))
        code, out, _ = run_cli(capsys, "seifert", "iso", str(fa), str(fb))
        assert code == 0 and json.loads(out)["isomorphic"] is True

    def test_track(self, capsys, tmp_path):
        f = tmp_path / "path.json"
        f.write_text(json.dumps({"path": [
            {"n": 2, "entries": [[1, 0], [0, 1]]},
            {"n": 2, "entries": [[1, 2], [0, 1]]}]}))
        code, out, _ = run_cli(capsys, "track", "--path-file", str(f),
                               "--steps", "300")
        data = json.loads(out)
        assert code == 0
        assert sorted(data["endpoint"]) == pytest.approx([-0.5, 0.5], abs=1e-6)
        assert data["path_dependent"] is True

    def test_orbit_conj16(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "conj16", "--n", "3")
        data = json.loads(out)
        assert code == 0
        assert "groups" in data and "violations" in data

    def test_orbit_explore(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": 2, "entries": [["1", "1"], ["0", "1"]]}))
        code, out, _ = run_cli(capsys, "orbit", "explore", "--matrix", str(f),
                               "--depth", "6", "--budget", "100")
        data = json.loads(out)
        assert code == 0 and data["nodes"] == 1

    def test_chain_grid_small(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "grid", "--a0-max", "3",
                               "--aj-max", "2", "--m-max", "1")
        data = json.loads(out)
        assert code == 0 and data["holds"] is True

    def test_hor_verify(self, capsys):
        code, out, _ = run_cli(capsys, "hor", "verify", "--n", "4",
                               "--samples", "25")
        data = json.loads(out)
        assert code == 0 and data["holds"] is True

    def test_hor_track(self, capsys):
        code, out, _ = run_cli(capsys, "hor", "track", "--k", "1",
                               "--target-poly", "1,2,1", "--steps", "200")
        data = json.loads(out)
        assert sorted(data["endpoint"]) == pytest.approx([-0.5, 0.5], abs=1e-6)


class TestEmit:
    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "--seed", "0", "hor", "verify",
                             "--n", "3", "--samples", "10")
        _, out2, _ = run_cli(capsys, "--seed", "0", "hor", "verify",
                             "--n", "3", "--samples", "10")
        assert out1 == out2

    def test_mode_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECTRAL_STOKES_MODE", "numeric")
        code, out, _ = run_cli(capsys, "--mode", "exact", "solve2", "--a", "1")
        data = json.loads(out)
        assert code == 0
        # numeric mode: values are printed as floats, not rationals
        assert "/" not in str(data["alpha1"])

    def test_round_trip_spp(self, capsys):
        from spectral_stokes.polycore import parse_rational
        from spectral_stokes.spectra import Spp
        _, out, _ = run_cli(capsys, "solve2", "--a", "2")
        pairs = json.loads(out)["spectral_pairs"]
        back = Spp(pair for r in pairs
                   for pair in [(parse_rational(r["alpha"]), r["level"])] * r["mult"])
        assert back.to_json() == pairs

    def test_empty_scan_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "strata3", "scan", "--step", "1",
                               "--lo", "5", "--hi", "6")
        assert code == 0
        assert out.strip() == "a1,a2,a3,f,stratum,types"


class TestSelftest:
    def test_selftest_wiring(self, capsys, monkeypatch):
        from spectral_stokes import acceptance

        calls = {}

        def fake_run_all(verbose=True):
            calls["ran"] = True

            class R:
                passed = True
                in_time = True
            return [R()]

        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        assert cli.main(["selftest"]) == 0
        assert calls.get("ran")

    @pytest.mark.parametrize("passed, seconds, code", [(True, 1.5, 0), (False, 1.5, 1),
                                                       (True, 99.0, 1)])
    def test_selftest_json_report(self, capsys, monkeypatch, passed, seconds, code):
        from spectral_stokes import acceptance

        def fake_run_all(verbose=True):
            assert not verbose
            details = {"failures": [(2, 1, {3: 1}, Fraction(1, 3), np.int64(4))], "count": 8}
            return [acceptance.CriterionResult("first", True, 0.25, 10.0),
                    acceptance.CriterionResult("second", passed, seconds, 60.0, details)]

        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        assert cli.main(["selftest", "--json"]) == code
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"criteria", "python", "numpy", "scipy", "git_sha"}
        assert report["numpy"] == np.__version__
        assert report["git_sha"] is None or len(report["git_sha"]) == 40
        first, second = report["criteria"]
        assert first == {"name": "first", "passed": True, "seconds": 0.25, "limit": 10.0,
                         "details": {}}
        assert second["passed"] is passed and second["seconds"] == seconds
        assert second["details"] == {"failures": [[2, 1, {"3": 1}, "1/3", "4"]], "count": 8}


@pytest.mark.parametrize("argv, file_data, error", [
    (["seifert", "classify", "--matrix"], {"n": 2}, "ValueError"),
    (["seifert", "classify", "--matrix"], {"entries": 5}, "ValueError"),
    (["seifert", "classify", "--matrix"], {"n": 2, "entries": [[2, True], [1e300, True]]},
     "ValueError"),
    (["track", "--path-file"], {"paths": []}, "ValueError"),
    (["track", "--path-file"], {"path": []}, "ValueError"),
    (["track", "--path-file"], {"path": [{"n": 2, "entries": [[1, 0], [0, 1]]},
                                         {"n": 2, "entries": [[1, 1e200], [0, 1]]}]}, "LeftT"),
    (["hor", "spectrum", "--k", "1", "--beta", "1/0"], None, "ValueError"),
    (["solve2", "--a", "nan"], None, "ValueError"),
    # the sign orbit of each node has 2^(n-1) members: refused before the walk
    (["orbit", "explore", "--matrix"],
     {"n": cli.MAX_ORBIT_N + 1, "entries": np.eye(cli.MAX_ORBIT_N + 1, dtype=int).tolist()},
     "ValueError"),
], ids=["matrix-without-entries", "entries-not-rows", "boolean-entries",
        "path-file-without-path", "empty-path", "overflowing-monodromy", "zero-denominator",
        "nan", "orbit-matrix-too-large"])
def test_bad_input_exits_one_without_traceback(tmp_path, argv, file_data, error):
    if file_data is not None:
        f = tmp_path / "input.json"
        f.write_text(json.dumps(file_data))
        argv = argv + [str(f)]
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_stokes.cli"] + argv,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == error


N = 10**400
#: a 4x4 Gram matrix with an entry past float range, and its twin at 10^200
BIG = [[1, N, 1, 2], [0, 1, 3, 1], [0, 0, 1, 5], [0, 0, 0, 1]]
BIG_TWIN = [[1, 10**200, 1, 2], [0, 1, 3, 1], [0, 0, 1, 5], [0, 0, 0, 1]]
#: a track path file from the identity to a matrix with an entry past float range
HUGE_PATH = {"path": [{"n": 2, "entries": [[1, 0], [0, 1]]}, {"n": 2, "entries": [[1, N], [0, 1]]}]}


def _k6_matrix():
    """The 8x8 unit upper-triangular matrix with entries k/10^6, k drawn
    row by row from [-999, 999] by Random(1)."""
    rng = random.Random(1)
    return [[(1 if i == j else 0) if j <= i else f"{rng.randint(-999, 999)}/1000000"
             for j in range(8)] for i in range(8)]


@pytest.mark.parametrize("argv, files, error", [
    (["seifert", "classify", "--exact", "--matrix", "@0"], [_k6_matrix()], None),
    (["hor", "matrix", "--poly", f"1,{N},{N},1"], [], "SpectralStokesError"),
    (["--mode", "numeric", "hor", "matrix", "--poly", f"1,{N},{N},1"], [], "ValueError"),
    (["seifert", "classify", "--exact", "--matrix", "@0"], [[[1, 10**155], [0, 1]]],
     "Unclassified"),
    (["seifert", "classify", "--matrix", "@0"], [BIG], "Unclassified"),
    (["--mode", "numeric", "seifert", "classify", "--matrix", "@0"], [BIG], "ValueError"),
    (["seifert", "iso", "@0", "@1"], [BIG, BIG_TWIN], "Unclassified"),
    (["track", "--path-file", "@0"], [HUGE_PATH], "ValueError"),
    (["--mode", "numeric", "track", "--path-file", "@0"], [HUGE_PATH], "ValueError"),
], ids=["k6-classifies", "hor-matrix-huge", "hor-matrix-huge-numeric", "hyperbolic-past-float",
        "gram-past-float", "gram-past-float-numeric", "iso-past-float", "track-past-float",
        "track-past-float-numeric"])
def test_huge_exact_input_keeps_the_contract(capsys, tmp_path, argv, files, error):
    # exit 0 with data or exit 1 with {"error": ...}, never an OverflowError
    for i, entries in enumerate(files):
        data = entries if isinstance(entries, dict) else {"n": len(entries), "entries": entries}
        (tmp_path / f"{i}.json").write_text(json.dumps(data))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    if error is None:
        assert code == 0 and err == "" and json.loads(out)["n"] == 8
    else:
        assert code == 1 and out == "" and json.loads(err)["error"] == error


def test_huge_hyperbolic_eigenvalue_is_its_trace(capsys, tmp_path):
    # c = 2 - 10^156: the root formula would square c past float range
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": 2, "entries": [[1, 10**78], [0, 1]]}))
    code, out, _ = run_cli(capsys, "seifert", "classify", "--matrix", str(f))
    assert code == 0
    assert json.loads(out)["types"] == [{"family": "F2hyper", "lambda": [-1e156, 0.0], "n": 1}]


@pytest.mark.parametrize("mode, dtype", [("exact", object), ("numeric", float)])
def test_seifert_iso_honours_the_mode(capsys, monkeypatch, tmp_path, mode, dtype):
    from spectral_stokes import seifert as sf
    seen = []
    classify = sf.classify

    def spy(P, tol=1e-8):
        seen.append(P.G.dtype)
        return classify(P, tol)

    monkeypatch.setattr(sf, "classify", spy)
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": 2, "entries": [[1, 1], [0, 1]]}))
    code, out, _ = run_cli(capsys, "--mode", mode, "seifert", "iso", str(f), str(f))
    assert code == 0 and json.loads(out) == {"isomorphic": True}
    assert seen == [dtype, dtype]


def test_float_kernel_warnings_stay_off_stderr(tmp_path):
    # numpy divides by zero on this monodromy; stderr is still one JSON document
    f = tmp_path / "input.json"
    f.write_text(json.dumps({"n": 2, "entries": [[2, 1], [1e300, 1]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_stokes.cli", "seifert", "classify", "--matrix", str(f)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    # the overflow is refused as a domain error, not as numpy's LinAlgError
    assert issubclass(getattr(errors, json.loads(proc.stderr)["error"]), errors.SpectralStokesError)


def test_hor_track_near_double_root_ends_at_recipe(capsys):
    # angles 0.45853, 0.45861 and their mirrors, which a least-distance
    # continuation of the companion eigenvalues used to lose
    code, out, _ = run_cli(capsys, "--mode", "numeric", "hor", "track", "--k", "1",
                           "--target-poly=1.0,3.865238387673439,5.735016931648329,"
                           "3.865238387673439,1.0")
    assert code == 0
    assert json.loads(out)["endpoint"] == pytest.approx([1.33412, 0.33444, -0.33444, -1.33412],
                                                        abs=1e-6)


@pytest.mark.parametrize("command", [["hor", "track", "--k", "1", "--target-poly", "1,2,1"],
                                     ["track", "--path-file", "path.json"]])
@pytest.mark.parametrize("steps", ["0", "-1", str(cli.MAX_TRACK_STEPS + 1), "many"])
def test_track_steps_out_of_range_is_usage_error(capsys, command, steps):
    # argument parsing fails before any tracker runs or any file is read
    with pytest.raises(SystemExit) as exc:
        cli.main(command + [f"--steps={steps}"])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err


def _identity_json(n):
    return {"n": n, "entries": [[int(i == j) for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("path", [
    [_identity_json(cli.MAX_TRACK_N + 1)] * 2,
    [_identity_json(1)] * (cli.MAX_TRACK_MATRICES + 1),
], ids=["matrix-too-large", "too-many-matrices"])
def test_oversize_path_file_exits_one(capsys, monkeypatch, tmp_path, path):
    # the caps fire before any matrix is parsed or any tracker runs
    def refuse(*args, **kwargs):
        raise AssertionError("the path file passed its caps")
    monkeypatch.setattr(cli.mx, "matrix_from_json", refuse)
    monkeypatch.setattr(cli.orbit, "generic_path_track", refuse)
    f = tmp_path / "path.json"
    f.write_text(json.dumps({"path": path}))
    code, out, err = run_cli(capsys, "track", "--path-file", str(f))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["orbit", "conj16", f"--n={cli.MAX_CONJ16_N + 1}"],
    ["orbit", "conj16", "--n=0"],
    ["chain", "grid", f"--a0-max={cli.MAX_GRID_A0 + 1}"],
    ["chain", "grid", f"--aj-max={cli.MAX_GRID_AJ + 1}"],
    ["chain", "grid", f"--m-max={cli.MAX_GRID_M + 1}"],
    ["chain", "grid", "--m-max=-1"],
    ["chain", "grid", "--a0-max=many"],
    ["chain", "verify", f"--a={cli.MAX_CHAIN_R + 1}"],
    ["chain", "spectrum", f"--a=2,{cli.MAX_CHAIN_R // 2 + 1}"],
    ["chain", "verify", "--a=3,x"],
    ["chain", "spectrum", "--a="],
    ["hor", "verify", f"--n={cli.MAX_VERIFY_N + 1}"],
    ["hor", "verify", "--n=0"],
    ["hor", "verify", "--n=4", f"--samples={cli.MAX_VERIFY_SAMPLES + 1}"],
    ["hor", "verify", "--n=4", "--samples=0"],
    ["strata3", "scan", "--step=0"],
    ["strata3", "scan", "--step=-1/4"],
    ["strata3", "scan", "--step=1/0"],
    ["strata3", "scan", "--step=x"],
    ["strata3", "scan", "--lo=-4", "--hi=4", "--step=1/9"],       # 73 values per axis
    ["strata3", "scan", "--lo=-1000000", "--hi=0", "--step=1"],
])
def test_enumeration_sizes_out_of_range_are_usage_errors(capsys, argv):
    # the guard fires while parsing, so no enumeration starts
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[-1].split("=")[0] in capsys.readouterr().err


def test_enumeration_size_caps_are_accepted():
    parser = cli.build_parser()
    args = parser.parse_args(["orbit", "conj16", f"--n={cli.MAX_CONJ16_N}"])
    assert args.n == cli.MAX_CONJ16_N
    args = parser.parse_args(["chain", "grid", f"--a0-max={cli.MAX_GRID_A0}",
                              f"--aj-max={cli.MAX_GRID_AJ}", f"--m-max={cli.MAX_GRID_M}"])
    assert (args.a0_max, args.aj_max, args.m_max) == \
        (cli.MAX_GRID_A0, cli.MAX_GRID_AJ, cli.MAX_GRID_M)
    for command in ("verify", "spectrum"):
        args = parser.parse_args(["chain", command, f"--a=2,{cli.MAX_CHAIN_R // 2}"])
        assert args.a == (2, cli.MAX_CHAIN_R // 2)
    args = parser.parse_args(["hor", "verify", f"--n={cli.MAX_VERIFY_N}",
                              f"--samples={cli.MAX_VERIFY_SAMPLES}"])
    assert (args.n, args.samples) == (cli.MAX_VERIFY_N, cli.MAX_VERIFY_SAMPLES)
    assert parser.parse_args(["hor", "verify", "--n=4"]).samples == 1000


def test_library_enumerations_refuse_oversize_input():
    # the cyclotomic enumeration admits every size conj16 may ask for
    assert cli.MAX_CONJ16_N <= hor.MAX_ENUMERATE_N
    with pytest.raises(ValueError, match="exceeds"):
        hor.enumerate_cyclotomic_mults(hor.MAX_ENUMERATE_N + 1, 1)
    for step in (0, -1, Fraction(-1, 4)):
        with pytest.raises(ValueError, match="positive"):
            next(lowdim.scan3(step=step))


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_positive_and_finite(capsys, tol):
    # a NaN tolerance would fail every tolerance comparison
    code, out, err = run_cli(capsys, f"--tol={tol}", "hor", "matrix", "--poly", "1,1,1")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "tol must be positive and finite"}


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_stokes.cli", "chain", "verify", "--a", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True
