"""Command-line front end.

Subcommands: hor, seifert, chain, strata3, solve2, orbit, track,
selftest.  Data goes to stdout (JSON by default, CSV for scans),
diagnostics to stderr; domain errors exit 1 with a machine-readable
{"error": ...} on stderr, usage errors exit 2.  The environment variable
SPECTRAL_STOKES_MODE overrides --mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import acceptance, chain, hor, lowdim, matrices as mx, orbit, seifert as sf
from .errors import SpectralStokesError
from .orbit import MAX_ORBIT_N
from .polycore import RealPoly, format_number, palindrome_class, parse_rational


#: largest --steps of the tracking commands: both trackers evaluate the
#: whole path as one batch, so memory grows as O(steps * n^2)
MAX_TRACK_STEPS = 1 << 16
#: largest matrix size and matrix count of a ``track`` path file, checked
#: before any entry is parsed: MAX_TRACK_STEPS samples of size 12 take 75 MB
MAX_TRACK_N, MAX_TRACK_MATRICES = 12, 1024
#: largest --n of ``orbit conj16``: the member pool roughly doubles with
#: each size (1,420 members of size 12 alone)
MAX_CONJ16_N = 12
#: largest bounds of ``chain grid``: the tuple count grows as aj_max^m_max
#: and the Milnor number of a tuple as the product of its exponents
MAX_GRID_A0, MAX_GRID_AJ, MAX_GRID_M = 8, 5, 4
#: largest r_m = a_0 ... a_m of ``chain verify --a`` and ``chain spectrum
#: --a``: work and memory grow with r_m (the ``chain grid`` caps reach 5,000)
MAX_CHAIN_R = 1 << 16
#: largest --n and --samples of ``hor verify``: the work per sample grows
#: with n, and the orbit-index candidates of a draw as n^2
MAX_VERIFY_N, MAX_VERIFY_SAMPLES = 24, 10_000
#: largest number of grid values per axis of ``strata3 scan``, which visits
#: the cube of it (the default --step 1/4 on [-4, 4] has 33, steps of 1/8 65)
MAX_SCAN_AXIS = 65
#: largest --budget (nodes) and --depth (generations, never more than the
#: nodes) of ``orbit explore``; its matrix size is capped at MAX_ORBIT_N,
#: checked before any entry is parsed
MAX_ORBIT_BUDGET = 100_000


def _int_in(lo: int, hi: int):
    """argparse type of an int in lo..hi; anything else is a usage error."""
    def bounded_int(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}, got {value}")
        return value
    return bounded_int


def _positive_rational(text: str) -> Fraction:
    """argparse type of a positive rational, "p/q" or decimal; anything else
    is a usage error."""
    try:
        value = Fraction(parse_rational(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _chain_exponents(text: str) -> tuple:
    """argparse type of comma-separated integer exponents whose product is
    at most MAX_CHAIN_R; anything else is a usage error."""
    try:
        a = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {text!r}") from None
    r = math.prod(a)
    if r > MAX_CHAIN_R:
        raise argparse.ArgumentTypeError(
            f"the product of the exponents must be at most {MAX_CHAIN_R}, got {r}")
    return a


@dataclass
class Config:
    mode: str = "exact"
    tol: float = 1e-9
    seed: int = 0
    output: str = "json"
    precision: int = 12

    def __post_init__(self):
        env = os.environ.get("SPECTRAL_STOKES_MODE")
        if env in ("exact", "numeric"):
            self.mode = env
        if not 0 < self.tol < math.inf:       # NaN fails every comparison
            raise ValueError("tol must be positive and finite")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")


def _num(cfg, s):
    v = parse_rational(s)
    if cfg.mode == "numeric":
        try:
            return float(v)
        except OverflowError:
            raise ValueError("a numeric-mode value is past float range") from None
    return v


def _nums(cfg, s):
    return [_num(cfg, part) for part in str(s).split(",") if part != ""]


def emit(result, cfg: Config) -> str:
    """Stable-keyed JSON, aligned key/value lines for --output table, or
    passthrough CSV text.  Handlers serialise their own values (rationals
    as "p/q" through ``format_number``), so the result is plain JSON data."""
    if isinstance(result, str):
        return result
    if cfg.output == "table" and isinstance(result, dict):
        width = max(len(k) for k in result)
        return "\n".join(f"{k:<{width}}  {json.dumps(v, sort_keys=True)}"
                         for k, v in sorted(result.items()))
    return json.dumps(result, sort_keys=True)


def _too_large(data, max_n: int) -> bool:
    """Whether matrix file data holds more than max_n rows, read before any
    entry is parsed."""
    return isinstance(data, dict) and isinstance(data.get("entries"), list) \
        and len(data["entries"]) > max_n


def _load_matrix(path: str, max_n: int | None = None) -> np.ndarray:
    with open(path) as fh:
        data = json.load(fh)
    if max_n is not None and _too_large(data, max_n):
        raise ValueError(f"the matrix must have size at most {max_n}")
    return mx.matrix_from_json(data)


def _load_pair(path: str, gram: str, cfg, exact: bool = False) -> sf.SeifertPair:
    """The pair of a matrix file, which holds its Gram matrix or, with
    ``gram`` "triangular", a unit upper-triangular member (Gram = transpose);
    in floats in numeric mode unless ``exact`` forces exact arithmetic."""
    S = _load_matrix(path)
    if exact and not mx.is_exact_matrix(S):
        raise SpectralStokesError("matrix file contains floats; cannot force exact mode")
    if not exact and cfg.mode == "numeric":
        try:
            S = np.asarray(S, dtype=float)
        except OverflowError:
            raise ValueError("a matrix entry is past float range") from None
    return sf.SeifertPair(S.T.copy() if gram == "triangular" else S)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_hor_spectrum(args, cfg):
    beta = tuple(_nums(cfg, args.beta))
    b = hor.HorScal(args.k, beta)
    spp = hor.recipe_spectral_pairs(b)
    return {
        "k": args.k,
        "beta": [format_number(x, cfg.precision) for x in b.beta],
        "spectrum": [format_number(a, cfg.precision) for a in hor.recipe_spectrum(b)],
        "spectral_pairs": spp.to_json(),
        "ladders": [{"alpha": format_number(l.alpha, cfg.precision), "m": l.m, "l": l.l}
                    for l in hor.recipe_ladders(b)],
    }


def _cmd_hor_matrix(args, cfg):
    p = RealPoly([_num(cfg, c) for c in args.poly.split(",")])
    k = args.k
    if k is None:
        k, _ = palindrome_class(p, max(cfg.tol, 1e-9))
        if k is None:
            raise SpectralStokesError("polynomial is not in either banded family")
    # palindrome_class has just found k: poly_to_matrix need not split p again
    M = hor.poly_to_matrix(p, k, tol=max(cfg.tol, 1e-9), check=args.k is not None)
    return {"k": k, "poly": p.to_json(), "S": mx.matrix_to_json(M.S, cfg.precision),
            "R": mx.matrix_to_json(hor.r_matrix(M), cfg.precision)}


def _cmd_hor_verify(args, cfg):
    rng = random.Random(cfg.seed)
    failures = []
    checked = 0
    for _ in range(args.samples):
        k = rng.choice((1, 2))
        M = hor.sample_cyclotomic_member(args.n, k, rng)
        ok, _ = hor.verify_power_identity(M)
        checked += 1
        if not ok:
            failures.append({"k": k, "poly": M.p.to_json()})
    return {"n": args.n, "samples": checked, "holds": not failures,
            "failures": failures}


def _cmd_hor_track(args, cfg):
    p = RealPoly([_num(cfg, c) for c in args.target_poly.split(",")])
    M = hor.poly_to_matrix(p, args.k, tol=max(cfg.tol, 1e-9))
    res = hor.simplex_path_track(M, steps=args.steps)
    return {"k": args.k, "target": p.to_json(), "steps": args.steps,
            "endpoint": [float(a) for a in res.endpoint]}


def _cmd_seifert_classify(args, cfg):
    P = _load_pair(args.matrix, args.gram, cfg, exact=args.exact)
    types = sf.classify(P, tol=max(cfg.tol, 1e-10))
    return {"n": P.n, "types": [t.to_json() for t in types],
            "label": sf.type_label_multiset(types)}


def _cmd_seifert_iso(args, cfg):
    A, B = (_load_pair(path, args.gram, cfg) for path in (args.a, args.b))
    return {"isomorphic": sf.iso_equal(A, B, tol=max(cfg.tol, 1e-10))}


def _cmd_chain_verify(args, cfg):
    a = args.a
    c = chain.ChainSing(a)
    p, k, _ = chain.stokes_poly(a)
    return {
        "a": list(a), "mu": c.mu, "k": k,
        "weights": [format_number(w, cfg.precision) for w in c.w],
        "shift": format_number(Fraction(c.m - 1, 2), cfg.precision),
        "holds": chain.verify_spectrum_shift(a),
    }


def _cmd_chain_grid(args, cfg):
    failures = []
    tuples = chain.grid_tuples(args.a0_max, args.aj_max, args.m_max)
    results = []
    for a in tuples:
        holds = chain.verify_spectrum_shift(a)
        results.append((a, holds))
        if not holds:
            failures.append(list(a))
    if cfg.output == "csv":
        lines = ["a,mu,holds"]
        for a, holds in results:
            lines.append(f"{' '.join(map(str, a))},{chain.ChainSing(a).mu},{holds}")
        return "\n".join(lines) + "\n"
    return {"a0_max": args.a0_max, "aj_max": args.aj_max, "m_max": args.m_max,
            "tuples": len(tuples), "holds": not failures, "failures": failures}


def _cmd_chain_spectrum(args, cfg):
    a = args.a
    c = chain.ChainSing(a)
    sp_f = chain.qh_spectrum(c.w)
    sp_s = chain.stokes_spectrum(a)
    if args.format == "csv":
        lines = ["index,alpha_f,alpha_matrix"]
        for i, (x, y) in enumerate(zip(sorted(sp_f), sorted(sp_s)), start=1):
            lines.append(f"{i},{format_number(x, cfg.precision)},"
                         f"{format_number(y, cfg.precision)}")
        return "\n".join(lines) + "\n"
    return {"a": list(a), "mu": c.mu,
            "spectrum_f": [format_number(x, cfg.precision) for x in sp_f],
            "spectrum_matrix": [format_number(x, cfg.precision) for x in sp_s]}


def _cmd_strata3_classify(args, cfg):
    a = tuple(_num(cfg, x) for x in args.a.split(","))
    if len(a) != 3:
        raise SpectralStokesError("need exactly three entries a1,a2,a3")
    c = lowdim.classify3(a)
    return {"a": [format_number(x, cfg.precision) for x in a],
            "f": format_number(c.f, cfg.precision),
            "stratum": c.stratum.value,
            "types": [t.to_json() for t in c.types],
            "label": sf.type_label_multiset(c.types)}


def _cmd_strata3_scan(args, cfg):
    rows = ["a1,a2,a3,f,stratum,types"]
    for a, f, stratum, types in lowdim.scan3(step=args.step, lo=args.lo, hi=args.hi):
        rows.append(",".join([
            format_number(a[0], cfg.precision), format_number(a[1], cfg.precision),
            format_number(a[2], cfg.precision), format_number(f, cfg.precision),
            stratum.value, sf.type_label_multiset(types)]))
    return "\n".join(rows) + "\n"


def _cmd_solve2(args, cfg):
    a = _num(cfg, args.a)
    beta1, alpha1, spp, types = lowdim.solve2(a)
    return {"a": format_number(a, cfg.precision),
            "beta1": format_number(beta1, cfg.precision),
            "alpha1": format_number(alpha1, cfg.precision),
            "spectral_pairs": spp.to_json(),
            "types": [t.to_json() for t in types],
            "label": sf.type_label_multiset(types)}


def _cmd_orbit_explore(args, cfg):
    S = _load_matrix(args.matrix, MAX_ORBIT_N)
    rep = orbit.orbit_explore(S, depth=args.depth, budget=args.budget)
    return {"nodes": len(rep.nodes), "exhausted": rep.exhausted,
            "generations": rep.generations}


def _cmd_orbit_conj16(args, cfg):
    pool = hor.cyclotomic_pool(args.n)
    rep = orbit.conjecture16_check(pool)
    out = rep.to_json()
    out["pool"] = len(pool)
    out["note"] = ("grouping is by the monodromy characteristic polynomial, "
                   "which is coarser than an eigenvalue stratum; entries under "
                   "'violations' are candidates for stratum-level scrutiny, "
                   "not counterexamples")
    return out


def _cmd_track(args, cfg):
    with open(args.path_file) as fh:
        data = json.load(fh)
    path = data.get("path") if isinstance(data, dict) else None
    if not isinstance(path, list):
        raise ValueError('path file needs a "path" list of matrices')
    if len(path) > MAX_TRACK_MATRICES or any(_too_large(m, MAX_TRACK_N) for m in path):
        raise ValueError(f"a path holds at most {MAX_TRACK_MATRICES} matrices "
                         f"of size at most {MAX_TRACK_N}")
    mats = [mx.matrix_from_json(m) for m in path]
    res = orbit.generic_path_track(mats, steps=args.steps)
    return {"steps": args.steps,
            "endpoint": [float(a) for a in res.endpoint],
            "collisions": [{"r": r, "i": i, "j": j} for r, i, j in res.collisions],
            "path_dependent": res.path_dependent}


def _git_sha():
    """HEAD of the git checkout holding this package, None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cmd_selftest(args, cfg):
    results = acceptance.run_all(verbose=not args.json)
    ok = all(r.passed and r.in_time for r in results)
    if args.json:
        # scipy's version from its metadata, so scipy is not imported
        import importlib.metadata  # 20 ms of imports only this report needs

        try:
            scipy_version = importlib.metadata.version("scipy")
        except importlib.metadata.PackageNotFoundError:
            scipy_version = None
        report = {"criteria": [asdict(r) for r in results],
                  "python": platform.python_version(), "numpy": np.__version__,
                  "scipy": scipy_version, "git_sha": _git_sha()}
        # criterion details may hold Fractions and tuples of numpy scalars
        print(json.dumps(report, default=str, sort_keys=True))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spectral-stokes",
        description="spectral numbers and spectral pairs for unit-triangular matrices")
    ap.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", choices=("json", "csv", "table"), default="json")
    ap.add_argument("--precision", type=int, default=12)
    sub = ap.add_subparsers(dest="command", required=True)

    hor_p = sub.add_parser("hor", help="banded family operations")
    hor_sub = hor_p.add_subparsers(dest="sub", required=True)
    sp = hor_sub.add_parser("spectrum")
    sp.add_argument("--k", type=int, choices=(1, 2), required=True)
    sp.add_argument("--beta", required=True, help="comma-separated angles, e.g. 1/3,2/3")
    sp.set_defaults(handler=_cmd_hor_spectrum)
    mp = hor_sub.add_parser("matrix")
    mp.add_argument("--poly", required=True, help="coefficients low to high, e.g. 1,1,1")
    mp.add_argument("--k", type=int, choices=(1, 2))
    mp.set_defaults(handler=_cmd_hor_matrix)
    vp = hor_sub.add_parser("verify")
    vp.add_argument("--n", type=_int_in(1, MAX_VERIFY_N), required=True)
    vp.add_argument("--samples", type=_int_in(1, MAX_VERIFY_SAMPLES), default=1000)
    vp.set_defaults(handler=_cmd_hor_verify)
    tp = hor_sub.add_parser("track")
    tp.add_argument("--k", type=int, choices=(1, 2), required=True)
    tp.add_argument("--target-poly", required=True)
    tp.add_argument("--steps", type=_int_in(1, MAX_TRACK_STEPS), default=256,
                    help=f"samples along the path, 1..{MAX_TRACK_STEPS}")
    tp.set_defaults(handler=_cmd_hor_track)

    sei = sub.add_parser("seifert", help="bilinear form pair classification")
    sei_sub = sei.add_subparsers(dest="sub", required=True)
    cp = sei_sub.add_parser("classify")
    cp.add_argument("--matrix", required=True, help="JSON matrix file")
    cp.add_argument("--exact", action="store_true")
    cp.add_argument("--gram", choices=("gram", "triangular"), default="triangular",
                    help="whether the file holds the Gram matrix itself or a "
                         "unit upper-triangular member (Gram = transpose)")
    cp.set_defaults(handler=_cmd_seifert_classify)
    ip = sei_sub.add_parser("iso")
    ip.add_argument("a")
    ip.add_argument("b")
    ip.add_argument("--gram", choices=("gram", "triangular"), default="triangular")
    ip.set_defaults(handler=_cmd_seifert_iso)

    ch = sub.add_parser("chain", help="chain-type singularities")
    ch_sub = ch.add_subparsers(dest="sub", required=True)
    cv = ch_sub.add_parser("verify")
    cv.add_argument("--a", type=_chain_exponents, required=True,
                    help=f"exponents, e.g. 3,2,2, with product at most {MAX_CHAIN_R}")
    cv.set_defaults(handler=_cmd_chain_verify)
    cg = ch_sub.add_parser("grid")
    cg.add_argument("--a0-max", type=_int_in(1, MAX_GRID_A0), default=6)
    cg.add_argument("--aj-max", type=_int_in(1, MAX_GRID_AJ), default=4)
    cg.add_argument("--m-max", type=_int_in(0, MAX_GRID_M), default=4)
    cg.set_defaults(handler=_cmd_chain_grid)
    cs = ch_sub.add_parser("spectrum")
    cs.add_argument("--a", type=_chain_exponents, required=True,
                    help=f"exponents, with product at most {MAX_CHAIN_R}")
    cs.add_argument("--format", choices=("json", "csv"), default="json")
    cs.set_defaults(handler=_cmd_chain_spectrum)

    st = sub.add_parser("strata3", help="the 3x3 stratification")
    st_sub = st.add_subparsers(dest="sub", required=True)
    sc = st_sub.add_parser("classify")
    sc.add_argument("--a", required=True, help="a1,a2,a3")
    sc.set_defaults(handler=_cmd_strata3_classify)
    ss = st_sub.add_parser("scan")
    ss.add_argument("--step", type=_positive_rational, default=Fraction(1, 4),
                    help=f"positive grid step; at most {MAX_SCAN_AXIS} values per axis")
    ss.add_argument("--lo", type=int, default=-4)
    ss.add_argument("--hi", type=int, default=4)
    ss.set_defaults(handler=_cmd_strata3_scan)

    s2 = sub.add_parser("solve2", help="the 2x2 family")
    s2.add_argument("--a", required=True)
    s2.set_defaults(handler=_cmd_solve2)

    orb = sub.add_parser("orbit", help="mutation/sign orbits and experiments")
    orb_sub = orb.add_subparsers(dest="sub", required=True)
    oe = orb_sub.add_parser("explore")
    oe.add_argument("--matrix", required=True,
                    help=f"JSON matrix file, size at most {MAX_ORBIT_N}")
    oe.add_argument("--depth", type=_int_in(0, MAX_ORBIT_BUDGET), default=6)
    oe.add_argument("--budget", type=_int_in(1, MAX_ORBIT_BUDGET), default=MAX_ORBIT_BUDGET)
    oe.set_defaults(handler=_cmd_orbit_explore)
    oc = orb_sub.add_parser("conj16")
    oc.add_argument("--n", type=_int_in(1, MAX_CONJ16_N), default=6)
    oc.set_defaults(handler=_cmd_orbit_conj16)

    tr = sub.add_parser("track", help="eigenvalue tracking along a matrix path")
    tr.add_argument("--path-file", required=True,
                    help='JSON {"path": [matrix, ...]} starting at the identity')
    tr.add_argument("--steps", type=_int_in(1, MAX_TRACK_STEPS), default=512,
                    help=f"samples along the path, 1..{MAX_TRACK_STEPS}")
    tr.set_defaults(handler=_cmd_track)

    se = sub.add_parser("selftest", help="run the acceptance battery")
    se.add_argument("--json", action="store_true",
                    help="print one JSON report on stdout instead of a line per criterion")
    se.set_defaults(handler=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.handler is _cmd_strata3_scan and args.hi >= args.lo and \
            (args.hi - args.lo) // args.step >= MAX_SCAN_AXIS:
        ap.error(f"strata3 scan: --step {args.step} on [{args.lo}, {args.hi}] gives "
                 f"more than {MAX_SCAN_AXIS} values per axis")
    try:
        cfg = Config(mode=args.mode, tol=args.tol, seed=args.seed,
                     output=args.output, precision=args.precision)
        result = args.handler(args, cfg)
    except SpectralStokesError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    if isinstance(result, int):
        return result
    print(emit(result, cfg))
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
