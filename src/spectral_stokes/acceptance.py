"""The acceptance battery: one callable per criterion.

Each check returns a :class:`CriterionResult`; ``run_all`` executes the
battery and prints one pass/fail line per criterion.  The same functions
back the test suite and the command-line ``selftest``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import chain, hor, lowdim, matrices as mx, orbit, seifert as sf
from .errors import NotReducible, Unclassified
from .spectra import Spp, SppLadder, decompose_into_ladders


@dataclass
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    limit: float
    details: dict = field(default_factory=dict)

    @property
    def in_time(self) -> bool:
        return self.seconds < self.limit

    def line(self) -> str:
        status = "PASS" if self.passed and self.in_time else "FAIL"
        return (f"[{status}] {self.name}  ({self.seconds:.2f}s / limit {self.limit:.0f}s)"
                + ("" if self.passed else f"  {self.details}"))


def _timed(name, limit, fn):
    t0 = time.perf_counter()
    passed, details = fn()
    return CriterionResult(name, passed, time.perf_counter() - t0, limit, details)


# -- 1: size-2 table ---------------------------------------------------------

def criterion_size2_table():
    def run():
        expected = {
            -2: (Fraction(0), Fraction(-1, 2),
                 SppLadder(Fraction(-1, 2), 1, 1).members(),
                 [sf.IrrType("F1", Fraction(1, 2), 2, eps=1)]),
            0: (Fraction(1, 4), Fraction(0),
                Spp([(Fraction(0), 1), (Fraction(0), 1)]),
                [sf.IrrType("F1", Fraction(0), 1, eps=1)] * 2),
            2: (Fraction(1, 2), Fraction(1, 2),
                SppLadder(Fraction(-1, 2), 1, 1).members(),
                [sf.IrrType("F1", Fraction(1, 2), 2, eps=1)]),
        }
        for a, (b_want, a_want, spp_want, types_want) in expected.items():
            b1, a1, spp, types = lowdim.solve2(a)
            if (b1, a1) != (b_want, a_want):
                return False, {"a": a, "beta": str(b1), "alpha": str(a1)}
            if not spp.equals(spp_want):
                return False, {"a": a, "spp": repr(spp)}
            if not sf.types_multiset_equal(types, types_want):
                return False, {"a": a, "types": sf.type_label_multiset(types)}
        return True, {}
    return _timed("size-2 boundary/interior table", 1.0, run)


# -- 2: the size-3 banded line -----------------------------------------------

def criterion_line3():
    def run():
        _, _, spp_m1 = lowdim.hor1_line3(Fraction(-1))
        want_m1 = Spp([(Fraction(0), 1), (Fraction(-1, 2), 2), (Fraction(1, 2), 0)])
        _, _, spp_3 = lowdim.hor1_line3(Fraction(3))
        want_3 = Spp([(Fraction(-1), 3), (Fraction(0), 1), (Fraction(1), -1)])
        ok = spp_m1.equals(want_m1) and spp_3.equals(want_3)
        return ok, {} if ok else {"at -1": repr(spp_m1), "at 3": repr(spp_3)}
    return _timed("size-3 line spectral pairs", 1.0, run)


# -- 3: the power identity ---------------------------------------------------

def criterion_power_identity():
    def run():
        rng = random.Random(0)
        checked: dict = {}
        failures = []
        for n in range(2, 13):
            for _ in range(1000):
                k = rng.choice((1, 2))
                mults = hor.sample_cyclotomic_mults(n, k, rng)
                key = (k, tuple(sorted(mults.items())))
                if key in checked:
                    continue
                M = hor.cyclotomic_member(mults, k)
                ok, _ = hor.verify_power_identity(M)
                checked[key] = ok
                if not ok:
                    failures.append((n, k, mults))
        return not failures, {"distinct": len(checked), "failures": failures[:3]}
    return _timed("companion power identity, exact", 60.0, run)


# -- 4: the chain grid -------------------------------------------------------

def criterion_chain_grid():
    def run():
        failures = []
        tuples = chain.grid_tuples(6, 4, 4)
        for a in tuples:
            if not chain.verify_spectrum_shift(a):
                failures.append(a)
        # the reducible small-exponent tuples, the quadratic (2,) among them
        extras = [a for a in chain.grid_tuples(6, 4, 4, a0_min=2, aj_min=1)
                  if a[0] == 2 or any(x == 1 for x in a[1:])]
        reduced_count = 0
        for a in extras:
            try:
                susp, shift, red = chain.reduce_chain(a)
            except NotReducible:
                continue
            reduced_count += 1
            ca = chain.ChainSing(a)
            cr = chain.ChainSing(red)
            # ascending integer numerators and their multiplicities: no
            # float decides the comparison
            den = math.lcm(ca.r[-1], cr.r[-1], shift.denominator)
            if [x.tolist() for x in chain._qh_numerators(cr, den)] != \
                    [x.tolist() for x in chain._qh_numerators(ca, den, shift)]:
                failures.append(("reduction-spectrum", a))
            if not chain.verify_spectrum_shift(a):
                failures.append(("shift-original", a))
            if not chain.verify_spectrum_shift(red):
                failures.append(("shift-reduced", a))
        return not failures, {"grid": len(tuples), "reducible": reduced_count,
                              "failures": failures[:5]}
    return _timed("chain spectrum shift over the grid, exact", 300.0, run)


# -- 5: the 12-dimensional weighted-homogeneous spectrum ----------------------

def criterion_e12():
    def run():
        sp = chain.qh_spectrum((Fraction(1, 3), Fraction(1, 7)))
        ok = (len(sp) == 12
              and sp[0] == Fraction(-11, 21) and sp[1] == Fraction(-8, 21)
              and sp[10] == Fraction(8, 21) and sp[11] == Fraction(11, 21)
              and all(sp[j] + sp[11 - j] == 0 for j in range(12)))
        return ok, {} if ok else {"spectrum": [str(x) for x in sp]}
    return _timed("weights (1/3, 1/7) spectrum", 1.0, run)


# -- 6: the signature law ----------------------------------------------------

def _sample_resolvable(n, k, rng):
    """Random member whose restricted form the mandated sign tolerance can
    resolve.  The law has no zero eigenvalues, but samples arbitrarily
    close to the eigenvalue--1 hyperplanes have true form eigenvalues
    below any fixed cutoff; those are resampled (deterministic per seed).
    """
    while True:
        b = hor.sample_scal(n, k, rng)
        alphas = hor.recipe_spectrum(b)
        if any(abs(float(a) % 1.0 - 0.5) < 1e-3 for a in alphas):
            continue
        M = hor.scal_to_matrix(b)
        w = hor.restricted_form_eigenvalues(M)
        if len(w) == 0 or np.abs(w).min() >= 10 * 1e-6:
            return b, M


def criterion_signature_law():
    def run():
        rng = random.Random(1)
        bad = []
        for n in range(1, 9):
            for _ in range(500):
                k = rng.choice((1, 2))
                b, M = _sample_resolvable(n, k, rng)
                predicted, computed = hor.is_signature(M, tol=1e-6, scal=b)
                if predicted != computed:
                    bad.append((n, k, tuple(float(x) for x in b.beta),
                                predicted, computed))
        return not bad, {"failures": bad[:3], "count": 500 * 8}
    return _timed("signature law on random numeric members", 30.0, run)


# -- 7: size-3 grid classification consistency --------------------------------

def criterion_grid3():
    def run():
        mismatches = []
        sig_mismatches = []
        count = 0
        for a, f, stratum, types in lowdim.scan3(step=Fraction(1, 4)):
            count += 1
            P = sf.SeifertPair.from_triangular(lowdim.s3_matrix(a))
            got = sf.classify(P)
            if not sf.types_multiset_equal(types, got):
                mismatches.append(a)
                continue
            sig = tuple(map(sum, zip(*(sf.type_signature(t) for t in types))))
            S = lowdim.s3_matrix(a)
            if sig != mx.signature_exact(S + S.T):
                sig_mismatches.append(a)
        ok = not mismatches and not sig_mismatches
        return ok, {"points": count, "type_mismatches": mismatches[:3],
                    "signature_mismatches": sig_mismatches[:3]}
    return _timed("size-3 grid classification consistency, exact", 120.0, run)


# -- 8: ladder classification round trip --------------------------------------

def criterion_class_round_trip():
    def run():
        bad = []
        total = classified = 0
        for n in range(1, 9):
            for k in (1, 2):
                for mults in hor.enumerate_cyclotomic_mults(n, k):
                    M = hor.cyclotomic_member(mults, k)
                    spp = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
                    want = sf.class_from_spp(spp, 1, signed=False)
                    total += 1
                    try:
                        got = sf.classify(sf.SeifertPair.from_triangular(M.S))
                    except Unclassified as exc:
                        bad.append((n, k, mults, str(exc)))
                        continue
                    classified += 1
                    if not sf.types_multiset_equal(want, got):
                        bad.append((n, k, mults))
        return not bad and classified == total, {"total": total, "classified": classified,
                                                 "failures": bad[:3]}
    return _timed("ladder data vs direct classification", 60.0, run)


# -- 9: property suite and experiments ----------------------------------------

def criterion_properties():
    def run():
        rng = random.Random(2)
        problems = []

        # negation transform preserves the pair multiset
        for n in range(1, 9):
            for k in (1, 2):
                M = hor.sample_cyclotomic_member(n, k, rng)
                q, k2 = hor.negate_poly_transform(M)
                s1 = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
                s2 = hor.recipe_spectral_pairs(hor.poly_to_scal(q, k2))
                if not s1.equals(s2):
                    problems.append(("negation", n, k))

        # every recipe output is realizable and has gaps <= 1
        for n in range(1, 9):
            for k in (1, 2):
                b = hor.sample_scal(n, k, rng, denominator=360)
                sp = hor.recipe_spectrum(b)
                ok, _ = hor.is_realizable_spectrum(sp, n, k)
                if not ok:
                    problems.append(("realizable", n, k))
                srt = sorted(sp)
                if any(srt[i + 1] - srt[i] > 1 for i in range(n - 1)):
                    problems.append(("gap", n, k))

        # ladder decomposition round trip
        for _ in range(40):
            m = rng.randrange(-2, 3)
            ladders = []
            spp = Spp()
            for _ in range(rng.randrange(1, 6)):
                l = rng.randrange(0, 3)
                if rng.random() < 0.5:
                    alpha = Fraction(m - l - 1, 2)
                    lads = [SppLadder(alpha, m, l)]
                else:
                    alpha = Fraction(m - l - 1, 2) + Fraction(rng.randrange(1, 8), 4)
                    lads = [SppLadder(alpha, m, l), SppLadder(alpha, m, l).partner()]
                for lad in lads:
                    ladders.append(lad)
                    spp = spp + lad.members()
            got = decompose_into_ladders(spp, m)
            back = Spp()
            for lad in got:
                back = back + lad.members()
            if not back.equals(spp) or len(got) != len(ladders):
                problems.append(("ladder-round-trip", m))

        # mutation/sign invariance of the monodromy polynomial
        for _ in range(60):
            n = rng.randrange(2, 5)
            S = mx.to_matrix([[1 if i == j else (rng.randrange(-2, 3) if j > i else 0)
                               for j in range(n)] for i in range(n)])
            cp = mx.char_poly_exact(mx.monodromy_matrix(S))
            i = rng.randrange(1, n)
            S2 = orbit.braid_act(i, S)
            eps = [rng.choice((1, -1)) for _ in range(n)]
            S3 = orbit.sign_act(eps, S)
            if mx.char_poly_exact(mx.monodromy_matrix(S2)) != cp:
                problems.append(("braid-invariance", n))
            if mx.char_poly_exact(mx.monodromy_matrix(S3)) != cp:
                problems.append(("sign-invariance", n))
            if not mx.mat_eq(orbit.braid_act(i, S2, -1), S):
                problems.append(("braid-involution", n))

        # continuing the monodromy eigenvalues from E along the member's own
        # path S(beta(t)) ends at the closed-form spectrum
        for n in range(2, 7):
            for k in (1, 2):
                b = hor.sample_scal(n, k, rng)
                fam = hor.simplex_path_track(hor.scal_to_matrix(b), steps=64 * n)
                res = orbit.generic_path_track(hor.path_matrices(fam.betas), steps=64 * n)
                want = sorted(float(a) for a in fam.endpoint)
                if any(abs(x - y) > 1e-6 for x, y in zip(sorted(res.endpoint), want)):
                    problems.append(("family-path-track", n, k))

        # eigenvalue-stratum experiment over all exact members of degree <= 8
        # completes and emits a report; entries under "violations" are
        # same-fiber different-spectrum candidates (a fiber of the eigenvalue
        # map is coarser than a stratum), reported, never suppressed
        report = orbit.conjecture16_check(hor.cyclotomic_pool(8))
        emitted = report.to_json()
        if "groups" not in emitted or "violations" not in emitted:
            problems.append(("experiment-report",))
        for key, la, sa, lb, sb in report.violations:
            if sa == sb:
                problems.append(("experiment-false-candidate", la, lb))

        return not problems, {"problems": problems[:5],
                              "experiment_groups": len(report.groups),
                              "experiment_candidates": len(report.violations)}
    return _timed("property suite and experiments", 120.0, run)


ALL_CRITERIA = [
    criterion_size2_table,
    criterion_line3,
    criterion_power_identity,
    criterion_chain_grid,
    criterion_e12,
    criterion_signature_law,
    criterion_grid3,
    criterion_class_round_trip,
    criterion_properties,
]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
