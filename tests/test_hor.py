import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes import chain, hor, matrices as mx, polycore, seifert as sf
from spectral_stokes.errors import NotInFamily
from spectral_stokes.polycore import (RealPoly, angle_eq, angle_to_point, circle_dist, mod1,
                                      point_to_angle, poly_from_cyclotomic_mults,
                                      poly_from_float_angles, unit_circle_angles,
                                      _lift_angles)
from spectral_stokes.spectra import Spp, SppLadder

F = Fraction


def scal(k, *beta):
    return hor.HorScal(k, tuple(beta))


class TestScalPoly:
    def test_gamma_k2_n2(self):
        b = hor.gamma_base(2, 2)
        assert b.beta == (F(0), F(1, 2))
        assert hor.scal_to_poly(b) == RealPoly([-1, 0, 1])

    def test_expand_oracle(self):
        # independent expansion of (x - e^{-2 pi i/3})(x - e^{+2 pi i/3})
        # in rectangular form: the pair has real part -1/2
        z = -sympy.Rational(1, 2) - sympy.sqrt(3) / 2 * sympy.I
        x = sympy.Symbol("x")
        expanded = sympy.expand((x - z) * (x - sympy.conjugate(z)))
        assert expanded == x**2 + x + 1
        assert hor.scal_to_poly(scal(1, F(1, 3), F(2, 3))) == RealPoly([1, 1, 1])

    def test_chain_angles(self):
        b = scal(2, F(0), F(1, 6), F(1, 2), F(5, 6))
        assert hor.scal_to_poly(b) == RealPoly([-1, 1, 0, -1, 1])

    def test_round_trip(self):
        for b in (scal(1, F(1, 3), F(2, 3)),
                  scal(2, F(0), F(1, 6), F(1, 2), F(5, 6)),
                  scal(1, F(0), F(1, 2), F(1, 2), F(1))):
            assert hor.poly_to_scal(hor.scal_to_poly(b), b.k) == b

    def test_wrong_class_rejected(self):
        with pytest.raises(NotInFamily):
            hor.poly_to_scal(RealPoly([1, 1, 1]), 2)

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 2)])
    def test_sample_without_free_coordinate_keeps_its_mode(self, n, k):
        assert hor.free_dimension(n, k) == 0
        b = hor.sample_scal(n, k, random.Random(0))
        assert not b.is_exact and all(type(x) is float for x in b.beta)
        assert hor.sample_scal(n, k, random.Random(0), denominator=8).is_exact


class TestMatrix:
    def test_n2(self):
        M = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1)
        assert M.S.tolist() == [[1, 1], [0, 1]]

    def test_n3_band(self):
        p1 = 2
        M = hor.poly_to_matrix(RealPoly([1, p1, p1, 1]), 1)
        assert M.S.tolist() == [[1, p1, p1], [0, 1, p1], [0, 0, 1]]

    def test_identity_k2(self):
        M = hor.poly_to_matrix(RealPoly([-1, 0, 1]), 2)
        assert M.S.tolist() == [[1, 0], [0, 1]]
        R = hor.r_matrix(M)
        assert R.tolist() == [[0, 1], [1, 0]]
        assert mx.mat_pow(R, 2).tolist() == [[1, 0], [0, 1]]

    def test_member_keeps_its_angles(self):
        # three roots within 0.05 of 1: np.roots puts one of them 3.7e-9 off
        # the circle, so the angles cannot be recovered from the polynomial
        b = hor.sample_scal(7, 2, random.Random(623728))
        assert hor.matrix_to_scal(hor.scal_to_matrix(b)) is b


class TestRecipe:
    def test_gamma_vanishes(self):
        for n in (1, 2, 3, 6):
            for k in (1, 2):
                b = hor.gamma_base(n, k)
                assert all(a == 0 for a in hor.recipe_spectrum(b))
                assert hor.recipe_spectral_pairs(b) == Spp([(F(0), 1)] * n)

    def test_hand_evaluation_k1(self):
        assert hor.recipe_spectrum(scal(1, F(1, 3), F(2, 3))) == [F(1, 6), F(-1, 6)]

    def test_hand_evaluation_k2(self):
        got = hor.recipe_spectrum(scal(2, F(0), F(1, 6), F(1, 2), F(5, 6)))
        assert got == [F(0), F(-1, 3), F(0), F(1, 3)]

    def test_boundary_ladder_n2(self):
        got = hor.recipe_spectral_pairs(scal(1, F(0), F(1)))
        assert got == Spp([(F(-1, 2), 2), (F(1, 2), 0)])

    def test_k2_n3_triple(self):
        b = scal(2, F(0), F(0), F(1))
        assert hor.recipe_spectrum(b) == [F(0), F(-1), F(1)]
        assert hor.recipe_spectral_pairs(b) == Spp([(F(-1), 3), (F(0), 1), (F(1), -1)])

    def test_symmetry_and_sum(self):
        rng = random.Random(5)
        for n in range(1, 10):
            for k in (1, 2):
                b = hor.sample_scal(n, k, rng, denominator=420)
                al = hor.recipe_spectrum(b)
                assert sum(al) == 0
                if k == 1:
                    assert all(al[j] + al[n - 1 - j] == 0 for j in range(n))
                else:
                    assert al[0] == 0
                    assert all(al[j] + al[n - j] == 0 for j in range(1, n))

    def test_one_spp_equals_ladder_sum(self):
        # one Spp of every ladder's members, not a re-sorted sum per ladder;
        # the sort is stable, so even the order of equal pairs agrees
        rng = random.Random(11)
        scals = [chain.stokes_scal(a) for a in ((3, 2), (4, 3, 2), (6, 4, 4), (2, 2, 2, 2))]
        scals += [hor.matrix_to_scal(hor.sample_cyclotomic_member(n, k, rng))
                  for n in (3, 6, 8) for k in (1, 2)]
        scals += [hor.sample_scal(n, k, rng) for n in (4, 7) for k in (1, 2)]
        for b in scals:
            want = Spp()
            for lad in hor.recipe_ladders(b):
                want = want + lad.members()
            assert hor.recipe_spectral_pairs(b).pairs == want.pairs

    def test_eigenvalue_consistency_exact(self):
        # multiset {exp(-2 pi i alpha_j)} = eigenvalues of S^{-1} S^t
        rng = random.Random(8)
        for n in range(2, 9):
            M = hor.sample_cyclotomic_member(n, rng.choice((1, 2)), rng)
            b = hor.matrix_to_scal(M)
            alphas = hor.recipe_spectrum(b)
            mono = mx.solve_unit_upper(M.S, M.S.T.copy())
            angles = unit_circle_angles(mx.char_poly_exact(mono))
            want = {}
            for a in alphas:
                want[mod1(a)] = want.get(mod1(a), 0) + 1
            assert dict(angles) == want


def _ladder_groups_reference(b):
    """recipe_ladder_groups by a scan over every group found so far."""
    groups = []
    for beta, a in zip(b.beta, hor.recipe_spectrum(b)):
        key = mod1(beta)
        for gk, vals in groups:
            if angle_eq(gk, key):
                vals.append(a)
                break
        else:
            groups.append((key, [a]))
    return [(key, SppLadder(min(vals), 1, len(vals) - 1)) for key, vals in groups]


_SMALL_CHAIN_TUPLES = [a for a in chain.grid_tuples(6, 4, 4) if chain.ChainSing(a).mu <= 120]


@st.composite
def _family_points(draw):
    """Grid points with repeated angles and the root 1 of high multiplicity
    (free coordinates at 0), exact or as floats, float draws and chain points."""
    kind = draw(st.sampled_from(["grid", "float grid", "sample", "chain"]))
    if kind == "chain":
        return chain.stokes_scal(draw(st.sampled_from(_SMALL_CHAIN_TUPLES)))
    n, k = draw(st.integers(1, 12)), draw(st.sampled_from([1, 2]))
    if kind == "sample":
        return hor.sample_scal(n, k, random.Random(draw(st.integers(0, 10 ** 6))))
    d = hor.free_dimension(n, k)
    den = draw(st.integers(1, 12))
    ones = draw(st.integers(0, d))
    free = [0] * ones + draw(st.lists(st.integers(0, den), min_size=d - ones, max_size=d - ones))
    free = sorted(F(x, 2 * den) for x in free)
    return hor.scal_from_free(n, k, free if kind == "grid" else [float(x) for x in free])


class TestLadderGroups:
    @given(_family_points())
    @settings(max_examples=300, deadline=None)
    def test_runs_match_the_group_scan(self, b):
        got = hor.recipe_ladder_groups(b)
        want = _ladder_groups_reference(b)
        assert [(key, type(key), lad, type(lad.alpha)) for key, lad in got] == \
            [(key, type(key), lad, type(lad.alpha)) for key, lad in want]

    def test_one_pass_over_the_angles(self, monkeypatch):
        # an exact point compares its keys with ==; its float image makes
        # one circle distance per angle, and one across the seam
        calls = []

        def counted(a, b):
            calls.append(None)
            return circle_dist(a, b)
        b = chain.stokes_scal((6, 4, 4, 4))
        b = hor.HorScal(b.k, tuple(map(float, b.beta)))
        monkeypatch.setattr(hor, "circle_dist", counted)
        hor.recipe_ladder_groups(b)
        assert b.n == 307 and len(calls) <= b.n + 1


@given(_family_points())
@settings(max_examples=200, deadline=None)
def test_float_recipe_is_the_constant_expression_bit_for_bit(b):
    # the recipe written with the Fraction constant k/2, on the float image
    # of every drawn point
    b = hor.HorScal(b.k, tuple(map(float, b.beta)))
    want = [b.n * float(x) - j + Fraction(b.k, 2) for j, x in enumerate(b.beta, start=1)]
    got = hor.recipe_spectrum(b)
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in want]



def _fraction_ladder_groups(b):
    """recipe_ladder_groups with the exact alphas as Fractions: runs of angles
    that differ by an integer, keyed by the first angle mod 1."""
    exact = b.is_exact

    def same(x, y):
        return (x - y).denominator == 1 if exact else circle_dist(x, y) <= polycore.CIRCLE_TOL
    runs = []
    for beta, a in zip(b.beta, hor.recipe_spectrum(b)):
        if runs and same(runs[-1][0], beta):
            runs[-1][1].append(a)
        else:
            runs.append((mod1(beta), [a]))
    if len(runs) > 1 and same(runs[0][0], runs[-1][0]):
        runs[0][1].extend(runs.pop()[1])
    out = []
    for key, vals in runs:
        vals.sort()
        assert all(abs(vals[i + 1] - vals[i] - 1) <= (0 if exact else 1e-7)
                   for i in range(len(vals) - 1))
        out.append((key, SppLadder(vals[0], 1, len(vals) - 1)))
    return out


@given(_family_points())
@settings(max_examples=300, deadline=None)
def test_ladder_groups_and_pairs_are_the_fraction_expressions(b):
    # keys, first numbers and pairs in value, type and order; the pairs
    # (alpha + j, l + 1 - 2j) of each ladder in one Spp
    want = _fraction_ladder_groups(b)
    got = hor.recipe_ladder_groups(b)
    assert [(type(key), repr(key), type(lad.alpha), repr(lad.alpha), lad.m, lad.l)
            for key, lad in got] == \
        [(type(key), repr(key), type(lad.alpha), repr(lad.alpha), lad.m, lad.l)
         for key, lad in want]
    pairs = Spp(pair for _, lad in want for pair in lad._pairs()).pairs
    assert [(type(a), repr(a), k) for a, k in hor.recipe_spectral_pairs(b).pairs] == \
        [(type(a), repr(a), k) for a, k in pairs]


def test_exact_and_float_signature_laws_predict_alike_on_the_pool():
    # integers on the exact point, floats on its float image
    for _, M in hor.cyclotomic_pool(8):
        b = hor.matrix_to_scal(M)
        bf = hor.HorScal(b.k, tuple(map(float, b.beta)))
        assert b.is_exact and not bf.is_exact
        predicted, computed = hor.is_signature(M, scal=b)
        assert hor.is_signature(hor.scal_to_matrix(bf), scal=bf)[0] == predicted == computed


class TestRealizable:
    def test_all_zero(self):
        ok, _ = hor.is_realizable_spectrum([F(0)] * 4, 4, 1)
        assert ok

    def test_too_negative(self):
        ok, w = hor.is_realizable_spectrum([F(-2), F(2)], 2, 1)
        assert not ok and w is None

    def test_sixths(self):
        ok, witness = hor.is_realizable_spectrum([F(1, 6), F(-1, 6)], 2, 1)
        assert ok
        assert sorted(witness) == [F(-1, 6), F(1, 6)]
        assert witness[0] + witness[1] == 0

    def test_exact_values_decide(self):
        # values 1e-13 apart are distinct candidates, and the bounds are exact
        e = F(1, 10**13)
        assert hor.is_realizable_spectrum([F(0), e, -e], 3, 2) == (True, [F(0), e, -e])
        assert hor.is_realizable_spectrum([F(1, 2) + e, -F(1, 2) - e], 2, 1) == (False, None)

    def test_recipe_output_realizable_with_gap_bound(self):
        rng = random.Random(11)
        for n in range(1, 9):
            for k in (1, 2):
                b = hor.sample_scal(n, k, rng, denominator=64)
                sp = hor.recipe_spectrum(b)
                ok, _ = hor.is_realizable_spectrum(sp, n, k)
                assert ok
                srt = sorted(sp)
                assert all(srt[i + 1] - srt[i] <= 1 for i in range(n - 1))


def _factored_member(mults, k):
    """The member by the polynomial route: expand the multiplicities, then
    factor the polynomial back to check membership and find the angles."""
    M = hor.poly_to_matrix(poly_from_cyclotomic_mults(mults), k)
    return M, hor.poly_to_scal(M.p, k)


def _typed(xs):
    return [(x, type(x)) for x in xs]


class TestCyclotomicMember:
    def test_equals_the_factored_member(self):
        for n in range(1, 11):
            for k in (1, 2):
                for mults in hor.enumerate_cyclotomic_mults(n, k):
                    want, want_scal = _factored_member(mults, k)
                    got = hor.cyclotomic_member(mults, k)
                    assert (got.k, got.n) == (want.k, want.n) == (k, n)
                    assert _typed(got.S.flat) == _typed(want.S.flat)
                    assert _typed(got.p.coeffs) == _typed(want.p.coeffs)
                    assert got.scal == hor.matrix_to_scal(got)
                    assert _typed(got.scal.beta) == _typed(want_scal.beta), mults

    @pytest.mark.parametrize("mults,k", [({1: 2}, 2), ({1: 1}, 1), ({1: 1, 3: 1}, 1),
                                         ({2: 1}, 2), ({4: 1}, 2), ({1: 3, 6: 1}, 1)])
    def test_wrong_parity_at_one_rejected(self, mults, k):
        with pytest.raises(NotInFamily, match="multiplicity of the root 1"):
            hor.cyclotomic_member(mults, k)

    def test_pool_is_the_labelled_enumeration(self):
        want = []
        for n in range(2, 7):
            for k in (1, 2):
                for mults in hor.enumerate_cyclotomic_mults(n, k):
                    M, _ = _factored_member(mults, k)
                    want.append((f"n={n} k={k} {sorted(mults.items())}", M))
        got = hor.cyclotomic_pool(6)
        assert [lab for lab, _ in got] == [lab for lab, _ in want]
        assert all(M.S.tolist() == W.S.tolist() and M.p == W.p
                   for (_, M), (_, W) in zip(got, want))

    def test_members_are_built_without_factoring(self, monkeypatch):
        calls = []
        factor = polycore.factor_cyclotomic
        monkeypatch.setattr(polycore, "factor_cyclotomic",
                            lambda p: calls.append(p) or factor(p))
        rng = random.Random(0)
        members = [M for _, M in hor.cyclotomic_pool(8)]
        members += [hor.sample_cyclotomic_member(n, k, rng)
                    for n in range(1, 13) for k in (1, 2)]
        for M in members:
            hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
        assert calls == []
        _factored_member({1: 2, 3: 1}, 1)     # the polynomial route does factor
        assert len(calls) == 2


class TestNegateTransform:
    def test_k1_n2(self):
        q, k2 = hor.negate_poly_transform(hor.poly_to_matrix(RealPoly([1, 1, 1]), 1))
        assert q == RealPoly([1, -1, 1]) and k2 == 1
        s1 = hor.recipe_spectrum(hor.poly_to_scal(RealPoly([1, 1, 1]), 1))
        s2 = hor.recipe_spectrum(hor.poly_to_scal(q, 1))
        assert sorted(s1) == sorted(s2) == [F(-1, 6), F(1, 6)]

    def test_k2_n4(self):
        q, k2 = hor.negate_poly_transform(hor.poly_to_matrix(RealPoly([-1, 1, 0, -1, 1]), 2))
        assert q == RealPoly([-1, -1, 0, 1, 1]) and k2 == 2

    def test_n1(self):
        q, k2 = hor.negate_poly_transform(hor.poly_to_matrix(RealPoly([-1, 1]), 2))
        assert q == RealPoly([1, 1]) and k2 == 1

    def test_spp_preserved(self):
        rng = random.Random(21)
        for n in range(1, 13):
            M = hor.sample_cyclotomic_member(n, rng.choice((1, 2)), rng)
            q, k2 = hor.negate_poly_transform(M)
            s1 = hor.recipe_spectral_pairs(hor.poly_to_scal(M.p, M.k))
            s2 = hor.recipe_spectral_pairs(hor.poly_to_scal(q, k2))
            assert s1 == s2

    def test_member_with_angles_is_not_factored(self, monkeypatch):
        M = hor.cyclotomic_member({1: 2, 3: 1, 4: 1}, 1)
        monkeypatch.setattr(hor, "palindrome_class", lambda *a: pytest.fail("factored"))
        q, k2 = hor.negate_poly_transform(M)
        assert (q, k2) == (M.p.of_minus_x(), 1)

    def test_class_confirmed(self):
        # a member of the other class: on the polynomial route poly_to_scal
        # refuses it, on the angle route the coordinates' class disagrees
        M = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1, check=False)
        with pytest.raises(NotInFamily, match="symmetry class 1, not 2"):
            hor.negate_poly_transform(replace(M, k=2))
        b = hor.poly_to_scal(RealPoly([-1, 1]), 2)
        with pytest.raises(NotInFamily, match="not of class 1"):
            hor.negate_poly_transform(replace(hor.poly_to_matrix(RealPoly([-1, 1]), 1, check=False),
                                              scal=b))


class TestPowerIdentity:
    def test_n2_explicit(self):
        M = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1)
        ok, _ = hor.verify_power_identity(M)
        assert ok
        R = hor.r_matrix(M)
        mono = mx.solve_unit_upper(M.S, M.S.T.copy())
        assert mx.mat_eq(mx.mat_pow(R, 2),
                         np.vectorize(lambda v: -v, otypes=[object])(mono))

    def test_identity_k2(self):
        ok, _ = hor.verify_power_identity(hor.poly_to_matrix(RealPoly([-1, 0, 1]), 2))
        assert ok

    def test_chain_32_exact_integers(self):
        M = hor.poly_to_matrix(RealPoly([-1, 1, 0, -1, 1]), 2)
        assert all(isinstance(v, int) for v in M.S.flat)
        ok, _ = hor.verify_power_identity(M)
        assert ok

    def test_exact_up_to_n12(self):
        rng = random.Random(4)
        for n in range(1, 13):
            M = hor.sample_cyclotomic_member(n, rng.choice((1, 2)), rng)
            ok, _ = hor.verify_power_identity(M)
            assert ok, (n, M.p)


class TestEnhancement:
    """The type each eigenvalue group of a member forces in the polarized
    enhancement: its recipe ladder read by ``irr_type_from_ladder``."""

    @staticmethod
    def types(M):
        return [sf.irr_type_from_ladder(lad.alpha, 1, lad.l)
                for _, lad in hor.recipe_ladder_groups(hor.matrix_to_scal(M))]

    def test_interior_pair(self):
        types = self.types(hor.poly_to_matrix(RealPoly([1, 1, 1]), 1))
        assert len(types) == 2
        assert {t.label() for t in types} == {"Seif(e(-2pi i 1/6),2,1,e(-2pi i 11/12))"}

    def test_boundary_single_ladder(self):
        M = hor.scal_to_matrix(scal(1, F(0), F(1)))
        ((_, lad),) = hor.recipe_ladder_groups(hor.matrix_to_scal(M))
        assert (lad.alpha, lad.l) == (F(-1, 2), 1)
        assert [t.label() for t in self.types(M)] == ["Seif(-1,1,2,1)"]

    def test_two_singles_at_identity(self):
        types = self.types(hor.scal_to_matrix(hor.gamma_base(2, 1)))
        assert len(types) == 2
        assert {t.label() for t in types} == {"Seif(1,1,1,1)"}


def _sympy_restricted_signature(S):
    """Signature of S + S^t on the kernel of r(S^{-1} S^t), r the
    characteristic polynomial with every factor x + 1 divided out: the
    generalized eigenspaces away from -1, over Q in sympy."""
    x = sympy.Symbol("x")
    S = sympy.Matrix(S.tolist())
    mono = S.inv() * S.T
    r = mono.charpoly(x)
    while r.eval(-1) == 0:
        r = sympy.Poly(sympy.quo(r.as_expr(), x + 1, x), x)
    R = sympy.zeros(*S.shape)
    for c in r.all_coeffs():
        R = R * mono + c * sympy.eye(S.rows)
    kernel = R.nullspace()
    if not kernel:
        return (0, 0, 0)
    B = sympy.Matrix.hstack(*kernel)
    signs = [sympy.sign(v.evalf(50)) for v, m in (B.T * (S + S.T) * B).eigenvals().items()
             for _ in range(m)]
    return signs.count(1), signs.count(0), signs.count(-1)


def _schur_restricted_form_eigenvalues(M):
    """The restricted form eigenvalues from an ordered real Schur basis of
    the monodromy, eigenvalues away from -1 first."""
    Sf = np.asarray(M.S, dtype=float)
    mono = mx.monodromy_matrix(Sf)
    _, Z, sdim = scipy.linalg.schur(mono, output="real",
                                    sort=lambda re, im: (re + 1.0) ** 2 + im ** 2 > 1e-7 ** 2)
    Q1 = Z[:, :sdim]
    return np.linalg.eigvalsh(Q1.T @ (Sf + Sf.T) @ Q1)


class TestSignatureLaw:
    def test_exact_members_obey_the_law(self):
        # the float form cannot resolve a defective cluster at -1; at the
        # exact members of size <= 9 it got 204 of the 828 wrong
        for label, M in hor.cyclotomic_pool(9):
            predicted, computed = hor.is_signature(M)
            assert predicted == computed, label

    @pytest.mark.parametrize("mults,k", [({1: 2, 6: 1}, 1), ({2: 2, 3: 1}, 1),
                                         ({1: 1, 2: 4}, 2)])
    def test_exact_signature_oracle(self, mults, k):
        M = hor.cyclotomic_member(mults, k)
        predicted, computed = hor.is_signature(M)
        assert computed == predicted == _sympy_restricted_signature(M.S)

    def test_float_members_match_the_schur_form(self):
        rng = random.Random(3)
        for _ in range(300):
            n, k = rng.randrange(1, 10), rng.choice((1, 2))
            M = hor.scal_to_matrix(hor.sample_scal(n, k, rng))
            got, want = hor.restricted_form_eigenvalues(M), _schur_restricted_form_eigenvalues(M)
            assert len(got) == len(want)
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale

    def test_identity(self):
        M = hor.scal_to_matrix(hor.gamma_base(5, 1))
        assert hor.is_signature(M) == ((5, 0, 0), (5, 0, 0))

    def test_n2_positive(self):
        M = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1)
        predicted, computed = hor.is_signature(M)
        assert predicted == computed == (2, 0, 0)

    def test_n3_band3(self):
        M = hor.poly_to_matrix(RealPoly([1, 3, 3, 1]), 1)
        predicted, computed = hor.is_signature(M)
        assert predicted == computed == (1, 0, 2)


class TestPathTrack:
    def test_constant_at_identity(self):
        M = hor.scal_to_matrix(hor.gamma_base(3, 1))
        res = hor.simplex_path_track(M, steps=32)
        assert np.allclose(res.alphas, 0.0, atol=1e-9)

    def test_n2_boundary(self):
        M = hor.poly_to_matrix(RealPoly([1, 2, 1]), 1)
        res = hor.simplex_path_track(M, steps=256)
        assert sorted(res.endpoint) == pytest.approx([-0.5, 0.5], abs=1e-8)

    def test_n3_band3(self):
        M = hor.poly_to_matrix(RealPoly([1, 3, 3, 1]), 1)
        res = hor.simplex_path_track(M, steps=256)
        assert sorted(res.endpoint) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps"):
            hor.simplex_path_track(hor.scal_to_matrix(hor.gamma_base(2, 1)), steps=0)


def _simplex_reference(target, steps):
    """The companion eigenvalues of each sample, continued one at a time."""
    n, k = target.n, target.k
    b1 = hor.matrix_to_scal(target)
    gf = np.array([float(x) for x in hor.gamma_base(n, k).beta])
    bf = np.array([float(x) for x in b1.beta])
    times = np.linspace(0.0, 1.0, steps + 1)
    lifts = np.empty((steps + 1, n))
    lifts[0] = gf
    prev = current = gf.copy()
    for s, t in enumerate(times[1:], start=1):
        if t >= 1.0:
            ang = np.array([float(mod1(x)) for x in b1.beta])
        else:
            coeffs = np.array([1.0 + 0.0j])
            for b in (1 - t) * gf + t * bf:
                coeffs = np.convolve(coeffs, np.array([-angle_to_point(b), 1.0 + 0.0j]))
            R = np.eye(n, k=-1)
            R[0] = [-float(c.real) for c in reversed(coeffs[:-1])]
            ang = np.array([point_to_angle(z) for z in np.linalg.eigvals(R)])
        prev, current = current, _lift_angles(prev, current, ang)
        lifts[s] = current
    alphas = n * (lifts - gf[None, :])
    return hor.PathTrack(times, lifts, alphas, list(alphas[-1]))


def _assert_simplex_close_to_reference(target, steps):
    got = hor.simplex_path_track(target, steps)
    want = _simplex_reference(target, steps)
    assert got.times.tobytes() == want.times.tobytes()
    assert np.abs(got.betas - want.betas).max() <= 1e-9
    assert np.abs(got.alphas - want.alphas).max() <= 1e-8
    assert np.abs(np.array(got.endpoint, dtype=float) - want.endpoint).max() <= 1e-8


class TestBatchedPathTrack:
    @given(st.integers(1, 7), st.sampled_from([1, 2]), st.integers(0, 10 ** 6),
           st.booleans(), st.integers(1, 48))
    @settings(max_examples=100, deadline=None)
    def test_matches_sample_loop(self, n, k, seed, cyclotomic, steps):
        # exact members from root-of-unity data sit on the simplex boundary.
        # The loop's first step matches by least distance: it is right while
        # no strand moves half the smallest gap, at least (1 - 1/steps)/n,
        # and a strand moves at most 1/(2 steps)
        steps = max(steps, n + 2)
        rng = random.Random(seed)
        M = (hor.sample_cyclotomic_member(n, k, rng) if cyclotomic
             else hor.scal_to_matrix(hor.sample_scal(n, k, rng)))
        _assert_simplex_close_to_reference(M, steps)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_few_steps(self, steps):
        M = hor.scal_to_matrix(hor.sample_scal(5, 2, random.Random(3)))
        _assert_simplex_close_to_reference(M, steps)

    def test_exact_endpoint_is_the_recipe(self):
        b = scal(1, F(1, 5), F(2, 5), F(3, 5), F(4, 5))
        res = hor.simplex_path_track(hor.scal_to_matrix(b), steps=8)
        assert res.endpoint == hor.recipe_spectrum(b)
        assert all(type(a) is F for a in res.endpoint)

    def test_path_matrices_are_the_members(self):
        b = hor.sample_scal(6, 2, random.Random(5))
        res = hor.simplex_path_track(hor.scal_to_matrix(b), steps=12)
        S = hor.path_matrices(res.betas)
        assert S.shape == (13, 6, 6)
        assert np.allclose(S[0], np.eye(6), atol=1e-12)
        for row, St in zip(res.betas, S):
            want = hor.poly_to_matrix(poly_from_float_angles(row), 2, check=False).S
            assert St.tobytes() == want.tobytes()


class TestFamilyStructure:
    def test_gamma_interior_eigenvalues(self):
        # the distinguished point has companion eigenvalues (j - k/2)/n exactly
        for n in (2, 3, 5, 8):
            for k in (1, 2):
                b = hor.gamma_base(n, k)
                p = hor.scal_to_poly(b)
                angles = unit_circle_angles(p)
                want = sorted(mod1(F(2 * j - k, 2 * n)) for j in range(1, n + 1))
                assert [a for a, m in angles for _ in range(m)] == want

    def test_dimension_table(self):
        assert hor.free_dimension(5, 1) == 2 == hor.free_dimension(5, 2)
        assert hor.free_dimension(6, 1) == 3
        assert hor.free_dimension(6, 2) == 2

    def test_intersection_is_identity(self):
        p1 = hor.scal_to_poly(hor.gamma_base(4, 1))
        p2 = hor.scal_to_poly(hor.gamma_base(4, 2))
        M1 = hor.poly_to_matrix(p1, 1)
        M2 = hor.poly_to_matrix(p2, 2)
        assert M1.S.tolist() == M2.S.tolist() == mx.identity(4).tolist()
