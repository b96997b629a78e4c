import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes import hor, lowdim as ld, matrices as mx, polycore as pc, seifert as sf
from spectral_stokes.errors import OutOfFamily, OutOfT
from spectral_stokes.polycore import RealPoly
from spectral_stokes.spectra import Spp

F = Fraction


class TestMembership:
    def test_identity(self):
        assert ld.f3((0, 0, 0)) == 4 and ld.member3((0, 0, 0))

    def test_cone_point(self):
        assert ld.f3((2, 2, 2)) == 0 and ld.member3((2, 2, 2))

    def test_outside(self):
        assert ld.f3((1, 2, 0)) == -1 and not ld.member3((1, 2, 0))

    def test_char_poly_formula_random(self):
        rng = random.Random(31)
        for _ in range(1000):
            a = tuple(F(rng.randrange(-16, 17), 4) for _ in range(3))
            S = ld.s3_matrix(a)
            mono = mx.solve_unit_upper(S, S.T.copy())
            assert mx.char_poly_exact(mono) == ld.char_poly3(a)


class TestClassify3:
    def test_interior_positive(self):
        c = ld.classify3((1, 1, 1))
        assert c.stratum == ld.Stratum3.INTERIOR_POS
        labels = sf.type_label_multiset(c.types)
        assert "Seif(1,1,1,1)" in labels and "F2" not in labels

    def test_exceptional(self):
        c = ld.classify3((2, 2, 2))
        assert c.stratum == ld.Stratum3.EXCEPTIONAL
        assert sf.type_label_multiset(c.types) == "Seif(1,1,1,1)+Seif(-1,2,1)"

    def test_triple_jordan(self):
        c = ld.classify3((3, 3, 3))
        assert c.stratum == ld.Stratum3.JORDAN3_BOUNDARY
        assert sf.type_label_multiset(c.types) == "Seif(1,1,3,1)"

    def test_all_strata_agree_with_direct_classification(self):
        for a, f, stratum, types in ld.scan3(step=F(1, 2)):
            got = sf.classify(sf.SeifertPair.from_triangular(ld.s3_matrix(a)))
            assert sf.types_multiset_equal(types, got), (a, stratum)

    def test_signature_regions(self):
        # interior positive component, indefinite components, the exterior
        # component, and the boundary parts
        assert mx.signature_exact(ld.s3_matrix((0, 0, 0)) * 2) == (3, 0, 0)
        samples = {
            (F(1, 2), F(1, 2), F(1, 2)): (3, 0, 0),     # near the identity
            (3, 3, 3): (1, 0, 2),                        # past the cone point
            (1, 2, 0): (2, 0, 1),                        # outside (f = -1)
            (-1, -1, -1): (2, 1, 0),                     # definite-side boundary
            (2, 2, 2): (1, 2, 0),                        # cone point
        }
        for a, want in samples.items():
            S = ld.s3_matrix(a)
            assert mx.signature_exact(S + S.T) == want


class TestSolve2:
    def test_boundary(self):
        beta1, alpha1, spp, types = ld.solve2(2)
        assert (beta1, alpha1) == (F(1, 2), F(1, 2))
        assert spp == Spp([(F(-1, 2), 2), (F(1, 2), 0)])
        assert sf.type_label_multiset(types) == "Seif(-1,1,2,1)"

    def test_origin(self):
        beta1, alpha1, spp, types = ld.solve2(0)
        assert (beta1, alpha1) == (F(1, 4), F(0))
        assert spp == Spp([(F(0), 1), (F(0), 1)])
        assert sf.type_label_multiset(types) == "Seif(1,1,1,1)+Seif(1,1,1,1)"

    def test_unit_value(self):
        _, alpha1, _, _ = ld.solve2(1)
        assert alpha1 == F(1, 6)

    def test_out_of_range(self):
        with pytest.raises(OutOfT):
            ld.solve2(5)

    def test_agrees_with_generic_machinery(self):
        for a in (-2, -1, 0, 1, 2):
            _, _, spp, types = ld.solve2(a)
            M = hor.poly_to_matrix(RealPoly([1, a, 1]), 1)
            assert spp == hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
            got = sf.classify(sf.SeifertPair.from_triangular(M.S))
            assert sf.types_multiset_equal(types, got)


class TestJustInsideTheBoundary:
    # |a| < 2 exactly, but float(a) == 2.0: the eigenvalues lie on the circle
    a = F(19999999999999999999, 10 ** 19)

    def test_solve2_is_interior(self):
        for a in (self.a, -self.a):
            _, _, spp, types = ld.solve2(a)
            assert [t.family for t in types] == ["F2complex"]
            assert [k for _, k in spp] == [1, 1]
        assert [t.family for t in ld.classify3((self.a, 0, 0)).types] == ["F1", "F2complex"]

    def test_classify_gives_no_off_circle_type(self):
        # the pair's sign is exact, so classify gives the closed-form types
        for S, want in ((mx.to_matrix([[1, self.a], [0, 1]]), ld.solve2(self.a)[3]),
                        (ld.s3_matrix((self.a, 0, 0)), ld.classify3((self.a, 0, 0)).types)):
            types = sf.classify(sf.SeifertPair.from_triangular(S))
            assert not any(t.family in ("F2hyper", "F4hyper") for t in types)
            assert sf.types_multiset_equal(types, want)

    def test_line3_band_just_outside(self):
        with pytest.raises(OutOfFamily):
            ld.hor1_line3(3 + F(1, 10 ** 20))


class TestLine3:
    def test_left_end(self):
        beta, alpha, spp = ld.hor1_line3(F(-1))
        assert beta == (F(0), F(1, 2), F(1))
        assert spp == Spp([(F(0), 1), (F(-1, 2), 2), (F(1, 2), 0)])

    def test_right_end(self):
        _, alpha, spp = ld.hor1_line3(F(3))
        assert alpha == (F(1), F(0), F(-1))
        assert spp == Spp([(F(-1), 3), (F(0), 1), (F(1), -1)])

    def test_middle(self):
        beta, alpha, _ = ld.hor1_line3(F(1))
        assert beta[0] == F(1, 4)
        assert alpha == (F(1, 4), F(0), F(-1, 4))

    def test_out_of_family(self):
        with pytest.raises(OutOfFamily):
            ld.hor1_line3(4)

    def test_agrees_with_generic_machinery(self):
        for p1 in (F(-1), F(0), F(1), F(2), F(3)):
            _, _, spp = ld.hor1_line3(p1)
            M = hor.poly_to_matrix(RealPoly([1, p1, p1, 1]), 1)
            assert spp == hor.recipe_spectral_pairs(hor.matrix_to_scal(M))

    def test_agrees_with_generic_machinery_floats(self):
        # band values with irrational angles: both code paths within 1e-9
        for p1 in (0.5, 1.7, 2.3, -0.4):
            _, alpha, spp = ld.hor1_line3(p1)
            M = hor.poly_to_matrix(RealPoly([1.0, p1, p1, 1.0]), 1)
            generic = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
            assert spp.equals(generic)

    def test_monotone_alpha1(self):
        vals = [ld.hor1_line3(F(i, 25))[1][0] for i in range(-25, 76)]
        assert all(float(vals[i]) <= float(vals[i + 1]) + 1e-12
                   for i in range(len(vals) - 1))

    def test_stratum_visit_counts(self):
        # scanning the band parameter: the positive interior family is met
        # in two runs, the indefinite interior in one, the definite-side
        # two-block boundary once, the cone point once, the triple-Jordan
        # boundary once, and the indefinite-side two-block boundary never
        step = F(1, 100)
        runs = []
        prev = None
        p1 = F(-1)
        while p1 <= 3:
            stratum = ld.classify3((p1, p1, p1)).stratum
            if stratum != prev:
                runs.append(stratum)
                prev = stratum
            p1 += step
        counts = {s: runs.count(s) for s in set(runs)}
        assert counts[ld.Stratum3.INTERIOR_POS] == 2
        assert counts[ld.Stratum3.INTERIOR_IND] == 1
        assert counts[ld.Stratum3.BOUNDARY_POS_SPHERE] == 1
        assert counts[ld.Stratum3.EXCEPTIONAL] == 1
        assert counts[ld.Stratum3.JORDAN3_BOUNDARY] == 1
        assert counts[ld.Stratum3.IDENTITY] == 1
        assert ld.Stratum3.BOUNDARY_IND_CONE not in counts


#: the signature of S + S^t on each stratum that classify3 tells apart by it
_STRATUM_SIGNATURE = {ld.Stratum3.INTERIOR_POS: (3, 0, 0), ld.Stratum3.INTERIOR_IND: (1, 0, 2),
                      ld.Stratum3.BOUNDARY_POS_SPHERE: (2, 1, 0),
                      ld.Stratum3.BOUNDARY_IND_CONE: (1, 1, 1)}


class TestSylvester:
    @pytest.mark.parametrize("step", [F(1, 4), F(1, 3)])
    def test_decision_matches_signature(self, step, monkeypatch):
        # Sylvester's rule on the minors 2, 4 - a1^2, 2f against the exact
        # signature of S + S^t on every grid member; the exact signature is
        # taken only on f = 0, where the last minor vanishes
        calls = []
        signature = mx.signature_exact
        monkeypatch.setattr(ld.mx, "signature_exact", lambda A: calls.append(A) or signature(A))
        points = [a for a, *_ in ld.scan3(step=step)]
        on_f0 = sum(ld.f3(a) == 0 and a not in ld.EXCEPTIONAL_POINTS for a in points)
        assert len(calls) == on_f0 > 0
        monkeypatch.undo()
        seen = set()
        for a in points:
            c = ld.classify3(a)
            if c.stratum in _STRATUM_SIGNATURE:
                S = ld.s3_matrix(a)
                assert mx.signature_exact(S + S.T) == _STRATUM_SIGNATURE[c.stratum], a
                seen.add((c.stratum, abs(a[0]) == 2))
        # |a1| = 2 lies on f = 0 only, on both sheets
        assert seen == {(s, False) for s in _STRATUM_SIGNATURE} | \
            {(ld.Stratum3.BOUNDARY_POS_SPHERE, True), (ld.Stratum3.BOUNDARY_IND_CONE, True)}


class TestIntegerF3:
    def test_values_and_types(self):
        # D^3 f = 4 D^3 + n1 n2 n3 - D sum n_i^2 gives the value of the
        # direct formula, with its type: Fraction, int or float
        rng = random.Random(5)
        for _ in range(500):
            a = tuple(rng.choice([F(rng.randrange(-13, 14), rng.randrange(1, 7)),
                                  rng.randrange(-4, 5), F(rng.randrange(-4, 5))])
                      for _ in range(3))
            a1, a2, a3 = a
            want = 4 + a1 * a2 * a3 - (a1 * a1 + a2 * a2 + a3 * a3)
            got = ld.f3(a)
            assert got == want and type(got) is type(want), a
            assert ld.member3(a) == (0 <= want <= 4)
            assert ld.char_poly3(a) == RealPoly([1, -(want - 2), 1]) * RealPoly([-1, 1])
        for a in [(0.5, 1.0, -0.25), (1, 0.5, 2), (2.0, 2.0, 2.0)]:
            a1, a2, a3 = a
            assert ld.f3(a) == 4 + a1 * a2 * a3 - (a1 * a1 + a2 * a2 + a3 * a3)
            assert type(ld.f3(a)) is float
        assert type(ld.classify3((F(1), F(1), F(1))).f) is F
        assert type(ld.classify3((1, 1, 1)).f) is int


#: int, Fraction (denominators up to 12, so most points mix them), float
#: and bool entries
_ENTRIES = st.one_of(st.integers(-5, 5),
                     st.fractions(-5, 5, max_denominator=12),
                     st.floats(-5, 5),
                     st.booleans())


@given(st.tuples(_ENTRIES, _ENTRIES, _ENTRIES))
@settings(max_examples=500, deadline=None)
def test_f3_and_member3_match_the_direct_formula(a):
    # whatever mix of entry types and denominators, f3 is the value and
    # type of 4 + a1 a2 a3 - sum a_i^2 (an int for bools), and member3 tests it
    a1, a2, a3 = a
    want = 4 + a1 * a2 * a3 - (a1 * a1 + a2 * a2 + a3 * a3)
    got = ld.f3(a)
    assert got == want and type(got) is type(want)
    assert ld.member3(a) == (0 <= want <= 4)


@given(st.floats(0, 4, allow_nan=False) | st.fractions(0, 4, max_denominator=10 ** 6)
       | st.integers(0, 4), st.booleans())
@settings(max_examples=300, deadline=None)
def test_interior_pair_type_is_the_constant_expression_bit_for_bit(f, sign_flip):
    # the expressions with Fraction constants: exact for an exact f and
    # rounded once per operation for a float one
    theta = pc.beta_from_cos((f - 2) * Fraction(1, 2))
    zeta = pc.mod1(-theta / 2 + Fraction(1, 2)) if sign_flip else pc.mod1(-theta / 2)
    got = ld._interior_pair_type(f, sign_flip)
    assert [(type(x), repr(x)) for x in (got.lam, got.zeta)] == \
        [(type(x), repr(x)) for x in (theta, zeta)]


#: entries of every mode: ints, bools, Fractions, floats (both zeros) and numpy scalars
_HALVED = (st.integers(-2, 2) | st.booleans() | st.fractions(-2, 2, max_denominator=10 ** 6)
           | st.floats(-2, 2, allow_nan=False) | st.sampled_from([0.0, -0.0, 2.0, -2.0])
           | st.floats(-2, 2, allow_nan=False).map(np.float64) | st.integers(-2, 2).map(np.int64))


@given(_HALVED)
@settings(max_examples=400, deadline=None)
def test_solve2_and_line3_halve_in_the_input_mode_bit_for_bit(a):
    # the expressions with the Fraction constant 1/2: exact for rational
    # input, rounded once for a float
    half = Fraction(1, 2)
    assert _typed(ld.solve2(a)[:2]) == _typed(
        (pc.beta_from_cos(-a * half), pc.alpha_from_sin(a * half)))
    p1 = a + 1
    want = hor.scal_from_free(3, 1, [pc.beta_from_cos((1 - p1) * half)]).beta
    assert _typed(ld.hor1_line3(p1)[0]) == _typed(want)


def _typed(xs):
    return [(type(x), repr(x)) for x in xs]


@given(st.tuples(_HALVED, _HALVED, _HALVED))
@settings(max_examples=300, deadline=None)
def test_s3_matrix_takes_the_dtype_of_its_three_entries(a):
    a1, a2, a3 = a
    want = mx.to_matrix([[1, a1, a3], [0, 1, a2], [0, 0, 1]])
    got = ld.s3_matrix(a)
    assert got.dtype == want.dtype and _typed(got.ravel()) == _typed(want.ravel())
