import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes import matrices as mx
from spectral_stokes import polycore as pc
from spectral_stokes.errors import NotPolynomial, RootOffCircle

x = sympy.Symbol("x")


def sympy_poly(p: pc.RealPoly):
    return sympy.Poly([sympy.Rational(str(c)) if not isinstance(c, float) else c
                       for c in reversed(p.coeffs)], x)


class TestExpandSignedProduct:
    def test_single_factor(self):
        assert pc.expand_signed_product([(1, 1)]) == pc.RealPoly([-1, 1])

    def test_division_oracle(self):
        # (x^3 - 1) / (x - 1) via an independent long division
        q, r = sympy.div(x**3 - 1, x - 1, x)
        expected = [int(c) for c in reversed(sympy.Poly(q, x).all_coeffs())]
        assert r == 0
        got = pc.expand_signed_product([(1, -1), (3, 1)])
        assert list(got.coeffs) == expected == [1, 1, 1]

    def test_chain_32_polynomial(self):
        q, r = sympy.div((x - 1) * (x**6 - 1), x**3 - 1, x)
        assert r == 0
        got = pc.expand_signed_product([(1, 1), (3, -1), (6, 1)])
        assert sympy_poly(got).as_expr() == sympy.expand(q)
        assert list(got.coeffs) == [-1, 1, 0, -1, 1]

    def test_nonpolynomial_rejected(self):
        with pytest.raises(NotPolynomial):
            pc.expand_signed_product([(2, -1), (3, 1)])

    def test_constant_term_is_unit(self):
        # alternating chain-style factor lists always end at +-1
        for factors in ([(1, 1), (3, -1), (6, 1)], [(1, -1), (4, 1)],
                        [(1, 1), (2, -1), (4, 1)]):
            p = pc.expand_signed_product(factors)
            k, _ = pc.palindrome_class(p)
            assert p.coeffs[0] == (-1) ** (k - 1)


def _sympy_signed_product(factors):
    """Coefficients (constant first) of prod (x^r - 1)^e by sympy's exact
    division, or None when the division leaves a remainder."""
    num, den = sympy.Poly(1, x), sympy.Poly(1, x)
    for r, e in factors:
        if e == 1:
            num *= sympy.Poly(x**r - 1, x)
        else:
            den *= sympy.Poly(x**r - 1, x)
    q, rem = num.div(den)
    if not rem.is_zero:
        return None
    return [int(c) for c in reversed(q.all_coeffs())]


@st.composite
def _divisible_factor_lists(draw):
    """Each (x^d - 1) of the denominator is paired with an (x^r - 1), d | r,
    of the numerator, so the product is a polynomial."""
    tops = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    out = [(r, 1) for r in tops]
    for r in tops:
        if draw(st.booleans()):
            out.append((draw(st.sampled_from([d for d in range(1, r + 1) if r % d == 0])), -1))
    return draw(st.permutations(out))


_any_factor_lists = st.lists(st.tuples(st.integers(1, 40), st.sampled_from((1, -1))),
                             max_size=6)


class TestSignedProductKernel:
    """signed_product_coeffs against sympy's exact division: the same
    polynomial, or NotPolynomial exactly when sympy leaves a remainder."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_divisible_factor_lists(), _any_factor_lists))
    def test_agrees_with_sympy_division(self, factors):
        want = _sympy_signed_product(factors)
        if want is None:
            with pytest.raises(NotPolynomial):
                pc.signed_product_coeffs(factors)
        else:
            got = pc.signed_product_coeffs(factors)
            assert got.tolist() == want

    def test_both_verdicts_reached(self):
        assert _sympy_signed_product([(6, 1), (2, -1), (3, -1)]) is None
        with pytest.raises(NotPolynomial):
            pc.signed_product_coeffs([(6, 1), (2, -1), (3, -1)])
        assert pc.signed_product_coeffs([(6, 1), (1, 1), (2, -1), (3, -1)]).tolist() == \
            _sympy_signed_product([(6, 1), (1, 1), (2, -1), (3, -1)]) == [1, -1, 1]

    @pytest.mark.parametrize("r, power, fits", [(2000, 5, True), (1000, 8, False)])
    def test_object_path_stays_exact(self, r, power, fits):
        # ((x^r - 1) / (x - 1))^power: the int64 bound 2^power ceil(L)^power
        # fails for both; the true coefficients fit in int64 for the first
        # and pass 2^63 for the second
        got = pc.signed_product_coeffs([(r, 1)] * power + [(1, -1)] * power)
        assert got.dtype == object
        want = [int(c) for c in reversed((sympy.Poly([1] * r, x) ** power).all_coeffs())]
        assert (max(want) < 2 ** 63) is fits
        assert got.tolist() == want and all(type(c) is int for c in got.tolist())

    def test_int64_path_when_the_bound_holds(self):
        got = pc.signed_product_coeffs([(40, 1)] * 3 + [(1, -1)] * 3)
        assert got.dtype == np.int64
        assert got.tolist() == [int(c) for c in reversed((sympy.Poly([1] * 40, x) ** 3).all_coeffs())]

    def test_factors_validated(self):
        with pytest.raises(ValueError):
            pc.signed_product_coeffs([(0, 1)])
        with pytest.raises(ValueError):
            pc.signed_product_coeffs([(3, 2)])


class TestUnitCircleAngles:
    def test_quadratic_oracle(self):
        # roots of x^2 + x + 1 by the quadratic formula: exp(+-2 pi i/3)
        r1, r2 = sympy.solve(x**2 + x + 1, x)
        angles = sorted((-sympy.arg(r) / (2 * sympy.pi)) % 1 for r in (r1, r2))
        assert angles == [sympy.Rational(1, 3), sympy.Rational(2, 3)]
        got = pc.unit_circle_angles(pc.RealPoly([1, 1, 1]))
        assert got == [(Fraction(1, 3), 1), (Fraction(2, 3), 1)]

    def test_triple_root_one(self):
        got = pc.unit_circle_angles(pc.RealPoly([-1, 3, -3, 1]))
        assert got == [(Fraction(0), 3)]

    def test_double_root_minus_one(self):
        got = pc.unit_circle_angles(pc.RealPoly([1, 2, 1]))
        assert got == [(Fraction(1, 2), 2)]

    def test_off_circle_rejected(self):
        with pytest.raises(RootOffCircle):
            pc.unit_circle_angles(pc.RealPoly([1, -3, 1]))

    def test_exact_coefficient_past_the_binomial_bound_is_refused_before_floats(self, monkeypatch):
        # |c_k| > C(n, k) shows a root off the circle; no float is made of
        # the coefficients, which for 10^400 would overflow
        monkeypatch.setattr(pc.np, "roots", lambda c: pytest.fail("float roots"))
        N = 10**400
        for p in ([1, N, N, 1], [1, Fraction(N, 3), 1], [1, -3, 1], [Fraction(-3, 2), 0, 1]):
            with pytest.raises(RootOffCircle):
                pc.unit_circle_angles(pc.RealPoly(p))

    def test_numeric_mode_snaps(self):
        p = pc.RealPoly([1.0, 1.0, 1.0])
        got = pc.unit_circle_angles(p, tol=1e-9)
        assert len(got) == 2
        assert got[0][0] == Fraction(1, 3) and got[1][0] == Fraction(2, 3)

    def test_round_trip_on_cyclotomic_products(self):
        for mults in ({12: 1}, {1: 2, 3: 1}, {2: 1, 4: 2}):
            p = pc.poly_from_cyclotomic_mults(mults)
            angles = pc.unit_circle_angles(p)
            assert pc.galois_closed_mults(angles) == mults

    def test_numeric_round_trip(self):
        import random
        rng = random.Random(3)
        for _ in range(20):
            half = sorted(rng.uniform(0.02, 0.48) for _ in range(rng.randrange(1, 5)))
            angles = half + [1.0 - b for b in reversed(half)]
            p = pc.poly_from_float_angles(angles)
            got = [b for b, m in pc.unit_circle_angles(p, tol=1e-7) for _ in range(m)]
            assert len(got) == len(angles)
            for x, y in zip(sorted(got, key=float), sorted(angles)):
                assert pc.circle_dist(x, y) <= 1e-7

    def test_rational_multiple_root_is_exact(self):
        # (x + 1)^4 (x^2 + x/2 + 1): float roots put the fourfold root -1
        # 2e-4 off the circle; the cyclotomic split finds it exactly
        p = pc.poly_from_cyclotomic_mults({2: 4}) * pc.RealPoly([1, Fraction(1, 2), 1])
        got = pc.unit_circle_angles(p)
        assert (Fraction(1, 2), 4) in got
        assert sum(m for _, m in got) == 6

    def test_rational_input_splits_once(self, monkeypatch):
        # one cyclotomic split on the integer multiple, and np.roots of the
        # monic cofactor only
        split, roots = [], []
        factor, np_roots = pc.factor_cyclotomic, pc.np.roots
        monkeypatch.setattr(pc, "factor_cyclotomic", lambda p: split.append(p) or factor(p))
        monkeypatch.setattr(pc.np, "roots", lambda c: roots.append(list(c)) or np_roots(c))
        p = pc.poly_from_cyclotomic_mults({1: 2, 3: 1, 5: 1}) * pc.RealPoly([1, Fraction(-3, 7), 1])
        got = pc.unit_circle_angles(p)
        assert split == [pc.RealPoly([7 * c for c in p.coeffs])]
        assert roots == [[1.0, -3 / 7, 1.0]]
        assert [b for b, _ in got if isinstance(b, Fraction)] == [
            Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(3, 5),
            Fraction(2, 3), Fraction(4, 5)]

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), st.integers(1, 3),
                           max_size=3),
           st.fractions(-2, 2, max_denominator=12).filter(lambda c: abs(c) < 2 and c not in (0, 1, -1)))
    def test_rational_split_matches_sympy(self, mults, c):
        # Phi_d powers (phi(d) <= 4) times x^2 - c x + 1, which is not
        # cyclotomic: the roots of unity are exact and come from sympy's
        # factor_list of the polynomial with its denominators cleared
        p = pc.poly_from_cyclotomic_mults(mults) * pc.RealPoly([1, -c, 1])
        want, rest = sympy_cyclotomic_split(pc.RealPoly(pc._common_numerators(p.coeffs)[0]))
        assert rest.degree == 2
        got = pc.unit_circle_angles(p)
        exact = {b: m for d, m in want.items() for b in pc.cyclotomic_angles(d)}
        assert [t for t in got if t[0] in exact] == sorted(exact.items())
        beta = float(sympy.acos(sympy.Rational(c.numerator, 2 * c.denominator)) / (2 * sympy.pi))
        other = [t for t in got if t[0] not in exact]
        assert [m for _, m in other] == [1, 1]
        assert pc.circle_dist(other[0][0], beta) <= 1e-9
        assert pc.circle_dist(other[1][0], -beta) <= 1e-9


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-0.1, 0.1),
                          st.floats(0, 1, exclude_max=True)),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_lift_angles_matches_strand_loop(triples):
    current = np.array([c for c, _, _ in triples])
    prev = current - np.array([d for _, d, _ in triples])
    ang = np.array([a for _, _, a in triples])
    guess = [2.0 * c - p for p, c in zip(prev, current)]
    cost = [[min(abs(g % 1.0 - a), 1.0 - abs(g % 1.0 - a)) for a in ang] for g in guess]
    rows, cols = scipy.optimize.linear_sum_assignment(np.array(cost))
    want = current.copy()
    for i, j in zip(rows, cols):
        want[i] = guess[i] + ((ang[j] - guess[i] + 0.5) % 1.0 - 0.5)
    assert pc._lift_angles(prev, current, ang).tobytes() == want.tobytes()


def test_lift_angles_passes_through_a_crossing():
    # two strands moving towards each other cross at 1/2 and continue
    prev, current = np.array([0.40, 0.60]), np.array([0.48, 0.52])
    ang = np.array([0.44, 0.56])
    assert pc._lift_angles(prev, current, ang) == pytest.approx([0.56, 0.44])
    # without a previous step the nearest angles win: the strands bounce
    assert pc._lift_angles(current, current, ang) == pytest.approx([0.44, 0.56])


@st.composite
def _cost_matrices(draw):
    """Square cost matrices of the kinds that decide ties: random floats,
    small integers, identical rows, a constant, and circle distances from
    guesses that repeat, as on the first step out of the identity."""
    n = draw(st.integers(1, 12))
    unit = st.floats(0, 1, allow_nan=False)
    kind = draw(st.sampled_from(["random", "integer", "rows", "constant", "circle"]))
    if kind == "random":
        return np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))
    if kind == "integer":
        return np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                                      min_size=n, max_size=n)), dtype=float)
    if kind == "rows":
        return np.tile(draw(st.lists(unit, min_size=n, max_size=n)), (n, 1))
    if kind == "constant":
        return np.full((n, n), draw(st.sampled_from([0.0, 1.0, 0.25])))
    pool = draw(st.lists(unit, min_size=1, max_size=3))
    guess = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    ang = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    cost = np.abs(guess[:, None] % 1.0 - ang[None, :])
    return np.minimum(cost, 1.0 - cost)


@given(_cost_matrices())
@settings(max_examples=400, deadline=None)
def test_min_cost_assignment_is_scipys(cost):
    _, want = scipy.optimize.linear_sum_assignment(cost)
    assert np.array_equal(pc._min_cost_assignment(cost.tolist()), want)


def _lift_loop(ang):
    """The lifting pass of generic_path_track, one _lift_angles call per step."""
    lifts = np.zeros((len(ang) + 1, ang.shape[1]))
    for s in range(len(ang)):
        lifts[s + 1] = pc._lift_angles(lifts[max(s - 1, 0)], lifts[s], ang[s])
    return lifts


@st.composite
def _angle_stacks(draw):
    """Strands moving at constant speeds (so they cross, and the fast ones
    wrap past the point 1), then edited: exact repeats of another angle,
    tiny angles and 1.0 for the point 1, and near-ties within 1e-12 of
    another angle.  Long stacks give _lift_path certified runs, and the
    edits and crossings break them."""
    n, steps = draw(st.integers(1, 8)), draw(st.integers(1, 300))
    start = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 1, exclude_max=True)),
                          min_size=n, max_size=n))
    speed = draw(st.lists(st.one_of(st.floats(-0.05, 0.05), st.floats(-0.45, 0.45)),
                          min_size=n, max_size=n))
    ang = np.array([[(a + v * s) % 1.0 for a, v in zip(start, speed)]
                    for s in range(1, steps + 1)])
    for _ in range(draw(st.integers(0, 8))):
        s, col, src = (draw(st.integers(0, steps - 1)), draw(st.integers(0, n - 1)),
                       draw(st.integers(0, n - 1)))
        kind = draw(st.sampled_from(["repeat", "tiny", "one", "near"]))
        if kind == "repeat":
            ang[s, col] = ang[s, src]
        elif kind == "tiny":
            ang[s, col] = draw(st.sampled_from([1.87e-17, 2.0 ** -54, 2.0 ** -53, 5e-324, 1e-13]))
        elif kind == "one":
            ang[s, col] = 1.0
        else:
            ang[s, col] = min(max(ang[s, src] + draw(st.floats(-1e-12, 1e-12)), 0.0), 1.0)
    return ang


@given(_angle_stacks())
@settings(max_examples=300, deadline=None)
def test_lift_path_matches_step_loop(ang):
    assert pc._lift_path(ang).tobytes() == _lift_loop(ang).tobytes()


def test_lift_path_crossing_before_a_certified_stretch():
    # two strands leave 0 in opposite directions and cross twice.  After the
    # first crossing the sorted rows continue smoothly, so the next step is
    # certified in place, but the strands have swapped sorted indices: that
    # step goes through the per-step certificate before a run starts
    ang = np.array([[(0.1 * s) % 1.0, (-0.13 * s) % 1.0] for s in range(1, 12)])
    lifts = pc._lift_path(ang)
    assert lifts.tobytes() == _lift_loop(ang).tobytes()
    assert lifts[-1] == pytest.approx([1.1, -1.43])


def test_lift_path_past_the_run_limit():
    # two fast strands wind past _RUN_LIMIT turns; from there on every step
    # goes through the per-step certificate
    ang = np.array([[(0.43 * s) % 1.0, (0.1 * s) % 1.0] for s in range(1, 701)])
    lifts = pc._lift_path(ang)
    assert lifts.tobytes() == _lift_loop(ang).tobytes()
    assert np.abs(lifts).max() > pc._RUN_LIMIT


def test_lift_path_keeps_the_point_one_as_two_values():
    # the point 1 read as the two angles 1.87e-17 and 1.0: their wrap gap is
    # 0.0 in floats, yet they are two values.  The strand lifted to
    # 1.1e-16, 1.7e-16, 1.1e-16 guesses 2**-54, whose float cost to 1.0 is 0,
    # so the assignment sends it to 1.0, not to the nearer 1.87e-17
    ulp = 2.0 ** -54
    ang = np.array([[2 * ulp, 0.0, 0.3], [3 * ulp, 0.0, 0.3], [2 * ulp, 0.0, 0.3],
                    [1.87e-17, 1.0, 0.3]])
    lifts = pc._lift_path(ang)
    assert lifts.tobytes() == _lift_loop(ang).tobytes()
    assert lifts[-1].tolist() == [0.0, ulp, 0.3]


def test_point_angles_are_point_to_angle_bit_for_bit():
    # +-0 imaginary parts at +-1 give the angles 1/2 and 0 from phases of
    # both signs; the rest are points near the circle, exact roots of unity
    # and random points
    rng = np.random.default_rng(7)
    special = [-1 + 0j, complex(-1, -0.0), 1 + 0j, complex(1, -0.0), 1j, -1j,
               complex(-1, 1e-300), complex(-1, -1e-300), complex(1, -5e-324)]
    roots = np.exp(2j * np.pi * np.arange(60) / 60)
    z = rng.normal(size=(501, 2)) @ np.array([1, 1j])
    zs = np.concatenate([special, roots, z / np.abs(z), z]).reshape(-1, 3)
    want = np.array([pc.point_to_angle(w) for w in zs.ravel().tolist()]).reshape(zs.shape)
    assert pc._point_angles(zs).tobytes() == want.tobytes()
    assert pc._point_angles(np.array([-1 + 0j, complex(-1, -0.0)])).tolist() == [0.5, 0.5]


class TestExactOrToleranceComparisons:
    def test_exact_never_uses_the_tolerance(self):
        assert not pc.num_eq(Fraction(1, 10**12), 0)
        assert not pc.angle_eq(Fraction(1, 10**12), 0)
        assert pc.num_eq(Fraction(2, 4), Fraction(1, 2), tol=0.0)

    def test_angles_wrap(self):
        assert pc.angle_eq(Fraction(1), 0)
        assert pc.angle_eq(Fraction(-1, 3), Fraction(2, 3))
        assert not pc.num_eq(Fraction(1), 0)

    def test_floats_within_and_outside_tol(self):
        assert pc.num_eq(0.5, 0.5 + 1e-10)
        assert not pc.num_eq(0.5, 0.5 + 1e-8)
        assert pc.num_eq(0.5, 0.5 + 1e-8, tol=1e-7)
        assert pc.angle_eq(1.0 - 1e-10, 0.0)
        assert not pc.angle_eq(0.25, 0.25 + 1e-8)

    def test_mixed_float_and_fraction_use_the_tolerance(self):
        assert pc.num_eq(Fraction(1, 3), 1 / 3)
        assert not pc.num_eq(Fraction(1, 3), 1 / 3 + 1e-6)
        assert pc.angle_eq(Fraction(1), 1e-10)
        assert not pc.angle_eq(Fraction(1, 2), 0.5 + 1e-6)


class TestPalindromeClass:
    def test_symmetric(self):
        p = pc.RealPoly([1, 1, 1])
        k, angles = pc.palindrome_class(p)
        assert k == 1 and p.coeffs[0] == (-1) ** (k - 1)
        assert angles == pc.unit_circle_angles(p)

    def test_antisymmetric(self):
        p = pc.RealPoly([-1, 1, 0, -1, 1])
        k, angles = pc.palindrome_class(p)
        assert k == 2 and p.coeffs[0] == (-1) ** (k - 1)
        assert angles == pc.unit_circle_angles(p)

    def test_real_roots_off_circle(self):
        assert pc.palindrome_class(pc.RealPoly([1, -3, 1])) == (None, None)

    def test_exact_coefficients_compare_exactly(self):
        # p_0 misses p_2 by 1e-12: within a float tolerance, not exactly
        e = Fraction(1, 10**12)
        assert pc.palindrome_class(pc.RealPoly([1 + e, 1, 1])) == (None, None)
        assert pc.palindrome_class(pc.RealPoly([1 + float(e), 1.0, 1.0]))[0] == 1


def _beta_from_cos_reference(c):
    """beta_from_cos as it read with its table keys built per call."""
    table = {Fraction(1): Fraction(0), Fraction(1, 2): Fraction(1, 6),
             Fraction(0): Fraction(1, 4), Fraction(-1, 2): Fraction(1, 3),
             Fraction(-1): Fraction(1, 2)}
    if pc.is_exact(c) and Fraction(c) in table:
        return table[Fraction(c)]
    return math.acos(float(c)) / (2.0 * math.pi)


def _alpha_from_sin_reference(s):
    """alpha_from_sin as it read with its table built per call."""
    if pc.is_exact(s):
        table = {Fraction(0): Fraction(0), Fraction(1, 2): Fraction(1, 6),
                 Fraction(-1, 2): Fraction(-1, 6), Fraction(1): Fraction(1, 2),
                 Fraction(-1): Fraction(-1, 2)}
        if Fraction(s) in table:
            return table[Fraction(s)]
    return math.asin(float(s)) / math.pi


#: ints, Fractions (in and out of the tables) and floats, among them the
#: float images of table keys, which must not find the exact entries
_TABLE_ARGUMENTS = [0, 1, -1, Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                    Fraction(-1, 2), Fraction(2, 4), Fraction(1, 3), Fraction(-5, 7),
                    0.5, -0.5, 1.0, -1.0, 0.0, -0.0, 0.3, True, False]


@pytest.mark.parametrize("x", _TABLE_ARGUMENTS, ids=repr)
def test_rational_cos_and_sin_tables_keep_values_and_types(x):
    for got, want in ((pc.beta_from_cos(x), _beta_from_cos_reference(x)),
                      (pc.alpha_from_sin(x), _alpha_from_sin_reference(x))):
        assert type(got) is type(want) and repr(got) == repr(want)


class TestCompanionMatrix:
    def test_two_by_two(self):
        A = pc.companion_matrix(pc.RealPoly([1, 5, 1]))
        assert A.tolist() == [[-5, -1], [1, 0]]

    def test_degree_one(self):
        assert pc.companion_matrix(pc.RealPoly([-1, 1])).tolist() == [[1]]

    def test_three_by_three_shape(self):
        A = pc.companion_matrix(pc.RealPoly([7, 5, 3, 1]))
        assert A.tolist() == [[-3, -5, -7], [1, 0, 0], [0, 1, 0]]

    @given(st.lists(st.integers(-4, 4).map(lambda n: Fraction(n, 2)),
                    min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_char_poly_property(self, coeffs):
        p = pc.RealPoly(list(coeffs) + [1])
        A = pc.companion_matrix(p)
        cp = mx.char_poly_exact(A)
        oracle = sympy.Matrix(A.tolist()).charpoly(x).all_coeffs()  # high to low
        assert [sympy.Rational(str(c)) for c in reversed(cp.coeffs)] == list(oracle)
        assert cp == p


class TestSerialization:
    def test_poly_round_trip(self):
        p = pc.RealPoly([Fraction(1, 2), -3, 1])
        assert p.to_json() == ["1/2", "-3", "1"]
        assert pc.RealPoly([pc.parse_rational(c) for c in p.to_json()]) == p

    def test_rational_strings(self):
        assert pc.format_number(Fraction(-1, 2)) == "-1/2"
        assert pc.parse_rational("-1/2") == Fraction(-1, 2)


def from_sympy(poly: sympy.Poly) -> pc.RealPoly:
    return pc.RealPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def sympy_cyclotomic_split(p: pc.RealPoly):
    """The cyclotomic multiplicities and the rest of p, from sympy's
    factorization."""
    mults, rest = {}, sympy.Integer(1)
    for f, e in sympy.factor_list(sympy_poly(p).as_expr(), x)[1]:
        f = sympy.Poly(f, x)
        if f.is_cyclotomic:
            d = next(d for d in range(1, 2 * f.degree() ** 2 + 3)
                     if sympy.totient(d) == f.degree()
                     and sympy.Poly(sympy.cyclotomic_poly(d, x), x) == f)
            mults[d] = mults.get(d, 0) + e
        else:
            rest *= f.as_expr() ** e
    return mults, from_sympy(sympy.Poly(rest, x))


#: coefficients from the small ones of family members to far past float range
COEFFS = st.one_of(st.integers(-50, 50), st.integers(-10**400, 10**400))


class TestDivmod:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(COEFFS, min_size=1, max_size=9),
           st.lists(COEFFS, min_size=1, max_size=4), st.integers(1, 3))
    def test_monic_integer_divisor_matches_sympy(self, dividend, low, den):
        # an exact dividend (integer when den is 1) over a monic integer divisor
        p = pc.RealPoly([Fraction(c, den) for c in dividend])
        d = pc.RealPoly(low + [1])
        q, r = pc._divmod_monic(p.coeffs, d.coeffs)
        want_q, want_r = sympy.div(sympy_poly(p), sympy_poly(d))
        assert pc.RealPoly(q) == from_sympy(want_q)
        assert pc.RealPoly(r) == from_sympy(want_r)
        assert den > 1 or all(type(c) is int for c in q + r)


class TestCyclotomic:
    def test_known_polynomials(self):
        assert list(pc.cyclotomic_polynomial(1).coeffs) == [-1, 1]
        assert list(pc.cyclotomic_polynomial(2).coeffs) == [1, 1]
        assert list(pc.cyclotomic_polynomial(6).coeffs) == [1, -1, 1]
        assert list(pc.cyclotomic_polynomial(12).coeffs) == [1, 0, -1, 0, 1]

    def test_degree_candidates_are_every_d_with_phi_at_most_n(self):
        for n in range(120):
            want = tuple(d for d in range(1, 2 * n * n + 3) if pc.totient(d) <= n)
            assert pc._cyclotomic_degree_candidates(n) == want

    def test_value_at_two(self):
        for d in range(1, 60):
            assert pc._cyclotomic_at_2(d) == sympy.cyclotomic_poly(d, 2)

    def test_screen_is_every_d_with_phi_at_most_n_and_its_values(self):
        for n in range(60):
            want = [(d, sympy.cyclotomic_poly(d, 2))
                    for d in range(1, 2 * n * n + 3) if pc.totient(d) <= n]
            assert list(pc._cyclotomic_screen(n)) == want

    def test_factorization(self):
        p = pc.poly_from_cyclotomic_mults({1: 2, 4: 1, 6: 2})
        mults, rem = pc.factor_cyclotomic(p)
        assert mults == {1: 2, 4: 1, 6: 2}
        assert rem.degree == 0

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(1, 20), st.integers(1, 2), max_size=3),
           st.one_of(st.none(), st.lists(st.integers(-4, 4), min_size=1, max_size=4)))
    def test_factorization_matches_sympy(self, mults, low):
        # cyclotomic products, times a random monic factor that may itself
        # hold cyclotomic or non-cyclotomic irreducible factors
        p = pc.poly_from_cyclotomic_mults(mults)
        if low is not None:
            p = p * pc.RealPoly(low + [1])
        assert pc.factor_cyclotomic(p) == sympy_cyclotomic_split(p)

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.integers(1, 12), st.integers(1, 2), max_size=3),
           st.lists(COEFFS, min_size=1, max_size=4), st.booleans())
    def test_huge_coefficients_match_sympy(self, mults, low, root_two):
        # a monic factor with coefficients past float range, and with
        # root_two a root 2, where p(2) = 0 passes every candidate's screen
        p = pc.poly_from_cyclotomic_mults(mults) * pc.RealPoly(low + [1])
        if root_two:
            p = p * pc.RealPoly([-2, 1])
        assert pc.factor_cyclotomic(p) == sympy_cyclotomic_split(p)

    def test_root_two_passes_every_candidate(self, monkeypatch):
        tried = []
        power = pc.cyclotomic_power
        monkeypatch.setattr(pc, "cyclotomic_power", lambda p, d: tried.append(d) or power(p, d))
        N = 10**400
        for rest, want in [(pc.RealPoly([1, N, 1]), [1, 3, 4, 5]),
                           # (x - 2)(x^2 + N x + 1): p(2) = 0, so the screen
                           # passes every d with phi(d) <= the degree left
                           (pc.RealPoly([-2, 1 - 2 * N, N - 2, 1]), [1, 2, 3, 4, 5, 6])]:
            tried.clear()
            p = pc.poly_from_cyclotomic_mults({3: 1, 5: 2}) * rest
            assert pc.factor_cyclotomic(p) == ({3: 1, 5: 2}, rest)
            assert tried == want


class TestCyclotomicPower:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=3),
           st.lists(st.integers(-4, 4), min_size=1, max_size=4), st.integers(1, 3),
           st.integers(1, 12))
    def test_multiplicity_matches_sympy(self, mults, low, den, d):
        # cyclotomic products times a rational factor, which may itself hold
        # cyclotomic factors; p = Phi_d^m q with Phi_d not dividing q
        p = pc.poly_from_cyclotomic_mults(mults) * pc.RealPoly(
            [Fraction(c, den) for c in low] + [Fraction(1, den)])
        m, q = pc.cyclotomic_power(p, d)
        phi = sympy.cyclotomic_poly(d, x)
        want = sum(e for f, e in sympy.factor_list(sympy_poly(p).as_expr(), x)[1]
                   if sympy.Poly(f, x).monic().as_expr() == phi)
        assert m == want
        assert pc.poly_from_cyclotomic_mults({d: m}) * q == p
        assert q.is_integer or not p.is_integer

    def test_rational_polynomial_multiplicity_is_exact(self):
        # a simple root at angle 1/3 beside a non-cyclotomic factor 1e-12
        # away from Phi_3: no float test may count it twice
        p = pc.RealPoly([1, 1, 1]) * pc.RealPoly([1, 1 - Fraction(1, 10**12), 1])
        assert pc.cyclotomic_power(p, 3)[0] == 1
        assert pc.cyclotomic_power(p, 1)[0] == 0
        # nor may a float root of the cofactor be snapped onto 1/3
        got = pc.unit_circle_angles(p)
        assert (Fraction(1, 3), 1) in got and len(got) == 4


@given(st.lists(st.integers(-3, 3) | st.booleans() | st.fractions(-3, 3, max_denominator=12)
                | st.floats(-3, 3, allow_nan=False) | st.integers(-3, 3).map(np.int64),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_exact_and_integer_are_decided_once_and_read_the_coefficients(cs):
    # a Fraction with denominator 1 is stored as an int, so it counts as one
    p = pc.RealPoly(cs)
    assert p.is_exact == all(pc.is_exact(c) for c in p.coeffs)
    assert p.is_integer == all(isinstance(c, int) for c in p.coeffs)
    assert "is_exact" in pc.RealPoly.__slots__ and "is_integer" in pc.RealPoly.__slots__
