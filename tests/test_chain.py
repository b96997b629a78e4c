import random
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
import sympy

from spectral_stokes import chain, hor, matrices as mx
from spectral_stokes.errors import (BadExponents, NotInFamily, NotReducible,
                                    ReductionRequired, VerificationFailed)
from spectral_stokes.polycore import RealPoly

F = Fraction
t = sympy.Symbol("t")


class TestInvariants:
    def test_single_cubic(self):
        c = chain.ChainSing((3,))
        assert (c.r, c.mu_seq, c.w, c.mu) == ((3,), (2,), (F(1, 3),), 2)

    def test_curve_case(self):
        c = chain.ChainSing((3, 2))
        assert (c.r, c.mu_seq, c.w, c.mu) == ((3, 6), (2, 4), (F(1, 3), F(1, 3)), 4)

    def test_quadratic(self):
        c = chain.ChainSing((2,))
        assert (c.mu_seq[-1], c.w) == (1, (F(1, 2),))

    def test_bad_exponents(self):
        with pytest.raises(BadExponents):
            chain.ChainSing((1,))
        with pytest.raises(BadExponents):
            chain.ChainSing((3, 0))

    def test_literal_sum_vs_recursion(self):
        # the literal alternating sum a_0...a_{k-1} - a_1...a_{k-1} + ... -+ 1
        # of the module docstring agrees with the recursion exactly for
        # all-equal exponent tuples
        def literal(a):
            return sum((-1) ** i * prod(a[i:]) for i in range(len(a))) + (-1) ** len(a)

        for a in ((2, 2), (3, 3, 3), (4, 4)):
            assert literal(a) == chain.ChainSing(a).mu
        # and differs for this asymmetric one (recursion is authoritative)
        assert literal((3, 2)) == 5 != chain.ChainSing((3, 2)).mu


class TestStokesPoly:
    def test_cubic(self):
        p, k, angles = chain.stokes_poly((3,))
        assert p == RealPoly([1, 1, 1]) and k == 1
        assert [a for a, _ in angles] == [F(1, 3), F(2, 3)]

    def test_curve(self):
        p, k, angles = chain.stokes_poly((3, 2))
        assert p == RealPoly([-1, 1, 0, -1, 1]) and k == 2
        assert [a for a, _ in angles] == [F(0), F(1, 6), F(1, 2), F(5, 6)]

    def test_quartic(self):
        p, k, angles = chain.stokes_poly((4,))
        assert p == RealPoly([1, 1, 1, 1]) and k == 1
        assert [a for a, _ in angles] == [F(1, 4), F(1, 2), F(3, 4)]

    def test_degree_and_simple_roots_on_grid(self):
        for a in chain.grid_tuples(5, 4, 2):
            c = chain.ChainSing(a)
            p, _, angles = chain.stokes_poly(a)
            assert p.degree == c.mu
            assert all(m == 1 for _, m in angles)

    def test_angles_agree_with_orbit_factorization(self):
        # residue inclusion-exclusion vs exact orbit factorization of the
        # expanded polynomial: two independent routes to the root multiset
        from spectral_stokes.polycore import cyclotomic_angles, factor_cyclotomic
        for a in ((3, 2), (4, 3, 2), (6, 4, 4, 4)):
            p, _, angles = chain.stokes_poly(a)
            mults, rem = factor_cyclotomic(p)
            assert rem.degree == 0
            assert sorted((b, m) for d, m in mults.items() for b in cyclotomic_angles(d)) == angles

    def test_spectrum_expands_nothing(self, monkeypatch):
        # the inclusion-exclusion roots alone give the matrix-side spectrum
        want = chain.stokes_spectrum((4, 3, 2))
        for name in ("expand_signed_product", "signed_product_coeffs"):
            monkeypatch.setattr(chain, name, lambda factors: pytest.fail("expanded"))
        assert chain.stokes_spectrum((4, 3, 2)) == want


class TestQhSpectrum:
    def test_nonpolynomial_generating_function_refused(self):
        # weight 2/5: (s^3 - 1) / (s^2 - 1) is no polynomial
        with pytest.raises(VerificationFailed, match="not a polynomial"):
            chain.qh_spectrum((F(2, 5),))

    def test_quarter_weight_oracle(self):
        # (t - t^{1/4})/(t^{1/4} - 1) expanded independently
        s = sympy.Symbol("s")
        expr = sympy.cancel((s**4 - s) / (s - 1))  # s = t^{1/4}
        assert expr == s**3 + s**2 + s
        assert chain.qh_spectrum((F(1, 4),)) == [F(-3, 4), F(-1, 2), F(-1, 4)]

    def test_half_weight(self):
        assert chain.qh_spectrum((F(1, 2),)) == [F(-1, 2)]

    def test_symmetry_12dim(self):
        sp = chain.qh_spectrum((F(1, 3), F(1, 7)))
        assert len(sp) == 12
        assert sp[0] == F(-11, 21) and sp[-1] == F(11, 21)
        assert all(sp[j] + sp[11 - j] == 0 for j in range(12))

    def test_generating_function_oracle(self):
        # independent expansion via sympy series product for weights (1/3, 1/3)
        s = sympy.Symbol("s")
        prod = sympy.cancel(((s**3 - s) / (s - 1)) ** 2)  # s = t^{1/3}
        poly = sympy.Poly(sympy.expand(prod), s)
        exps = []
        for power, coeff in zip(poly.monoms(), poly.coeffs()):
            exps.extend([F(int(power[0]), 3) - 1] * int(coeff))
        assert sorted(exps) == chain.qh_spectrum((F(1, 3), F(1, 3)))


class TestJacobiBasis:
    def test_curve(self):
        basis = chain.jacobi_basis((3, 2))
        assert {m.exps for m in basis} == {(0, 0), (1, 0), (2, 0), (0, 1)}
        assert sorted(chain.chain_ordered_spectrum((3, 2))) == [F(-1, 3), F(0), F(0), F(1, 3)]

    def test_quartic(self):
        basis = chain.jacobi_basis((4,))
        assert {m.exps for m in basis} == {(0,), (1,), (2,)}
        assert sorted(chain.chain_ordered_spectrum((4,))) == [F(-3, 4), F(-1, 2), F(-1, 4)]

    def test_cubic(self):
        assert sorted(chain.chain_ordered_spectrum((3,))) == [F(-2, 3), F(-1, 3)]

    def test_reduction_required(self):
        with pytest.raises(ReductionRequired):
            chain.jacobi_basis((2, 3))

    def test_count_equals_milnor_number(self):
        for a in chain.grid_tuples(5, 3, 3):
            assert len(chain.jacobi_basis(a)) == chain.ChainSing(a).mu

    def test_matches_the_recursive_enumeration(self):
        # reference: the free exponents enumerated by recursion, last one fastest
        def recursive_basis(a):
            c = chain.ChainSing(a)
            m, out = c.m, []
            for i in range(m // 2 + 1):
                free_top = m - 2 * i
                pinned = {}
                for j in range(free_top + 2, m + 1, 2):
                    pinned[j] = c.a[j] - 1
                for j in range(free_top + 1, m + 1, 2):
                    pinned[j] = 0
                ranges = [range(c.a[j]) for j in range(free_top)] + [range(c.a[free_top] - 1)]

                def emit(prefix, idx):
                    if idx > free_top:
                        out.append(tuple(prefix) + tuple(pinned[j] for j in range(free_top + 1, m + 1)))
                        return
                    for e in ranges[idx]:
                        emit(prefix + [e], idx + 1)

                emit([], 0)
            if m % 2 == 1:
                out.append(tuple(c.a[j] - 1 if j % 2 else 0 for j in range(m + 1)))
            return out

        for a in chain.grid_tuples(6, 4, 4):
            assert [mono.exps for mono in chain.jacobi_basis(a)] == recursive_basis(a), a

    def test_two_route_spectra_agree(self):
        for a in chain.grid_tuples(6, 4, 2):
            c = chain.ChainSing(a)
            assert sorted(chain.chain_ordered_spectrum(a)) == sorted(chain.qh_spectrum(c.w))


class TestChainGraph:
    def test_curve_order_and_increments(self):
        order, edges = chain.chain_graph((3, 2))
        assert [m.exps for m in order] == [(0, 1), (0, 0), (1, 0), (2, 0)]
        assert [(j, inc) for j, inc in edges] == \
            [(1, F(-1, 3)), (0, F(1, 3)), (0, F(1, 3))]

    def test_single_variable_endpoints(self):
        order, edges = chain.chain_graph((4,))
        assert order[0].exps == (2,) and order[-1].exps == (0,)
        assert len(edges) == 2

    def test_edge_count_on_grid(self):
        for a in chain.grid_tuples(5, 3, 2):
            order, edges = chain.chain_graph(a)
            assert len(edges) == len(order) - 1 == chain.ChainSing(a).mu - 1

    def test_chain_order_matches_matrix_order(self):
        # alpha(f) - (m-1)/2 read along the chain equals the matrix-side
        # spectrum in family order
        for a in [(3, 2), (4, 3), (5, 2, 3), (3, 2, 2, 2)] + chain.grid_tuples(6, 4, 3):
            c = chain.ChainSing(a)
            shift = F(c.m - 1, 2)
            lhs = [x - shift for x in chain.chain_ordered_spectrum(a)]
            rhs = chain.stokes_spectrum(a)
            assert lhs == rhs


class TestReduce:
    def test_head_fold(self):
        assert chain.reduce_chain((2, 3)) == (1, F(-1, 2), (6,))

    def test_inner_unit(self):
        assert chain.reduce_chain((3, 2, 1, 2)) == (2, F(-1), (3, 4))

    def test_noop(self):
        assert chain.reduce_chain((3, 2)) == (0, F(0), (3, 2))

    def test_trailing_unit_rejected(self):
        with pytest.raises(NotReducible):
            chain.reduce_chain((3, 1))

    def test_spectrum_shift_property(self):
        for a in ((2, 3), (2, 2, 3), (3, 2, 1, 2), (4, 1, 3), (2, 4, 1, 2)):
            try:
                _, shift, red = chain.reduce_chain(a)
            except NotReducible:
                continue
            ca, cr = chain.ChainSing(a), chain.ChainSing(red)
            lhs = sorted(chain.qh_spectrum(cr.w))
            rhs = sorted(x + shift for x in chain.qh_spectrum(ca.w))
            assert lhs == rhs


class TestVerifySpectrumShift:
    def test_cubic(self):
        sp_s = sorted(chain.stokes_spectrum((3,)))
        sp_f = chain.qh_spectrum((F(1, 3),))
        assert sp_s == [F(-1, 6), F(1, 6)]
        assert [x + F(1, 2) for x in sp_f] == sp_s
        assert chain.verify_spectrum_shift((3,))

    def test_curve_shift_zero(self):
        assert sorted(chain.stokes_spectrum((3, 2))) == \
            sorted(chain.qh_spectrum((F(1, 3), F(1, 3))))
        assert chain.verify_spectrum_shift((3, 2))

    def test_quadratic(self):
        assert chain.stokes_spectrum((2,)) == [F(0)]
        assert chain.qh_spectrum((F(1, 2),)) == [F(-1, 2)]
        assert chain.verify_spectrum_shift((2,))

    def test_three_variables(self):
        assert chain.verify_spectrum_shift((3, 2, 2))
        assert chain.verify_spectrum_shift((4, 3, 2))

    @pytest.mark.parametrize("a", [(3,), (3, 2), (2, 2, 2), (4, 3, 2)])
    def test_spectral_pairs_carry_the_spectrum(self, a):
        spp = chain.stokes_spectral_pairs(a)
        alphas = [x for x, _ in spp]
        assert all(type(x) in (int, Fraction) for x in alphas)
        assert alphas == sorted(chain.stokes_spectrum(a))


# The former Fraction path of the spectrum-shift check, kept as an oracle
# for the integer path: residues tested one by one, the angles split and
# pushed through the recipe as Fractions, and both spectra sorted by float.

def _oracle_stokes_poly(a):
    c = chain.ChainSing(a)
    m, rm = c.m, c.r[-1]
    p = chain.expand_signed_product(
        [(1, (-1) ** (m + 1))] + [(c.r[kk], (-1) ** (m - kk)) for kk in range(m + 1)])
    angles = []
    for delta in range(rm):
        mult = (-1) ** (m + 1) * (1 if delta == 0 else 0)
        for kk in range(m + 1):
            if delta % (rm // c.r[kk]) == 0:
                mult += (-1) ** (m - kk)
        assert mult in (0, 1)
        if mult:
            angles.append((Fraction(delta, rm), 1))
    return p, 1 if p.coeffs[0] == 1 else 2, angles


def _oracle_stokes_spectrum(a):
    _, k, angles = _oracle_stokes_poly(a)
    ones = sum(1 for b, _ in angles if b == 0)
    rest = sorted((b for b, _ in angles if b != 0), key=float)
    lead = (ones + 1) // 2 if k == 2 else ones // 2
    beta = [Fraction(0)] * lead + rest + [Fraction(1)] * (ones - lead)
    n = len(beta)
    return [n * x - j + Fraction(k, 2) for j, x in enumerate(beta, start=1)]


def _oracle_qh_spectrum(weights):
    D = lcm(*(w.denominator for w in weights))
    Ns = [int(w * D) for w in weights]
    quot = chain.expand_signed_product([(D - N, 1) for N in Ns] + [(N, -1) for N in Ns])
    out = []
    for e, c in enumerate(quot.coeffs, start=sum(Ns)):
        out.extend([Fraction(e, D) - 1] * c)
    return out


def _oracle_verify(a):
    c = chain.ChainSing(a)
    shift = Fraction(c.m - 1, 2)
    return sorted(_oracle_stokes_spectrum(a), key=float) == \
        sorted((x - shift for x in _oracle_qh_spectrum(c.w)), key=float)


def _typed(xs):
    return [(type(x), x) for x in xs]


def test_stokes_scal_is_the_point_of_the_sorted_root_angles():
    # the former route: expand the polynomial and sort its Fraction angles
    for a in chain.grid_tuples(6, 4, 4, a0_min=2, aj_min=1):
        _, k, angles = chain.stokes_poly(a)
        want = hor.scal_from_angles(angles, k)
        got = chain.stokes_scal(a)
        assert (got.k, _typed(got.beta)) == (want.k, _typed(want.beta)), a


def _differential_tuples():
    grid = random.Random(8).sample(chain.grid_tuples(6, 4, 4), 40)
    extras = [a for a in chain.grid_tuples(6, 4, 4, a0_min=2, aj_min=1)
              if a[0] == 2 or 1 in a[1:]]
    out = list(grid)
    for a in random.Random(9).sample(extras, 40):
        out.append(a)
        try:
            out.append(chain.reduce_chain(a)[2])
        except NotReducible:
            pass
    return out


class TestIntegerComparison:
    """verify_spectrum_shift compares integer numerators over 2 r_m; the
    public spectra are views of the same integers."""

    @pytest.mark.parametrize("a", _differential_tuples())
    def test_agrees_with_fraction_oracle(self, a):
        assert chain.verify_spectrum_shift(a) is _oracle_verify(a) is True
        p, k, angles = chain.stokes_poly(a)
        assert (p, k) == _oracle_stokes_poly(a)[:2]
        assert [(type(b), b, m) for b, m in angles] == \
            [(type(b), b, m) for b, m in _oracle_stokes_poly(a)[2]]
        assert _typed(chain.stokes_spectrum(a)) == _typed(_oracle_stokes_spectrum(a))
        w = chain.ChainSing(a).w
        assert _typed(chain.qh_spectrum(w)) == _typed(_oracle_qh_spectrum(w))

    @pytest.mark.parametrize("a", [(3,), (3, 2), (4, 3, 2), (2, 1, 3)])
    def test_shifted_qh_exponent_fails(self, monkeypatch, a):
        real = chain._qh_exponents

        def shifted(Ns, D):
            e, mult = real(Ns, D)
            return np.append(e[:-1], e[-1] + 1), mult

        monkeypatch.setattr(chain, "_qh_exponents", shifted)
        assert chain.verify_spectrum_shift(a) is False

    def test_perturbed_matrix_side_fails(self, monkeypatch):
        real = chain._recipe_numerators
        monkeypatch.setattr(chain, "_recipe_numerators",
                            lambda k, nums, den: [x + 1 for x in real(k, nums, den)])
        assert chain.verify_spectrum_shift((4, 3, 2)) is False

    def test_membership_checked_on_the_integer_path(self, monkeypatch):
        monkeypatch.setattr(chain, "_split_root_one",
                            lambda ones, rest, k, zero, one: rest[::-1])
        with pytest.raises(NotInFamily, match="nondecreasing"):
            chain.verify_spectrum_shift((3, 2))

    def test_root_one_parity_checked(self, monkeypatch):
        # the roots of x^2 + x + 1 with the class k = 2, which needs the root 1
        monkeypatch.setattr(chain, "_stokes_roots", lambda c: (2, [1, 2]))
        with pytest.raises(NotInFamily, match="k=2 needs odd multiplicity"):
            chain.verify_spectrum_shift((3,))


class TestThomSebastiani:
    def test_unit_tensor(self):
        S = mx.to_matrix([[1, 1], [0, 1]])
        one = mx.identity(1)
        assert chain.thom_sebastiani(S, one).tolist() == S.tolist()
        assert chain.thom_sebastiani(one, S).tolist() == S.tolist()

    def test_pair_sum_spectrum(self):
        got = chain.qh_ts_spectrum((F(1, 3),), (F(1, 3),))
        assert got == [F(-1, 3), F(0), F(0), F(1, 3)]

    def test_tensor_square_monodromy(self):
        p, k, _ = chain.stokes_poly((3,))
        S = hor.poly_to_matrix(p, k).S
        T = chain.thom_sebastiani(S, S)
        assert T.shape == (4, 4)
        assert mx.is_unit_upper_triangular(T)
        mono = mx.solve_unit_upper(T, T.T.copy())
        cp = mx.char_poly_exact(mono)
        # eigenvalues are the pairwise products of exp(-+2 pi i/3):
        # angles 1/3+1/3, 1/3+2/3 (twice), 2/3+2/3 modulo 1
        from spectral_stokes.polycore import unit_circle_angles
        angles = dict(unit_circle_angles(cp))
        assert angles == {F(0): 2, F(1, 3): 1, F(2, 3): 1}


class TestChainSingChecks:
    # (2, 3) has the weights 1/2, 1/6 and mu = 5

    def test_weights(self):
        c = chain.ChainSing((2, 3))
        assert c.w == (Fraction(1, 2), Fraction(1, 6)) and c.mu == 5
        assert all(type(w) is Fraction for w in c.w)

    def test_wrong_weight_breaks_the_product(self, monkeypatch):
        monkeypatch.setattr(chain, "Fraction",
                            lambda a, b=1: Fraction(1, 3) if (a, b) == (1, 2) else Fraction(a, b))
        with pytest.raises(VerificationFailed, match="weight product"):
            chain.ChainSing((2, 3))

    def test_swapped_weights_break_the_recursion(self, monkeypatch):
        # the product of 1/w - 1 is the same, the order is not
        swapped = {(1, 2): Fraction(1, 6), (1, 6): Fraction(1, 2)}
        monkeypatch.setattr(chain, "Fraction", lambda a, b=1: swapped.get((a, b), Fraction(a, b)))
        with pytest.raises(VerificationFailed, match="recursion"):
            chain.ChainSing((2, 3))
