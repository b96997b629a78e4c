from fractions import Fraction

import pytest
import sympy

from spectral_stokes import chain, hor, matrices as mx
from spectral_stokes.errors import (BadExponents, NotReducible, ReductionRequired)
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
        # the two countings agree exactly for all-equal exponent tuples
        for a in ((2, 2), (3, 3, 3), (4, 4)):
            c = chain.ChainSing(a)
            assert chain.rho_literal(a) == c.mu
        # and differ for this asymmetric one (recursion is authoritative)
        assert chain.rho_literal((3, 2)) == 5 != chain.ChainSing((3, 2)).mu


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
        from spectral_stokes.polycore import (angles_from_cyclotomic_mults,
                                              factor_cyclotomic)
        for a in ((3, 2), (4, 3, 2), (6, 4, 4, 4)):
            p, _, angles = chain.stokes_poly(a)
            mults, rem = factor_cyclotomic(p)
            assert rem.degree == 0
            assert angles_from_cyclotomic_mults(mults) == angles


class TestQhSpectrum:
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
        assert chain.spectrum_from_basis((3, 2)) == [F(-1, 3), F(0), F(0), F(1, 3)]

    def test_quartic(self):
        basis = chain.jacobi_basis((4,))
        assert {m.exps for m in basis} == {(0,), (1,), (2,)}
        assert chain.spectrum_from_basis((4,)) == [F(-3, 4), F(-1, 2), F(-1, 4)]

    def test_cubic(self):
        assert chain.spectrum_from_basis((3,)) == [F(-2, 3), F(-1, 3)]

    def test_reduction_required(self):
        with pytest.raises(ReductionRequired):
            chain.jacobi_basis((2, 3))

    def test_count_equals_milnor_number(self):
        for a in chain.grid_tuples(5, 3, 3):
            assert len(chain.jacobi_basis(a)) == chain.ChainSing(a).mu

    def test_two_route_spectra_agree(self):
        for a in chain.grid_tuples(6, 4, 2):
            c = chain.ChainSing(a)
            assert chain.spectrum_from_basis(a) == sorted(chain.qh_spectrum(c.w))


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
        for a in ((3, 2), (4, 3), (5, 2, 3), (3, 2, 2, 2)):
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
        assert spp.is_exact
        assert spp.alphas() == sorted(chain.stokes_spectrum(a), key=float)


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
        S = chain.stokes_member((3,)).S
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
