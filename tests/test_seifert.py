import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_stokes import hor, lowdim, matrices as mx, seifert as sf
from spectral_stokes.errors import NotLadderComposed, Singular, Unclassified, VerificationFailed
from spectral_stokes.polycore import RealPoly, angle_to_point
from spectral_stokes.spectra import Spp

F = Fraction


def pair_from_triangular(rows):
    return sf.SeifertPair.from_triangular(mx.to_matrix(rows))


def monodromy_and_forms(P):
    """(M, symmetric Gram, antisymmetric Gram) of an exact pair, the
    monodromy M = G^{-t} G that the pair keeps and ``classify`` reads;
    M preserves the form."""
    G = P.G
    M = mx.to_matrix([[F(x, P.den) for x in row] for row in P.B])
    assert mx.mat_eq(M.T.dot(G).dot(M), G)
    return M, G + G.T, G.T - G


class TestMonodromyAndForms:
    def test_identity(self):
        P = sf.SeifertPair(mx.identity(3))
        M, Is, Ia = monodromy_and_forms(P)
        assert mx.mat_eq(M, mx.identity(3))
        assert Is.tolist() == (2 * np.eye(3)).astype(int).tolist()
        assert all(v == 0 for v in Ia.flat)

    def test_two_by_two(self):
        a = 3
        P = pair_from_triangular([[1, a], [0, 1]])
        M, _, _ = monodromy_and_forms(P)
        assert M.tolist() == [[1 - a * a, -a], [a, 1]]

    def test_size3_char_poly_formula(self):
        # char poly of the monodromy is (x-1)(x^2-(f-2)x+1), f from the entries
        for a in [(1, 2, 3), (-2, 1, 0), (F(1, 2), F(-3, 4), 2)]:
            a1, a2, a3 = a
            f = 4 + a1 * a2 * a3 - (a1**2 + a2**2 + a3**2)
            P = pair_from_triangular([[1, a1, a3], [0, 1, a2], [0, 0, 1]])
            M, _, _ = monodromy_and_forms(P)
            want = RealPoly([1, -(f - 2), 1]) * RealPoly([-1, 1])
            assert mx.char_poly_exact(M) == want

    def test_singular_rejected(self):
        with pytest.raises(Singular, match="Gram matrix is singular"):
            sf.SeifertPair(mx.to_matrix([[1, 1], [1, 1]]))

    def test_radical_dimensions(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(2, 5)
            S = mx.to_matrix([[1 if i == j else (rng.randrange(-2, 3) if j > i else 0)
                               for j in range(n)] for i in range(n)])
            P = sf.SeifertPair.from_triangular(S)
            M, Is, Ia = monodromy_and_forms(P)
            assert n - mx.rank_exact(Is) == n - mx.rank_exact(M + mx.identity(n))
            assert n - mx.rank_exact(Ia) == n - mx.rank_exact(M - mx.identity(n))


class TestClassify:
    def test_identity_gram(self):
        got = sf.classify(sf.SeifertPair(mx.identity(3)))
        assert sf.type_label_multiset(got) == \
            "Seif(1,1,1,1)+Seif(1,1,1,1)+Seif(1,1,1,1)"

    def test_exceptional_point(self):
        got = sf.classify(pair_from_triangular([[1, 2, 2], [0, 1, 2], [0, 0, 1]]))
        assert sf.type_label_multiset(got) == "Seif(1,1,1,1)+Seif(-1,2,1)"

    def test_boundary_two_block(self):
        got = sf.classify(pair_from_triangular([[1, 2], [0, 1]]))
        assert got == [sf.IrrType("F1", F(1, 2), 2, eps=1)]

    def test_interior_pair_with_invariant(self):
        got = sf.classify(pair_from_triangular([[1, 1], [0, 1]]))
        assert len(got) == 1
        t = got[0]
        assert t.family == "F2complex" and t.lam == F(1, 6) and t.zeta == F(11, 12)

    def test_two_blocks_of_different_sizes_at_one(self):
        # tensor square of the boundary member: eigenvalue 1 with Jordan
        # blocks of sizes (3, 1), one sign from each primitive form
        S2 = mx.to_matrix([[1, 2], [0, 1]])
        S = mx.kron(S2, S2)
        got = sf.classify(sf.SeifertPair.from_triangular(S))
        assert sf.type_label_multiset(got) == "Seif(1,1,1,1)+Seif(1,1,3,1)"
        total = tuple(map(sum, zip(*(sf.type_signature(t) for t in got))))
        assert total == mx.signature_exact(S + S.T) == (2, 0, 2)

    @pytest.mark.parametrize("n, k, mults, sizes", [
        (4, 1, {1: 2, 2: 2}, {-1: [2, 2]}),             # -1 with blocks (2, 2)
        (8, 1, {1: 2, 3: 2, 6: 1}, {F(1, 6): [2, 1]}),  # blocks (2, 1) at the 1/6 pair
    ])
    def test_several_blocks_match_ladder_class(self, n, k, mults, sizes):
        M = hor.cyclotomic_member(mults, k)
        assert M.n == n
        groups = sf._exact_eigdata(*mx.int_form(mx.monodromy_matrix(M.S)))
        assert all(g.sizes == sizes[g.lam] for g in groups if g.lam in sizes)
        want = sf.class_from_spp(hor.recipe_spectral_pairs(hor.matrix_to_scal(M)), 1)
        got = sf.classify(sf.SeifertPair.from_triangular(M.S))
        assert sf.types_multiset_equal(want, got)

    def test_hyperbolic_descriptor(self):
        got = sf.classify(pair_from_triangular([[1, 3], [0, 1]]))
        assert len(got) == 1 and got[0].family == "F2hyper" and got[0].n == 1
        lam = got[0].lam
        assert abs(lam) > 1 and abs(lam + 1 / lam + 7) < 1e-9  # trace of M is -7

    def test_complex_quadruple_descriptor(self):
        got = sf.classify(pair_from_triangular(
            [[1, 0, 3, -2], [0, 1, 2, -3], [0, 0, 1, -2], [0, 0, 0, 1]]))
        assert len(got) == 1
        t = got[0]
        assert t.family == "F4hyper" and t.n == 1
        lam = complex(t.lam)
        assert abs(lam) > 1 and lam.imag > 0
        assert sf.type_signature(t) == (2, 0, 2)

    def test_numeric_agrees_with_exact(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randrange(2, 5)
            M = hor.sample_cyclotomic_member(n, rng.choice((1, 2)), rng)
            P_e = sf.SeifertPair.from_triangular(M.S)
            P_f = sf.SeifertPair(np.asarray(M.S, dtype=float).T.copy())
            exact = sf.classify(P_e)
            numeric = sf.classify(P_f)
            assert sf.types_multiset_equal(exact, numeric, tol=1e-7)


def _sympy_jordan_blocks(M):
    """Sorted (eigenvalue rounded to 1e-9, block size) of sympy's Jordan form."""
    J = sympy.Matrix(M.tolist()).jordan_form()[1]
    out, i = [], 0
    while i < J.rows:
        j = i
        while j + 1 < J.cols and J[j, j + 1] == 1:
            j += 1
        z = complex(sympy.N(J[i, i], 30))
        out.append((round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0, j - i + 1))
        i = j + 1
    return sorted(out)


def _eigdata_blocks(groups):
    """The same list read off ``_exact_eigdata``; a pair group stands for
    its eigenvalue and the conjugate, a real hyperbolic one for lam, 1/lam."""
    out = []
    for g in groups:
        zs = {"real": [complex(g.lam)], "hyper_real": [complex(g.lam), 1 / complex(g.lam)],
              "pair": [angle_to_point(g.lam), angle_to_point(-g.lam)]}[g.kind]
        out += [(round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0, s) for z in zs for s in g.sizes]
    return sorted(out)


def _rational_unit_upper(rng, n):
    """A unit upper-triangular S with entries j/den, den in 2, 3, 4, whose
    monodromy has a non-integer entry and resolves exactly (first of at
    most 400 draws)."""
    for _ in range(400):
        den = rng.choice((2, 3, 4))
        S = mx.to_matrix([[F(int(i == j)) if j <= i else F(rng.randrange(-den, den + 1), den)
                           for j in range(n)] for i in range(n)])
        M = mx.monodromy_matrix(S)
        if mx.int_form(M)[1] > 1 and sf._exact_eigdata(*mx.int_form(M)) is not None:
            return S
    raise AssertionError(f"no resolvable rational member of size {n} drawn")


def test_jordan_block_sizes_match_sympy():
    # the primitive forms trust these sizes; sympy's Jordan form is the oracle
    members = [(k, mults) for n in range(2, 6) for k in (1, 2)
               for mults in hor.enumerate_cyclotomic_mults(n, k)]
    cases = [hor.cyclotomic_member(mults, k).S
             for k, mults in random.Random(41).sample(members, 15)]
    # rational monodromies M = B/d with d > 1: size-3 grid points in
    # quarter steps, two with the remainder x^2 - c x + 1 at a non-integer c
    # (11/8: a conjugate pair; -145/32: real hyperbolic), then drawn members
    # of size 2 to 4 and one of size 3 summed with the 2 x 2 identity, which
    # puts Jordan blocks of both summands at 1
    rng = random.Random(43)
    quarters = [F(j, 4) for j in range(-10, 11)]
    grid = [(F(1, 2), F(1, 2), F(1, 2)), (F(5, 2), F(1, 4), F(-1, 4))] + \
        [tuple(rng.choice(quarters) for _ in range(3)) for _ in range(6)]
    assert [lowdim.f3(a) - 2 for a in grid[:2]] == [F(11, 8), F(-145, 32)]
    cases += [lowdim.s3_matrix(a) for a in grid]
    cases += [_rational_unit_upper(rng, n) for n in (2, 3, 3, 4, 4)]
    S3 = _rational_unit_upper(rng, 3)
    cases.append(np.block([[S3, np.zeros((3, 2), dtype=object)],
                           [np.zeros((2, 3), dtype=object), mx.identity(2)]]))
    for S in cases:
        M = mx.monodromy_matrix(S)
        groups = sf._exact_eigdata(*mx.int_form(M))
        assert groups is not None, S
        assert _eigdata_blocks(groups) == _sympy_jordan_blocks(M), S
    assert sum(mx.int_form(mx.monodromy_matrix(S))[1] > 1 for S in cases) == 14


def test_float_kernel_dimensions_stay_within_multiplicity():
    # a simple eigenvalue whose eigenvector is ill-conditioned: a relative
    # rank cutoff saw a two-dimensional kernel and the group could not be
    # classified ("numeric eigenspace dimension mismatch")
    b = hor.HorScal(1, (0.3515015768971282, 0.3850283358805948, 0.4637739351193946,
                        0.47648072936566427, 0.5235192706343357, 0.5362260648806054,
                        0.6149716641194052, 0.6484984231028719))
    S = np.asarray(hor.scal_to_matrix(b).S, dtype=float)
    groups = sf._numeric_eigdata(mx.monodromy_matrix(S), 1e-8)
    assert all(sum(g.sizes) == g.mult for g in groups)
    got = sf.classify(sf.SeifertPair.from_triangular(S))
    assert sf.types_multiset_equal(got, sf.class_from_spp(hor.recipe_spectral_pairs(b), 1))


class TestTypeSignature:
    def test_table_rows(self):
        assert sf.type_signature(sf.IrrType("F1", F(0), 1, eps=1)) == (1, 0, 0)
        assert sf.type_signature(sf.IrrType("F2real", F(1, 2), 1)) == (0, 2, 0)
        assert sf.type_signature(sf.IrrType("F1", F(1, 2), 2, eps=1)) == (1, 1, 0)
        assert sf.type_signature(sf.IrrType("F1", F(1, 2), 2, eps=-1)) == (0, 1, 1)
        assert sf.type_signature(sf.IrrType("F1", F(0), 3, eps=1)) == (1, 0, 2)
        assert sf.type_signature(sf.IrrType("F2real", F(0), 2)) == (2, 0, 2)

    def test_complex_rows(self):
        t_pos = sf.IrrType("F2complex", F(1, 6), 1, zeta=F(11, 12))
        t_neg = sf.IrrType("F2complex", F(1, 6), 1, zeta=F(5, 12))
        assert sf.type_signature(t_pos) == (2, 0, 0)
        assert sf.type_signature(t_neg) == (0, 0, 2)
        t_even = sf.IrrType("F2complex", F(1, 6), 2, zeta=F(1, 6))
        assert sf.type_signature(t_even) == (2, 0, 2)

    def test_sum_matches_direct_signature(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randrange(1, 7)
            M = hor.sample_cyclotomic_member(n, rng.choice((1, 2)), rng)
            types = sf.classify(sf.SeifertPair.from_triangular(M.S))
            total = tuple(map(sum, zip(*(sf.type_signature(t) for t in types))))
            assert total == mx.signature_exact(M.S + M.S.T)

    def test_sum_matches_direct_signature_numeric(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(40):
            n = rng.randrange(2, 7)
            b = hor.sample_scal(n, rng.choice((1, 2)), rng, margin=5e-2)
            Sf = np.asarray(hor.scal_to_matrix(b).S, dtype=float)
            try:
                types = sf.classify(sf.SeifertPair(Sf.T.copy()))
            except Unclassified:
                continue
            checked += 1
            total = tuple(map(sum, zip(*(sf.type_signature(t) for t in types))))
            assert total == mx.signature_numeric(Sf + Sf.T, 1e-6)
        assert checked >= 30

    def test_sum_matches_on_general_rational_matrices(self):
        # arbitrary rational triangular matrices mix on- and off-circle
        # eigenvalues; the per-type table still sums to the full signature
        rng = random.Random(99)
        for _ in range(150):
            n = rng.randrange(1, 5)
            S = mx.to_matrix([[1 if i == j else
                               (F(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
                                if j > i else 0)
                               for j in range(n)] for i in range(n)])
            try:
                types = sf.classify(sf.SeifertPair.from_triangular(S))
            except Unclassified:
                continue
            total = tuple(map(sum, zip(*(sf.type_signature(t) for t in types))))
            assert total == mx.signature_exact(S + S.T)


class TestLadderTypes:
    def test_boundary_ladder(self):
        got = sf.class_from_spp(Spp([(F(-1, 2), 2), (F(1, 2), 0)]), 1)
        assert got == [sf.IrrType("F1", F(1, 2), 2, eps=1)]

    def test_trivial_pairs(self):
        got = sf.class_from_spp(Spp([(F(0), 1)] * 4), 1)
        assert got == [sf.IrrType("F1", F(0), 1, eps=1)] * 4

    def test_mod2_shift_invariance(self):
        # shift a whole partner pair by 2: the class cannot change
        s = Spp([(F(-1, 6), 1), (F(1, 6), 1)])
        shifted = Spp([(F(1, 6) + 2, 1), (F(-1, 6) - 2, 1)])
        t1 = sf.class_from_spp(s, 1)
        t2 = sf.class_from_spp(shifted, 1)
        assert sf.types_multiset_equal(t1, t2)

    def test_unpaired_rejected(self):
        with pytest.raises(NotLadderComposed):
            sf.class_from_spp(Spp([(F(-1, 3), 1)]), 1)

    def test_round_trip_with_classify(self):
        rng = random.Random(23)
        for n in range(1, 9):
            for k in (1, 2):
                M = hor.sample_cyclotomic_member(n, k, rng)
                spp = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
                want = sf.class_from_spp(spp, 1, signed=False)
                got = sf.classify(sf.SeifertPair.from_triangular(M.S))
                assert sf.types_multiset_equal(want, got), (n, k, M.p)

    def test_iso_equal(self):
        P1 = pair_from_triangular([[1, 1], [0, 1]])
        P2 = pair_from_triangular([[1, -1], [0, 1]])
        P3 = pair_from_triangular([[1, 2], [0, 1]])
        assert sf.iso_equal(P1, P2)
        assert not sf.iso_equal(P1, P3)

    def test_signed_convention_flips_odd_ladders(self):
        rng = random.Random(37)
        for _ in range(60):
            m = rng.randrange(-1, 3)
            l = rng.randrange(0, 4)
            alpha = F(rng.randrange(-8, 9), 4)
            pol = sf.irr_type_from_ladder(alpha, m, l, signed=False)
            sig = sf.irr_type_from_ladder(alpha, m, l, signed=True)
            if l % 2 == 0:
                assert pol == sig
            elif pol.family == "F1":
                assert sig.eps == -pol.eps
            elif pol.family == "F2complex":
                # negating zeta before conjugate normalisation still shifts
                # the stored angle by exactly one half
                assert (sig.lam, sig.n) == (pol.lam, pol.n)
                assert (sig.zeta - pol.zeta) % 1 == F(1, 2)
            else:
                assert sig == pol  # two-block types carry no sign data


class TestEnhancements:
    """The types a ladder forces in the polarized and the signed polarized
    enhancement."""

    def test_banded_member_is_polarized(self):
        M = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1)
        pairs = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
        got = sf.classify(sf.SeifertPair.from_triangular(M.S))
        assert sf.types_multiset_equal(sf.class_from_spp(pairs, 1, signed=False), got)

    def test_boundary_block_signed_vs_polarized(self):
        typ = sf.IrrType("F1", F(1, 2), 2, eps=1)
        assert sf.irr_type_from_ladder(F(-1, 2), 1, 1, signed=False) == typ
        assert sf.irr_type_from_ladder(F(-1, 2), 1, 1, signed=True) == sf.IrrType(
            "F1", F(1, 2), 2, eps=-1)

    def test_trivial_block_both_conventions(self):
        typ = sf.IrrType("F1", F(0), 1, eps=1)
        assert sf.irr_type_from_ladder(F(0), 1, 0, signed=False) == typ
        assert sf.irr_type_from_ladder(F(0), 1, 0, signed=True) == typ


# entries of the drawn unit upper-triangular matrices: many zeros and small
# values, so eigenvalues +-1 with Jordan blocks come up often
_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -2, F(1, 2), F(-1, 2), F(3, 2), F(-1, 3), F(2, 3)])


@st.composite
def _unit_upper(draw):
    n = draw(st.integers(2, 4))
    return mx.to_matrix([[int(i == j) if j <= i else draw(_ENTRIES) for j in range(n)]
                         for i in range(n)])


def _sympy_cyclotomic_split(M):
    """({d: multiplicity of Phi_d}, degree of the rest) of the characteristic
    polynomial of a rational matrix, from sympy's factorization."""
    x = sympy.Symbol("x")
    mults, rest = {}, 0
    for f, e in sympy.factor_list(sympy.Matrix(M.tolist()).charpoly(x).as_expr(), x)[1]:
        f = sympy.Poly(f, x).monic()
        d = next((d for d in range(1, 2 * f.degree() ** 2 + 3)
                  if sympy.expand(f.as_expr() - sympy.cyclotomic_poly(d, x)) == 0), None)
        if d is None:
            rest += e * f.degree()
        else:
            mults[d] = mults.get(d, 0) + e
    return mults, rest


@given(st.lists(_ENTRIES, min_size=6, max_size=6))
@example([-1, -1, 0, F(-1, 2), F(-1, 2), 1])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rational_char_poly_splits_its_cyclotomic_factors_exactly(upper):
    # the example has det(x - M) = (x^2 + x + 1)(x^2 - 5/4 x + 1): the
    # cyclotomic split runs on the integer cofactor of degree 4, whose
    # leading coefficient den^4 it keeps
    it = iter(upper)
    S = mx.to_matrix([[int(i == j) if j <= i else next(it) for j in range(4)] for i in range(4)])
    M = mx.monodromy_matrix(S)
    groups = sf._exact_eigdata(*mx.int_form(M))
    mults, rest = _sympy_cyclotomic_split(M)
    # only a non-cyclotomic rest of degree > 2 stays unresolved
    assert (groups is None) == (rest > 2)
    if groups is None:
        return
    got = {}
    for g in groups:
        if g.kind == "real":
            got[{1: 1, -1: 2}[g.lam]] = g.mult
        elif g.kind == "pair" and isinstance(g.lam, Fraction):
            got[g.lam.denominator] = g.mult
    assert got == mults
    assert _eigdata_blocks(groups) == _sympy_jordan_blocks(M)


def _sympy_signature(A):
    """(s+, s0, s-) of a rational symmetric matrix by Descartes' rule on its
    characteristic polynomial, exact since every root is real."""
    x = sympy.Symbol("x")
    p = sympy.Matrix(A.tolist()).charpoly(x)

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    coeffs = p.all_coeffs()
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    return changes(coeffs), zero, changes(p.subs(x, -x).as_poly(x).all_coeffs())


def _type_blocks(types):
    """(eigenvalue, block size) of each Jordan block the types stand for,
    as in ``_eigdata_blocks``."""
    out = []
    for t in types:
        if t.family in ("F1", "F2real"):
            zs = [angle_to_point(t.lam)] * (1 if t.family == "F1" else 2)
        elif t.family == "F2complex":
            zs = [angle_to_point(t.lam), angle_to_point(-t.lam)]
        else:
            continue
        out += [(round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0, t.n) for z in zs]
    return sorted(out)


@given(_unit_upper())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_integer_eigdata_and_types_match_sympy(S):
    # the integer-row eigen-data and the exact primitive forms against
    # sympy's Jordan form and the Descartes signature of S + S^t
    B, den = mx.int_form(mx.monodromy_matrix(S))
    groups = sf._exact_eigdata(B.tolist(), den)
    if groups is None:        # a non-cyclotomic remainder of degree > 2: the float path
        return
    M = mx.monodromy_matrix(S)
    want = _sympy_jordan_blocks(M)
    assert _eigdata_blocks(groups) == want
    for g in groups:
        if g.kind == "real":
            assert g.mult == sum(s for z_re, z_im, s in want if (z_re, z_im) == (g.lam, 0.0))
    types = sf.classify(sf.SeifertPair.from_triangular(S))
    assert _type_blocks(types) == [b for b in want if abs(abs(complex(b[0], b[1])) - 1) < 1e-9]
    total = tuple(map(sum, zip(*(sf.type_signature(t) for t in types))))
    assert total == _sympy_signature(S + S.T)


class TestKeptChecks:
    """Each verification of the exact classification still raises when
    the kernel it guards is broken."""

    S = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]       # char poly (x - 1)(x^2 + 1)

    def test_kernel_split(self, monkeypatch):
        # rank 0 makes ker Phi_4(M) three-dimensional, odd over the pair +-i
        P = pair_from_triangular(self.S)
        monkeypatch.setattr(mx, "_rank_rows", lambda rows, ncols: 0)
        with pytest.raises(VerificationFailed, match="split evenly"):
            sf.classify(P)

    def test_primitive_form_symmetry(self, monkeypatch):
        # the standard basis in place of ker(M - 1): F is the whole Gram matrix
        P = pair_from_triangular(self.S)
        monkeypatch.setattr(mx, "_nullspace_rows", lambda rows, ncols: [
            (c, [int(i == c) for i in range(ncols)]) for c in range(ncols)])
        with pytest.raises(VerificationFailed, match="not symmetric"):
            sf.classify(P)

    def test_primitive_form_rank(self, monkeypatch):
        P = pair_from_triangular(self.S)
        monkeypatch.setattr(mx, "_signature_rows", lambda rows: (len(rows) + 1, 0, 0))
        with pytest.raises(VerificationFailed, match="has rank"):
            sf.classify(P)

    def test_primitive_form_rank_of_a_wrong_group(self):
        # M = E read as one block at 1: ker K is the plane, F has rank 2
        with pytest.raises(VerificationFailed, match="has rank 2, not 1"):
            sf._exact_form_signs(sf._EigGroup("real", 1, 1, [1]), [[1, 0], [0, 1]], 1,
                                 [[1, 0], [0, 1]])

    def test_odd_block_count(self):
        with pytest.raises(VerificationFailed, match="cannot pair"):
            sf._primitive_types(sf._EigGroup("real", -1, 1, [1]), {})


def test_cyclotomic_factors_beside_a_quadratic_remainder():
    # char poly Phi_6 (x^2 + 14 x + 1): the cyclotomic factor leaves a
    # quadratic tail, and the pair at 1/6 stands beside the hyperbolic pair
    S = mx.to_matrix([[1, 0, 0, 2], [0, 1, -2, F(3, 2)], [0, 0, 1, F(3, 2)], [0, 0, 0, 1]])
    assert mx.char_poly_exact(mx.monodromy_matrix(S)) == RealPoly([1, 13, -12, 13, 1])
    exact = sf.classify(sf.SeifertPair.from_triangular(S))
    assert sf.type_label_multiset(exact) == \
        "Seif(e(-2pi i 1/6),2,1,e(-2pi i 11/12))+Seif(-13.9282,2,1)"
    numeric = sf.classify(sf.SeifertPair.from_triangular(np.asarray(S, dtype=float)))
    assert sf.types_multiset_equal(exact, numeric, tol=1e-7)
    total = tuple(map(sum, zip(*(sf.type_signature(t) for t in exact))))
    assert total == mx.signature_exact(S + S.T) == (3, 0, 1)


class TestTypeEquality:
    """Type angles compare through ``angle_eq``: exactly for exact angles,
    within the tolerance for floats."""

    @staticmethod
    def pair(lam):
        return sf.IrrType("F2complex", lam, 1, zeta=(-lam / 2) % 1)

    def test_exact_types_apart_are_unequal(self):
        a, b = F(1, 3), F(1, 3) + F(1, 10 ** 12)
        assert not sf.types_multiset_equal([self.pair(a)], [self.pair(b)])
        assert sf.types_multiset_equal([self.pair(a), self.pair(b)], [self.pair(b), self.pair(a)])

    def test_float_types_within_tol_match(self):
        assert sf.types_multiset_equal([self.pair(1 / 3)], [self.pair(1 / 3 + 1e-12)])
        assert sf.types_multiset_equal([self.pair(F(1, 3))], [self.pair(1 / 3)])
        assert not sf.types_multiset_equal([self.pair(1 / 3)], [self.pair(1 / 3 + 1e-6)])

    def test_exact_invariant_is_checked_exactly(self):
        with pytest.raises(ValueError, match="zeta"):
            sf.IrrType("F2complex", F(1, 3), 1, zeta=F(5, 6) + F(1, 10 ** 12))

    def test_exact_angle_just_past_one_half_is_normalized(self):
        lam = F(1, 2) + F(1, 10 ** 30)
        assert self.pair(lam).normalized().lam == 1 - lam

    def test_exact_angles_sort_exactly(self):
        # equal as floats, so a float sort key would keep the input order
        x, y = self.pair(F(1, 3)), self.pair(F(1, 3) + F(1, 10 ** 20))
        assert sorted([y, x], key=sf.IrrType.sort_key) == [x, y]
