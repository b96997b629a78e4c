import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_stokes import hor, lowdim, matrices as mx, polycore as pc, seifert as sf
from spectral_stokes.errors import (NotLadderComposed, Singular, SpectralStokesError, Unclassified,
                                    VerificationFailed)
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


def _sympy_rank(A):
    return sympy.Matrix(A.tolist()).rank()


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
            assert _sympy_rank(Is) == _sympy_rank(M + mx.identity(n))
            assert _sympy_rank(Ia) == _sympy_rank(M - mx.identity(n))


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


def _sampled_members(count=240):
    """``count`` float family members of size 2..8, both k, drawn as the
    ``numeric`` benchmark draws them (margin 0.02), on a fixed seed."""
    rng = random.Random(30)
    out = []
    for _ in range(count):
        n, k = rng.randint(2, 8), rng.choice((1, 2))
        out.append(hor.sample_scal(n, k, rng, margin=0.02))
    return out


def _float_images():
    """Float S of the family pool of size <= 8, the size-3 grid and the
    sampled members."""
    cases = [M.S for _, M in hor.cyclotomic_pool(8)]
    cases += [lowdim.s3_matrix(a) for a in _grid3_points()]
    cases += [hor.scal_to_matrix(b).S for b in _sampled_members()]
    return [np.asarray(S, dtype=float) for S in cases]


def test_float_classify_of_sampled_members_is_their_ladder_class():
    for b in _sampled_members():
        S = np.asarray(hor.scal_to_matrix(b).S, dtype=float)
        got = sf.classify(sf.SeifertPair.from_triangular(S))
        want = sf.class_from_spp(hor.recipe_spectral_pairs(b), 1)
        assert sf.types_multiset_equal(got, want, tol=1e-7), b


def test_float_groups_keep_the_powers_and_singular_vectors_that_sized_their_blocks():
    longest = 0
    for S in _float_images():
        try:
            groups = sf._numeric_eigdata(mx.monodromy_matrix(S), 1e-8)
        except Unclassified:
            continue
        for g in groups:
            assert g.q is None and len(g.chain) == len(g.kernels) == max(g.sizes)
            A, n = g.chain[0], len(S)
            for s, (power, vh) in enumerate(zip(g.chain, g.kernels), 1):
                scale = max(1.0, np.linalg.norm(A, 2)) ** s
                assert np.linalg.norm(power - np.linalg.matrix_power(A, s), 2) <= 1e-12 * scale
                # A^s annihilates its dim ker A^s smallest right singular vectors
                d = sum(min(t, s) for t in g.sizes)
                V = vh[n - d:].conj().T
                assert np.linalg.norm(power @ V, 2) <= 2e-8 * max(1.0, np.linalg.norm(power, 2))
            longest = max(longest, len(g.chain))
    assert longest == 2


def test_float_primitive_forms_run_no_svd(monkeypatch):
    # once the float eigen-data are in, the signs of every float on-circle
    # group come from the powers and singular vectors the groups keep; a
    # symmetric size s >= 2 reads W = A^(s-1) V and the factor lam^(s-1)
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")
    deep = 0
    for S in _float_images():
        P = sf.SeifertPair.from_triangular(S)
        try:
            want = sf.classify(P)
        except Unclassified:
            continue
        groups = sf._numeric_eigdata(mx.monodromy_matrix(S), 1e-8)
        deep += sum(g.kind in ("real", "pair") and
                    any(s > 1 and sf._form_is_symmetric(g, s) for s in g.sizes) for g in groups)
        with monkeypatch.context() as m:
            m.setattr(sf, "_numeric_eigdata", lambda M, tol: groups)
            m.setattr(sf.np.linalg, "svd", refuse)
            assert sf.classify(P) == want
    assert deep == 256


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
            assert total == mx.signature_numeric(Sf + Sf.T)
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
_ENTRY_VALUES = [0, 0, 0, 1, -1, 2, -2, F(1, 2), F(-1, 2), F(3, 2), F(-1, 3), F(2, 3)]
_ENTRIES = st.sampled_from(_ENTRY_VALUES)


@st.composite
def _unit_upper(draw):
    n = draw(st.integers(2, 4))
    return mx.to_matrix([[int(i == j) if j <= i else draw(_ENTRIES) for j in range(n)]
                         for i in range(n)])


def _sympy_cyclotomic_split(M):
    """({d: multiplicity of Phi_d}, the monic rest) of the characteristic
    polynomial of a rational matrix, from sympy's factorization."""
    x = sympy.Symbol("x")
    mults, rest = {}, sympy.Integer(1)
    for f, e in sympy.factor_list(sympy.Matrix(M.tolist()).charpoly(x).as_expr(), x)[1]:
        f = sympy.Poly(f, x).monic()
        d = next((d for d in range(1, 2 * f.degree() ** 2 + 3)
                  if sympy.expand(f.as_expr() - sympy.cyclotomic_poly(d, x)) == 0), None)
        if d is None:
            rest *= f.as_expr() ** e
        else:
            mults[d] = mults.get(d, 0) + e
    return mults, sympy.Poly(rest, x)


def _is_quadratic_power(p):
    """Whether a monic rational polynomial is (x^2 - c x + 1)^m, m >= 0."""
    m, odd = divmod(p.degree(), 2)
    if odd or m == 0:
        return not odd
    x = p.gens[0]
    c = -p.nth(2 * m - 1) / m
    return sympy.expand(p.as_expr() - (x ** 2 - c * x + 1) ** m) == 0


@given(st.lists(_ENTRIES, min_size=6, max_size=6))
@example([-1, -1, 0, F(-1, 2), F(-1, 2), 1])
@example([1, 2, F(-1, 2), F(3, 2), 2, 0])
@example([0, F(1, 2), 0, 0, F(1, 2), 0])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rational_char_poly_splits_its_cyclotomic_factors_exactly(upper):
    # the first example has det(x - M) = (x^2 + x + 1)(x^2 - 5/4 x + 1): the
    # cyclotomic split runs on the integer cofactor of degree 4, whose
    # leading coefficient den^4 it keeps; the other two have
    # (x^2 + 11/4 x + 1)^2 (a real hyperbolic pair with one Jordan block of
    # size 2 at each root) and (x^2 - 7/4 x + 1)^2 (a semisimple pair)
    it = iter(upper)
    S = mx.to_matrix([[int(i == j) if j <= i else next(it) for j in range(4)] for i in range(4)])
    M = mx.monodromy_matrix(S)
    groups = sf._exact_eigdata(*mx.int_form(M))
    mults, rest = _sympy_cyclotomic_split(M)
    # what stays unresolved is a non-cyclotomic rest that is no power of
    # one rational quadratic
    assert (groups is None) == (not _is_quadratic_power(rest))
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
    if groups is None:        # no power of one rational quadratic: the float path
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
        # the standard basis as every kernel makes ker Phi_4(M)
        # three-dimensional, odd over the pair +-i
        P = pair_from_triangular(self.S)
        monkeypatch.setattr(mx, "_nullspace_rows", lambda rows, ncols: [
            (c, [int(i == c) for i in range(ncols)]) for c in range(ncols)])
        with pytest.raises(VerificationFailed, match="split evenly"):
            sf.classify(P)

    def test_primitive_form_symmetry(self, monkeypatch):
        # the standard basis in place of ker(M - 1): F is the whole Gram matrix
        P = pair_from_triangular(self.S)
        real = sf._exact_eigdata
        standard = [[int(i == c) for i in range(3)] for c in range(3)]
        monkeypatch.setattr(sf, "_exact_eigdata", lambda B, den: [
            replace(g, kernels=[standard]) if g.lam == 1 else g for g in real(B, den)])
        with pytest.raises(VerificationFailed, match="not symmetric"):
            sf.classify(P)

    def test_primitive_form_rank(self, monkeypatch):
        P = pair_from_triangular(self.S)
        monkeypatch.setattr(mx, "_signature_rows", lambda rows: (len(rows) + 1, 0, 0))
        with pytest.raises(VerificationFailed, match="has rank"):
            sf.classify(P)

    def test_primitive_form_rank_of_a_wrong_group(self):
        # M = E read as one block at 1: ker q(M) is the plane, F has rank 2
        wrong = sf._EigGroup("real", 1, 1, [1], chain=[[[0, 0], [0, 0]]],
                             kernels=[[[1, 0], [0, 1]]])
        with pytest.raises(VerificationFailed, match="has rank 2, not 1"):
            sf._exact_form_signs(wrong, [[1, 0], [0, 1]])

    def test_odd_block_count(self):
        with pytest.raises(VerificationFailed, match="cannot pair"):
            sf._primitive_types(sf._EigGroup("real", -1, 1, [1]), {})

    def test_pair_signature(self, monkeypatch):
        # S = [[1, 1], [0, 1]] has the one pair Phi_6; Sym on ker Phi_6(M)
        # read as (1, 0, 1) is no sum of F2complex signatures
        P = pair_from_triangular([[1, 1], [0, 1]])
        monkeypatch.setattr(mx, "_signature_rows", lambda rows: (1, 0, 1))
        with pytest.raises(VerificationFailed, match=r"signature \(1, 0, 1\)"):
            sf.classify(P)


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


# ---------------------------------------------------------------------------
# exact signs at quadratic conjugate pairs
# ---------------------------------------------------------------------------

#: char poly (x^2 + 11x/4 + 1)^2: a real hyperbolic pair of multiplicity 2
QUADRATIC_SQUARE = [[1, 1, 2, F(-1, 2)], [0, 1, F(3, 2), 2], [0, 0, 1, 0], [0, 0, 0, 1]]
#: the size-3 grid point of ``benchmarks/test_kernels.py``
GRID3_POINT = (F(-7, 4), F(-7, 4), F(5, 4))


def _grid3_points():
    """The 3,665 members of the size-3 grid of step 1/4 over [-4, 4]^3."""
    vals = [F(-4) + F(i, 4) for i in range(33)]
    return [a for a in itertools.product(vals, repeat=3) if lowdim.member3(a)]


def _no_float_linalg(monkeypatch):
    """Make every numpy.linalg routine that seifert and the matrix layer
    reach raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")
    for name in ("svd", "eigvalsh", "eigvals", "eig", "solve", "det", "norm", "inv"):
        monkeypatch.setattr(sf.np.linalg, name, refuse)


def _random_unit_upper4(count):
    """``count`` unit upper-triangular 4x4 matrices over ``_ENTRY_VALUES``."""
    rng = random.Random(5)
    return [mx.to_matrix([[int(i == j) if j <= i else rng.choice(_ENTRY_VALUES) for j in range(4)]
                          for i in range(4)]) for _ in range(count)]


def test_exact_and_float_classify_agree_or_float_refuses():
    # float classify of the same S gives the exact types or a typed error,
    # and the types of either answer sum to the signature of S + S^t
    cases = [lowdim.s3_matrix(a) for a in _grid3_points()]
    cases += [M.S for _, M in hor.cyclotomic_pool(8)]
    cases += _random_unit_upper4(600)
    assert len(cases) == 3665 + 498 + 600
    for S in cases:
        exact = sf.classify(sf.SeifertPair.from_triangular(S))
        answers = [exact]
        try:
            answers.append(sf.classify(sf.SeifertPair.from_triangular(np.asarray(S, dtype=float))))
        except SpectralStokesError:
            pass
        sig = mx.signature_exact(S + S.T)
        for types in answers:
            assert tuple(map(sum, zip(*map(sf.type_signature, types)))) == sig, S
        assert sf.types_multiset_equal(exact, answers[-1]), S


def test_float_classify_refuses_split_jordan_blocks():
    # a Jordan block of size 2 at -1 (the grid) and of size 4 at -1 (the
    # member): floats split them into eigenvalues 3e-7 and 1.4e-3 apart
    for S in (lowdim.s3_matrix((F(2), F(4), F(4))), hor.cyclotomic_member({1: 4}, 1).S):
        exact = sf.classify(sf.SeifertPair.from_triangular(S))
        assert [t.n for t in exact if t.family == "F1" and t.lam == F(1, 2)] in ([2], [4])
        with pytest.raises(Unclassified, match="Jordan block"):
            sf.classify(sf.SeifertPair.from_triangular(np.asarray(S, dtype=float)))


def test_irrational_pair_angles_are_classify3s_bit_for_bit():
    # the exact pair angle acos(b / 2a) / 2 pi of the quadratic orbit
    # polynomial is the float of classify3's closed form on every grid point
    # with an irrational pair; zeta, rounded in another order, may differ
    irrational = 0
    for a in _grid3_points():
        got = [t.lam for t in sf.classify(sf.SeifertPair.from_triangular(lowdim.s3_matrix(a)))
               if t.family == "F2complex" and type(t.lam) is float]
        if got:
            irrational += 1
            want = [t.lam for t in lowdim.classify3(a).types if t.family == "F2complex"]
            assert [x.hex() for x in got] == [x.hex() for x in want], a
    assert irrational == 3384


def test_exact_classify_makes_no_float_linalg_call(monkeypatch):
    interior = [a for a in _grid3_points() if 0 < lowdim.f3(a) < 4]
    assert len(interior) == 3442 and GRID3_POINT in interior
    # members with semisimple pairs: (x + 1)^2 Phi_4^2 and Phi_1 Phi_3 Phi_4 Phi_6
    members = [hor.cyclotomic_member(mults, 1) for mults in ({3: 1, 8: 1}, {2: 1, 3: 1, 4: 1, 6: 1})]
    want = [sf.class_from_spp(hor.recipe_spectral_pairs(hor.matrix_to_scal(M)), 1) for M in members]
    _no_float_linalg(monkeypatch)
    for a in interior:
        got = sf.classify(sf.SeifertPair.from_triangular(lowdim.s3_matrix(a)))
        assert sf.types_multiset_equal(got, lowdim.classify3(a).types), a
    for M, types in zip(members, want):
        assert sf.types_multiset_equal(sf.classify(sf.SeifertPair.from_triangular(M.S)), types)
    got = sf.classify(pair_from_triangular(QUADRATIC_SQUARE))
    assert sf.type_label_multiset(got) == "Seif(-2.31873,2,2)"


def test_a_power_of_one_rational_quadratic_resolves_exactly():
    S = mx.to_matrix(QUADRATIC_SQUARE)
    M = mx.monodromy_matrix(S)
    q = RealPoly([1, F(11, 4), 1])
    assert mx.char_poly_exact(M) == q * q
    groups = sf._exact_eigdata(*mx.int_form(M))
    # the orbit polynomial is the primitive integer multiple 4 x^2 + 11 x + 4 of q
    assert [(g.kind, g.mult, g.sizes, g.q) for g in groups] == [("hyper_real", 2, [2], (4, 11, 4))]
    assert _eigdata_blocks(groups) == _sympy_jordan_blocks(M)
    with pytest.raises(Unclassified, match="Jordan block"):
        sf.classify(sf.SeifertPair.from_triangular(np.asarray(S, dtype=float)))


def test_pair_of_multiplicity_two_with_both_signs():
    # an InteriorInd point (f = 15/16) beside [[1, 7/4], [0, 1]]: one pair
    # x^2 + 17x/16 + 1 of multiplicity 2, with one sign from each summand
    a, b = (F(-4), F(-3), F(9, 4)), F(7, 4)
    assert lowdim.classify3(a).stratum == lowdim.Stratum3.INTERIOR_IND
    S = np.block([[lowdim.s3_matrix(a), np.zeros((3, 2), dtype=object)],
                  [np.zeros((2, 3), dtype=object), mx.to_matrix([[1, b], [0, 1]])]])
    P = sf.SeifertPair.from_triangular(S)
    [pair] = [g for g in sf._exact_eigdata(P.B, P.den) if g.kind == "pair"]
    assert (pair.mult, pair.sizes, pair.q) == (2, [1, 1], (16, 17, 16))
    assert sf._exact_form_signs(pair, P.G_int) == {1: (1, 1)}
    got = sf.classify(P)
    assert sf.types_multiset_equal(got, lowdim.classify3(a).types + lowdim.solve2(b)[3])
    assert sf.types_multiset_equal(got, sf.classify(sf.SeifertPair.from_triangular(
        np.asarray(S, dtype=float))))
    total = tuple(map(sum, zip(*(sf.type_signature(t) for t in got))))
    assert total == mx.signature_exact(S + S.T)


def test_groups_keep_the_powers_of_q_that_sized_their_blocks():
    cases = [M.S for _, M in hor.cyclotomic_pool(8)]
    cases += [lowdim.s3_matrix(a) for a in _grid3_points()]
    longest = 0
    for S in cases:
        P = sf.SeifertPair.from_triangular(S)
        for g in sf._exact_eigdata(P.B, P.den):
            assert len(g.chain) == max(g.sizes)
            q = np.array(g.chain[0], dtype=object)
            power = q
            for rows in g.chain[1:]:
                power = power.dot(q)
                assert rows == power.tolist()
            longest = max(longest, len(g.chain))
    assert longest == 8


def test_one_cyclotomic_split_per_char_poly(monkeypatch):
    # _exact_eigdata finds the roots of unity, +-1 among them, in one
    # factor_cyclotomic call, and tries a Phi_d only inside it
    cases = [M.S for _, M in hor.cyclotomic_pool(8)]
    cases += [lowdim.s3_matrix(a) for a in _grid3_points()]
    splits, inside = [], []
    factor, power = pc.factor_cyclotomic, pc.cyclotomic_power

    def split(p):
        splits.append(p)
        inside.append(True)
        try:
            return factor(p)
        finally:
            inside.pop()

    def divide(p, d):
        assert inside, "cyclotomic_power called outside factor_cyclotomic"
        return power(p, d)

    monkeypatch.setattr(sf, "factor_cyclotomic", split)
    monkeypatch.setattr(pc, "cyclotomic_power", divide)
    assert not hasattr(sf, "cyclotomic_power")
    for S in cases:
        P = sf.SeifertPair.from_triangular(S)
        splits.clear()
        sf._exact_eigdata(P.B, P.den)
        assert len(splits) == 1, S


def test_each_power_of_q_is_reduced_once(monkeypatch):
    # exact classify eliminates each power q(M)^j of a group's chain once
    # (in _exact_eigdata) and never takes a rank; the primitive forms read
    # the kept bases, and Horner starts at cs[-1] B + cs[-2] d E
    cases = [M.S for _, M in hor.cyclotomic_pool(8)]
    cases += [lowdim.s3_matrix(a) for a in _grid3_points()]
    calls = {"nullspace": 0, "matmul": 0}
    real_nullspace, real_matmul = mx._nullspace_rows, mx._matmul_rows
    real_poly, real_signs = sf._poly_of_matrix, sf._exact_form_signs

    def nullspace(rows, ncols):
        calls["nullspace"] += 1
        return real_nullspace(rows, ncols)

    def matmul(A, B):
        calls["matmul"] += 1
        return real_matmul(A, B)

    def poly(cs, B, d):
        before = calls["matmul"]
        out = real_poly(cs, B, d)
        assert calls["matmul"] - before == len(cs) - 2
        return out

    def signs(g, G):
        before = dict(calls)
        out = real_signs(g, G)
        assert calls == before
        return out

    for name, fn in (("_nullspace_rows", nullspace), ("_matmul_rows", matmul)):
        monkeypatch.setattr(mx, name, fn)
    monkeypatch.setattr(sf, "_poly_of_matrix", poly)
    monkeypatch.setattr(sf, "_exact_form_signs", signs)
    for S in cases:
        P = sf.SeifertPair.from_triangular(S)
        chains = {id(g.chain): len(g.chain) for g in sf._exact_eigdata(P.B, P.den)}
        calls["nullspace"] = 0
        sf.classify(P)
        assert calls["nullspace"] == sum(chains.values()), S


def test_exact_form_signs_multiply_no_matrices(monkeypatch):
    # blocks of size >= 2 at -1 and +1: m4jordan, which is congruent to the
    # member with monodromy (x + 1)^4 under diag(1, -1, 1, -1), and the
    # size-3 grid points with f = 0 or 4, against the closed form
    golden = json.loads((Path(__file__).parent / "golden" / "m4jordan.json").read_text())
    member = hor.cyclotomic_member({1: 4}, 1)
    cases = [(mx.to_matrix([[F(x) for x in row] for row in golden["entries"]]),
              sf.class_from_spp(hor.recipe_spectral_pairs(hor.matrix_to_scal(member)), 1))]
    cases += [(lowdim.s3_matrix(a), lowdim.classify3(a).types)
              for a in _grid3_points() if lowdim.f3(a) in (0, 4)]
    work = []
    for S, want in cases:
        P = sf.SeifertPair.from_triangular(S)
        groups = sf._exact_eigdata(P.B, P.den)
        assert all(g.kind == "real" for g in groups)
        if max(max(g.sizes) for g in groups) >= 2:
            work.append((P, groups, want))
    assert len(work) == 1 + 214 + 4

    def refuse(*args):
        raise AssertionError("_exact_form_signs multiplied two matrices")
    monkeypatch.setattr(mx, "_matmul_rows", refuse)
    for P, groups, want in work:
        got = [t for g in groups for t in sf._primitive_types(g, sf._exact_form_signs(g, P.G_int))]
        assert sf.types_multiset_equal(got, want)


@pytest.mark.parametrize("G, match", [
    # M = [[1, a], [-a, 1 - a^2]]: a^2 overflows
    ([[1.0, 0.0], [1e200, 1.0]], "not finite"),
    # M is finite, but its eigenvalues are 1e300 and -0 where det M = 1
    ([[2.0, 1.0], [1e300, 1.0]], "no finite inverse")])
def test_overflowing_float_monodromy_is_refused_before_any_svd(monkeypatch, G, match):
    def refuse(*args, **kwargs):
        raise AssertionError("svd ran on an overflowed monodromy")
    monkeypatch.setattr(sf.np.linalg, "svd", refuse)
    with pytest.raises(Unclassified, match=match):
        sf.classify(sf.SeifertPair(np.array(G)))


# ---------------------------------------------------------------------------
# one mode per type
# ---------------------------------------------------------------------------

def test_every_type_holds_its_angles_in_one_mode():
    # exact and float classify of the pool, the grid and the random 4x4
    # draws, the ladder class of the pool and of sampled float members, and
    # classify3 on the grid: +-1 is an exact 0 or 1/2, and an F2complex
    # holds lam and zeta in one mode
    pool = [M for _, M in hor.cyclotomic_pool(8)]
    cases = [M.S for M in pool] + [lowdim.s3_matrix(a) for a in _grid3_points()]
    cases += _random_unit_upper4(600)
    answers = []
    for S in cases:
        answers.append(sf.classify(sf.SeifertPair.from_triangular(S)))
        try:
            answers.append(sf.classify(sf.SeifertPair.from_triangular(np.asarray(S, dtype=float))))
        except SpectralStokesError:
            pass
    for b in [hor.matrix_to_scal(M) for M in pool] + _sampled_members():
        answers.append(sf.class_from_spp(hor.recipe_spectral_pairs(b), 1))
    answers += [lowdim.classify3(a).types for a in _grid3_points()]
    pair_modes = set()
    for types in answers:
        for t in types:
            if t.family in ("F1", "F2real"):
                assert type(t.lam) is Fraction and t.lam in (0, F(1, 2)), t
            elif t.family == "F2complex":
                assert pc.is_exact(t.lam) == pc.is_exact(t.zeta), t
                pair_modes.add(type(t.lam))
    assert pair_modes == {Fraction, float}


#: float angles with every mantissa bit in play, other floats, and Fractions
_ANGLES = (st.integers(0, 2 ** 62).map(lambda i: i * 2.0 ** -63) | st.floats(-2, 2, allow_nan=False)
           | st.fractions(-2, 2, max_denominator=10 ** 6))


@given(_ANGLES, st.integers(1, 12))
@example(0.17235225865727463, 1)    # a pair angle of the size-3 grid
@settings(max_examples=300, deadline=None)
def test_canonical_zeta_sqrt_is_the_constant_expression_bit_for_bit(theta, n_b):
    # the expression with Fraction constants, exact for a Fraction theta and
    # rounded once per operation for a float one
    want = pc.mod1(-theta * Fraction(1, 2) - Fraction(n_b + 1, 4))
    got = sf._canonical_zeta_sqrt(theta, n_b)
    assert type(got) is type(want) and repr(got) == repr(want)


def _irr_type_from_ladder_reference(alpha, m, l, signed):
    """irr_type_from_ladder with per-value tests and Fraction constants."""
    d = 2 * alpha + l + 1 - m
    lam_angle = pc.mod1(alpha + Fraction(m + 1, 2))
    if pc.num_eq(d, round(d)):
        d_int = round(d)
        lam_angle = F(0) if pc.angle_eq(lam_angle, 0) else F(1, 2)
        if d_int % 2 == 0:
            eps = (-1) ** ((d_int // 2) % 2) * (-1 if signed and l % 2 == 1 else 1)
            return sf.IrrType("F1", lam_angle, l + 1, eps=eps)
        return sf.IrrType("F2real", lam_angle, l + 1)
    zeta_angle = pc.mod1(-d * Fraction(1, 4))
    if signed and l % 2 == 1:
        zeta_angle = pc.mod1(zeta_angle + Fraction(1, 2))
    return sf.IrrType("F2complex", lam_angle, l + 1, zeta=zeta_angle).normalized()


@given(st.floats(-3, 3, allow_nan=False) | st.fractions(-3, 3, max_denominator=10 ** 6)
       | st.builds(lambda j, e: j / 2 + e, st.integers(-6, 6), st.floats(-3e-9, 3e-9)),
       st.integers(0, 3), st.integers(0, 5), st.booleans())
@settings(max_examples=400, deadline=None)
def test_ladder_types_are_the_per_value_formulas_bit_for_bit(alpha, m, l, signed):
    got = sf.irr_type_from_ladder(alpha, m, l, signed)
    want = _irr_type_from_ladder_reference(alpha, m, l, signed)
    assert [(type(x), repr(x)) for x in (got.family, got.lam, got.n, got.eps, got.zeta)] == \
        [(type(x), repr(x)) for x in (want.family, want.lam, want.n, want.eps, want.zeta)]


# The exact ladder -> type path runs on integer numerators.  The references
# below are the Fraction expressions it replaced, written out.

def _fraction_normalized(family, lam, n, zeta):
    """IrrType.normalized on Fraction arithmetic: (lam, zeta) turned so that
    the eigenvalue angle lies in (0, 1/2]."""
    a = pc.mod1(lam)
    if family != "F2complex" or a <= 0.5:
        return lam, zeta
    return pc.mod1(-a), pc.mod1(-zeta)


def _fraction_ladder_type(alpha, m, l, signed):
    """(family, lam, n, eps, zeta) of irr_type_from_ladder on an exact alpha,
    in Fraction arithmetic."""
    half = Fraction(1, 2)
    d = 2 * alpha + l + 1 - m
    d_int = round(d)
    if d == d_int:
        lam = half if (d_int - l) % 2 else Fraction(0)
        if d_int % 2 == 0:
            eps = (-1) ** ((d_int // 2) % 2) * (-1 if signed and l % 2 == 1 else 1)
            return "F1", lam, l + 1, eps, None
        return "F2real", lam, l + 1, None, None
    lam = pc.mod1(alpha + (m + 1) * half)
    zeta = pc.mod1(-d * half / 2)
    if signed and l % 2 == 1:
        zeta = pc.mod1(zeta + half)
    lam, zeta = _fraction_normalized("F2complex", lam, l + 1, zeta)
    return "F2complex", lam, l + 1, None, zeta


def _typed(xs):
    return [(type(x), repr(x)) for x in xs]


#: exact first numbers: ints and Fractions over denominators up to 60
_EXACT_ALPHAS = st.integers(-4, 4) | st.builds(Fraction, st.integers(-240, 240), st.integers(1, 60))


@given(_EXACT_ALPHAS, st.integers(0, 3), st.integers(0, 7), st.booleans())
@settings(max_examples=600, deadline=None)
def test_exact_ladder_types_are_the_fraction_expressions(alpha, m, l, signed):
    t = sf.irr_type_from_ladder(alpha, m, l, signed)
    assert _typed((t.family, t.lam, t.n, t.eps, t.zeta)) == \
        _typed(_fraction_ladder_type(alpha, m, l, signed))


@given(st.integers(2, 60).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
       st.lists(st.integers(1, 4), min_size=1, max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_exact_pair_zetas_are_the_fraction_expressions(aq, sizes, rng):
    # zeta0 = -theta/2 - (s + 1)/4 mod 1 and zeta0 + 1/2, per sign of the blocks
    lam = Fraction(*aq)
    if lam == Fraction(1, 2):
        return
    signs = {}
    for s in set(sizes):
        p = rng.randint(0, sizes.count(s))
        signs[s] = (p, sizes.count(s) - p)
    got = sf._primitive_types(sf._EigGroup("pair", lam, sum(sizes), sorted(sizes)), signs)
    want = []
    for s in sorted(set(sizes)):
        z0 = pc.mod1(-(2 * lam + (s + 1)) / 4)
        for k, shift in zip(signs[s], (0, Fraction(1, 2))):
            want += [_fraction_normalized("F2complex", lam, s, pc.mod1(z0 + shift)) + (s,)] * k
    assert [_typed((t.lam, t.zeta, t.n)) for t in got] == [_typed(w) for w in want]
    assert all(t.family == "F2complex" for t in got)


@given(st.integers(-2, 2) | st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60))
       | st.floats(-2, 2, allow_nan=False), st.integers(1, 6), st.booleans())
@settings(max_examples=400, deadline=None)
def test_normalized_is_the_fraction_expression(lam, n, flip):
    # zeta a square root of conj(lam) (-1)^(n+1), in lam's mode
    half = Fraction(1, 2) if pc.is_exact(lam) else 0.5
    zeta = pc.mod1(-(2 * lam + (n + 1)) * half / 2 + (half if flip else 0))
    t = sf.IrrType("F2complex", lam, n, zeta=zeta)
    got = t.normalized()
    assert _typed((got.lam, got.zeta)) == _typed(_fraction_normalized("F2complex", lam, n, zeta))


@given(st.integers(-2, 2) | st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60)),
       st.integers(1, 6), st.integers(0, 7))
@settings(max_examples=400, deadline=None)
def test_exact_zeta_check_is_the_fraction_expression(lam, n, quarters):
    # zeta runs over the square roots of conj(lam) (-1)^(n+1) and the
    # angles a quarter or three quarters of a turn from them
    zeta = pc.mod1(-(2 * lam + (n + 1)) * Fraction(1, 4) + Fraction(quarters, 8))
    if (4 * zeta + 2 * lam - n - 1) % 2 == 0:
        assert sf.IrrType("F2complex", lam, n, zeta=zeta).zeta == zeta
    else:
        with pytest.raises(ValueError):
            sf.IrrType("F2complex", lam, n, zeta=zeta)
