"""Differential tests of the exact matrix kernels against sympy, plus the
entry types of exact arrays, the checks that must survive ``python -O``
and the NaN guard of ``is_unit_upper_triangular``."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes import hor, orbit, seifert
from spectral_stokes import matrices as mx
from spectral_stokes.errors import LeftT, Singular
from spectral_stokes.polycore import RealPoly, companion_matrix, num_eq

SRC = Path(__file__).resolve().parents[1] / "src"

#: entries with denominators up to 4; ints stay ints, as callers pass them
RATIONALS = st.one_of(st.integers(-5, 5),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def rational_rows(draw, n=None, m=None, symmetric=False):
    """Lists of rows, 1-8 each way, full rank or a product of lower rank."""
    n = n if n is not None else draw(st.integers(1, 8))
    m = n if symmetric else (m if m is not None else draw(st.integers(1, 8)))
    r = draw(st.integers(0, min(n, m)))
    low = draw(st.booleans())
    if symmetric:
        if low:
            L = [[draw(RATIONALS) for _ in range(r)] for _ in range(n)]
            D = [draw(RATIONALS) for _ in range(r)]
            return [[sum((L[i][t] * D[t] * L[j][t] for t in range(r)), Fraction(0))
                     for j in range(n)] for i in range(n)]
        U = [[draw(RATIONALS) for _ in range(n)] for _ in range(n)]
        return [[U[i][j] if i <= j else U[j][i] for j in range(n)] for i in range(n)]
    if low:
        L = [[draw(RATIONALS) for _ in range(r)] for _ in range(n)]
        R = [[draw(RATIONALS) for _ in range(m)] for _ in range(r)]
        return [[sum((L[i][t] * R[t][j] for t in range(r)), Fraction(0)) for j in range(m)]
                for i in range(n)]
    return [[draw(RATIONALS) for _ in range(m)] for _ in range(n)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in rows])


def tidy_typed(x):
    """int when integral, Fraction with denominator > 1 otherwise."""
    return type(x) is int if Fraction(x).denominator == 1 else type(x) is Fraction


def int_rows(rows):
    """The integer rows of a rational matrix, a positive multiple of it."""
    return mx.int_form(mx.to_matrix(rows))[0].tolist()


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class TestSympyOracles:
    @given(st.integers(1, 8).flatmap(lambda n: rational_rows(n=n, m=n)))
    @settings(max_examples=60, deadline=None)
    def test_char_poly(self, rows):
        cp = mx.char_poly_exact(mx.to_matrix(rows))
        x = sympy.Symbol("x")
        want = to_sympy(rows).charpoly(x).all_coeffs()[::-1]
        assert [sympy.Rational(str(c)) for c in cp.coeffs] == want
        assert all(tidy_typed(c) for c in cp.coeffs)

    @given(rational_rows())
    @settings(max_examples=60, deadline=None)
    def test_nullspace(self, rows):
        A = to_sympy(rows)
        basis = mx._nullspace_rows(int_rows(rows), A.cols)
        assert len(basis) == len(A.nullspace())
        free = [c for c, _ in basis]
        for c, v in basis:
            assert len(v) == A.cols and all(type(x) is int for x in v)
            assert v[c] > 0 and all(v[f] == 0 for f in free if f != c)
            assert A * to_sympy([v]).T == sympy.zeros(A.rows, 1)
        if basis:
            assert to_sympy([v for _, v in basis]).rank() == len(basis)

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(rational_rows(n=n, m=n), rational_rows(n=n))))
    @settings(max_examples=60, deadline=None)
    def test_solve(self, pair):
        rows, rhs = pair
        A, B = to_sympy(rows), to_sympy(rhs)
        both = int_rows([a + b for a, b in zip(rows, rhs)])
        args = [row[:A.cols] for row in both], [row[A.cols:] for row in both]
        if A.rank() < A.rows:
            with pytest.raises(Singular):
                mx._solve_rows(*args)
            return
        X, den = mx._solve_rows(*args)
        assert den > 0 and math.gcd(den, *(x for row in X for x in row)) == 1
        assert all(type(x) is int for row in X for x in row)
        assert A * to_sympy(X) / den == B

    @given(rational_rows(symmetric=True))
    @settings(max_examples=60, deadline=None)
    def test_signature(self, rows):
        # a symmetric matrix has real roots only, so Descartes' rule is exact
        x = sympy.Symbol("x")
        p = to_sympy(rows).charpoly(x)
        coeffs = p.all_coeffs()
        zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
        plus = sign_changes(coeffs)
        minus = sign_changes(p.subs(x, -x).as_poly(x).all_coeffs())
        assert mx.signature_exact(mx.to_matrix(rows)) == (plus, zero, minus)
        assert plus + zero + minus == len(rows)

    def test_signature_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            mx.signature_exact(mx.to_matrix([[1, 2], [3, 4]]))

    def test_nullspace_without_rows_is_the_whole_space(self):
        assert mx._nullspace_rows([], 3) == [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])]


def test_exact_arrays_hold_python_scalars():
    # numpy builds the exact arrays; their entries must stay int/Fraction, never np.int64
    S = hor.poly_to_matrix(RealPoly([1, 2, 3, 2, 1]), 1).S     # (x^2 + x + 1)^2
    M = mx.monodromy_matrix(S)
    arrays = [S, M, mx.identity(3), mx.to_matrix([[1, Fraction(1, 2)], [0, 1]]),
              mx.kron(S, mx.identity(2)), companion_matrix(RealPoly([1, Fraction(1, 3), 1]))]
    # the integer form and what is built from it hold Python ints only: K^40
    # has entries far past the int64 range
    B, d = mx.int_form(mx.to_matrix([[1, Fraction(1, 2)], [Fraction(-2, 3), 1]]))
    assert d == 6 and B.tolist() == [[6, 3], [-4, 6]]
    K = -B - d * mx.identity(2)
    BM, dM = mx.int_form(M)
    # the integer row cores return lists of rows; as object arrays they join the check
    rows = [seifert._poly_of_matrix((2, 1, 2), B.tolist(), d),
            seifert._poly_of_matrix((1, 1, 1), BM.tolist(), dM),
            mx._matmul_rows(K.tolist(), K.tolist()),
            mx._solve_rows(BM.tolist(), mx.identity(4).tolist())[0],
            [v for _, v in mx._nullspace_rows((BM - dM * mx.identity(4)).tolist(), 4)]]
    integer = [B, BM, K, mx.mat_pow(K, 40)] + [np.array(r, dtype=object) for r in rows]
    assert max(abs(x) for x in integer[3].flat) > 2 ** 63
    for A in arrays + integer:
        assert A.dtype == object
        assert all(type(x) in (int, Fraction) for x in A.flat), A
    for A in integer:
        assert all(type(x) is int for x in A.flat), A


# Each check must raise its error with assertions stripped.
_OPTIMISED_SCRIPT = """
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
import numpy as np
from spectral_stokes import chain, hor, matrices as mx, orbit, polycore, seifert
from spectral_stokes.errors import NotInFamily, VerificationFailed
from spectral_stokes.polycore import RealPoly

assert sys.flags.optimize


def expect(error, what, fn, *args, match=""):
    try:
        fn(*args)
    except error as exc:
        if match in str(exc):
            return
        raise SystemExit(f"{what}: stopped at {exc}")
    raise SystemExit(what)


expect(ValueError, "signature_exact accepted an asymmetric matrix",
       mx.signature_exact, mx.to_matrix([[1, 2], [3, 4]]))
expect(ValueError, "IrrType accepted F1 off +-1", seifert.IrrType, "F1", Fraction(1, 3), 1, 1)

S = mx.to_matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])   # char poly (x - 1)(x^2 + 1)
M = mx.monodromy_matrix(S)
P = seifert.SeifertPair.from_triangular(S)
expect(ValueError, "thom_sebastiani accepted a factor off the unit triangle",
       chain.thom_sebastiani, mx.to_matrix([[1, 0], [1, 1]]), S)
expect(ValueError, "sign_act accepted a sign outside {1, -1}", orbit.sign_act, (1, 2, 1), S)

# (2, 3) has the weights 1/2, 1/6: 1/3 in place of 1/2 breaks the product,
# and the swapped weights keep the product but break the recursion
chain.Fraction = lambda a, b=1: Fraction(1, 3) if (a, b) == (1, 2) else Fraction(a, b)
expect(VerificationFailed, "ChainSing passed a wrong weight product", chain.ChainSing, (2, 3),
       match="product")
swapped = {(1, 2): Fraction(1, 6), (1, 6): Fraction(1, 2)}
chain.Fraction = lambda a, b=1: swapped.get((a, b), Fraction(a, b))
expect(VerificationFailed, "ChainSing passed a broken weight recursion", chain.ChainSing, (2, 3),
       match="recursion")
chain.Fraction = Fraction

real_chain_sing, real_expand = chain.ChainSing, chain.expand_signed_product
chain.expand_signed_product = lambda factors: RealPoly([1, 1])
expect(VerificationFailed, "stokes_poly passed a degree other than mu", chain.stokes_poly, (3, 2),
       match="degree")
chain.expand_signed_product = lambda factors: RealPoly([1, 0, 0, 0, 1])   # (3, 2): m = 1, p_0 = -1
expect(VerificationFailed, "stokes_poly passed a constant coefficient other than (-1)^m",
       chain.stokes_poly, (3, 2), match="constant coefficient")
chain.ChainSing = lambda a: SimpleNamespace(m=0, r=(3,), mu=1)        # two roots, not one
expect(VerificationFailed, "stokes_poly passed a root count other than mu", chain.stokes_poly, (3,),
       match="number of roots")
chain.expand_signed_product = real_expand
chain.ChainSing = lambda a: SimpleNamespace(m=2, r=(2, 1, 2), mu=2)   # (x + 1)^2: root 1/2 twice
expect(VerificationFailed, "stokes_poly passed a double root", chain.stokes_poly, (3,),
       match="multiplicity 2 at 1/2")
chain.ChainSing = lambda a: SimpleNamespace(a=(3,), m=0, mu=5)
expect(VerificationFailed, "jacobi_basis passed a basis count other than mu",
       chain.jacobi_basis, (3,))
chain.ChainSing = real_chain_sing
real_coeffs = chain.signed_product_coeffs
chain.signed_product_coeffs = lambda factors: np.array([-1, 1])
expect(VerificationFailed, "qh_spectrum passed a negative multiplicity",
       chain.qh_spectrum, (Fraction(1, 3),), match="negative multiplicity")
chain.signed_product_coeffs = real_coeffs
expect(NotInFamily, "the integer membership check passed an asymmetric point",
       hor.HorScal, 1, (Fraction(1, 4), Fraction(1, 2)), match="beta_1 + beta_2 != 1")
real_split = chain._split_root_one
chain._split_root_one = lambda ones, rest, k, zero, one: rest[::-1]
expect(NotInFamily, "verify_spectrum_shift passed unsorted angles",
       chain.verify_spectrum_shift, (3, 2), match="nondecreasing")
chain._split_root_one = real_split

real_degree = chain.Monomial.degree
chain.Monomial.degree = lambda self, weights: Fraction(0)
expect(VerificationFailed, "chain_graph passed a wrong degree increment", chain.chain_graph, (3, 2))
chain.Monomial.degree = real_degree

real_factor = polycore.factor_cyclotomic
polycore.factor_cyclotomic = lambda p: ({}, RealPoly([1]))   # loses every root
expect(VerificationFailed, "unit_circle_angles passed a lost root",
       polycore.unit_circle_angles, RealPoly([1, 1]))
polycore.factor_cyclotomic = real_factor

B, den = mx.int_form(M)
B = B.tolist()
expect(VerificationFailed, "an odd number of blocks passed as two-block types",
       seifert._primitive_types, seifert._EigGroup("real", -1, 1, [1]), {})
expect(VerificationFailed, "a primitive form of rank 2 passed for one block",
       seifert._exact_form_signs, seifert._EigGroup("real", 1, 1, [1], chain=[[[0, 0], [0, 0]]],
                                                    kernels=[[[1, 0], [0, 1]]]),
       [[1, 0], [0, 1]])

mx.mat_eq = lambda A, B, tol=0.0: False
expect(VerificationFailed, "thom_sebastiani passed a broken monodromy check",
       chain.thom_sebastiani, S, S)

standard = [[int(i == c) for i in range(3)] for c in range(3)]     # not the kernel
expect(VerificationFailed, "the primitive form passed a broken symmetry check",
       seifert._exact_form_signs, replace(seifert._exact_eigdata(B, den)[0], kernels=[standard]),
       P.G_int, match="not symmetric")

real_nullspace = mx._nullspace_rows
mx._nullspace_rows = lambda rows, ncols: list(enumerate(standard))  # dimension 3 over +-i
expect(VerificationFailed, "kernel_dims passed an uneven orbit split",
       seifert._exact_eigdata, B, den)
mx._nullspace_rows = real_nullspace

calls = iter(range(1000))
mx.char_poly_exact = lambda A: next(calls)
expect(VerificationFailed, "orbit_explore passed a changed char poly",
       orbit.orbit_explore, S, 1, 10)

mx.is_unit_upper_triangular = lambda A, tol=0.0: False
expect(VerificationFailed, "braid_act passed a broken shape check", orbit.braid_act, 1, S)
print("ok")
"""


def test_checks_survive_optimised_mode():
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMISED_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


class TestUnitUpperNaN:
    @pytest.mark.parametrize("rows", [[[float("nan"), 0.0], [0.0, 1.0]],
                                      [[1.0, 0.0], [float("nan"), 1.0]]])
    def test_nan_rejected(self, rows):
        assert not mx.is_unit_upper_triangular(np.array(rows), tol=1e-9)

    def test_float_stack_answers_per_matrix(self):
        stack = np.array([np.eye(2), [[1.0, 5.0], [0.0, 1.0]], [[1.0, 0.0], [1e-6, 1.0]],
                          [[float("nan"), 0.0], [0.0, 1.0]]])
        got = mx.is_unit_upper_triangular(stack, tol=1e-7)
        assert got.tolist() == [True, True, False, False]

    def test_track_through_nan_leaves_t(self):
        path = [np.eye(2), np.array([[float("nan"), 0.0], [0.0, 1.0]])]
        with pytest.raises(LeftT):
            orbit.generic_path_track(path, steps=4)


class TestMonodromyHelper:
    def test_float_stack_is_the_per_sample_lapack_solve(self):
        rng = np.random.default_rng(3)
        stack = np.triu(rng.normal(size=(5, 4, 4)) * 3, 1) + np.eye(4)
        stack[2] = rng.normal(size=(4, 4)) + 4 * np.eye(4)    # any invertible sample
        got = mx.monodromy_matrix(stack)
        want = np.array([np.linalg.solve(S, S.T) for S in stack])
        assert got.tobytes() == want.tobytes()
        assert mx.monodromy_matrix(stack[1]).tobytes() == want[1].tobytes()

    def test_exact_input_is_back_substitution(self):
        S = mx.to_matrix([[1, Fraction(1, 2), -3], [0, 1, Fraction(2, 3)], [0, 0, 1]])
        M = mx.monodromy_matrix(S)
        assert M.dtype == object
        assert M.tolist() == mx.solve_unit_upper(S, S.T.copy()).tolist()


def _entrywise_num_eq(A, B, tol):
    """The reference: ``num_eq`` on every pair of entries."""
    return A.shape == B.shape and all(num_eq(a, b, tol) for a, b in zip(A.flat, B.flat))


#: float entries near the exact ones, plus NaN
FLOATS = st.one_of(st.floats(-6, 6), st.just(float("nan")))


@st.composite
def _matrix_pairs(draw):
    """(A, B): each exact (object, int/Fraction entries) or float; B is A
    nudged entrywise (equal, off by about the tolerance, or redrawn), or a
    matrix of another shape."""
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    exact_a, exact_b = draw(st.booleans()), draw(st.booleans())
    a = [draw(RATIONALS) if exact_a else draw(FLOATS) for _ in range(shape[0] * shape[1])]
    b = []
    for x in a:
        how = draw(st.sampled_from(("same", "near", "other")))
        if how == "other":
            b.append(draw(RATIONALS) if exact_b else draw(FLOATS))
        elif exact_b:
            b.append(x if exact_a else draw(RATIONALS))
        else:
            b.append(float(x) + (draw(st.sampled_from((0.0, 5e-10, -2e-9))) if how == "near" else 0.0))
    A = np.array(a, dtype=object if exact_a else float).reshape(shape)
    B = np.array(b, dtype=object if exact_b else float).reshape(shape)
    if draw(st.integers(0, 9)) == 0:
        B = B.reshape(shape[::-1]) if shape[0] != shape[1] else B[:, :-1]
    return A, B


class TestMatEq:
    # a NaN in an exact/float difference sits in an object array, where
    # numpy warns on comparing it; the answer is False, as num_eq's
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_matrix_pairs(), st.sampled_from((0.0, 1e-9)))
    def test_is_entrywise_num_eq(self, pair, tol):
        A, B = pair
        assert mx.mat_eq(A, B, tol) is _entrywise_num_eq(A, B, tol)
        assert mx.mat_eq(B, A, tol) is _entrywise_num_eq(B, A, tol)

    def test_exact_pair_is_exact(self):
        A = mx.to_matrix([[1, Fraction(1, 3)], [0, 1]])
        B = mx.to_matrix([[1, Fraction(1, 3) + Fraction(1, 10 ** 12)], [0, 1]])
        assert not mx.mat_eq(A, B, 1e-9)
        assert mx.mat_eq(A, np.array([[1.0, 1 / 3], [0.0, 1.0]]))
        assert not mx.mat_eq(A.astype(float), np.array([[1.0, float("nan")], [0.0, 1.0]]), 1.0)
