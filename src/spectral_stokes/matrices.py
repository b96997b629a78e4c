"""Small exact/numeric matrix layer.

Exact matrices are numpy object arrays holding ``int``/``Fraction``
entries; numeric matrices are float arrays.  The dtype carries the mode:
numpy builds both (``np.array``, ``np.eye``, ``np.zeros``, ``np.kron``
with ``dtype=object`` hold Python ``int`` zeros and ones and products of
the entries), and numpy's ``dot`` and elementwise arithmetic work for
both.

The exact kernels run on integer rows: lists of lists of Python ``int``.
Their private cores (``_char_poly_rows``, ``_rank_rows``,
``_nullspace_rows``, ``_signature_rows``, ``_solve_rows``,
``_matmul_rows``) take such rows and never see a ``Fraction``:
division-free Berkowitz for the characteristic polynomial, fraction-free
elimination for the rest.  :func:`int_form`, the one step that clears
denominators, gives the integer form ``(B, d)`` of a matrix, A = B / d;
each public exact kernel is one :func:`int_form` call followed by its
core, and Fractions appear only in its result.  Code that runs several
kernels on one matrix, such as ``seifert.SeifertPair``, calls
:func:`int_form` once and hands the rows to the cores: rank, kernel and
signature are kept by positive scaling, and the solve core returns its
solution as integer rows over one denominator.  Every monodromy goes
through :func:`monodromy_matrix` or, for an exact pair, through the solve
core that ``seifert.SeifertPair`` runs once.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import Singular
from .polycore import (RealPoly, _common_numerators, format_number, is_exact,
                       parse_rational, _tidy)


def to_matrix(rows) -> np.ndarray:
    """Build a matrix, object dtype when every entry is exact."""
    if isinstance(rows, np.ndarray):
        return rows
    exact = all(is_exact(x) for row in rows for x in row)
    return np.array(rows, dtype=object if exact else float)


def is_exact_matrix(A: np.ndarray) -> bool:
    return A.dtype == object


def identity(n: int, exact: bool = True) -> np.ndarray:
    return np.eye(n, dtype=object if exact else float)


def mat_pow(A: np.ndarray, e: int) -> np.ndarray:
    result = np.eye(A.shape[0], dtype=A.dtype)
    base = A
    while e > 0:
        if e & 1:
            result = result.dot(base)
        e >>= 1
        if e:
            base = base.dot(base)
    return result


def mat_eq(A: np.ndarray, B: np.ndarray, tol: float = 0.0) -> bool:
    """Exact for two exact matrices, else every entry within ``tol``."""
    if A.shape != B.shape:
        return False
    if is_exact_matrix(A) and is_exact_matrix(B):
        return bool((A == B).all())
    return bool(np.all(np.abs(A - B) <= tol))


def solve_unit_upper(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with S X = B for unit upper-triangular S, by back substitution."""
    n = S.shape[0]
    exact = is_exact_matrix(S) and is_exact_matrix(B)
    X = np.empty(B.shape, dtype=object if exact else float)
    for c in range(B.shape[1]):
        for i in range(n - 1, -1, -1):
            acc = B[i, c]
            for j in range(i + 1, n):
                acc = acc - S[i, j] * X[j, c]
            X[i, c] = acc
    return X


def monodromy_matrix(S: np.ndarray) -> np.ndarray:
    """S^{-1} S^t, the one monodromy helper: by back substitution for an
    exact unit upper-triangular S, by LAPACK ``solve`` for a float S or a
    float stack ``(..., n, n)`` (any invertible matrices, one per sample)."""
    if is_exact_matrix(S):
        return solve_unit_upper(S, S.T.copy())
    return np.linalg.solve(S, np.swapaxes(S, -1, -2))


def int_form(A: np.ndarray):
    """(B, d) with B an object array of Python ``int`` entries, d > 0 the
    common denominator of the exact matrix A (``int``/``Fraction`` entries),
    and A = B / d: the one step that clears denominators."""
    nums, d = _common_numerators(list(A.flat))
    return np.array(nums, dtype=object).reshape(A.shape), d


def _eliminate(rows: list, ncols: int, reduced: bool) -> list:
    """Fraction-free Gauss (``reduced``: Gauss-Jordan) elimination in place
    on the first ``ncols`` columns of integer rows; returns the pivot columns.

    Each step is ``row_i <- p row_i - f row_p``, divided by the row's gcd,
    so every row stays an integer multiple of the rational echelon row.
    """
    n = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= n:
            break
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(0 if reduced else r + 1, n):
            f = rows[i][col]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        r += 1
    return pivots


def _matmul_rows(A: list, B: list) -> list:
    """Product of two integer row matrices."""
    cols = list(zip(*B))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in A]


def _char_poly_rows(B: list) -> list:
    """Coefficients, constant first, of det(x E - B) for integer rows B,
    by division-free Berkowitz."""
    n = len(B)
    # coefficients from x^r down to x^0 of the leading r x r block
    cs = [1]
    for r in range(n):
        lead = [B[i][:r] for i in range(r)]
        # first column of the Toeplitz step: 1, -a_rr, -R C, -R A_r C, ...
        t = [1, -B[r][r]]
        v = [B[i][r] for i in range(r)]
        for k in range(r):
            t.append(-sum(a * b for a, b in zip(B[r], v)))
            if k < r - 1:
                v = [sum(a * b for a, b in zip(row, v)) for row in lead]
        cs = [sum(t[i - j] * cs[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
              for i in range(r + 2)]
    return cs[::-1]


def char_poly_exact(A: np.ndarray) -> RealPoly:
    """Characteristic polynomial det(x E - A), exact.

    Berkowitz on the integer matrix B = d A, with d the common denominator
    of A: the coefficient of x^k is C_k / d^(n-k), where C_k are those of
    det(x E - B).
    """
    n = A.shape[0]
    B, d = int_form(A)
    cs = _char_poly_rows(B.tolist())
    if d == 1:
        return RealPoly(cs)
    return RealPoly([_tidy(Fraction(c, d ** (n - k))) for k, c in enumerate(cs)])


def _rank_rows(rows: list, ncols: int) -> int:
    """Rank of integer rows with ``ncols`` columns."""
    # _eliminate replaces rows and never changes one in place
    return len(_eliminate(list(rows), ncols, reduced=False))


def rank_exact(A: np.ndarray) -> int:
    """Rank by fraction-free Gaussian elimination on integer rows."""
    return _rank_rows(int_form(A)[0].tolist(), A.shape[1])


def _nullspace_rows(rows: list, ncols: int) -> list:
    """Basis of the kernel of integer rows, one ``(c, v)`` per free column
    c of the reduced row echelon form: v is a primitive integer vector, a
    positive multiple of the kernel vector that is 1 at c and 0 at the
    other free columns."""
    rows = list(rows)
    pivots = _eliminate(rows, ncols, reduced=True)
    scale = math.lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        g = math.gcd(*v)
        basis.append((fc, [x // g for x in v] if g > 1 else v))
    return basis


def _signature_rows(M: list):
    """Signature (s_plus, s_zero, s_minus) of symmetric integer rows, by
    fraction-free congruence reduction (no eigenvalues).

    A Schur complement step is scaled by |pivot| > 0, which keeps the
    inertia, and then divided by the gcd of the entries.
    """
    plus = minus = zero = 0
    while M:
        k = len(M)
        p = next((i for i in range(k) if M[i][i]), None)
        if p is None:
            od = next(((i, j) for i in range(k) for j in range(i + 1, k) if M[i][j]), None)
            if od is None:
                zero += k
                break
            i, j = od
            # make a diagonal entry nonzero: e_i <- e_i + e_j, on fresh rows
            M = [row[:] for row in M]
            M[i] = [a + b for a, b in zip(M[i], M[j])]
            for row in M:
                row[i] += row[j]
            continue
        d = M[p][p]
        if d > 0:
            plus += 1
        else:
            minus += 1
        s, ad = (1 if d > 0 else -1), abs(d)
        keep = [i for i in range(k) if i != p]
        M = [[ad * M[i][j] - s * M[i][p] * M[p][j] for j in keep] for i in keep]
        g = math.gcd(*(x for row in M for x in row))
        if g > 1:
            M = [[x // g for x in row] for row in M]
    return plus, zero, minus


def signature_exact(A: np.ndarray):
    """Signature (s_plus, s_zero, s_minus) of a rational symmetric matrix,
    by fraction-free congruence reduction on integers (no eigenvalues)."""
    if any(A[i, j] != A[j, i] for i in range(A.shape[0]) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    return _signature_rows(int_form(A)[0].tolist())


def signature_numeric(A: np.ndarray, tol: float = 1e-6):
    w = np.linalg.eigvalsh(np.asarray(A, dtype=float))
    plus = int(np.sum(w > tol))
    minus = int(np.sum(w < -tol))
    return plus, len(w) - plus - minus, minus


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product in lexicographic block order, exactness preserved."""
    if not (is_exact_matrix(A) and is_exact_matrix(B)):
        A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return np.kron(A, B)


def is_unit_upper_triangular(S: np.ndarray, tol: float = 0.0):
    """Ones on the diagonal and zeros below it: exactly for an exact matrix,
    within ``tol`` for a float one, where NaN fails.  A float stack
    ``(..., n, n)`` gets a boolean array, one answer per matrix."""
    if S.shape[-2] != S.shape[-1]:
        return False
    bound = 0 if is_exact_matrix(S) else tol
    lower = np.tril(np.ones(S.shape[-2:], dtype=bool))
    return np.all((np.abs(S - np.eye(S.shape[-1], dtype=S.dtype)) <= bound) | ~lower,
                  axis=(-2, -1))


# ---------------------------------------------------------------------------
# matrix file schema: {"n": int, "entries": [[...]]}, entries "p/q" or numbers
# ---------------------------------------------------------------------------

def matrix_to_json(A: np.ndarray, precision: int = 12) -> dict:
    n = A.shape[0]
    entries = [[format_number(A[i, j], precision) if is_exact_matrix(A) else float(A[i, j])
                for j in range(A.shape[1])] for i in range(n)]
    return {"n": n, "entries": entries}


def matrix_from_json(data: dict) -> np.ndarray:
    entries = data.get("entries") if isinstance(data, dict) else None
    if not entries or not isinstance(entries, list) or \
            not all(isinstance(r, list) for r in entries):
        raise ValueError('matrix file needs "entries": a nonempty list of rows')
    n = data.get("n", len(entries))
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError("matrix file entries must be n rows of n values")
    return to_matrix([[parse_rational(x) for x in row] for row in entries])


def _solve_rows(A: list, B: list):
    """(X, den) with A (X / den) = B for square integer rows A and integer
    rows B, den > 0 and gcd(den, entries of X) = 1, read off the rows of a
    fraction-free Gauss-Jordan elimination of [A | B]."""
    n = len(A)
    rows = [a + b for a, b in zip(A, B)]
    if len(_eliminate(rows, n, reduced=True)) < n:
        raise Singular("matrix is singular")
    den = math.lcm(*(row[i] for i, row in enumerate(rows)))
    X = [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(rows)]
    g = math.gcd(den, *(x for row in X for x in row))
    if g > 1:
        den //= g
        X = [[x // g for x in row] for row in X]
    return X, den
