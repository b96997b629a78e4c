"""Small exact/numeric matrix layer.

Exact matrices are numpy object arrays holding ``int``/``Fraction``
entries; numeric matrices are float arrays.  Numpy's ``dot`` works for
both, everything else that needs exact pivoting (rank, nullspace,
signature, characteristic polynomial) is implemented here on Fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import Singular
from .polycore import RealPoly, format_number, is_exact, parse_rational, _tidy


def to_matrix(rows) -> np.ndarray:
    """Build a matrix, object dtype when every entry is exact."""
    if isinstance(rows, np.ndarray):
        return rows
    flat = [x for row in rows for x in row]
    exact = all(is_exact(x) for x in flat)
    if exact:
        n = len(rows)
        m = len(rows[0])
        A = np.empty((n, m), dtype=object)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                A[i, j] = x
        return A
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def is_exact_matrix(A: np.ndarray) -> bool:
    return A.dtype == object


def identity(n: int, exact: bool = True) -> np.ndarray:
    if exact:
        A = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                A[i, j] = 1 if i == j else 0
        return A
    return np.eye(n)


def mat_pow(A: np.ndarray, e: int) -> np.ndarray:
    n = A.shape[0]
    result = identity(n, exact=is_exact_matrix(A))
    base = A
    while e > 0:
        if e & 1:
            result = result.dot(base)
        e >>= 1
        if e:
            base = base.dot(base)
    return result


def mat_eq(A: np.ndarray, B: np.ndarray, tol: float = 0.0) -> bool:
    if A.shape != B.shape:
        return False
    if is_exact_matrix(A) and is_exact_matrix(B):
        return all(A[i, j] == B[i, j] for i in range(A.shape[0]) for j in range(A.shape[1]))
    return bool(np.allclose(np.asarray(A, dtype=float), np.asarray(B, dtype=float),
                            atol=tol, rtol=0.0))


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
    """S^{-1} S^t for unit upper-triangular S."""
    return solve_unit_upper(S, S.T.copy())


def _frac_rows(A: np.ndarray):
    return [[Fraction(A[i, j]) for j in range(A.shape[1])] for i in range(A.shape[0])]


def char_poly_exact(A: np.ndarray) -> RealPoly:
    """Characteristic polynomial det(x E - A), exact (Faddeev-LeVerrier)."""
    n = A.shape[0]
    M = [[Fraction(A[i, j]) for j in range(n)] for i in range(n)]
    Mk = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    cs = [Fraction(1)]
    for k in range(1, n + 1):
        AM = [[sum(M[i][t] * Mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(AM[i][i] for i in range(n)) / k
        cs.append(ck)
        for i in range(n):
            AM[i][i] += ck
        Mk = AM
    return RealPoly([_tidy(c) for c in reversed(cs)])


def rank_exact(A: np.ndarray) -> int:
    rows = _frac_rows(A)
    n, m = len(rows), len(rows[0]) if len(rows) else 0
    rank = 0
    col = 0
    r = 0
    while r < n and col < m:
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / pv
                for j in range(col, m):
                    rows[i][j] -= f * rows[r][j]
        rank += 1
        r += 1
        col += 1
    return rank


def nullspace_exact(A: np.ndarray) -> list:
    """Basis of ker(A) as Fraction column vectors (lists)."""
    rows = _frac_rows(A)
    n, m = len(rows), len(rows[0]) if len(rows) else 0
    pivots = []
    r = 0
    for col in range(m):
        if r >= n:
            break
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc]
        basis.append(v)
    return basis


def signature_exact(A: np.ndarray):
    """Signature (s_plus, s_zero, s_minus) of a rational symmetric matrix,
    by congruence reduction (no eigenvalues needed)."""
    M = _frac_rows(A)
    n = len(M)
    for i in range(n):
        for j in range(i):
            assert M[i][j] == M[j][i], "matrix must be symmetric"
    plus = minus = zero = 0
    while M:
        k = len(M)
        p = next((i for i in range(k) if M[i][i] != 0), None)
        if p is None:
            od = next(((i, j) for i in range(k) for j in range(i + 1, k) if M[i][j] != 0), None)
            if od is None:
                zero += k
                break
            i, j = od
            # make a diagonal entry nonzero: e_i <- e_i + e_j
            for t in range(k):
                M[i][t] += M[j][t]
            for t in range(k):
                M[t][i] += M[t][j]
            continue
        d = M[p][p]
        if d > 0:
            plus += 1
        else:
            minus += 1
        keep = [i for i in range(k) if i != p]
        M = [[M[i][j] - M[i][p] * M[p][j] / d for j in keep] for i in keep]
    return plus, zero, minus


def signature_numeric(A: np.ndarray, tol: float = 1e-6):
    w = np.linalg.eigvalsh(np.asarray(A, dtype=float))
    plus = int(np.sum(w > tol))
    minus = int(np.sum(w < -tol))
    return plus, len(w) - plus - minus, minus


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product in lexicographic block order, exactness preserved."""
    if not (is_exact_matrix(A) and is_exact_matrix(B)):
        return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    n1, m1 = A.shape
    n2, m2 = B.shape
    out = np.empty((n1 * n2, m1 * m2), dtype=object)
    for i in range(n1):
        for j in range(m1):
            for s in range(n2):
                for t in range(m2):
                    out[i * n2 + s, j * m2 + t] = A[i, j] * B[s, t]
    return out


def is_unit_upper_triangular(S: np.ndarray, tol: float = 0.0) -> bool:
    if S.shape[0] != S.shape[1]:
        return False
    n = S.shape[0]
    for i in range(n):
        for j in range(i + 1):
            target = 1 if i == j else 0
            v = S[i, j]
            if is_exact(v):
                if v != target:
                    return False
            elif abs(float(v) - target) > tol:
                return False
    return True


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


def solve_exact(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B exactly for a square rational A (Gauss-Jordan)."""
    n = A.shape[0]
    M = [[Fraction(A[i, j]) for j in range(n)] + [Fraction(B[i, j]) for j in range(B.shape[1])]
         for i in range(n)]
    w = n + B.shape[1]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            raise Singular("matrix is singular")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[col])]
    X = np.empty((n, B.shape[1]), dtype=object)
    for i in range(n):
        for j in range(B.shape[1]):
            X[i, j] = _tidy(M[i][n + j])
    return X
