"""The two banded families of unit upper-triangular matrices.

A family point is canonically a sorted angle tuple (:class:`HorScal`);
the symmetric polynomial and the banded matrix are derived views.  The
defining symmetry is ``beta_j + beta_{n+1-j} = 1`` for ``k = 1`` and
``beta_1 = 0`` with ``beta_j + beta_{n+2-j} = 1`` for ``k = 2``; angles
live in ``[0, 1]`` (the representative 1 is kept at the top end for
ordering; it denotes the same circle point as 0, and the spectral-pair
output is independent of how ties across the symmetry axis are ordered).

For every member the n-th power of the attached companion matrix equals
``(-1)^k S^{-1} S^t``, which is what makes eigenvalue tracking from the
identity matrix unambiguous and yields the spectrum
``alpha_j = n beta_j - j + k/2``.  :func:`cyclotomic_member` builds an
exact member from its cyclotomic multiplicities without factoring, and
:func:`cyclotomic_pool` lists every one up to a size, labelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import matrices as mx
from .errors import NotArithmeticGroup, NotInFamily
from .polycore import (CIRCLE_TOL, RealPoly, circle_dist, companion_matrix, cyclotomic_angles,
                       galois_closed_mults, is_exact, mod1, palindrome_class,
                       poly_from_cyclotomic_mults, poly_from_float_angles, totient,
                       unit_circle_angles, _common_numerators, _cyclotomic_degree_candidates,
                       _expand_float_angles)
from .spectra import Spp, SppLadder


@dataclass(frozen=True)
class HorScal:
    """A family point in angle coordinates: k in {1, 2} and sorted angles.
    ``is_exact`` is set once: a float point may hold snapped Fractions."""

    k: int
    beta: tuple
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k not in (1, 2):
            raise NotInFamily("k must be 1 or 2")
        if len(self.beta) < 1:
            raise NotInFamily("need at least one angle")
        object.__setattr__(self, "is_exact", all(map(is_exact, self.beta)))
        if self.is_exact:
            _check_family_numerators(self.k, *_common_numerators(self.beta))
        else:
            _check_family_numerators(self.k, self.beta, 1, CIRCLE_TOL)

    @property
    def n(self) -> int:
        return len(self.beta)


# Exact family points run on integers: angle j is nums[j] / den, and the
# membership checks and the spectrum recipe never build a Fraction.

def _check_family_numerators(k: int, nums: list, den: int, tol: float = 0):
    """The HorScal membership checks on the angles nums[j] / den, within
    ``tol``: exactly on integer numerators, within ``CIRCLE_TOL`` on float
    angles (den 1)."""
    n = len(nums)
    for x in nums:
        if x < -tol or x > den + tol:
            raise NotInFamily(f"angle {x if den == 1 else Fraction(x, den)} outside [0, 1]")
    for i in range(n - 1):
        if nums[i] > nums[i + 1] + tol:
            raise NotInFamily("angles must be nondecreasing")
    if k == 1:
        for j in range(n):
            if abs(nums[j] + nums[n - 1 - j] - den) > tol:
                raise NotInFamily(f"beta_{j+1} + beta_{n-j} != 1")
    else:
        if abs(nums[0]) > tol:
            raise NotInFamily("k=2 requires beta_1 = 0")
        for j in range(1, n):
            if abs(nums[j] + nums[n - j] - den) > tol:
                raise NotInFamily(f"beta_{j+1} + beta_{n+1-j} != 1")


def _recipe_numerators(k: int, nums: list, den: int) -> list:
    """alpha_j = n beta_j - j + k/2 as numerators over 2 den, family order."""
    n = len(nums)
    return [2 * n * x - (2 * j - k) * den for j, x in enumerate(nums, start=1)]


def _split_root_one(ones: int, rest: list, k: int, zero, one) -> list:
    """Angles with the multiplicity of the root 1 split between the
    representatives ``zero`` and ``one`` (k = 1: evenly; k = 2: the extra
    copy leads) around the sorted other angles ``rest``."""
    if k == 1:
        if ones % 2 != 0:
            raise NotInFamily("k=1 needs even multiplicity of the root 1")
        return [zero] * (ones // 2) + rest + [one] * (ones // 2)
    if ones % 2 != 1:
        raise NotInFamily("k=2 needs odd multiplicity of the root 1")
    return [zero] * ((ones + 1) // 2) + rest + [one] * ((ones - 1) // 2)


def gamma_base(n: int, k: int) -> HorScal:
    """The distinguished interior point with angles (j - k/2)/n."""
    return HorScal(k, tuple(Fraction(2 * j - k, 2 * n) for j in range(1, n + 1)))


def free_dimension(n: int, k: int) -> int:
    if n % 2 == 1:
        return (n - 1) // 2
    return n // 2 if k == 1 else (n - 2) // 2


def scal_from_free(n: int, k: int, free) -> HorScal:
    """Rebuild the full angle tuple from the free simplex coordinates
    (sorted values in [0, 1/2])."""
    free = list(free)
    if len(free) != free_dimension(n, k):
        raise NotInFamily("wrong number of free coordinates")
    exact = all(is_exact(x) for x in free)
    if not exact:
        free = [float(x) for x in free]
    head = [0] if k == 2 else []
    middle = [Fraction(1, 2)] if (n - k) % 2 == 0 else []
    beta = head + free + middle + [1 - x for x in reversed(free)]
    return HorScal(k, tuple(beta if exact else map(float, beta)))


def sample_scal(n: int, k: int, rng, denominator: int | None = None,
                margin: float = 0.0) -> HorScal:
    """Uniform sample of the family via sorted uniforms in [0, 1/2].

    With ``denominator`` set, coordinates are rationalised to that grid
    (exact mode sampling).  A positive ``margin`` keeps the free
    coordinates inside [margin, 1/2 - margin]: numeric checks with a
    fixed sign tolerance need samples bounded away from the walls where
    the symmetric form degenerates.
    """
    d = free_dimension(n, k)
    us = sorted(rng.random() for _ in range(d))
    if denominator:
        return scal_from_free(n, k, sorted(Fraction(round(u * denominator), 2 * denominator)
                                           for u in us))
    scal = scal_from_free(n, k, [margin + u * (0.5 - 2 * margin) for u in us])
    # with no free coordinate, scal_from_free keeps the fixed angles exact
    return scal if d else HorScal(k, tuple(map(float, scal.beta)))


# ---------------------------------------------------------------------------
# scal <-> polynomial <-> matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorMatrix:
    """Banded family member: S_{ij} = p_{n-(j-i)} above the unit diagonal."""

    k: int
    n: int
    S: np.ndarray
    p: RealPoly
    # the angle coordinates the member was built from, if any
    scal: HorScal | None = field(default=None, compare=False, repr=False)


def scal_to_poly(b: HorScal) -> RealPoly:
    """Expand prod (x - exp(-2 pi i beta_j)); exact (integer coefficients)
    whenever the angle multiset is a union of full primitive-root orbits."""
    if b.is_exact:
        mults = galois_closed_mults((x, 1) for x in b.beta)
        if mults is not None:
            return poly_from_cyclotomic_mults(mults)
    return poly_from_float_angles(b.beta)


def scal_from_angles(angles, k: int) -> HorScal:
    """Family coordinates from an (angle, multiplicity) root multiset.

    The multiplicity of the root 1 splits between the representatives 0
    and 1 symmetrically (k = 1: evenly; k = 2: the extra copy leads)."""
    exact = all(is_exact(beta) for beta, _ in angles)
    ones = 0
    rest = []
    for beta, m in angles:
        if beta == 0 if exact else abs(beta) <= CIRCLE_TOL:
            ones = m
        else:
            rest.extend([beta] * m)
    rest.sort()
    zero, one = (0, 1) if exact else (0.0, 1.0)
    return HorScal(k, tuple(_split_root_one(ones, rest, k, zero, one)))


def poly_to_scal(p: RealPoly, k: int) -> HorScal:
    """Sorted family coordinates of a symmetric polynomial; verifies the
    k-symmetry.  Raises NotInFamily if p is not in the family."""
    kk, angles = palindrome_class(p)
    if kk != k:
        raise NotInFamily(f"polynomial has symmetry class {kk}, not {k}")
    return scal_from_angles(angles, k)


def poly_to_matrix(p: RealPoly, k: int, tol: float = CIRCLE_TOL,
                   check: bool = True) -> HorMatrix:
    if check:
        kk, _ = palindrome_class(p, tol)
        if kk != k:
            raise NotInFamily(f"polynomial has symmetry class {kk}, not {k}")
    S = mx.identity(p.degree, p.is_exact)
    return HorMatrix(k, p.degree, _fill_band(S, np.array(p.coeffs, dtype=S.dtype)), p)


def _fill_band(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Write S_{ij} = p_{n-(j-i)} above the unit diagonal of each (n, n)
    matrix of ``S`` from the coefficient rows (..., n + 1) of ``C``."""
    n = S.shape[-1]
    for i in range(n - 1):
        S[..., i, i + 1:] = C[..., n - 1:i:-1]
    return S


def scal_to_matrix(b: HorScal) -> HorMatrix:
    # membership was validated on the angle side; skip the root finding
    return replace(poly_to_matrix(scal_to_poly(b), b.k, check=False), scal=b)


def matrix_to_scal(M: HorMatrix) -> HorScal:
    """The member's angle coordinates: those it was built from, else the
    roots of its polynomial.  Float root finding cannot place clustered
    roots on the circle to within CIRCLE_TOL, so a member built from
    angles does not go back through it."""
    return M.scal if M.scal is not None else poly_to_scal(M.p, M.k)


def r_matrix(M: HorMatrix) -> np.ndarray:
    """The companion matrix whose n-th power is (-1)^k S^{-1} S^t."""
    return companion_matrix(M.p)


# ---------------------------------------------------------------------------
# the spectrum recipe
# ---------------------------------------------------------------------------

def recipe_spectrum(b: HorScal) -> list:
    """alpha_j = n beta_j - j + k/2 in family order (not sorted by size)."""
    n, k = b.n, b.k
    if b.is_exact:
        nums, den = _common_numerators(b.beta)
        return [Fraction(a, 2 * den) for a in _recipe_numerators(k, nums, den)]
    beta = [float(x) for x in b.beta]
    return [n * x - j + k / 2 for j, x in enumerate(beta, start=1)]


def recipe_ladder_groups(b: HorScal):
    """(circle point angle, ladder) pairs: the alphas attached to a common
    circle point form a run alpha, alpha+1, ..., alpha+l and become the
    ladder with first number alpha, center 1, length l + 1.

    The angles are nondecreasing in [0, 1], so the angles of one circle
    point are adjacent and one pass reads them off as runs.  The one
    exception is the point 1, listed as 0 at the front and as 1 at the
    back, so the last run joins the first when their angles agree."""
    exact = b.is_exact

    def same(x, y):
        return (x - y).denominator == 1 if exact else circle_dist(x, y) <= CIRCLE_TOL
    runs: list[tuple[object, list]] = []
    for beta, a in zip(b.beta, recipe_spectrum(b)):
        if runs and same(runs[-1][0], beta):
            runs[-1][1].append(a)
        else:
            runs.append((mod1(beta), [a]))
    if len(runs) > 1 and same(runs[0][0], runs[-1][0]):
        runs[0][1].extend(runs.pop()[1])
    out = []
    for key, vals in runs:
        vals.sort()
        l = len(vals) - 1
        for i in range(l):
            if abs(vals[i + 1] - vals[i] - 1) > (0 if exact else 1e-7):
                raise NotArithmeticGroup(
                    f"alphas for circle point at angle {key} are not consecutive: {vals}")
        out.append((key, SppLadder(vals[0], 1, l)))
    return out


def recipe_ladders(b: HorScal) -> list[SppLadder]:
    return [lad for _, lad in recipe_ladder_groups(b)]


def recipe_spectral_pairs(b: HorScal) -> Spp:
    # the ladders' pairs go into one Spp, which sorts them once
    return Spp(pair for lad in recipe_ladders(b) for pair in lad._pairs())


def is_realizable_spectrum(candidate, n: int, k: int):
    """Whether n numbers can be ordered into a valid family spectrum.

    Conditions on the ordering: the k-symmetry (alpha_j + alpha_{n+1-j} = 0
    for k=1; alpha_1 = 0 and alpha_j + alpha_{n+2-j} = 0 for k=2), steps
    alpha_{j+1} >= alpha_j - 1, and for k=1 additionally alpha_1 >= -1/2.
    Returns (ok, witness ordering or None).
    """
    cand = sorted(candidate, reverse=True)
    if len(cand) != n:
        return False, None
    tol, half = (0, Fraction(1, 2)) if all(map(is_exact, cand)) else (CIRCLE_TOL, 0.5)
    order: list = []
    used = [False] * n

    def sym_partner_pos(j):
        # 1-based position whose value must be the negative of position j
        return (n + 1 - j) if k == 1 else (n + 2 - j if j >= 2 else None)

    def below(x, y):
        return x < y and abs(x - y) > tol

    def feasible(j, val):
        if j > 1 and below(val, order[-1] - 1):
            return False
        if k == 1 and j == 1 and below(val, -half):
            return False
        if k == 2 and j == 1 and abs(val) > tol:
            return False
        pos = sym_partner_pos(j)
        if pos is not None and pos < j:
            if abs(order[pos - 1] + val) > tol:
                return False
        return True

    def search(j):
        if j > n:
            return True
        seen = set()
        for i in range(n):
            if used[i]:
                continue
            if cand[i] in seen:
                continue
            seen.add(cand[i])
            if not feasible(j, cand[i]):
                continue
            used[i] = True
            order.append(cand[i])
            if search(j + 1):
                return True
            order.pop()
            used[i] = False
        return False

    if search(1):
        return True, list(order)
    return False, None


def negate_poly_transform(M: HorMatrix):
    """(-1)^n p(-x) of the member's polynomial p lands in the family with
    k~ = k + n mod 2 (in {1, 2}) and has the same spectral pairs.  The
    class k is confirmed through the member's angle coordinates
    (:func:`matrix_to_scal`), so a member built from angles is not factored."""
    if matrix_to_scal(M).k != M.k:
        raise NotInFamily(f"member's angle coordinates are not of class {M.k}")
    n, k = M.n, M.k
    q = M.p.of_minus_x()
    if n % 2 == 1:
        q = -q
    k2 = 2 - (k + n) % 2
    return q, k2


# ---------------------------------------------------------------------------
# matrix identities
# ---------------------------------------------------------------------------

def verify_power_identity(M: HorMatrix):
    """Check (-1)^k S^{-1} S^t = R^n and R^t S^t R = S^t.

    Exact equality for exact members, tolerance comparison otherwise.
    Returns (ok, details) with residuals when a check fails.
    """
    S, n, k = M.S, M.n, M.k
    R = companion_matrix(M.p)
    mono = mx.monodromy_matrix(S)
    sign = -1 if k == 1 else 1
    lhs = sign * mono
    rhs = mx.mat_pow(R, n)
    St = S.T.copy()
    back = R.T.copy().dot(St).dot(R)
    ok1 = mx.mat_eq(lhs, rhs, CIRCLE_TOL)
    ok2 = mx.mat_eq(back, St, CIRCLE_TOL)
    details = {}
    if not ok1:
        details["power_residual"] = np.asarray(lhs, dtype=float) - np.asarray(rhs, dtype=float)
    if not ok2:
        details["invariance_residual"] = np.asarray(back, dtype=float) - np.asarray(St, dtype=float)
    return ok1 and ok2, details


# ---------------------------------------------------------------------------
# the signature law
# ---------------------------------------------------------------------------

def is_signature(M: HorMatrix, tol: float = 1e-6, scal: HorScal | None = None):
    """Predicted and computed signature of S + S^t away from eigenvalue -1.

    Predicted: s_+ counts spectral numbers congruent mod 2 to the open
    interval (-1/2, 1/2); numbers congruent to 1/2 mod 1 belong to the
    eigenvalue -1 and are excluded; s_- fills up dim H_{!=-1}; s_0 = 0.
    Computed: signature of S + S^t restricted to the sum of generalized
    eigenspaces of S^{-1} S^t away from -1.  That sum is the image of
    (S^{-1} S^t + E)^m, m the multiplicity of -1.

    An exact member is decided exactly, with m the count of -1 in the
    recipe: with S^{-1} S^t = B / den on integer rows, P = (B + den E)^m
    has that image and kernel the generalized eigenspace at -1, so the
    exact signature (p, z, q) of P^t (S + S^t) P gives
    (p, (n - m) - p - q, q) and ``tol`` is not read.  A float member takes
    the eigenvalues of :func:`restricted_form_eigenvalues` against ``tol``.

    ``scal`` short-circuits the angle recovery when the member was built
    from angle coordinates in the first place.
    """
    b = scal if scal is not None else matrix_to_scal(M)
    if b.is_exact:  # in the integers a = 2 den alpha
        nums, den = _common_numerators(b.beta)
        alphas, half, slack = _recipe_numerators(b.k, nums, den), den, 0
    else:
        alphas, half, slack = recipe_spectrum(b), 0.5, CIRCLE_TOL
    s_plus = minus_one = 0
    for a in alphas:
        if abs(a % (2 * half) - half) <= slack:
            minus_one += 1
        elif not half <= a % (4 * half) <= 3 * half:
            s_plus += 1
    dim = M.n - minus_one
    predicted = (s_plus, 0, dim - s_plus)

    if mx.is_exact_matrix(M.S):
        B, den = mx.int_form(mx.monodromy_matrix(M.S))
        P = mx.mat_pow(B + den * mx.identity(M.n), minus_one)
        G, _ = mx.int_form(M.S + M.S.T)
        plus, _, minus = mx._signature_rows(P.T.dot(G).dot(P).tolist())
        return predicted, (plus, dim - plus - minus, minus)
    w = restricted_form_eigenvalues(M)
    plus = int(np.sum(w > tol))
    minus = int(np.sum(w < -tol))
    computed = (plus, len(w) - plus - minus, minus)
    return predicted, computed


def restricted_form_eigenvalues(M: HorMatrix) -> np.ndarray:
    """Eigenvalues of S + S^t restricted to the generalized eigenspaces of
    S^{-1} S^t away from -1, in floats.

    The monodromy's eigenvalues within 1e-7 of -1 are counted as its
    multiplicity m there, and the first n - m left singular vectors of
    (S^{-1} S^t + E)^m are an orthonormal basis Q1 of the image, which is
    that sum of eigenspaces.  The result is the eigenvalues of
    Q1^t (S + S^t) Q1."""
    Sf = np.asarray(M.S, dtype=float)
    Mono = mx.monodromy_matrix(Sf)
    ev = np.linalg.eigvals(Mono)
    m = int(np.sum((ev.real + 1.0) ** 2 + ev.imag ** 2 <= 1e-7 ** 2))
    n = Sf.shape[0]
    Q1 = np.linalg.svd(np.linalg.matrix_power(Mono + np.eye(n), m))[0][:, :n - m]
    return np.linalg.eigvalsh(Q1.T @ (Sf + Sf.T) @ Q1)


# ---------------------------------------------------------------------------
# path tracking inside the family simplex
# ---------------------------------------------------------------------------

@dataclass
class PathTrack:
    times: np.ndarray
    betas: np.ndarray    # shape (steps+1, n), continuous lifts
    alphas: np.ndarray   # shape (steps+1, n)
    endpoint: list


def simplex_path_track(target: HorMatrix, steps: int | None = None) -> PathTrack:
    """The eigenvalue angles of the companion matrix along the straight
    scal-coordinate segment from the distinguished interior point to the
    target, and the spectrum they continue to.

    Along the segment the companion polynomial has the roots
    ``exp(-2 pi i beta_j(t))`` with ``beta(t) = (1 - t) gamma + t beta``
    by construction, so the continuous lifts are this interpolation
    itself, sampled at ``steps + 1`` equally spaced times.  For t < 1 the
    strands stay strictly increasing inside [0, 1) (gamma is, and beta
    is sorted in [0, 1]), so they never collide before the endpoint.  The
    endpoint is the recipe spectrum, exact for exact input.
    """
    n, k = target.n, target.k
    if steps is None:
        steps = 64 * n
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    b1 = matrix_to_scal(target)
    gf = np.array([float(x) for x in gamma_base(n, k).beta])
    bf = np.array([float(x) for x in b1.beta])
    times = np.linspace(0.0, 1.0, steps + 1)
    betas = (1 - times[:, None]) * gf + times[:, None] * bf
    return PathTrack(times, betas, n * (betas - gf), recipe_spectrum(b1))


def path_matrices(betas: np.ndarray) -> np.ndarray:
    """The banded members ``S(beta)`` of the angle rows ``betas`` (m, n),
    stacked (m, n, n): the sampled family path of a :class:`PathTrack`."""
    m, n = betas.shape
    S = np.tile(np.eye(n), (m, 1, 1))
    return _fill_band(S, _expand_float_angles(betas))


# ---------------------------------------------------------------------------
# exact members from root-of-unity data
# ---------------------------------------------------------------------------

def _fix_parity(mults: dict[int, int], k: int) -> dict[int, int] | None:
    """Adjust the degree-1 factors so the root 1 occurs an even number of
    times for k=1 and an odd number for k=2: one factor x - 1 becomes
    x + 1, or, with no x - 1, one x + 1 becomes x - 1 (None with neither)."""
    if mults.get(1, 0) % 2 == k - 1:
        return mults
    src, dst = (1, 2) if mults.get(1) else (2, 1)
    if not mults.get(src):
        return None
    out = dict(mults)
    out[src] -= 1
    out[dst] = out.get(dst, 0) + 1
    if out[src] == 0:
        del out[src]
    return out


def sample_cyclotomic_mults(n: int, k: int, rng) -> dict[int, int]:
    """Random multiset of root-of-unity orbit indices with total degree n
    and the parity of the root-1 orbit matching k."""
    cands = _cyclotomic_degree_candidates(n)
    while True:
        mults: dict[int, int] = {}
        remaining = n
        if k == 2:
            mults[1] = 1
            remaining -= 1
        while remaining > 0:
            opts = [d for d in cands if totient(d) <= remaining]
            d = opts[rng.randrange(len(opts))]
            mults[d] = mults.get(d, 0) + 1
            remaining -= totient(d)
        fixed = _fix_parity(mults, k)
        if fixed is not None:
            return fixed


def cyclotomic_member(mults: dict[int, int], k: int) -> HorMatrix:
    """The member with polynomial prod Phi_d^{m_d}, ``mults`` = {d: m_d}.  Its
    angles, the primitive d-th roots of unity m_d times each, become its
    ``scal``: nothing is factored.  A wrong parity at the root 1 raises
    NotInFamily."""
    b = scal_from_angles([(x, m) for d, m in mults.items() for x in cyclotomic_angles(d)], k)
    return replace(poly_to_matrix(poly_from_cyclotomic_mults(mults), k, check=False), scal=b)


def sample_cyclotomic_member(n: int, k: int, rng) -> HorMatrix:
    return cyclotomic_member(sample_cyclotomic_mults(n, k, rng), k)


#: largest n of enumerate_cyclotomic_mults: the member count grows fast
#: (k = 1 and 2 together: 1,420 at n = 12, 7,134 at 16, 30,532 at 20)
MAX_ENUMERATE_N = 16


def enumerate_cyclotomic_mults(n: int, k: int):
    """All multisets of orbit indices with total degree n and the right
    parity; n above MAX_ENUMERATE_N raises ValueError."""
    if n > MAX_ENUMERATE_N:
        raise ValueError(f"enumeration size {n} exceeds {MAX_ENUMERATE_N}")
    cands = _cyclotomic_degree_candidates(n)
    results = []

    def rec(idx: int, remaining: int, acc: dict):
        if remaining == 0:
            if acc.get(1, 0) % 2 == k - 1:
                results.append(dict(acc))
            return
        if idx >= len(cands):
            return
        d = cands[idx]
        phi = totient(d)
        max_m = remaining // phi
        for m in range(max_m, -1, -1):
            if m:
                acc[d] = m
            rec(idx + 1, remaining - m * phi, acc)
            if m:
                del acc[d]

    rec(0, n, {})
    return results


def cyclotomic_pool(n_max: int) -> list:
    """(label, member) for every exact member of size 2 to ``n_max``, both
    k, in enumeration order; the label reads ``n=<n> k=<k> <sorted mults>``."""
    return [(f"n={n} k={k} {sorted(mults.items())}", cyclotomic_member(mults, k))
            for n in range(2, n_max + 1) for k in (1, 2)
            for mults in enumerate_cyclotomic_mults(n, k)]
