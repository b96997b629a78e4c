"""Exact and floating arithmetic for real polynomials with unit-circle roots.

Conventions used everywhere in the package:

* A unit-circle point is encoded by its *angle* ``b``, the point being
  ``exp(-2*pi*i*b)``.  In exact mode angles are ``fractions.Fraction``
  values, in numeric mode ``float``.  Angles live in ``[0, 1)`` except
  where a caller deliberately keeps the representative ``1`` for the
  point ``1`` (ordered family coordinates do this).
* Polynomials are dense coefficient sequences, constant term first,
  with ``int``/``Fraction`` entries in exact mode and ``float`` in
  numeric mode.
* Exact code compares with ``==``, float code within its tolerance, and
  no ``float()`` orders or compares an exact value.  :func:`num_eq` and
  :func:`angle_eq` decide per value, only where two answers of modes the
  callee cannot know meet (type and spectrum multisets, ``spectra``).
  Every exact polynomial, rational too, finds its roots of unity, and how
  often, through :func:`factor_cyclotomic` alone: on the integer multiple
  with its denominators cleared, by division in integers that no float
  screens (:func:`cyclotomic_power`, :func:`_divmod_monic`).
* Every monodromy goes through ``matrices.monodromy_matrix`` (exact or
  float, one matrix or a float stack) or, for an exact Gram matrix,
  through the exact solve core that ``seifert.SeifertPair`` runs once.
* The mode is decided once where a value enters (CLI parsing,
  ``matrices.to_matrix``, the matrix dtype) and once per value object
  below it (:class:`RealPoly`, ``hor.HorScal``, ``seifert.IrrType``).
  Float code adds no ``Fraction`` constant: ``(1 - x) / 2`` is exact for a
  ``Fraction`` x and bit-identical for a float, but makes an int a float.
  Float objects may hold Fractions that :func:`snap_angle` recovered.
* Tolerances are literals at their use site (``1e-9`` is
  :data:`CIRCLE_TOL`).  A function takes a tolerance parameter only where
  its callers pass different values.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NotPolynomial, RootOffCircle, VerificationFailed

TWO_PI = 2.0 * math.pi

#: the one name for 1e-9: the default tolerance of num_eq, angle_eq and the
#: unit-circle root check, and the literal wherever a use site needs 1e-9
CIRCLE_TOL = 1e-9
#: roots whose angles differ by less than this are merged into one multiple root
CLUSTER_TOL = 1e-7


# ---------------------------------------------------------------------------
# scalars and angles
# ---------------------------------------------------------------------------

def is_exact(x) -> bool:
    """True for ``int``/``Fraction`` scalars (exact mode), False for floats."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _common_numerators(xs) -> tuple[list, int]:
    """Numerators of exact scalars over their common denominator."""
    dens = [x.denominator for x in xs]
    den = math.lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(xs, dens)], den


def _mul_coeffs(a, b, size: int | None = None) -> list:
    """The first ``size`` coefficients (all by default), constant term
    first, of the product of the coefficient lists a and b."""
    if size is None:
        size = len(a) + len(b) - 1
    out = [0] * size
    for i, ca in enumerate(a):
        if ca:
            for k, cb in zip(range(i, size), b):
                out[k] += ca * cb
    return out


def mod1(x):
    """Reduce an angle into ``[0, 1)``, preserving exactness."""
    return x % 1


def circle_dist(a, b) -> float:
    """Distance of two angles on the circle of circumference 1."""
    d = abs(float(mod1(a) - mod1(b)))
    return min(d, 1.0 - d)


def num_eq(a, b, tol: float = CIRCLE_TOL) -> bool:
    """Scalar equality: exact when both sides are exact, else within ``tol``."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= tol


def angle_eq(a, b, tol: float = CIRCLE_TOL) -> bool:
    """Equality of circle angles (so 0 and 1 agree): exact when both sides
    are exact, else within ``tol`` in circle distance."""
    if is_exact(a) and is_exact(b):
        return (a - b).denominator == 1
    return circle_dist(a, b) <= tol


def multiset_eq(xs, ys, eq) -> bool:
    """Equality of two multisets under the test ``eq``: each x takes the
    first unused y that it equals, and every x and every y must be used.
    On sorted input that is equal, each x takes the head of what is left."""
    rest = list(ys)
    if len(rest) != len(xs):
        return False
    for x in xs:
        for i, y in enumerate(rest):
            if eq(x, y):
                del rest[i]
                break
        else:
            return False
    return True


def angle_to_point(b) -> complex:
    """The unit-circle point ``exp(-2*pi*i*b)``."""
    return cmath.exp(-2j * math.pi * float(b))


def point_to_angle(z: complex):
    """Angle in ``[0, 1)`` of a (nearly) unit-modulus complex number."""
    return (-cmath.phase(z) / TWO_PI) % 1.0


def _point_angles(zs: np.ndarray) -> np.ndarray:
    """:func:`point_to_angle` of every entry of a complex array, bit for
    bit: ``cmath.phase`` per entry, then one array expression, whose IEEE
    division and float ``%`` (fmod, adjusted to the sign of 1) are those
    of the scalar one."""
    ph = np.array(list(map(cmath.phase, zs.ravel().tolist())))
    return ((-ph / TWO_PI) % 1.0).reshape(zs.shape)


def parse_rational(s):
    """Parse "p/q" or a plain integer/decimal string into Fraction or float.

    Raises ValueError for a zero denominator, for non-finite values and
    for booleans (a JSON ``true`` is not a number).
    """
    if isinstance(s, bool):
        raise ValueError(f"boolean {s!r} is not a number")
    if isinstance(s, (int, Fraction)):
        return s
    if not isinstance(s, float):
        text = str(s).strip()
        if "/" in text:
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
        try:
            return int(text)
        except ValueError:
            s = float(text)
    if not math.isfinite(s):
        raise ValueError(f"non-finite value {s!r}")
    return s


def format_number(x, precision: int = 12) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return f"{float(x):.{precision}g}"


def _tidy(x):
    """Normalise Fraction-with-denominator-1 to int; leave floats alone."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def snap_angle(b: float):
    """Return the rational angle closest to ``b`` if it is extremely close.

    Used to recover exact angles from float computations whose inputs were
    rational.  Returns a Fraction on success, the float otherwise.
    """
    cand = Fraction(mod1(b)).limit_denominator(4096)
    if circle_dist(cand, b) <= 1e-12:
        return mod1(cand)
    return mod1(b)


def _lift_angles(prev: np.ndarray, current: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Continue lifted float angles ``current`` to the angle set ``ang``.

    A predictor step: each strand is expected at ``2 current - prev``,
    its linear continuation, so strands that cross pass through each
    other instead of bouncing.  Strands are matched to angles by an
    assignment of least total circle distance from the guess; each then
    moves from the guess by its step taken in [-1/2, 1/2).  With
    ``prev = current`` the guess is ``current`` itself.

    This is the one rule for matching strands.  :func:`_lift_path`, the
    lifting pass of ``orbit.generic_path_track``, hands it every step
    whose matching it cannot certify.  The assignment is Crouse's
    shortest augmenting path (IEEE TAES 52(4), 2016), in
    :func:`_min_cost_assignment`.  Its tie rule fixes the strand labels on
    the first step out of the identity, where every row of the cost
    matrix is the same: of the columns at equal least path cost it takes
    the first it scans (from n - 1 down), unless a later one is still
    unassigned, as ``scipy.optimize.linear_sum_assignment`` does.
    """
    guess = 2.0 * current - prev
    cost = np.abs(guess[:, None] % 1.0 - ang[None, :])
    cost = np.minimum(cost, 1.0 - cost)
    cols = _min_cost_assignment(cost.tolist())
    return guess + ((ang[cols] - guess + 0.5) % 1.0 - 0.5)


def _min_cost_assignment(cost: list) -> list:
    """The column of each row in an assignment of least total cost for the
    square float matrix ``cost`` (a list of rows).

    Crouse's shortest augmenting path (D. F. Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE Trans. Aerospace and
    Electronic Systems 52(4), 2016), step for step as in the
    ``rectangular_lsap`` solver behind ``scipy.optimize.linear_sum_assignment``,
    so that ties resolve the same way and the floats of every reduced cost
    are the same.  Row ``cur`` grows a shortest path tree over the
    remaining columns, listed from n - 1 down to 0 and removed by swapping
    in the last one; the column taken next is the first of least path
    cost, or a later one of equal cost that is still unassigned.  So a
    constant matrix gives the identity.  The duals ``u``, ``v`` then
    move by the tree's path costs, and the path is augmented.
    """
    n = len(cost)
    inf = math.inf
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        spc = [inf] * n
        rows_seen, cols_seen = [False] * n, [False] * n
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            rows_seen[i] = True
            row, ui = cost[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if rows_seen[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if cols_seen[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


# lifts of this size or more end the certified runs of _lift_path: a run
# reads its guesses in angle space, and the float error of a lift grows
# with its size
_RUN_LIMIT = 256.0


def _lift_path(ang: np.ndarray) -> np.ndarray:
    """Lift the angle sets ``ang[s]`` (shape ``(steps, n)``) of a path
    whose strands all start at 0.

    Row ``s + 1`` of the ``(steps + 1, n)`` result is, bit for bit,
    ``_lift_angles(row s - 1, row s, ang[s])``, with row ``-1`` read as
    row 0.  Let ``half[s]`` be half the smallest circular gap between
    distinct values of ``ang[s]``, less 1e-12.

    One array pass certifies steps in place: step ``s`` is certified when,
    for every sorted index ``i``, the guess ``2 srt[s-1, i] - srt[s-2, i]``
    (mod 1) made from the sorted rows lies nearer than ``half[s]`` to
    ``srt[s, i]``.  Where the walk's own rows ``s - 1`` and ``s`` hold
    every strand at the same sorted index, as ``srt[s - 2]`` and
    ``srt[s - 1]``, a maximal run of certified steps is lifted strand by
    strand, each strand keeping its index.  Its lifted guess then differs
    from the angle-space guess by a few units in the last place of the
    lift, far below the 1e-12 margin, so it is nearest to its own value
    by a clear margin, and the least-total-distance assignment of
    ``_lift_angles`` takes the same values.  That bound needs lifts below
    ``_RUN_LIMIT`` in size: a run that reaches it is discarded, and no
    run is used for the rest of the path.

    Every other step (a crossing, a wrap past the point 1, the first steps
    out of all-zero strands) is certified on its own: when every strand's
    guess lies nearer than ``half[s]`` to one value and these nearest
    values use each value as often as it occurs, each strand is at the
    strict minimum of its row of the cost matrix, so the assignment takes
    the same values.  A step certified neither way goes to
    :func:`_lift_angles`.  The same expression lifts a strand in all
    three cases, so it gives the same floats.
    """
    steps, n = ang.shape
    srt = np.sort(ang, axis=1)
    gaps = np.diff(srt, axis=1)
    # exactly equal angles are one value with a multiplicity
    gaps[gaps == 0.0] = np.inf
    # the wrap gap never merges: the point 1 can come out as 1e-17 and 1.0
    wrap = srt[:, :1] + 1.0 - srt[:, -1:]
    half = np.hstack([gaps, wrap]).min(axis=1, initial=np.inf) / 2.0 - 1e-12
    d = np.abs((2.0 * srt[1:-1] - srt[:-2]) % 1.0 - srt[2:])
    held = np.zeros(steps, dtype=bool)
    held[2:] = (np.minimum(d, 1.0 - d) < half[2:, None]).all(axis=1)
    # a run of certified steps ends at the next step that is not certified
    ends = np.flatnonzero(~held).tolist() + [steps]
    rows, cols, halves, held = srt.tolist(), srt.T.tolist(), half.tolist(), held.tolist()
    prev = cur = [0.0] * n
    lifts = [cur]
    # the strands in the sorted order of their values in rows s - 1 and s
    # of the walk; None where a row came from _lift_angles or is row 0
    order_prev = order_cur = None
    runs = True
    s = 0
    while s < steps:
        if held[s] and runs and order_cur is not None and order_prev == order_cur:
            e = ends[bisect_left(ends, s)]
            run = [None] * n
            for i, j in enumerate(order_cur):
                p, c = prev[j], cur[j]
                col = run[j] = []
                for a in cols[i][s:e]:
                    g = 2.0 * c - p
                    p, c = c, g + ((a - g + 0.5) % 1.0 - 0.5)
                    col.append(c)
            if max(map(abs, prev + cur)) < _RUN_LIMIT and all(
                    -_RUN_LIMIT < min(col) and max(col) < _RUN_LIMIT for col in run):
                lifts.extend(map(list, zip(*run)))
                prev, cur = lifts[-2], lifts[-1]
                s = e
                continue
            runs = False
        row, h = rows[s], halves[s]
        # a guess x is certified at a if min(d, 1 - d) < h for d = |x - a|
        far = 1.0 - h
        nxt, picks = [], []
        for p, c in zip(prev, cur):
            g = 2.0 * c - p
            x = g % 1.0
            k = bisect_left(row, x)
            a = row[k - 1]
            if h <= abs(x - a) <= far:
                a = row[k % n]
                if h <= abs(x - a) <= far:
                    break
            picks.append(a)
            nxt.append(g + ((a - g + 0.5) % 1.0 - 0.5))
        order = sorted(range(len(picks)), key=picks.__getitem__)
        if [picks[j] for j in order] != row:
            nxt = _lift_angles(np.array(prev), np.array(cur), ang[s]).tolist()
            order = None
        lifts.append(nxt)
        prev, cur = cur, nxt
        order_prev, order_cur = order_cur, order
        s += 1
    return np.array(lifts)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class RealPoly:
    """Dense univariate polynomial, coefficients low degree first.

    Exact when every coefficient is an ``int`` or ``Fraction``.  The zero
    polynomial is ``RealPoly([0])`` with degree 0 by convention; all
    paper-facing polynomials here are monic of degree >= 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_tidy(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    # -- basic structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    @property
    def is_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, RealPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RealPoly({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------
    def __neg__(self):
        return RealPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            return RealPoly(_mul_coeffs(self.coeffs, other.coeffs))
        return RealPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def of_minus_x(self) -> "RealPoly":
        """p(-x)."""
        return RealPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- serialization -------------------------------------------------------
    def to_json(self):
        return [format_number(c) for c in self.coeffs]


def poly_from_float_angles(angles) -> RealPoly:
    """Expand ``prod (x - exp(-2*pi*i*b))`` in floating point.

    The angle multiset must be closed under conjugation so the product is
    real; the tiny imaginary residue is dropped.
    """
    return RealPoly(_expand_float_angles([angles])[0].tolist())


def _expand_float_angles(rows) -> np.ndarray:
    """Real coefficient rows, constant term first, of
    ``prod (x - exp(-2*pi*i*b))`` over each row of an (m, n) angle array.

    ``np.exp`` gives the same points as :func:`angle_to_point`.  The
    factors are multiplied in by ``np.convolve`` one row at a time on
    purpose: its complex products go through BLAS, which may fuse
    multiply-adds, and golden CLI output pins those bits.
    """
    roots = np.exp(-2j * math.pi * np.asarray(rows, dtype=float))
    out = np.empty((roots.shape[0], roots.shape[1] + 1))
    for row, zs in zip(out, roots):
        coeffs = np.array([1.0 + 0.0j])
        for z in zs:
            coeffs = np.convolve(coeffs, np.array([-z, 1.0 + 0.0j]))
        row[:] = coeffs.real
    return out


# ---------------------------------------------------------------------------
# cyclotomic machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def totient(d: int) -> int:
    result, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _divisors(d: int):
    out = []
    i = 1
    while i * i <= d:
        if d % i == 0:
            out.append(i)
            if i != d // i:
                out.append(d // i)
        i += 1
    return sorted(out)


@lru_cache(maxsize=None)
def _cyclotomic_degree_candidates(n: int) -> tuple:
    # the d with phi(d) <= n: over the k primes of d, phi(d) is at least the
    # product of p - 1 over the first k primes p, and d/phi(d), the product of
    # p/(p - 1) over the primes of d, is at most that over the first k
    num, den, p = 1, 1, 2
    while den * (p - 1) <= n:
        num, den, p = num * p, den * (p - 1), p + 1
        while totient(p) != p - 1:
            p += 1
    return tuple(d for d in range(1, n * num // den + 1) if totient(d) <= n)


def _divmod_monic(cs, q):
    """Quotient and remainder coefficient lists (constant term first) of
    exact ``cs`` by the monic integer ``q``: no division, so integer input
    stays integer, and rational input keeps its denominators."""
    n = len(q) - 1
    rem, quot = list(cs), [0] * max(len(cs) - n, 0)
    for i in range(len(quot) - 1, -1, -1):
        f = quot[i] = rem[i + n]
        if f:
            for j in range(n):
                rem[i + j] -= f * q[j]
    return quot, rem[:n]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> RealPoly:
    """The d-th cyclotomic polynomial, exact integer coefficients."""
    cs = [-1] + [0] * (d - 1) + [1]
    for e in _divisors(d)[:-1]:
        cs, _ = _divmod_monic(cs, cyclotomic_polynomial(e).coeffs)
    return RealPoly(cs)


@lru_cache(maxsize=None)
def _cyclotomic_at_2(d: int) -> int:
    """Phi_d(2), from 2^d - 1 = prod_{e | d} Phi_e(2)."""
    return ((1 << d) - 1) // math.prod(_cyclotomic_at_2(e) for e in _divisors(d)[:-1])


@lru_cache(maxsize=None)
def _cyclotomic_screen(n: int) -> tuple:
    """(d, Phi_d(2)) for each d with phi(d) <= n, in order of d."""
    return tuple((d, _cyclotomic_at_2(d)) for d in _cyclotomic_degree_candidates(n))


def cyclotomic_angles(d: int):
    """Angles of the primitive d-th roots of unity, as Fractions in [0, 1)."""
    if d == 1:
        return [Fraction(0)]
    return [Fraction(j, d) for j in range(1, d) if math.gcd(j, d) == 1]


def cyclotomic_power(p: RealPoly, d: int):
    """Split off the d-th cyclotomic polynomial: ``(m, q)`` with
    ``p = Phi_d^m q`` and ``Phi_d`` not dividing ``q``, for an exact
    (integer or rational) polynomial p.

    This is the one exact root-of-unity test: m is the multiplicity of
    every primitive d-th root of unity as a root of p.  An integer p keeps
    an integer cofactor, since Phi_d is monic.
    """
    phi = cyclotomic_polynomial(d).coeffs
    cs, m = p.coeffs, 0
    while len(cs) >= len(phi):
        q, r = _divmod_monic(cs, phi)
        if any(r):
            break
        cs, m = q, m + 1
    return m, (RealPoly(cs) if m else p)


def factor_cyclotomic(p: RealPoly):
    """Split an integer polynomial into cyclotomic factors.

    Returns ``(mults, remainder)`` where ``mults`` maps d to the
    multiplicity of the d-th cyclotomic polynomial and ``remainder`` has no
    root-of-unity roots; it is an integer polynomial with the leading
    coefficient of p, since every Phi_d is monic.  A candidate d, with
    phi(d) at most the degree left, goes to :func:`cyclotomic_power` only
    when Phi_d(2) divides the value at 2 of what is left: an exact screen,
    as Phi_d | p in Z[x] implies Phi_d(2) | p(2).  At p(2) = 0 all pass.
    The candidates, with Phi_d(2), come from one cached screen per degree
    of p; phi(d) is read only for a candidate that passes at 2.
    """
    if not p.is_integer:
        raise ValueError("cyclotomic factorization needs an integer polynomial")
    mults: dict[int, int] = {}
    rem, left = p, len(p.coeffs) - 1
    at_2 = sum(c << k for k, c in enumerate(p.coeffs))
    for d, phi_2 in _cyclotomic_screen(left):
        if left == 0:
            break
        if at_2 % phi_2 == 0 and (phi := totient(d)) <= left:
            m, rem = cyclotomic_power(rem, d)
            if m:
                mults[d] = m
                left -= m * phi
                at_2 //= phi_2 ** m
    return mults, rem


def poly_from_cyclotomic_mults(mults: dict[int, int]) -> RealPoly:
    p = RealPoly([1])
    for d, m in sorted(mults.items()):
        q = cyclotomic_polynomial(d)
        for _ in range(m):
            p = p * q
    return p


def galois_closed_mults(angles) -> dict[int, int] | None:
    """If a rational angle multiset is a union of full primitive-root orbits,
    return the orbit multiplicities, else None.

    ``angles`` is an iterable of (Fraction angle, multiplicity).
    """
    counts: dict[Fraction, int] = {}
    for b, m in angles:
        if not is_exact(b):
            return None
        counts[mod1(Fraction(b))] = counts.get(mod1(Fraction(b)), 0) + m
    mults: dict[int, int] = {}
    while counts:
        b = next(iter(counts))
        d = b.denominator
        orbit = cyclotomic_angles(d)
        m = counts.get(orbit[0], 0)
        if m <= 0:
            return None
        for a in orbit:
            if counts.get(a, 0) < m:
                return None
        for a in orbit:
            counts[a] -= m
            if counts[a] == 0:
                del counts[a]
        mults[d] = mults.get(d, 0) + m
    return mults


# ---------------------------------------------------------------------------
# angle multisets of polynomial roots
# ---------------------------------------------------------------------------

def _cluster_angles(angles: list[float], tol: float):
    """Group a sorted list of float angles into (representative, mult) pairs,
    merging across the 0/1 seam."""
    if not angles:
        return []
    angles = sorted(mod1(a) for a in angles)
    groups: list[list[float]] = [[angles[0]]]
    for a in angles[1:]:
        if a - groups[-1][-1] <= tol:
            groups[-1].append(a)
        else:
            groups.append([a])
    # wrap-around merge
    if len(groups) > 1 and (1.0 - groups[-1][-1]) + groups[0][0] <= tol:
        head = groups.pop()
        groups[0] = [a - 1.0 for a in head] + groups[0]
    return [(mod1(math.fsum(g) / len(g)), len(g)) for g in groups]


def unit_circle_angles(p: RealPoly, tol: float = CIRCLE_TOL):
    """All roots of a monic real polynomial as (angle, multiplicity) pairs.

    An exact polynomial, integer or rational, clears its denominators once,
    and :func:`factor_cyclotomic` splits every root of unity off the
    integer multiple exactly.  The rest of an exact input, and all of an
    inexact one, goes through numeric root finding on the monic cofactor,
    with every root checked against the unit circle.  Only for inexact
    input is a float angle within 1e-12 of a rational one snapped to it
    (:func:`snap_angle`): the exact cofactor has no root of unity, so none
    of its roots has a rational angle.

    Raises RootOffCircle if a root is farther than ``tol`` from the circle,
    and, before any float, if a coefficient c_k of the exact cofactor with
    leading coefficient ``lead`` exceeds C(n, k) lead.
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if p.degree == 0:
        return []
    merged: dict = {}
    rest, lead = p, 1
    exact = p.is_exact
    if exact:
        nums, lead = _common_numerators(p.coeffs)
        mults, rest = factor_cyclotomic(RealPoly(nums))
        for d, m in mults.items():
            for b in cyclotomic_angles(d):
                merged[b] = m
        # roots on the circle give |c_k| <= C(n, k) lead; past it, the
        # distance reported is a lower bound, from |c_k| <= C(n, k) lead max|z|^n
        n = rest.degree
        for k, c in enumerate(rest.coeffs):
            b = math.comb(n, k) * lead
            if abs(c) > b:
                r = (math.log(abs(c)) - math.log(b)) / n
                raise RootOffCircle(f"(|c_{k}| > C({n}, {k}))", math.expm1(min(r, 700.0)))
    if rest.degree > 0:
        raw = []
        for z in np.roots(np.array([c / lead for c in reversed(rest.coeffs)])):
            dist = abs(abs(z) - 1.0)
            if dist > tol:
                raise RootOffCircle(complex(z), dist)
            raw.append(point_to_angle(complex(z)))
        for b, m in _cluster_angles(raw, CLUSTER_TOL):
            key = b if exact else snap_angle(b)
            merged[key] = merged.get(key, 0) + m
    out = sorted(merged.items(), key=lambda t: t[0])
    if sum(m for _, m in out) != p.degree:
        raise VerificationFailed("root multiplicities must add up to the degree")
    return out


# ---------------------------------------------------------------------------
# signed products  prod (x^r - 1)^e
# ---------------------------------------------------------------------------

def signed_product_coeffs(factors) -> np.ndarray:
    """Coefficients, constant term first, of the polynomial
    ``prod (x^r - 1)^e`` over the pairs (r, e), r >= 1 and e in {+1, -1}.

    x^r - 1 is the product of the cyclotomic Phi_d over d | r, so the
    product is a polynomial exactly when, for every d, the e of the
    factors with d | r add up to at least 0; NotPolynomial is raised
    before anything is expanded otherwise.  The polynomial has degree
    L - 1 = sum e r and is the power series (-1)^(number of factors)
    prod (1 - x^r)^e cut off at x^L: a factor 1 - x^r is one shifted
    subtraction, its inverse 1 + x^r + x^2r + ... one running sum down the
    columns of the series reshaped to rows of length r, and a factor with
    r >= L is 1 below x^L.  No coefficient below x^L ever exceeds
    2^(number of +1 factors) prod_{e = -1} ceil(L / r) in absolute value,
    so the series runs in int64 when that bound is below 2^62 and on
    Python ints (dtype object) otherwise.  Entries from x^L on are
    scratch: both steps only carry values upwards.
    """
    for r, e in factors:
        if r < 1:
            raise ValueError("factor exponents r must be positive")
        if e not in (1, -1):
            raise ValueError("exponent e must be +1 or -1")
    for d in {d for r, e in factors if e == -1 for d in _divisors(r)}:
        if sum(e for r, e in factors if r % d == 0) < 0:
            raise NotPolynomial(f"Phi_{d} divides the denominator more often than the numerator")
    L = sum(r * e for r, e in factors) + 1
    live = [(r, e) for r, e in factors if r < L]
    bound = 2 ** sum(e == 1 for _, e in live) * math.prod(-(-L // r) for r, e in live if e == -1)
    s = np.zeros(L + max((r for r, _ in live), default=0),
                 dtype=np.int64 if bound < 2 ** 62 else object)
    s[0] = (-1) ** len(factors)
    for r, e in live:
        if e == 1:
            s[r:] = s[r:] - s[:-r]
        else:
            rows = s[:-(-L // r) * r].reshape(-1, r)
            np.add.accumulate(rows, out=rows)
    return s[:L]


def expand_signed_product(factors) -> RealPoly:
    """``prod (x^r - 1)^e`` with e in {+1, -1} as a monic integer
    polynomial (:func:`signed_product_coeffs`).

    Raises NotPolynomial if the formal product is not a polynomial.
    """
    return RealPoly(signed_product_coeffs(factors).tolist())


# ---------------------------------------------------------------------------
# palindromic classification
# ---------------------------------------------------------------------------

def palindrome_class(p: RealPoly, tol: float = CIRCLE_TOL):
    """Classify the coefficient symmetry of a monic polynomial.

    Returns ``(k, angles)`` where k=1 for p_j = p_{n-j}, k=2 for
    p_j = -p_{n-j} (in both cases all roots must lie on the unit circle),
    and ``angles`` is the :func:`unit_circle_angles` root multiset that
    shows it; ``(None, None)`` otherwise.  A classified polynomial has
    ``p_0 == (-1)**(k-1)``.
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    n = p.degree
    c = p.coeffs
    eq_tol = 0 if p.is_exact else tol
    sym = all(abs(c[j] - c[n - j]) <= eq_tol for j in range(n + 1))
    asym = all(abs(c[j] + c[n - j]) <= eq_tol for j in range(n + 1))
    if not (sym or asym):
        return None, None
    try:
        angles = unit_circle_angles(p, tol=max(tol, CIRCLE_TOL))
    except RootOffCircle:
        return None, None
    return (1 if sym else 2), angles


# ---------------------------------------------------------------------------
# companion matrices
# ---------------------------------------------------------------------------

def companion_matrix(p: RealPoly) -> np.ndarray:
    """Companion matrix with top row (-p_{n-1}, ..., -p_0) and an identity
    block below-left; its characteristic polynomial is p."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    C = np.array(p.coeffs, dtype=object if p.is_exact else float)
    n = p.degree
    A = np.zeros((n, n), dtype=C.dtype)
    A[1:, :-1] = np.eye(n - 1, dtype=C.dtype)
    A[0, :] = -C[-2::-1]
    return A


# the rational cosine (sine) values and their angles (Niven); an exact key
# looks itself up, a float never does (0.5 would find 1/2)
_COS_TABLE = {Fraction(1): Fraction(0), Fraction(1, 2): Fraction(1, 6),
              Fraction(0): Fraction(1, 4), Fraction(-1, 2): Fraction(1, 3),
              Fraction(-1): Fraction(1, 2)}
_SIN_TABLE = {Fraction(0): Fraction(0), Fraction(1, 2): Fraction(1, 6),
              Fraction(-1, 2): Fraction(-1, 6), Fraction(1): Fraction(1, 2),
              Fraction(-1): Fraction(-1, 2)}


def beta_from_cos(c):
    """Angle b in [0, 1/2] with cos(2*pi*b) = c; exact for the five rational
    cosine values, float otherwise."""
    if is_exact(c) and c in _COS_TABLE:
        return _COS_TABLE[c]
    return math.acos(float(c)) / TWO_PI


def alpha_from_sin(s):
    """Value a in [-1/2, 1/2] with sin(pi*a) = s; exact for s in
    {0, +-1/2, +-1}, float otherwise."""
    if is_exact(s) and s in _SIN_TABLE:
        return _SIN_TABLE[s]
    return math.asin(float(s)) / math.pi
