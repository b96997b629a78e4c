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
* Exact-or-tolerance decisions go through :func:`num_eq` for scalars and
  :func:`angle_eq` for circle angles: exact equality when both sides are
  exact, a tolerance otherwise.  Multisets compare through
  :func:`multiset_eq` with one of them as its test: ``spectra.Spp`` and
  the type lists of ``seifert`` go through these helpers, and no
  ``float()`` orders or compares an exact value; ``matrices.mat_eq`` reads
  the mode once per matrix, from the dtypes.  Whether a root of unity is
  a root of an exact polynomial, and how often, is decided by
  :func:`cyclotomic_power` alone.
* Every monodromy goes through ``matrices.monodromy_matrix`` (exact or
  float, one matrix or a float stack) or, for an exact Gram matrix,
  through the exact solve core that ``seifert.SeifertPair`` runs once.
* The mode is carried by the values: it is decided once where a value
  enters (CLI parsing, ``matrices.to_matrix``, :class:`RealPoly`, the
  matrix dtype), and formulas below that point are written once with
  ``Fraction`` constants.  ``x + Fraction(1, 2)`` and ``x * Fraction(1, 4)``
  are exact for exact ``x`` and bit-identical to ``x + 0.5`` and
  ``x / 4.0`` for a float ``x``.
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
    den = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


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
        return mod1(a) == mod1(b)
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
    whose matching it cannot certify.  It imports ``scipy.optimize`` on
    its first call, so exact work never loads scipy.
    """
    import scipy.optimize

    guess = 2.0 * current - prev
    cost = np.abs(guess[:, None] % 1.0 - ang[None, :])
    cost = np.minimum(cost, 1.0 - cost)
    # for a square cost matrix the rows come back as 0 .. n-1 in order
    _, cols = scipy.optimize.linear_sum_assignment(cost)
    return guess + ((ang[cols] - guess + 0.5) % 1.0 - 0.5)


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

    def __call__(self, x):
        acc = 0 * x if not isinstance(x, (int, float, complex, Fraction)) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RealPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RealPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            a, b = self.coeffs, other.coeffs
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca == 0:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return RealPoly(out)
        return RealPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def divmod(self, other: "RealPoly"):
        """Polynomial division; exact when both operands are exact."""
        if other.coeffs == (0,):
            raise ZeroDivisionError("division by the zero polynomial")
        d = list(other.coeffs)
        dn = d[-1]
        monic = dn == 1 and other.is_integer and self.is_exact    # no division, no Fractions
        rem = [Fraction(c) if is_exact(c) and not monic else c for c in self.coeffs]
        qd = len(rem) - len(d)
        if qd < 0:
            return RealPoly([0]), RealPoly(rem)
        quot = [0] * (qd + 1)
        for i in range(qd, -1, -1):
            f = rem[i + len(d) - 1] if monic else rem[i + len(d) - 1] / dn
            quot[i] = f
            if f != 0:
                for j, dc in enumerate(d):
                    rem[i + j] -= f * dc
        return RealPoly(quot), RealPoly(rem)

    def exact_div(self, other: "RealPoly") -> "RealPoly":
        q, r = self.divmod(other)
        if any(c != 0 for c in r.coeffs):
            raise NotPolynomial(f"{other!r} does not divide {self!r}")
        return q

    def of_minus_x(self) -> "RealPoly":
        """p(-x)."""
        return RealPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- serialization -------------------------------------------------------
    def to_json(self):
        return [format_number(c) for c in self.coeffs]

    @classmethod
    def x_power_minus_1(cls, r: int) -> "RealPoly":
        return cls([-1] + [0] * (r - 1) + [1])


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
def cyclotomic_polynomial(d: int) -> RealPoly:
    """The d-th cyclotomic polynomial, exact integer coefficients."""
    p = RealPoly.x_power_minus_1(d)
    for e in _divisors(d):
        if e != d:
            p = p.exact_div(cyclotomic_polynomial(e))
    return p


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
    phi = cyclotomic_polynomial(d)
    m = 0
    while p.degree >= phi.degree:
        q, r = p.divmod(phi)
        if any(r.coeffs):
            break
        m, p = m + 1, q
    return m, p


def factor_cyclotomic(p: RealPoly):
    """Split an integer polynomial into cyclotomic factors.

    Returns ``(mults, remainder)`` where ``mults`` maps d to the
    multiplicity of the d-th cyclotomic polynomial and ``remainder`` has no
    root-of-unity roots; it is an integer polynomial with the leading
    coefficient of p, since every Phi_d is monic.  Candidates with
    phi(d) <= deg are screened by a cheap float evaluation at a primitive
    d-th root before :func:`cyclotomic_power` divides, which keeps degrees
    in the thousands tractable.
    """
    if not p.is_integer:
        raise ValueError("cyclotomic factorization needs an integer polynomial")
    mults: dict[int, int] = {}
    rem = p
    d = 1
    # phi(d) >= sqrt(d/2) for every d, so phi(d) <= D implies d <= 2 D^2
    bound = 2 * p.degree * p.degree + 2
    while d <= bound and rem.degree > 0:
        if totient(d) <= rem.degree:
            z = cmath.exp(-2j * math.pi / d)
            scale = max(abs(float(c)) for c in rem.coeffs)
            if abs(rem(z)) <= 1e-6 * max(scale, 1.0) * (rem.degree + 1):
                m, rem = cyclotomic_power(rem, d)
                if m:
                    mults[d] = m
        d += 1
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
    out = []
    for g in groups:
        rep = mod1(math.fsum(g) / len(g))
        out.append((snap_angle(rep), len(g)))
    return sorted(out, key=lambda t: t[0])


def unit_circle_angles(p: RealPoly, tol: float = CIRCLE_TOL):
    """All roots of a monic real polynomial as (angle, multiplicity) pairs.

    Integer polynomials are factored exactly into cyclotomic factors; any
    non-cyclotomic part and all inexact inputs go through numeric root
    finding with every root checked against the unit circle.

    Raises RootOffCircle if a root is farther than ``tol`` from the circle.
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if p.degree == 0:
        return []
    exact_part: list = []
    numeric_target = None
    if p.is_integer:
        mults, rem = factor_cyclotomic(p)
        for d, m in sorted(mults.items()):
            for b in cyclotomic_angles(d):
                exact_part.append((b, m))
        numeric_target = rem if rem.degree > 0 else None
    else:
        numeric_target = p
    numeric_part: list = []
    if numeric_target is not None:
        roots = np.roots(np.array([float(c) for c in reversed(numeric_target.coeffs)]))
        raw = []
        for z in roots:
            dist = abs(abs(z) - 1.0)
            if dist > tol:
                raise RootOffCircle(complex(z), dist)
            raw.append(point_to_angle(complex(z)))
        numeric_part = _cluster_angles(raw, CLUSTER_TOL)
    merged: dict = {}
    for b, m in exact_part + numeric_part:
        key = mod1(b)
        merged[key] = merged.get(key, 0) + m
    out = sorted(merged.items(), key=lambda t: t[0])
    if sum(m for _, m in out) != p.degree:
        raise VerificationFailed("root multiplicities must add up to the degree")
    return out


# ---------------------------------------------------------------------------
# signed products  prod (x^r - 1)^e
# ---------------------------------------------------------------------------

def _mul_xr_minus_1(coeffs: list, r: int) -> list:
    n = len(coeffs)
    out = [0] * (n + r)
    for i, c in enumerate(coeffs):
        out[i + r] += c
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _div_xr_minus_1(coeffs: list, r: int) -> list:
    """Exact division by (x^r - 1); raises NotPolynomial on a remainder."""
    n = len(coeffs) - 1
    if n < r:
        raise NotPolynomial("quotient would have negative degree")
    q = [0] * (n - r + 1)
    rem = list(coeffs)
    for i in range(n, r - 1, -1):
        c = rem[i]
        if c != 0:
            q[i - r] = c
            rem[i] = 0
            rem[i - r] += c
    if any(rem):
        raise NotPolynomial("(x^r - 1) does not divide the product")
    return q


def expand_signed_product(factors) -> RealPoly:
    """Expand ``prod (x^r - 1)^e`` with e in {+1, -1} into a monic integer
    polynomial.

    Raises NotPolynomial if the formal product is not a polynomial.
    """
    coeffs = [1]
    for r, e in sorted(factors, key=lambda t: (t[1] != 1, t[0])):
        if r < 1:
            raise ValueError("factor exponents r must be positive")
        if e == 1:
            coeffs = _mul_xr_minus_1(coeffs, r)
        elif e == -1:
            coeffs = _div_xr_minus_1(coeffs, r)
        else:
            raise ValueError("exponent e must be +1 or -1")
    p = RealPoly(coeffs)
    if not p.is_monic:
        raise NotPolynomial("signed product did not produce a monic polynomial")
    return p


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
    sym = all(num_eq(c[j], c[n - j], tol) for j in range(n + 1))
    asym = all(num_eq(c[j], -c[n - j], tol) for j in range(n + 1))
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


_COS_TABLE = {
    Fraction(1): Fraction(0),
    Fraction(1, 2): Fraction(1, 6),
    Fraction(0): Fraction(1, 4),
    Fraction(-1, 2): Fraction(1, 3),
    Fraction(-1): Fraction(1, 2),
}


def beta_from_cos(c):
    """Angle b in [0, 1/2] with cos(2*pi*b) = c; exact for the five rational
    cosine values (Niven), float otherwise."""
    if is_exact(c) and Fraction(c) in _COS_TABLE:
        return _COS_TABLE[Fraction(c)]
    return math.acos(float(c)) / TWO_PI


def alpha_from_sin(s):
    """Value a in [-1/2, 1/2] with sin(pi*a) = s; exact for s in
    {0, +-1/2, +-1}, float otherwise."""
    if is_exact(s):
        table = {Fraction(0): Fraction(0), Fraction(1, 2): Fraction(1, 6),
                 Fraction(-1, 2): Fraction(-1, 6), Fraction(1): Fraction(1, 2),
                 Fraction(-1): Fraction(-1, 2)}
        if Fraction(s) in table:
            return table[Fraction(s)]
    return math.asin(float(s)) / math.pi
