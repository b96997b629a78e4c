"""Closed-form treatment of the 2x2 and 3x3 unit-triangular sets.

For n = 2 everything is a function of the single off-diagonal entry a
with |a| <= 2.  For n = 3 membership and the stratification are governed
by f(a1, a2, a3) = 4 + a1 a2 a3 - (a1^2 + a2^2 + a3^2): the set is
0 <= f <= 4, the monodromy characteristic polynomial is
(x - 1)(x^2 - (f - 2) x + 1), and the boundary pieces are told apart by
the exact signature of S + S^t together with the four cone points.  An
exact point is worked on as integer numerators over its common
denominator; a Fraction appears only as the value of f.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import matrices as mx
from .errors import OutOfFamily, OutOfT, VerificationFailed
from .polycore import RealPoly, alpha_from_sin, beta_from_cos, is_exact, mod1
from .seifert import IrrType
from .spectra import Spp, SppLadder


class Stratum3(str, Enum):
    IDENTITY = "Identity"
    INTERIOR_POS = "InteriorPos"
    BOUNDARY_POS_SPHERE = "BoundaryPosSphere"
    EXCEPTIONAL = "Exceptional"
    BOUNDARY_IND_CONE = "BoundaryIndCone"
    INTERIOR_IND = "InteriorInd"
    JORDAN3_BOUNDARY = "Jordan3Boundary"
    OUTSIDE = "Outside"


EXCEPTIONAL_POINTS = ((2, 2, 2), (-2, -2, 2), (-2, 2, -2), (2, -2, -2))
#: the exact scalar types whose numerators _scaled_f3 reads without a check
_RATIONAL = frozenset((int, Fraction))


def s3_matrix(a) -> np.ndarray:
    """The unit upper-triangular S of a point, object dtype when its three
    entries are exact."""
    a1, a2, a3 = a
    exact = is_exact(a1) and is_exact(a2) and is_exact(a3)
    return np.array([[1, a1, a3], [0, 1, a2], [0, 0, 1]], dtype=object if exact else float)


def _half(x):
    """x / 2 in x's mode: a Fraction for a rational x, as x * Fraction(1, 2)
    gives, and a float for a float x, bit for bit."""
    return Fraction(x, 2) if isinstance(x, numbers.Rational) else float(x) / 2


def _scaled_f3(a):
    """(N, D, n1) with f3(a) = N / D^3 for an exact point a = (n1, n2, n3) / D,
    D the common denominator: D^3 f = 4 D^3 + n1 n2 n3 - D (n1^2 + n2^2 + n3^2).
    None when an entry is a float.

    ``int`` and ``Fraction`` entries are read directly, with one lcm only
    when their denominators differ; any other type goes through
    ``is_exact``."""
    a1, a2, a3 = a
    if not (type(a1) in _RATIONAL and type(a2) in _RATIONAL and type(a3) in _RATIONAL
            or all(map(is_exact, a))):
        return None
    n1, n2, n3 = a1.numerator, a2.numerator, a3.numerator
    d1, d2, d3 = a1.denominator, a2.denominator, a3.denominator
    if d1 == d2 == d3:
        d = d1
    else:
        d = math.lcm(d1, d2, d3)
        n1, n2, n3 = n1 * (d // d1), n2 * (d // d2), n3 * (d // d3)
    return 4 * d * d * d + n1 * n2 * n3 - d * (n1 * n1 + n2 * n2 + n3 * n3), d, n1


def _f_value(a, scaled):
    """f3(a) from ``_scaled_f3(a)``: a Fraction when an entry is one, an int
    for int entries, a float for float entries."""
    if scaled is None:
        a1, a2, a3 = a
        return 4 + a1 * a2 * a3 - (a1 * a1 + a2 * a2 + a3 * a3)
    num, d, _ = scaled
    return Fraction(num, d ** 3) if any(isinstance(x, Fraction) for x in a) else num


def f3(a):
    """4 + a1 a2 a3 - (a1^2 + a2^2 + a3^2), exact for exact input."""
    return _f_value(a, _scaled_f3(a))


def member3(a) -> bool:
    scaled = _scaled_f3(a)
    if scaled is None:
        return 0 <= _f_value(a, None) <= 4
    num, d, _ = scaled
    return 0 <= num <= 4 * d ** 3


def _char_poly_of_f(f):
    """(x-1)(x^2-(f-2)x+1) = x^3 - (f-1)x^2 + (f-1)x - 1."""
    return RealPoly([-1, f - 1, 1 - f, 1])


def char_poly3(a):
    """Characteristic polynomial of S^{-1}S^t: (x-1)(x^2-(f-2)x+1)."""
    return _char_poly_of_f(f3(a))


@dataclass
class Classification3:
    stratum: Stratum3
    types: list            # IrrType multiset ([] for Outside)
    char_poly: object
    f: object


def _interior_pair_type(f, sign_flip: bool) -> IrrType:
    """F2complex summand with eigenvalue angle theta from
    2 cos(2 pi theta) = f - 2, invariant exp(pi i theta), negated on the
    indefinite components."""
    theta = beta_from_cos(_half(f - 2))
    zeta = mod1((1 - theta) / 2) if sign_flip else mod1(-theta / 2)
    return IrrType("F2complex", theta, 1, zeta=zeta)


def classify3(a) -> Classification3:
    """Stratum, irreducible types and monodromy polynomial of a 3x3 point.

    The f-value decides interior/boundary; on f = 0 the four cone points
    are exceptional and the remaining points split by the signature of
    S + S^t ((2,1,0) on the definite side, (1,1,1) on the indefinite side);
    f = 4 away from the identity is the triple-Jordan boundary.  For exact
    input the interior is decided by Sylvester's rule: the leading
    principal minors of S + S^t are 2, 4 - a1^2 and 2f, and a1^2 != 4
    there (a1 = +-2 gives f = -(a2 -+ a3)^2 <= 0), so the sign of 4 - a1^2
    gives (3,0,0) or (1,0,2).  The exact signature of S + S^t is computed
    only on f = 0, where the last minor vanishes.
    """
    a = tuple(a)
    scaled = _scaled_f3(a)
    f = _f_value(a, scaled)
    cp = _char_poly_of_f(f)
    one = IrrType("F1", Fraction(0), 1, eps=1)
    if f < 0 or f > 4:
        return Classification3(Stratum3.OUTSIDE, [], cp, f)
    if f == 4:
        if all(x == 0 for x in a):
            return Classification3(Stratum3.IDENTITY, [one] * 3, cp, f)
        return Classification3(Stratum3.JORDAN3_BOUNDARY,
                               [IrrType("F1", Fraction(0), 3, eps=1)], cp, f)
    if f == 0 and a in EXCEPTIONAL_POINTS:
        return Classification3(Stratum3.EXCEPTIONAL,
                               [one, IrrType("F2real", Fraction(1, 2), 1)], cp, f)
    if scaled is not None and f != 0:
        # 4 - a1^2 over the common denominator d: the sign of 4 d^2 - n1^2
        _, d, n1 = scaled
        sig = (3, 0, 0) if 4 * d * d > n1 * n1 else (1, 0, 2)
    else:
        S = s3_matrix(a)
        sym = S + S.T
        sig = mx.signature_exact(sym) if scaled is not None else mx.signature_numeric(sym)
    if f == 0:
        if sig == (2, 1, 0):
            return Classification3(Stratum3.BOUNDARY_POS_SPHERE,
                                   [one, IrrType("F1", Fraction(1, 2), 2, eps=1)], cp, f)
        if sig == (1, 1, 1):
            return Classification3(Stratum3.BOUNDARY_IND_CONE,
                                   [one, IrrType("F1", Fraction(1, 2), 2, eps=-1)], cp, f)
        raise VerificationFailed(f"unexpected boundary signature {sig} at {a}")
    if sig == (3, 0, 0):
        return Classification3(Stratum3.INTERIOR_POS,
                               [one, _interior_pair_type(f, False)], cp, f)
    if sig == (1, 0, 2):
        return Classification3(Stratum3.INTERIOR_IND,
                               [one, _interior_pair_type(f, True)], cp, f)
    raise VerificationFailed(f"unexpected interior signature {sig} at {a}")


def solve2(a):
    """(beta1, alpha1, spectral pairs, types) of the 2x2 member with
    off-diagonal entry a; exact whenever the angles are rational.

    beta1 in [0, 1/2] satisfies 2 cos(2 pi beta1) = -a, alpha1 in
    [-1/2, 1/2] satisfies 2 sin(pi alpha1) = a.  Raises OutOfT for
    |a| > 2.
    """
    if abs(a) > 2:
        raise OutOfT(f"|{a}| > 2")
    beta1 = beta_from_cos(_half(-a))
    alpha1 = alpha_from_sin(_half(a))
    if abs(a) == 2:
        # alpha1 = +-1/2: the ladder (-1/2, 2), (1/2, 0)
        spp = SppLadder(-abs(alpha1), 1, 1).members()
        types = [IrrType("F1", Fraction(1, 2), 2, eps=1)]
    elif a == 0:
        spp = Spp([(abs(alpha1), 1)] * 2)      # abs: a = -0.0 gives alpha1 = -0.0
        types = [IrrType("F1", Fraction(0), 1, eps=1)] * 2
    else:
        spp = Spp([(alpha1, 1), (-alpha1, 1)])
        theta = mod1(abs(alpha1))
        zeta = mod1(-theta / 2)
        types = [IrrType("F2complex", theta, 1, zeta=zeta)]
    return beta1, alpha1, spp, types


def hor1_line3(p1):
    """The one-parameter slice of 3x3 members with constant band p1.

    Returns (beta tuple, alpha tuple, spectral pairs); p1 must lie in
    [-1, 3].  beta1 satisfies cos(2 pi beta1) = (1 - p1)/2 and increases
    with p1, as does alpha1 = 3 beta1 - 1/2.
    """
    from .hor import recipe_spectral_pairs, recipe_spectrum, scal_from_free
    if not -1 <= p1 <= 3:
        raise OutOfFamily(f"band value {p1} outside [-1, 3]")
    b = scal_from_free(3, 1, [beta_from_cos(_half(1 - p1))])
    return b.beta, tuple(recipe_spectrum(b)), recipe_spectral_pairs(b)


def scan3(step=Fraction(1, 4), lo=-4, hi=4):
    """Classification of every grid point of [lo, hi]^3 inside the set.

    Yields (a, f, stratum, types); a step <= 0 raises ValueError."""
    if step <= 0:
        raise ValueError(f"scan step must be positive, got {step}")
    vals = []
    v = Fraction(lo)
    while v <= hi:
        vals.append(v)
        v += Fraction(step)
    for a1 in vals:
        for a2 in vals:
            for a3 in vals:
                a = (a1, a2, a3)
                if not member3(a):
                    continue
                c = classify3(a)
                yield a, c.f, c.stratum, c.types
