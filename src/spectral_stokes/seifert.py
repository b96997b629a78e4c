"""Pairs (real vector space, nondegenerate bilinear form): monodromy and
classification into irreducible types.

The monodromy of a pair with Gram matrix G (so L(a, b) = a^t G b) is
M = G^{-t} G; it satisfies L(Ma, b) = L(b, a).  Unit-circle pairs split
L-orthogonally into irreducible pieces, named here:

* ``F1``        one Jordan block, real eigenvalue, sign invariant eps
* ``F2real``    two Jordan blocks, real eigenvalue, no sign invariant
* ``F2complex`` two blocks at a conjugate pair, unit invariant zeta
* ``F2hyper``   two blocks at a real pair (lam, 1/lam), |lam| > 1
* ``F4hyper``   four blocks at (lam, conj, inverses), |lam| > 1

Unit-circle values are stored as angles b (the value being
``exp(-2*pi*i*b)``); conjugate types are normalised so the eigenvalue
angle lies in (0, 1/2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import matrices as mx
from .errors import NotLadderComposed, Singular, Unclassified, VerificationFailed
from .polycore import (CIRCLE_TOL, TWO_PI, RealPoly, _mul_coeffs, angle_eq, angle_to_point,
                       circle_dist, cyclotomic_angles, cyclotomic_polynomial, factor_cyclotomic,
                       format_number, is_exact, mod1, multiset_eq, num_eq, point_to_angle,
                       snap_angle, totient)
from .spectra import Spp, decompose_into_ladders

_ZERO, _HALF = Fraction(0), Fraction(1, 2)


# ---------------------------------------------------------------------------
# irreducible types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrType:
    """Descriptor of one irreducible summand.

    ``lam`` is an angle for the on-circle families and the actual
    (real or complex) eigenvalue of modulus > 1 for the hyperbolic ones.
    ``eps`` is set for F1, ``zeta`` (an angle) for F2complex.  The angle of
    +-1 is exact, ``Fraction`` 0 or 1/2, in both modes.
    """

    family: str
    lam: object
    n: int
    eps: int | None = None
    zeta: object | None = None

    def __post_init__(self):
        if self.family in ("F1", "F2real"):
            on_one = self.lam == 0
            if not (on_one or self.lam == _HALF):
                raise ValueError(f"{self.family} eigenvalue must be +-1")
            if self.family == "F1" and self.eps not in (1, -1):
                raise ValueError("F1 needs a sign eps in {1, -1}")
            # one block (F1) has odd size at +1 and even size at -1,
            # two blocks (F2real) the other way round
            if ((self.n % 2 == 1) == on_one) != (self.family == "F1"):
                raise ValueError(f"{self.family} at {'+1' if on_one else '-1'} "
                                 f"cannot have size {self.n}")
        elif self.family == "F2complex":
            if self.zeta is None:
                raise ValueError("F2complex needs a unit invariant zeta")
            # zeta^2 = conj(lam) * (-1)^(n+1) in angle form, exact if lam and zeta are
            if not ((4 * self.zeta + 2 * self.lam - self.n - 1) % 2 == 0
                    if is_exact(self.lam) and is_exact(self.zeta) else
                    circle_dist(2 * self.zeta, -self.lam + (self.n + 1) / 2) <= 1e-7):
                raise ValueError("zeta^2 != conj(lam) * (-1)^(n+1)")

    @property
    def dim(self) -> int:
        return {"F1": 1, "F2real": 2, "F2complex": 2,
                "F2hyper": 2, "F4hyper": 4}[self.family] * self.n

    def normalized(self) -> "IrrType":
        """Conjugate-pair representative with eigenvalue angle in (0, 1/2)."""
        if self.family != "F2complex":
            return self
        a = mod1(self.lam)
        if a <= 0.5:
            return self
        return IrrType(self.family, mod1(-a), self.n, zeta=mod1(-self.zeta))

    def sort_key(self):
        lam = self.lam
        if self.family in ("F2hyper", "F4hyper"):
            lamk = (abs(complex(lam)), complex(lam).real, complex(lam).imag)
        else:
            lamk = (mod1(lam), 0, 0)
        zk = mod1(self.zeta) if self.zeta is not None else -1
        return (self.family, self.n, lamk, self.eps or 0, zk)

    def matches(self, other: "IrrType", tol: float = CIRCLE_TOL) -> bool:
        if (self.family, self.n, self.eps) != (other.family, other.n, other.eps):
            return False
        if self.family in ("F2hyper", "F4hyper"):
            return abs(complex(self.lam) - complex(other.lam)) <= 1e-6 * max(1.0, abs(complex(self.lam)))
        if not angle_eq(self.lam, other.lam, tol):
            return False
        if self.zeta is None or other.zeta is None:
            return self.zeta is None and other.zeta is None
        return angle_eq(self.zeta, other.zeta, tol)

    def label(self) -> str:
        def ang(a):
            return f"e(-2pi i {format_number(a, 6)})"
        pm = "1" if self.lam == 0 else "-1"
        if self.family == "F1":
            return f"Seif({pm},1,{self.n},{self.eps})"
        if self.family == "F2real":
            return f"Seif({pm},2,{self.n})"
        if self.family == "F2complex":
            return f"Seif({ang(self.lam)},2,{self.n},{ang(self.zeta)})"
        if self.family == "F2hyper":
            return f"Seif({format_number(self.lam, 6)},2,{self.n})"
        return f"Seif({complex(self.lam):.6g},4,{self.n})"

    def to_json(self):
        out = {"family": self.family, "n": self.n}
        if self.family in ("F2hyper", "F4hyper"):
            z = complex(self.lam)
            out["lambda"] = [z.real, z.imag]
        else:
            out["lambda"] = format_number(self.lam)
        if self.eps is not None:
            out["eps"] = self.eps
        if self.zeta is not None:
            out["zeta"] = format_number(self.zeta)
        return out



def types_multiset_equal(ts1, ts2, tol: float = CIRCLE_TOL) -> bool:
    return multiset_eq(ts1, ts2, lambda t, u: t.matches(u, tol))


def type_label_multiset(types) -> str:
    return "+".join(t.label() for t in sorted(types, key=IrrType.sort_key))


# ---------------------------------------------------------------------------
# ladder -> type (the content of a polarized / signed-polarized enhancement)
# ---------------------------------------------------------------------------

def irr_type_from_ladder(alpha, m: int, l: int, signed: bool = False) -> IrrType:
    """The irreducible type forced by a ladder (first number alpha, center
    m, length l+1) inside a polarized (or signed polarized) enhancement.

    The eigenvalue is (-1)^(m+1) exp(-2*pi*i*alpha); the distance
    d = 2*alpha + l + 1 - m decides the family; the sign data is
    exp(pi*i*d/2), times (-1)^l in the signed convention, in alpha's mode.
    """
    exact = is_exact(alpha)
    d = 2 * alpha + l + 1 - m
    d_int = round(d)
    if d == d_int if exact else abs(d - d_int) <= CIRCLE_TOL:
        # the eigenvalue is +-1: its angle (d - l)/2 mod 1 is exactly 0 or 1/2
        lam_angle = _HALF if (d_int - l) % 2 else _ZERO
        if d_int % 2 == 0:
            eps = (-1) ** ((d_int // 2) % 2)
            if signed and l % 2 == 1:
                eps = -eps
            return IrrType("F1", lam_angle, l + 1, eps=eps)
        return IrrType("F2real", lam_angle, l + 1)
    half = _HALF if exact else 0.5
    lam_angle = mod1(alpha + (m + 1) * half)
    zeta_angle = mod1(-d * half / 2)
    if signed and l % 2 == 1:
        zeta_angle = mod1(zeta_angle + half)
    return IrrType("F2complex", lam_angle, l + 1, zeta=zeta_angle).normalized()


def class_from_spp(spp: Spp, m: int, signed: bool = False) -> list[IrrType]:
    """Irreducible type multiset determined by a ladder-composed pair
    multiset with center m under the (signed) polarized convention.

    Partner pairs with integer distance produce real-eigenvalue types
    (two F1 copies for even distance, one two-block type for odd); pairs
    with non-integer distance produce one conjugate-pair type; single
    ladders produce one F1 each.
    """
    ladders = decompose_into_ladders(spp, m)
    out: list[IrrType] = []
    while ladders:
        lad = ladders.pop(0)
        if lad.is_single:
            out.append(irr_type_from_ladder(lad.alpha, m, lad.l, signed))
            continue
        # the partner has the same center and length
        partner = lad.partner()
        j = next((j for j, other in enumerate(ladders)
                  if other.l == partner.l and num_eq(other.alpha, partner.alpha)), None)
        if j is None:
            raise NotLadderComposed(
                f"ladder {lad} has no partner in the multiset", witness=lad)
        del ladders[j]
        t = irr_type_from_ladder(lad.alpha, m, lad.l, signed)
        out.extend([t, t] if t.family == "F1" else [t])
    return out


# ---------------------------------------------------------------------------
# pairs and monodromy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertPair:
    """Gram matrix G of a nondegenerate form, L(a, b) = a^t G b.

    Exact or float is decided here, once.  An exact G clears its
    denominators once (``mx.int_form``): ``G_int`` holds the integer rows
    of a positive multiple of G, and ``B``, ``den`` the monodromy
    G^{-t} G = B / den from the solve core, whose failure is the
    singularity check.  A float G leaves the three at None.
    """

    G: np.ndarray
    G_int: list | None = field(init=False, default=None, repr=False, compare=False)
    B: list | None = field(init=False, default=None, repr=False, compare=False)
    den: int | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.G.shape[0] != self.G.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not mx.is_exact_matrix(self.G):
            if abs(np.linalg.det(np.asarray(self.G, dtype=float))) < 1e-12:
                raise Singular("Gram matrix is numerically singular")
            return
        G_int = mx.int_form(self.G)[0].tolist()
        try:
            B, den = mx._solve_rows([list(col) for col in zip(*G_int)], G_int)
        except Singular:
            raise Singular("Gram matrix is singular") from None
        object.__setattr__(self, "G_int", G_int)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "den", den)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @classmethod
    def from_triangular(cls, S: np.ndarray) -> "SeifertPair":
        return cls(S.T.copy())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _block_sizes(kernel_dims: list[int]) -> list[int]:
    """Jordan block sizes from dim ker N^j, j = 1.., largest first; standard
    staircase: dim ker N^(j+1) - dim ker N^j blocks have size > j."""
    over = [d - e for d, e in zip(kernel_dims, [0] + kernel_dims)] + [0]
    return [j + 1 for j in reversed(range(len(kernel_dims))) for _ in range(over[j] - over[j + 1])]


def _poly_of_matrix(cs: tuple, B: list, d: int) -> list:
    """The integer rows d^deg p(B/d) of the integer polynomial p with
    coefficients cs (constant first), for integer rows B and d > 0, by
    Horner from cs[-1] B + cs[-2] d E: deg p - 1 row products."""
    n, scale = len(B), d
    out = [[cs[-1] * x for x in row] for row in B]
    for i in range(n):
        out[i][i] += cs[-2] * d
    for c in reversed(cs[:-2]):
        scale *= d
        out = mx._matmul_rows(out, B)
        for i in range(n):
            out[i][i] += c * scale
    return out


@dataclass
class _EigGroup:
    """One eigenvalue of the monodromy M with the partners that close its
    orbit, their multiplicity and Jordan block sizes.

    Each group keeps the Jordan chain that sized its blocks: for j <
    max(sizes), ``chain[j]`` is a power of one matrix A and ``kernels[j]``
    what sized the blocks from it.  An exact group also keeps its orbit
    polynomial q, the primitive integer coefficients (constant first) of a
    positive multiple; ``chain[j]`` holds the integer rows of a positive
    multiple of q(M)^(j+1) and ``kernels[j]`` the basis of its kernel, and
    ``_exact_form_signs`` reads both.  A float group leaves q at None;
    ``chain[j]`` is A^(j+1) for A = M - lam E and ``kernels[j]`` the right
    singular vectors of A^(j+1), rows in order of falling singular value,
    and ``_numeric_form_signs`` reads both."""

    kind: str          # 'real' | 'pair' | 'hyper_real' | 'hyper_quad'
    lam: object        # +-1 (int) | angle | float (real, |.|>1) | complex
    mult: int          # per-eigenvalue algebraic multiplicity
    sizes: list        # Jordan block sizes per eigenvalue
    q: tuple | None = None
    chain: list | None = field(default=None, repr=False)
    kernels: list | None = field(default=None, repr=False)


@lru_cache(maxsize=None)
def _pair_angles(d: int) -> tuple:
    """The angles in (0, 1/2) of the primitive d-th roots of unity, one
    per conjugate pair."""
    return tuple(b for b in cyclotomic_angles(d) if 2 * b < 1)


def _exact_eigdata(B: list, den: int):
    """Eigenvalue groups of the exact monodromy B/den (its integer rows), or
    None when the characteristic polynomial cannot be resolved exactly.

    The roots are read off the integer polynomial
    den^n det(x - B/den) = sum_k C_k den^k x^k, C_k the coefficients of
    det(x - B).  One ``factor_cyclotomic`` splits off every Phi_d: Phi_1
    and Phi_2 give the real groups at +1 and -1, every other d the pairs of
    its primitive roots.  Only the rest, which keeps the leading
    coefficient den^n and has no root of unity, reaches the closed form of
    a power of one quadratic, on its integer coefficients.  Each group's
    orbit polynomial is a primitive integer one, Phi_d or a x^2 - b x + a."""
    n = len(B)
    lead = den ** n
    cs = [c * den ** k for k, c in enumerate(mx._char_poly_rows(B))]
    groups: list[_EigGroup] = []

    def orbit_groups(kind: str, lams, q: tuple, per: int, mult: int) -> list:
        """The groups of lams, roots of q among ``per`` roots, each of
        multiplicity mult; their Jordan sizes from dim ker q(M)^j, one
        elimination per power, with the powers and kernel bases kept."""
        qm = _poly_of_matrix(q, B, den)
        dims, chain, kernels = [], [qm], []
        while True:
            kernels.append([v for _, v in mx._nullspace_rows(chain[-1], n)])
            if len(kernels[-1]) % per:
                raise VerificationFailed("kernel must split evenly over the orbit")
            dims.append(len(kernels[-1]) // per)
            if dims[-1] >= mult or len(dims) >= mult:
                sizes = _block_sizes(dims)
                return [_EigGroup(kind, lam, mult, sizes, q, chain, kernels) for lam in lams]
            chain.append(mx._matmul_rows(chain[-1], qm))

    mults, rem = factor_cyclotomic(RealPoly(cs))
    for d, m in sorted(mults.items()):
        q = cyclotomic_polynomial(d).coeffs
        if d <= 2:
            groups += orbit_groups("real", (1 if d == 1 else -1,), q, 1, m)
        else:
            groups += orbit_groups("pair", _pair_angles(d), q, totient(d), m)
    cs = rem.coeffs
    if len(cs) == 1:
        return groups
    # what is left resolves when it is lead (x^2 - c x + 1)^m for c = b/a in
    # lowest terms, a > 0: when a^m rem = lead (a x^2 - b x + a)^m
    m, odd = divmod(len(cs) - 1, 2)
    if odd:
        return None
    common = math.gcd(cs[-2], m * lead)
    a, b = m * lead // common, -cs[-2] // common
    q = (a, -b, a)
    power = [lead]
    for _ in range(m):
        power = _mul_coeffs(power, q)
    am = a ** m
    if any(c * am != p for c, p in zip(cs, power)):
        return None
    if abs(b) < 2 * a:
        # Phi_3, Phi_4 and Phi_6 are split off, so b / 2a is no rational
        # cosine of a rational angle (Niven): the angle is irrational
        groups += orbit_groups("pair", (math.acos(b / (2 * a)) / TWO_PI,), q, 2, m)
        return groups
    try:
        lam = cf = b / a
    except OverflowError:
        raise Unclassified("the hyperbolic eigenvalue is past float range") from None
    # from |c| = 10^9 on the root formula gives float(c) bit for bit, and
    # squaring c would overflow from about 10^154
    if abs(b) < 10 ** 9 * a:
        lam = (cf + math.sqrt(cf ** 2 - 4)) / 2.0
        if abs(lam) < 1:
            lam = cf - lam
    groups += orbit_groups("hyper_real", (lam,), q, 2, m)
    return groups


#: float eigenvalues closer than SPLIT_RADIUS may be one eigenvalue split;
#: they are one when M at their midpoint is within SPLIT_ROUNDOFF units of
#: roundoff (times |M|) of singular
SPLIT_RADIUS = 0.1
SPLIT_ROUNDOFF = 32


# a monodromy with overflowing entries makes numpy divide by zero or
# overflow here; the outcome is the same without the RuntimeWarnings, which
# would otherwise precede the CLI's one JSON document on stderr
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _numeric_eigdata(M_f: np.ndarray, tol: float):
    n = M_f.shape[0]
    eig = np.linalg.eigvals(M_f)
    # det M = 1: an eigenvalue 0, or one whose inverse is not finite, shows
    # that the float monodromy overflowed
    if not np.isfinite(1 / eig).all():
        raise Unclassified("the float monodromy overflowed: an eigenvalue has no finite inverse",
                           pattern=[complex(z) for z in eig])
    eig = eig[np.lexsort((eig.imag, eig.real))]
    clusters: list[list[complex]] = []
    for z in eig:
        for cl in clusters:
            if abs(z - cl[0]) <= max(tol, 1e-7):
                cl.append(z)
                break
        else:
            clusters.append([z])
    reps = [(np.mean(cl), len(cl)) for cl in clusters]
    # floats return a Jordan block of size s as s eigenvalues about
    # (u |M|)^(1/s) apart, beyond any clustering tolerance.  Split ones share
    # a component of the pseudospectrum, so M is singular to roundoff at
    # their midpoint; in units of u |M| it measured below 0.5 on every split
    # pair of the size-3 grid and the family members of size <= 8, and above
    # 2900 between the close distinct eigenvalues of random float members.
    pts = [complex(z) for z, _ in reps]
    floor = SPLIT_ROUNDOFF * np.finfo(float).eps * np.linalg.norm(M_f)
    for i, z in enumerate(pts):
        for w in pts[i + 1:]:
            if abs(z - w) < SPLIT_RADIUS and \
                    np.linalg.svd(M_f - (z + w) / 2 * np.eye(n), compute_uv=False)[-1] <= floor:
                raise Unclassified("float eigenvalues too close to tell from a Jordan block",
                                   pattern=(z, w))

    def group_at(kind: str, key, lam: complex, mult: int) -> _EigGroup:
        """The group at lam of multiplicity mult; its Jordan sizes from dim
        ker A^j, A = M - lam E, counted on the singular values of A^j, with
        the powers and their right singular vectors kept."""
        A = M_f - lam * np.eye(n)
        dims, chain, kernels = [], [A], []
        while True:
            _, sv, vh = np.linalg.svd(chain[-1])
            kernels.append(vh)
            # a kernel never outgrows the algebraic multiplicity
            dims.append(min(n - int(np.sum(sv > 1e-8 * max(1.0, sv[0]))), mult))
            if dims[-1] == mult or len(dims) == mult:
                return _EigGroup(kind, key, mult, _block_sizes(dims), None, chain, kernels)
            chain.append(chain[-1] @ A)

    groups: list[_EigGroup] = []
    used = [False] * len(reps)
    for i, (lam, mult) in enumerate(reps):
        if used[i]:
            continue
        used[i] = True
        one = 1 if lam.real > 0 else -1
        if abs(lam - one) <= 1e-7:
            groups.append(group_at("real", one, complex(one), mult))
            continue
        # the partners that close lam's orbit under conjugation and inversion
        if abs(abs(lam) - 1) <= 1e-6:
            kind, partners, what = "pair", [np.conj(lam)], "unpaired complex unit eigenvalue"
        elif abs(lam.imag) <= 1e-7:
            kind, partners, what = ("hyper_real", [1 / lam],
                                    "unpaired real eigenvalue off the circle")
        else:
            kind, partners, what = ("hyper_quad", [np.conj(lam), 1 / lam, 1 / np.conj(lam)],
                                    "unpaired complex eigenvalue off the circle")
        for target in partners:
            near = 1e-6 * max(1, abs(target))
            j = next((j for j, (mu, m2) in enumerate(reps)
                      if not used[j] and m2 == mult and abs(mu - target) <= near), None)
            if j is None:
                raise Unclassified(what, pattern=complex(lam))
            used[j] = True
        if kind == "pair":
            rep = lam if lam.imag < 0 else np.conj(lam)
            key = snap_angle(point_to_angle(complex(rep)))
        elif kind == "hyper_real":
            rep = key = float(lam.real if abs(lam) > 1 else 1 / lam.real)
        else:
            rep = lam if abs(lam) >= 1 else 1 / lam
            rep = key = complex(rep if rep.imag >= 0 else np.conj(rep))
        groups.append(group_at(kind, key, complex(rep), mult))
    return groups


def _canonical_zeta_sqrt(theta, n_b: int):
    """Angle z with exp(-2 pi i z)^2 = conj(lam) * (-1)^(n_b+1) where
    lam = exp(-2 pi i theta): z = -theta/2 - (n_b + 1)/4 mod 1, bit for bit."""
    return mod1(-(2 * theta + (n_b + 1)) / 4)


def _form_is_symmetric(g: _EigGroup, s: int) -> bool:
    """Whether the primitive form of the size-s blocks of g is symmetric
    (Hermitian at a pair); at +-1 it is antisymmetric when s is odd at -1
    or even at +1."""
    return g.kind == "pair" or (s % 2 == 1) == (g.lam == 1)


def _has_exact_signs(g: _EigGroup) -> bool:
    """Whether ``_exact_form_signs`` reads the signs of an exact group: at
    +-1 always, at a conjugate pair when its orbit polynomial is a
    quadratic (so the pair is the whole orbit) and its blocks all have
    size 1.  Off-circle groups carry no signs."""
    return g.kind != "pair" or (len(g.q) == 3 and max(g.sizes) == 1)


def _exact_form_signs(g: _EigGroup, G: list) -> dict:
    """{s: (p, m)}, the signs of the symmetric primitive forms of an exact
    group that ``_has_exact_signs``, from its kernels and chain and the
    integer rows of G, a positive multiple of the Gram matrix.  It computes
    no kernel and multiplies no matrices.

    For each symmetric size s, V is the basis of ker q(M)^s that sized the
    blocks (``g.kernels[s-1]``), W = q(M)^(s-1) V (from ``g.chain[s-2]``)
    and F = V^t G W.  The basis vectors are positive integer multiples of
    rational ones, and the chain holds positive multiples of the powers,
    so F is a positive multiple of the rational form congruenced by a
    positive diagonal: its symmetry, rank and signature are the rational
    form's.

    At +-1, q(M) = lam K with K = lam M - 1, so F is lam^(s-1) times the
    primitive form L(x, K^(s-1) y) on ker K^s.  At +1 its signs are the
    eps of the blocks.  At -1 the symmetric forms have even s, so F is the
    negated form and p and m trade places.

    At a conjugate pair with a quadratic orbit polynomial q, s = 1 and
    ker q(M) is the L-orthogonal summand of its c F2complex types, so the
    signature of F + F^t on it is the sum of their type_signature,
    (0, 0, 2) for eps = +1 and (2, 0, 0) for eps = -1: p and m trade
    places and halve."""
    pair = g.kind == "pair"
    per = 2 if pair else 1
    signs = {}
    for s in sorted(set(g.sizes)):
        if not _form_is_symmetric(g, s):
            continue
        V = g.kernels[s - 1]
        W = V if s == 1 else [[sum(map(operator.mul, row, v)) for row in g.chain[s - 2]] for v in V]
        GW = [[sum(map(operator.mul, row, w)) for row in G] for w in W]
        F = [[sum(map(operator.mul, v, gw)) for gw in GW] for v in V]
        if pair:
            F = [[x + y for x, y in zip(row, col)] for row, col in zip(F, zip(*F))]
        elif any(F[i][j] != F[j][i] for i in range(len(F)) for j in range(i)):
            raise VerificationFailed(f"primitive form at {g.lam}, size {s} is not symmetric")
        p, z, m = mx._signature_rows(F)
        c = g.sizes.count(s)
        if p % per or m % per or p + m != per * c:
            raise VerificationFailed(
                f"Sym on the pair at {g.lam} has signature ({p}, {z}, {m}), not that of {c} "
                "F2complex types" if pair else
                f"primitive form at {g.lam}, size {s} has rank {p + m}, not {c}")
        # F is the primitive form at +1, and its negative at -1 and at a pair
        signs[s] = (p, m) if g.lam == 1 and not pair else (m // per, p // per)
    return signs


def _numeric_form_signs(g: _EigGroup, M: np.ndarray, G: np.ndarray) -> dict:
    """{s: (p, m)}, the signs of the symmetric (Hermitian) primitive forms of
    an on-circle group, from the float monodromy M and Gram matrix G.

    For A = M - lam E, ker A^s is taken as the d = dim ker A^s smallest
    right singular vectors V of A^s, d coming from the block sizes, and
    W = A^(s-1) V.  A float group reads both from the powers and singular
    vectors that sized its blocks, and computes no SVD and no power; an
    exact group builds the float powers of A at its own angle and runs one
    SVD per symmetric size.  K = A / lam at a pair and lam A at +-1, so the
    primitive form L(x, K^(s-1) y) on ker K^s is lam^(s-1) V^t G conj(W);
    its signs are the c eigenvalues of largest modulus."""
    n = M.shape[0]
    pair = g.kind == "pair"
    lam = angle_to_point(g.lam) if pair else g.lam
    chain, kernels = g.chain, g.kernels
    if g.q is not None:
        chain, kernels = [M - lam * np.eye(n)], None
        while len(chain) < max(g.sizes):
            chain.append(chain[-1] @ chain[0])
    signs = {}
    for s in sorted(set(g.sizes)):
        if not _form_is_symmetric(g, s):
            continue
        c = g.sizes.count(s)
        d = sum(min(t, s) for t in g.sizes)
        V = (kernels[s - 1] if kernels else np.linalg.svd(chain[s - 1])[2])[n - d:].conj().T
        W = V if s == 1 else chain[s - 2] @ V
        F = lam ** (s - 1) * (V.T @ G @ W.conj())
        if pair:
            F = F / angle_to_point(_canonical_zeta_sqrt(g.lam, s))
        H = (F + F.conj().T) / 2
        if np.abs(F - H).max() > 1e-6 * np.abs(H).max():
            raise Unclassified("primitive form is not Hermitian", pattern=(g.lam, g.sizes))
        w = np.linalg.eigvalsh(H)
        p = int(np.sum(w[np.argsort(np.abs(w))[d - c:]] > 0))
        signs[s] = (p, c - p)
    return signs


def _primitive_types(g: _EigGroup, signs: dict) -> list[IrrType]:
    """Irreducible types of one on-circle eigenvalue group, read off its
    primitive forms (Milnor 1969, Nemethi 1995).

    Let K = lam M - 1 at lam = +-1 and K = M/lam - 1 at a conjugate pair.
    For a block size s with c blocks, F(x, y) = L(x, K^{s-1} y) on ker K^s
    (at a pair L(x, conj(K^{s-1} y)) / zeta0) has radical
    ker K^{s-1} + K ker K^{s+1} and rank c.  When F is antisymmetric
    (``_form_is_symmetric``) the blocks pair into F2real; otherwise
    ``signs[s]`` holds its p positive and m negative signs, the eps (or
    zeta0 versus zeta0 + 1/2) of the blocks.  ``_exact_form_signs``
    computes them exactly for the groups that ``_has_exact_signs`` (every
    group at +-1, and a conjugate pair with a rational quadratic orbit
    polynomial and blocks of size 1), from the kernels and powers of q(M)
    the group keeps, where q(M) = lam K at +-1; ``_numeric_form_signs``
    computes them in floats for the rest, a float group's from the powers
    of A = M - lam E and their singular vectors that it keeps, where
    K = A / lam at a pair and lam A at +-1.
    """
    pair = g.kind == "pair"
    lam_angle = None if pair else _ZERO if g.lam == 1 else _HALF
    out: list[IrrType] = []
    for s in sorted(set(g.sizes)):
        c = g.sizes.count(s)
        if not _form_is_symmetric(g, s):
            if c % 2:
                raise VerificationFailed(f"{c} Jordan blocks of size {s} at {g.lam} "
                                         "cannot pair into two-block types")
            out.extend([IrrType("F2real", lam_angle, s)] * (c // 2))
            continue
        p, m = signs[s]
        z0 = _canonical_zeta_sqrt(g.lam, s) if pair else None
        # the blocks of one sign share one type
        for eps, k, shift in ((1, p, 0), (-1, m, _HALF if is_exact(g.lam) else 0.5)):
            if k:
                t = (IrrType("F2complex", g.lam, s, zeta=mod1(z0 + shift)).normalized()
                     if pair else IrrType("F1", lam_angle, s, eps=eps))
                out += [t] * k
    return out


def classify(P: SeifertPair, tol: float = 1e-8) -> list[IrrType]:
    """Irreducible type multiset of a pair.

    Off-circle eigenvalues give descriptors without sign data.  Each
    on-circle eigenvalue, with any Jordan pattern, is classified by its
    primitive forms (``_primitive_types``).  On exact input whose
    characteristic polynomial resolves exactly (cyclotomic factors times a
    power of one rational quadratic), the signs are exact at +-1 and at
    every conjugate pair whose orbit polynomial is quadratic and whose
    blocks have size 1; they are read in floats at a pair with a block of
    size > 1 or in an orbit of phi(d) > 2 roots of unity, and everywhere
    when the input is float or its characteristic polynomial does not
    resolve.  Unclassified remains for float eigen-data that does not pair
    up: an unpaired unit eigenvalue, an off-circle cluster without its
    inverse partners, eigenvalues too close to tell from a Jordan block that
    floats split, or a primitive form that is not numerically Hermitian;
    and for an exact value past float range that a float must hold (a Gram
    entry on the float path, a hyperbolic eigenvalue).

    Exact or float was decided when the pair was built: the exact
    eigen-data run on the integer rows ``P.B`` and ``P.den`` with the
    matrix layer's integer cores, eliminate each power of q(M) once and
    keep the powers and their kernel bases; the exact primitive forms read
    those and ``P.G_int``, and eliminate or multiply no further matrices.
    The float monodromy (``mx.monodromy_matrix``) is computed only when
    some group takes the float path; if it overflowed (an entry or an
    inverse eigenvalue not finite), Unclassified is raised before any SVD
    runs.  The float eigen-data likewise keep each group's powers of
    M - lam E and their singular vectors, one SVD per power, and the float
    primitive forms of a float group read those and run no further SVD.
    """
    groups = None if P.B is None else _exact_eigdata(P.B, P.den)
    exact = groups is not None
    if not exact or not all(map(_has_exact_signs, groups)):
        try:
            Gf = np.asarray(P.G, dtype=float)
        except OverflowError:
            raise Unclassified("a Gram matrix entry is past float range") from None
        M_f = mx.monodromy_matrix(Gf.T)
        if not np.isfinite(M_f).all():
            raise Unclassified("the float monodromy is not finite")
    if groups is None:
        groups = _numeric_eigdata(M_f, tol)

    out: list[IrrType] = []
    for g in groups:
        if g.kind in ("real", "pair"):
            signs = (_exact_form_signs(g, P.G_int) if exact and _has_exact_signs(g)
                     else _numeric_form_signs(g, M_f, Gf))
            out.extend(_primitive_types(g, signs))
        elif g.kind == "hyper_real":
            for s in g.sizes:
                out.append(IrrType("F2hyper", float(g.lam), s))
        else:
            for s in g.sizes:
                out.append(IrrType("F4hyper", complex(g.lam), s))
    total = sum(t.dim for t in out)
    if total != P.n:
        raise Unclassified(f"classified dimensions sum to {total}, not {P.n}",
                           pattern=[t.label() for t in out])
    return sorted(out, key=IrrType.sort_key)


def iso_equal(P1: SeifertPair, P2: SeifertPair, tol: float = 1e-8) -> bool:
    """Isomorphy of two pairs, decided through the classification."""
    return types_multiset_equal(classify(P1, tol), classify(P2, tol))


# ---------------------------------------------------------------------------
# signature table of the symmetric form per irreducible type
# ---------------------------------------------------------------------------

def type_signature(t: IrrType):
    """Signature (s+, s0, s-) of the symmetric form on one irreducible
    summand (table lookup)."""
    n = t.n
    if t.family == "F1":
        if t.lam == 0:
            if n % 4 == t.eps % 4:
                return ((n + 1) // 2, 0, (n - 1) // 2)
            return ((n - 1) // 2, 0, (n + 1) // 2)
        if (n - 1) % 4 == t.eps % 4:
            return (n // 2, 1, (n - 2) // 2)
        return ((n - 2) // 2, 1, n // 2)
    if t.family == "F2real":
        if t.lam == 0:
            return (n, 0, n)
        return (n - 1, 2, n - 1)
    if t.family == "F2complex":
        if n % 2 == 0:
            return (n, 0, n)
        # IrrType holds zeta at zc (eps = 1) or zc + 1/2 (eps = -1) mod 1,
        # and so does its conjugate
        zc = _canonical_zeta_sqrt(t.lam, n)
        exact = is_exact(t.lam) and is_exact(t.zeta)
        eps = 1 if ((t.zeta - zc) % 1 == 0 if exact else circle_dist(t.zeta, zc) < 0.25) else -1
        return (n - eps, 0, n + eps)
    if t.family == "F2hyper":
        return (n, 0, n)
    if t.family == "F4hyper":
        return (2 * n, 0, 2 * n)
    raise ValueError(f"unknown family {t.family}")
