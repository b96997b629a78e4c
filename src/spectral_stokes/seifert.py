"""Pairs (real vector space, nondegenerate bilinear form): monodromy,
classification into irreducible types, enhancements, semiorthogonal data.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import matrices as mx
from .errors import (DegenerateFlag, NotLadderComposed, Singular, Unclassified,
                     VerificationFailed)
from .polycore import (CIRCLE_TOL, RealPoly, _common_numerators, angle_eq, angle_to_point,
                       beta_from_cos, circle_dist, cyclotomic_angles, cyclotomic_polynomial,
                       cyclotomic_power, factor_cyclotomic, format_number, is_exact, mod1,
                       num_eq, parse_rational, point_to_angle, snap_angle, _tidy)
from .spectra import Spp, decompose_into_ladders


# ---------------------------------------------------------------------------
# irreducible types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrType:
    """Descriptor of one irreducible summand.

    ``lam`` is an angle for the on-circle families and the actual
    (real or complex) eigenvalue of modulus > 1 for the hyperbolic ones.
    ``eps`` is set for F1, ``zeta`` (an angle) for F2complex.
    """

    family: str
    lam: object
    n: int
    eps: int | None = None
    zeta: object | None = None

    def __post_init__(self):
        if self.family in ("F1", "F2real"):
            on_one = angle_eq(self.lam, 0)
            if not (on_one or angle_eq(self.lam, Fraction(1, 2))):
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
            # zeta^2 = conj(lam) * (-1)^(n+1), in angle form
            want = mod1(-self.lam + Fraction(self.n + 1, 2))
            got = mod1(2 * self.zeta)
            if circle_dist(got, want) > 1e-7:
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
        if float(a) <= 0.5:
            return self
        return IrrType(self.family, mod1(-a), self.n, zeta=mod1(-self.zeta))

    def sort_key(self):
        lam = self.lam
        if self.family in ("F2hyper", "F4hyper"):
            lamk = (abs(complex(lam)), complex(lam).real, complex(lam).imag)
        else:
            lamk = (float(mod1(lam)), 0.0, 0.0)
        zk = float(mod1(self.zeta)) if self.zeta is not None else -1.0
        return (self.family, self.n, lamk, self.eps or 0, zk)

    def matches(self, other: "IrrType", tol: float = CIRCLE_TOL) -> bool:
        if (self.family, self.n, self.eps) != (other.family, other.n, other.eps):
            return False
        if self.family in ("F2hyper", "F4hyper"):
            return abs(complex(self.lam) - complex(other.lam)) <= 1e-6 * max(1.0, abs(complex(self.lam)))
        if circle_dist(self.lam, other.lam) > tol:
            return False
        if (self.zeta is None) != (other.zeta is None):
            return False
        if self.zeta is not None and circle_dist(self.zeta, other.zeta) > tol:
            return False
        return True

    def label(self) -> str:
        def ang(a):
            if angle_eq(a, 0):
                return "1"
            if angle_eq(a, Fraction(1, 2)):
                return "-1"
            return f"e(-2pi i {format_number(a, 6)})"
        if self.family == "F1":
            return f"Seif({ang(self.lam)},1,{self.n},{self.eps})"
        if self.family == "F2real":
            return f"Seif({ang(self.lam)},2,{self.n})"
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

    @classmethod
    def from_json(cls, data) -> "IrrType":
        lam = data["lambda"]
        lam = complex(lam[0], lam[1]) if isinstance(lam, list) else parse_rational(lam)
        zeta = parse_rational(data["zeta"]) if "zeta" in data else None
        return cls(data["family"], lam, int(data["n"]),
                   eps=data.get("eps"), zeta=zeta)


def types_multiset_equal(ts1, ts2, tol: float = CIRCLE_TOL) -> bool:
    if len(ts1) != len(ts2):
        return False
    rem = sorted(ts2, key=IrrType.sort_key)
    for t in sorted(ts1, key=IrrType.sort_key):
        hit = next((i for i, u in enumerate(rem) if t.matches(u, tol)), None)
        if hit is None:
            return False
        rem.pop(hit)
    return True


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
    exp(pi*i*d/2), times (-1)^l in the signed convention.
    """
    d = 2 * alpha + l + 1 - m
    lam_angle = mod1(alpha + Fraction(m + 1, 2))
    n_b = l + 1
    if num_eq(d, round(d)):
        d_int = round(d)
        # the eigenvalue is +-1: its angle is exactly 0 or 1/2
        lam_angle = Fraction(0) if angle_eq(lam_angle, 0) else Fraction(1, 2)
        if d_int % 2 == 0:
            eps = (-1) ** ((d_int // 2) % 2)
            if signed and l % 2 == 1:
                eps = -eps
            return IrrType("F1", lam_angle, n_b, eps=eps)
        return IrrType("F2real", lam_angle, n_b)
    zeta_angle = mod1(-d * Fraction(1, 4))
    if signed and l % 2 == 1:
        zeta_angle = mod1(zeta_angle + Fraction(1, 2))
    return IrrType("F2complex", lam_angle, n_b, zeta=zeta_angle).normalized()


def class_from_spp(spp: Spp, m: int, signed: bool = False) -> list[IrrType]:
    """Irreducible type multiset determined by a ladder-composed pair
    multiset with center m under the (signed) polarized convention.

    Partner pairs with integer distance produce real-eigenvalue types
    (two F1 copies for even distance, one two-block type for odd); pairs
    with non-integer distance produce one conjugate-pair type; single
    ladders produce one F1 each.
    """
    assignments = decompose_into_ladders(spp, m)
    out: list[IrrType] = []
    seen = set()
    for i, asg in enumerate(assignments):
        if i in seen:
            continue
        lad = asg.ladder
        if asg.is_single:
            out.append(irr_type_from_ladder(lad.alpha, m, lad.l, signed))
            continue
        if asg.partner_index is None:
            raise NotLadderComposed(
                f"ladder {lad} has no partner in the multiset", witness=lad)
        seen.add(asg.partner_index)
        t = irr_type_from_ladder(lad.alpha, m, lad.l, signed)
        if t.family == "F1":
            out.extend([t, t])
        else:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# pairs and monodromy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertPair:
    """Gram matrix G of a nondegenerate form, L(a, b) = a^t G b."""

    G: np.ndarray

    def __post_init__(self):
        if self.G.shape[0] != self.G.shape[1]:
            raise ValueError("Gram matrix must be square")
        if mx.is_exact_matrix(self.G):
            if mx.rank_exact(self.G) != self.n:
                raise Singular("Gram matrix is singular")
        else:
            if abs(np.linalg.det(np.asarray(self.G, dtype=float))) < 1e-12:
                raise Singular("Gram matrix is numerically singular")

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def is_exact(self) -> bool:
        return mx.is_exact_matrix(self.G)

    @classmethod
    def from_triangular(cls, S: np.ndarray) -> "SeifertPair":
        return cls(S.T.copy())


def monodromy_and_forms(P: SeifertPair):
    """(M, symmetric Gram, antisymmetric Gram) of a pair.

    M = G^{-t} G satisfies L(Ma, b) = L(b, a); the symmetric form has
    Gram G + G^t, the antisymmetric one G^t - G.  The radical of the
    symmetric form is ker(M + 1), that of the antisymmetric one
    ker(M - 1); both are verified.
    """
    G = P.G
    n = P.n
    if P.is_exact:
        M = mx.solve_exact(G.T.copy(), G)
        Is = G + G.T
        Ia = G.T - G
        if not mx.mat_eq(M.T.copy().dot(G).dot(M), G):
            raise VerificationFailed("monodromy must preserve the form")
        if mx.rank_exact(Is) != mx.rank_exact(M + mx.identity(n)):
            raise VerificationFailed("radical of the symmetric form must be ker(M + 1)")
        if mx.rank_exact(Ia) != mx.rank_exact(M - mx.identity(n)):
            raise VerificationFailed("radical of the antisymmetric form must be ker(M - 1)")
    else:
        Gf = np.asarray(G, dtype=float)
        M = np.linalg.solve(Gf.T, Gf)
        Is = Gf + Gf.T
        Ia = Gf.T - Gf
    return M, Is, Ia


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _numeric_rank(A: np.ndarray, tol: float) -> int:
    sv = np.linalg.svd(A, compute_uv=False)
    if len(sv) == 0:
        return 0
    return int(np.sum(sv > tol * max(1.0, sv[0])))


def _block_sizes(kernel_dims: list[int]) -> list[int]:
    """Jordan block sizes from dim ker N^j, j = 1..; standard staircase."""
    sizes = []
    prev = 0
    counts = []
    for d in kernel_dims:
        counts.append(d - prev)
        prev = d
    # counts[j] = number of blocks of size > j
    for j, c in enumerate(counts):
        for _ in range(c - (counts[j + 1] if j + 1 < len(counts) else 0)):
            sizes.append(j + 1)
    return sorted(sizes, reverse=True)


def _poly_of_matrix(p: RealPoly, B: list, d: int) -> list:
    """The integer rows L d^deg p(B/d), a positive multiple of p(B/d), for
    integer rows B, d > 0 and L the common denominator of p, by Horner."""
    cs, _ = _common_numerators(p.coeffs)
    n = len(B)
    out = [[cs[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1
    for c in reversed(cs[:-1]):
        scale *= d
        out = mx._matmul_rows(out, B)
        for i in range(n):
            out[i][i] += c * scale
    return out


@dataclass
class _EigGroup:
    kind: str          # 'real' | 'pair' | 'hyper_real' | 'hyper_quad'
    lam: object        # +-1 (int) | angle | float (real, |.|>1) | complex
    mult: int          # per-eigenvalue algebraic multiplicity
    sizes: list        # Jordan block sizes per eigenvalue


def _exact_eigdata(B: list, den: int):
    """Eigenvalue groups of the exact monodromy B/den (its integer rows), or
    None when the characteristic polynomial cannot be resolved exactly.

    The roots are read off the integer polynomial
    den^n det(x - B/den) = sum_k C_k den^k x^k, C_k the coefficients of
    det(x - B): dividing it by the monic Phi_d keeps integers, and every
    cofactor keeps the leading coefficient den^n."""
    n = len(B)
    lead = den ** n
    rem = RealPoly([c * den ** k for k, c in enumerate(mx._char_poly_rows(B))])
    groups: list[_EigGroup] = []

    def kernel_dims(q: RealPoly, per: int, mult: int):
        dims = []
        qm = _poly_of_matrix(q, B, den)
        power = qm
        j = 0
        while True:
            j += 1
            total = n - mx._rank_rows(power, n)
            if total % per:
                raise VerificationFailed("kernel must split evenly over the orbit")
            dims.append(total // per)
            if dims[-1] >= mult or j >= mult:
                break
            power = mx._matmul_rows(power, qm)
        return dims

    for lam, d in ((1, 1), (-1, 2)):
        mult, rem = cyclotomic_power(rem, d)
        if mult:
            dims = kernel_dims(cyclotomic_polynomial(d), 1, mult)
            groups.append(_EigGroup("real", lam, mult, _block_sizes(dims)))
    if rem.degree == 0:
        return groups
    if all(c % lead == 0 for c in rem.coeffs):
        # the cofactor of the characteristic polynomial is an integer polynomial
        mults, tail = factor_cyclotomic(RealPoly([c // lead for c in rem.coeffs]))
        if tail.degree not in (0, 2):
            return None
        for d, m in sorted(mults.items()):
            phi = cyclotomic_angles(d)
            dims = kernel_dims(cyclotomic_polynomial(d), len(phi), m)
            sizes = _block_sizes(dims)
            for b in phi:
                if float(b) < 0.5:
                    groups.append(_EigGroup("pair", b, m, sizes))
        if tail.degree == 0:
            return groups
        rem, lead = tail, 1
    if rem.degree == 2:
        c2, c1, c0 = rem.coeffs[2], rem.coeffs[1], rem.coeffs[0]
        if c2 == lead and c0 == lead:
            c = _tidy(Fraction(-c1, lead))
            q = RealPoly([1, -c, 1])
            if abs(float(c)) < 2:
                theta = beta_from_cos(c * Fraction(1, 2))
                dims = kernel_dims(q, 2, 1)
                groups.append(_EigGroup("pair", theta, 1, _block_sizes(dims)))
                return groups
            lam = (float(c) + math.sqrt(float(c) ** 2 - 4)) / 2.0
            if abs(lam) < 1:
                lam = float(c) - lam
            dims = kernel_dims(q, 2, 1)
            groups.append(_EigGroup("hyper_real", lam, 1, _block_sizes(dims)))
            return groups
    return None


# a monodromy with overflowing entries makes numpy divide by zero here; the
# outcome is the same without the RuntimeWarnings, which would otherwise
# precede the CLI's one JSON document on stderr
@np.errstate(divide="ignore", invalid="ignore")
def _numeric_eigdata(M_f: np.ndarray, tol: float):
    n = M_f.shape[0]
    eig = np.linalg.eigvals(M_f)
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

    def kdims(lam, mult):
        dims = []
        A = M_f.astype(complex) - lam * np.eye(n)
        power = np.eye(n, dtype=complex)
        for j in range(1, mult + 1):
            power = power @ A
            # a kernel never outgrows the algebraic multiplicity
            dims.append(min(n - _numeric_rank(power, 1e-8), mult))
            if dims[-1] == mult:
                break
        return dims

    groups: list[_EigGroup] = []
    used = [False] * len(reps)
    for i, (lam, mult) in enumerate(reps):
        if used[i]:
            continue
        used[i] = True
        if abs(lam - 1) <= 1e-7:
            groups.append(_EigGroup("real", 1, mult, _block_sizes(kdims(1.0, mult))))
            continue
        if abs(lam + 1) <= 1e-7:
            groups.append(_EigGroup("real", -1, mult, _block_sizes(kdims(-1.0, mult))))
            continue
        # find the conjugate cluster
        conj_idx = next((j for j, (mu, m2) in enumerate(reps)
                         if not used[j] and m2 == mult and abs(mu - np.conj(lam)) <= 1e-6), None)
        if abs(abs(lam) - 1) <= 1e-6:
            if conj_idx is None:
                raise Unclassified("unpaired complex unit eigenvalue", pattern=complex(lam))
            used[conj_idx] = True
            rep = lam if lam.imag < 0 else np.conj(lam)
            theta = point_to_angle(complex(rep))
            groups.append(_EigGroup("pair", snap_angle(theta), mult,
                                    _block_sizes(kdims(complex(rep), mult))))
            continue
        if abs(lam.imag) <= 1e-7:
            # real hyperbolic: pair with 1/lam
            inv_idx = next((j for j, (mu, m2) in enumerate(reps)
                            if not used[j] and m2 == mult and abs(mu - 1 / lam) <= 1e-6 * max(1, abs(1 / lam))), None)
            if inv_idx is None:
                raise Unclassified("unpaired real eigenvalue off the circle", pattern=complex(lam))
            used[inv_idx] = True
            rep = lam.real if abs(lam) > 1 else 1 / lam.real
            groups.append(_EigGroup("hyper_real", float(rep), mult,
                                    _block_sizes(kdims(complex(rep), mult))))
            continue
        # complex off circle: quadruple (lam, conj, 1/lam, 1/conj)
        quad = [np.conj(lam), 1 / lam, 1 / np.conj(lam)]
        idxs = []
        for target in quad:
            jj = next((j for j, (mu, m2) in enumerate(reps)
                       if not used[j] and j not in idxs and m2 == mult
                       and abs(mu - target) <= 1e-6 * max(1, abs(target))), None)
            if jj is None:
                raise Unclassified("unpaired complex eigenvalue off the circle",
                                   pattern=complex(lam))
            idxs.append(jj)
        for jj in idxs:
            used[jj] = True
        rep = lam
        if abs(rep) < 1:
            rep = 1 / rep
        if rep.imag < 0:
            rep = np.conj(rep)
        groups.append(_EigGroup("hyper_quad", complex(rep), mult,
                                _block_sizes(kdims(complex(rep), mult))))
    return groups


def _canonical_zeta_sqrt(theta, n_b: int):
    """Angle z with exp(-2 pi i z)^2 = conj(lam) * (-1)^(n_b+1) where
    lam = exp(-2 pi i theta): z = -theta/2 - (n_b + 1)/4 mod 1."""
    return mod1(-theta * Fraction(1, 2) - Fraction(n_b + 1, 4))


def _form_is_symmetric(g: _EigGroup, s: int) -> bool:
    """Whether the primitive form of the size-s blocks of g is symmetric
    (Hermitian at a pair); at +-1 it is antisymmetric when s is odd at -1
    or even at +1."""
    return g.kind == "pair" or (s % 2 == 1) == (g.lam == 1)


def _exact_form_signs(g: _EigGroup, B: list, den: int, G: list) -> dict:
    """{s: (p, m)}, the signs of the symmetric primitive forms of a group at
    +-1, from the integer rows of the monodromy B/den and of G, a positive
    multiple of the Gram matrix.

    K = lam B - den E, the basis vectors of ker K^s and so F are positive
    integer multiples of their rational counterparts, which scales F and
    congruences it by a positive diagonal, keeping its symmetry, rank and
    signature."""
    n = len(B)
    K = [[g.lam * x - (den if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(B)]
    powers = [K]                                  # powers[e - 1] = K^e
    signs = {}
    for s in sorted(set(g.sizes)):
        if not _form_is_symmetric(g, s):
            continue
        while len(powers) < s:
            powers.append(mx._matmul_rows(powers[-1], K))
        # F[i][j] = v_i^t G w_j over kernel vectors v_i of K^s, w_j = K^(s-1) v_j
        V = [v for _, v in mx._nullspace_rows(powers[s - 1], n)]
        W = V if s == 1 else [[sum(map(operator.mul, row, v)) for row in powers[s - 2]] for v in V]
        GW = [[sum(map(operator.mul, row, w)) for row in G] for w in W]
        F = [[sum(map(operator.mul, v, gw)) for gw in GW] for v in V]
        if any(F[i][j] != F[j][i] for i in range(len(F)) for j in range(i)):
            raise VerificationFailed(f"primitive form at {g.lam}, size {s} is not symmetric")
        p, _, m = mx._signature_rows(F)
        c = g.sizes.count(s)
        if p + m != c:
            raise VerificationFailed(f"primitive form at {g.lam}, size {s} has rank "
                                     f"{p + m}, not {c}")
        signs[s] = (p, m)
    return signs


def _numeric_form_signs(g: _EigGroup, M: np.ndarray, G: np.ndarray) -> dict:
    """{s: (p, m)}, the signs of the symmetric (Hermitian) primitive forms of
    an on-circle group, from the float monodromy M and Gram matrix G.

    ker K^s is taken as the dim ker K^s smallest right singular vectors of
    K^s, the dimension coming from the block sizes, and the signs from the
    c eigenvalues of largest modulus."""
    n = M.shape[0]
    pair = g.kind == "pair"
    K = M / angle_to_point(g.lam) - np.eye(n) if pair else g.lam * M - np.eye(n)
    powers = [mx.identity(n, False), K]      # powers[e] = K^e
    signs = {}
    for s in sorted(set(g.sizes)):
        if not _form_is_symmetric(g, s):
            continue
        c = g.sizes.count(s)
        while len(powers) <= s:
            powers.append(powers[-1].dot(K))
        d = sum(min(t, s) for t in g.sizes)
        B = np.linalg.svd(powers[s])[2][n - d:].conj().T
        F = B.T @ G @ np.conj(powers[s - 1] @ B)
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
    zeta0 versus zeta0 + 1/2) of the blocks.  ``_exact_form_signs`` and
    ``_numeric_form_signs`` compute them.
    """
    pair = g.kind == "pair"
    lam_angle = None if pair else Fraction(0) if g.lam == 1 else Fraction(1, 2)
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
        for eps in [1] * p + [-1] * m:
            out.append(IrrType("F2complex", g.lam, s, zeta=mod1(z0 + Fraction(1 - eps, 4))).normalized()
                       if pair else IrrType("F1", lam_angle, s, eps=eps))
    return out


def _float_monodromy(G: np.ndarray):
    """(float Gram matrix, float monodromy) of a Gram matrix."""
    Gf = np.asarray(G, dtype=float)
    return Gf, np.linalg.solve(Gf.T, Gf)


def classify(P: SeifertPair, tol: float = 1e-8) -> list[IrrType]:
    """Irreducible type multiset of a pair.

    Off-circle eigenvalues give descriptors without sign data.  Each
    on-circle eigenvalue, with any Jordan pattern, is classified by its
    primitive forms (``_primitive_types``): exactly at +-1 when the input
    is exact and its characteristic polynomial resolves exactly, in floats
    otherwise and at conjugate pairs.  Unclassified remains for float
    eigen-data that does not pair up: an unpaired unit eigenvalue, an
    off-circle cluster without its inverse partners, or a primitive form
    that is not numerically Hermitian; exact input reaches it when a
    non-cyclotomic remainder of degree > 2 sends it to the float path.

    Exact or float is decided here, once.  Exact input clears the
    denominators of its Gram matrix once (``mx.int_form``); the monodromy
    comes from the solve core as integer rows over one denominator, and
    the exact eigen-data and primitive forms run on those rows with the
    matrix layer's integer cores.  The float monodromy is computed only
    when a group takes the float path.
    """
    G = P.G
    groups = Gf = M_f = None
    if P.is_exact:
        G_int = mx.int_form(G)[0].tolist()
        B, den = mx._solve_rows([list(col) for col in zip(*G_int)], G_int)
        groups = _exact_eigdata(B, den)
    exact_real = groups is not None
    if groups is None:
        Gf, M_f = _float_monodromy(G)
        groups = _numeric_eigdata(M_f, tol)

    out: list[IrrType] = []
    for g in groups:
        if g.kind == "real" and exact_real:
            out.extend(_primitive_types(g, _exact_form_signs(g, B, den, G_int)))
        elif g.kind in ("real", "pair"):
            if M_f is None:
                Gf, M_f = _float_monodromy(G)
            out.extend(_primitive_types(g, _numeric_form_signs(g, M_f, Gf)))
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
        if angle_eq(t.lam, 0):
            if n % 4 == t.eps % 4:
                return ((n + 1) // 2, 0, (n - 1) // 2)
            return ((n - 1) // 2, 0, (n + 1) // 2)
        if (n - 1) % 4 == t.eps % 4:
            return (n // 2, 1, (n - 2) // 2)
        return ((n - 2) // 2, 1, n // 2)
    if t.family == "F2real":
        if angle_eq(t.lam, 0):
            return (n, 0, n)
        return (n - 1, 2, n - 1)
    if t.family == "F2complex":
        if n % 2 == 0:
            return (n, 0, n)
        t = t.normalized()
        zc = _canonical_zeta_sqrt(t.lam, n)
        if angle_eq(t.zeta, zc, tol=1e-7):
            return (n - 1, 0, n + 1)
        if angle_eq(t.zeta, mod1(zc + Fraction(1, 2)), tol=1e-7):
            return (n + 1, 0, n - 1)
        raise ValueError(f"zeta {t.zeta} is not an admissible invariant for {t.label()}")
    if t.family == "F2hyper":
        return (n, 0, n)
    if t.family == "F4hyper":
        return (2 * n, 0, 2 * n)
    raise ValueError(f"unknown family {t.family}")


# ---------------------------------------------------------------------------
# enhancements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enhancement:
    """A decomposition into blocks, each carrying one irreducible type and
    one ladder.  For pair types (non-single ladders) the stored ladder is
    either representative of the partner pair; the block covers both."""

    m: int
    blocks: tuple  # of (IrrType, SppLadder)


def check_enhancement(P: SeifertPair, E: Enhancement, signed: bool = False) -> bool:
    """True iff every block's sign data matches the (signed) polarized
    phase formula for its ladder."""
    dims = 0
    for typ, lad in E.blocks:
        want = irr_type_from_ladder(lad.alpha, E.m, lad.l, signed)
        if want.family != typ.family or want.n != typ.n:
            return False
        if not want.matches(typ, 1e-7):
            return False
        dims += typ.dim if not (typ.family == "F1" and not lad.is_single) else 2 * typ.dim
    if dims != P.n:
        raise ValueError(f"enhancement blocks have dimension {dims}, not {P.n}")
    return True


def enhancement_from_hor(M_hor) -> Enhancement:
    """Enhancement carried by a banded family member: one block per
    eigenvalue pair of the attached companion matrix."""
    from .hor import hor_enhancement
    entries = hor_enhancement(M_hor)
    blocks = []
    seen_pairs = set()
    for kappa_angle, lad, typ, _ in entries:
        key = round(min(float(mod1(kappa_angle)), float(mod1(-kappa_angle))), 9)
        if not lad.is_single:
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
        blocks.append((typ, lad))
    return Enhancement(1, tuple(blocks))


# ---------------------------------------------------------------------------
# semiorthogonal data (basis / splitting / flag)
# ---------------------------------------------------------------------------

@dataclass
class SemiorthogonalData:
    eps: tuple                 # signs of L on the one-dimensional pieces
    splitting: list            # one vector per piece (exact or float)
    flag: list                 # flag bases, flag[j] spans U_{j+1}
    triangular: np.ndarray | None   # the Gram in T(n, R) if all eps = +1


def _as_columns(vectors, n, exact):
    return np.array(vectors, dtype=object if exact else float).reshape(len(vectors), n).T


def semiorthogonal(P: SeifertPair, basis_or_flag) -> SemiorthogonalData:
    """Convert between the equivalent data of a semiorthogonal structure.

    Input is either n basis vectors (rows or a list of vectors) or a
    complete flag (list of n nested bases, the j-th with j vectors).
    Output: the sign tuple, the canonical one-dimensional splitting
    H^(j) = U_j cap (right orthogonal of U_{j-1}), the flag, and, when
    every sign is +1, the unit-triangular Gram of the normalised basis.

    Raises DegenerateFlag(j) when U_j + its right orthogonal fail to span,
    or when L vanishes on a piece.
    """
    G = P.G
    n = P.n
    exact = P.is_exact
    items = [list(u) for u in basis_or_flag]
    if items and np.ndim(items[0]) == 1:
        # a basis: n vectors; the flag is spanned by the leading vectors
        flag = [[items[i] for i in range(j + 1)] for j in range(n)]
    else:
        flag = items
    if len(flag) != n or any(len(flag[j]) != j + 1 for j in range(n)):
        raise ValueError("flag must consist of n nested bases of dimensions 1..n")

    def vec(v):
        return [x if exact and is_exact(x) else float(x) for x in v]

    splitting = []
    eps = []
    Gf = np.asarray(G, dtype=float)
    for j in range(1, n + 1):
        Uj = [vec(v) for v in flag[j - 1]]
        rows_prev = [vec(v) for v in flag[j - 2]] if j >= 2 else []
        if exact:
            Umat = _as_columns(Uj, n, True)
            # Eq-style direct sum check: U_j + U_j^{perp R} spans everything
            perp_j = mx.nullspace_exact(Umat.T.dot(G))
            if mx.rank_exact(_as_columns(Uj + perp_j, n, True)) != n:
                raise DegenerateFlag(j)
            if rows_prev:
                # right orthogonal of U_{j-1}: kernel of the L(u, .) rows
                R = np.array(rows_prev, dtype=object).dot(G)
                coeffs = mx.nullspace_exact(R.dot(Umat))
            else:
                coeffs = [[Fraction(1)]]
            if len(coeffs) != 1:
                raise DegenerateFlag(j)
            h = list(Umat.dot(coeffs[0]))
            val = np.dot(h, G.dot(h))
            if val == 0:
                raise DegenerateFlag(j)
            eps.append(1 if val > 0 else -1)
            splitting.append(h)
        else:
            Umat = np.array(Uj, dtype=float).T
            rows_j = np.array(Uj, dtype=float) @ Gf
            perp = scipy.linalg.null_space(rows_j, rcond=1e-10)
            span = np.hstack([Umat, perp]) if perp.size else Umat
            if np.linalg.matrix_rank(span, tol=1e-9) != n:
                raise DegenerateFlag(j)
            if rows_prev:
                A = (np.array(rows_prev, dtype=float) @ Gf) @ Umat
                null = scipy.linalg.null_space(A, rcond=1e-10)
                if null.shape[1] != 1:
                    raise DegenerateFlag(j)
                h = Umat @ null[:, 0]
            else:
                h = Umat[:, 0]
            val = float(h @ Gf @ h)
            if abs(val) < 1e-12:
                raise DegenerateFlag(j)
            eps.append(1 if val > 0 else -1)
            splitting.append(list(h))

    triangular = None
    if all(e == 1 for e in eps):
        H = np.array([[float(x) for x in h] for h in splitting], dtype=float).T
        scale = np.array([1 / math.sqrt(float(H[:, j] @ Gf @ H[:, j])) for j in range(n)])
        Hn = H * scale[None, :]
        W = Hn.T @ Gf @ Hn
        triangular = W.T  # unit upper triangular member
    return SemiorthogonalData(tuple(eps), splitting, flag, triangular)
