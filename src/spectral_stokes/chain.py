"""Chain-type singularities x0^a0 + x0 x1^a1 + ... + x_{m-1} x_m^am.

Everything here is exact: invariants from the defining recursions, the
integer matrix polynomial prod (x^{r_k} - 1)^{(-1)^{m-k}} with its root
angles obtained by inclusion-exclusion, the weighted-homogeneous
spectrum via generating functions over a common denominator, and a
monomial basis of the Jacobi algebra ordered into a chain by dedicated
Laurent-monomial steps.  The headline check compares the two spectra
after the dimension shift (m - 1)/2 as exact multisets: both sides are
integer numerators over 2 r_m (root angles delta / r_m, weights over a
divisor D of r_m), run through the family checks and the recipe of
:mod:`hor` on integers, and compared as sorted int lists.  The matrix
side expands no polynomial; the generating function is expanded by
:func:`polycore.signed_product_coeffs` only up to its degree.  The public
spectra are Fraction views of the same integers.

Two conventions are pinned down here rather than guessed:

* The symmetry class of the matrix polynomial is the one of its
  constant coefficient, which direct evaluation shows to be (-1)^m
  (each of the m + 2 signed factors contributes -1 at x = 0), so
  k = 1 for even m and k = 2 for odd m; :func:`stokes_poly` checks the
  expanded coefficient against it.  Only this choice reproduces the
  weighted-homogeneous spectra.
* The count of basis monomials follows the recursion mu_k = r_k -
  mu_{k-1}, the one consistent with mu = prod(1/w_k - 1).  The literal
  alternating sum a_0...a_{k-1} - a_1...a_{k-1} + ... +- a_{k-1} -+ 1
  drops leading factors where the recursion drops trailing ones, and
  agrees with it only for all-equal exponent tuples: (3, 2) gives 5,
  against mu = 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import matrices as mx
from .errors import (BadExponents, ChainBroken, NotPolynomial, NotReducible,
                     ReductionRequired, VerificationFailed)
from .hor import (HorScal, recipe_spectral_pairs, _check_family_numerators,
                  _recipe_numerators, _split_root_one)
from .polycore import expand_signed_product, signed_product_coeffs, _common_numerators
from .spectra import Spp


@dataclass(frozen=True)
class ChainSing:
    """Exponent tuple (a_0, ..., a_m) with the derived invariants.

    r_k = a_0 ... a_k, the alternating quantities mu_k = r_k - mu_{k-1}
    (mu_{-1} = 1), and the weights w_k = mu_{k-1} / r_k; the number of
    basis monomials of the Jacobi algebra is mu = mu_m.
    """

    a: tuple
    r: tuple = field(init=False)
    mu_seq: tuple = field(init=False)
    w: tuple = field(init=False)

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        if len(a) < 1 or a[0] < 2 or any(x < 1 for x in a[1:]):
            raise BadExponents(f"need a_0 >= 2 and a_j >= 1, got {a}")
        object.__setattr__(self, "a", a)
        r, mu, w = [], [], []
        r_prev, mu_prev = 1, 1
        for ak in a:
            rk = r_prev * ak
            muk = rk - mu_prev
            w.append(Fraction(mu_prev, rk))
            r.append(rk)
            mu.append(muk)
            r_prev, mu_prev = rk, muk
        object.__setattr__(self, "r", tuple(r))
        object.__setattr__(self, "mu_seq", tuple(mu))
        object.__setattr__(self, "w", tuple(w))
        # weight recursion and the product formula must agree, as integer
        # equalities over the weights' numerators p_k and denominators q_k:
        # prod (q_k - p_k) = mu prod p_k, and a_k p_k q_{k-1} = q_k (q_{k-1} - p_{k-1})
        lhs = rhs = 1
        for wk in w:
            lhs *= wk.denominator - wk.numerator
            rhs *= wk.numerator
        if lhs != mu[-1] * rhs:
            raise VerificationFailed("Milnor number disagrees with the weight product")
        p_prev, q_prev = 0, 1
        for ak, wk in zip(a, w):
            p, q = wk.numerator, wk.denominator
            if ak * p * q_prev != q * (q_prev - p_prev):
                raise VerificationFailed("weight recursion violated")
            p_prev, q_prev = p, q

    @property
    def m(self) -> int:
        return len(self.a) - 1

    @property
    def mu(self) -> int:
        return self.mu_seq[-1]


def _stokes_factors(c: ChainSing) -> list:
    """The (r, e) pairs of prod_{k=-1..m} (x^{r_k} - 1)^{(-1)^{m-k}}, r_{-1} = 1."""
    m = c.m
    return [(1, (-1) ** (m + 1))] + [(c.r[kk], (-1) ** (m - kk)) for kk in range(m + 1)]


def _stokes_roots(c: ChainSing):
    """The symmetry class of the matrix polynomial and the numerators
    delta (ascending) of its root angles delta / r_m, without expanding it.

    The multiplicity of a residue delta modulo r_m is found by
    inclusion-exclusion: each factor (x^r - 1)^e (r divides r_m) adds e at
    every (r_m / r)-th residue.  Multiplicities 0 or 1, mu of them 1, prove
    that the product is a polynomial of degree mu with simple roots; its
    class is k = 1 for even m and k = 2 for odd m (module docstring)."""
    rm = c.r[-1]
    mult = np.zeros(rm, dtype=np.int64)
    for r, e in _stokes_factors(c):
        mult[::rm // r] += e
    bad = np.flatnonzero((mult != 0) & (mult != 1))
    if bad.size:
        delta = int(bad[0])
        raise VerificationFailed(f"root multiplicity {mult[delta]} at {delta}/{rm}")
    deltas = np.flatnonzero(mult).tolist()
    if len(deltas) != c.mu:
        raise VerificationFailed("number of roots must be mu")
    return 1 if c.m % 2 == 0 else 2, deltas


def stokes_poly(a):
    """The monic integer polynomial prod_{k=-1..m} (x^{r_k} - 1)^{(-1)^{m-k}}
    together with its symmetry class and exact root angles.

    Returns (poly, k, angles) with angles a sorted list of (Fraction, 1);
    all roots are simple, the degree is mu, and the constant coefficient
    is p_0 = (-1)^{k-1} = (-1)^m.  The expansion is checked against both.
    """
    c = ChainSing(tuple(a))
    k, deltas = _stokes_roots(c)
    p = expand_signed_product(_stokes_factors(c))
    if p.degree != c.mu:
        raise VerificationFailed("degree of the matrix polynomial must be mu")
    if p.coeffs[0] != (-1) ** (k - 1):
        raise VerificationFailed("constant coefficient of the matrix polynomial must be (-1)^m")
    rm = c.r[-1]
    return p, k, [(Fraction(d, rm), 1) for d in deltas]


def _stokes_angles(c: ChainSing):
    """(k, nums, r_m): the family point of the roots, its angles nums[j] / r_m
    in family order, with the simple root 1 (odd m) at the lower end 0."""
    k, deltas = _stokes_roots(c)
    rm = c.r[-1]
    ones = 1 if deltas[0] == 0 else 0
    return k, _split_root_one(ones, deltas[ones:], k, 0, rm), rm


def _stokes_numerators(c: ChainSing) -> list:
    """Spectral numbers of the matrix side as numerators over 2 r_m, in
    family order: the family point of the roots, checked for membership,
    through the recipe, all on integers."""
    k, beta, rm = _stokes_angles(c)
    _check_family_numerators(k, beta, rm)
    return _recipe_numerators(k, beta, rm)


def stokes_scal(a):
    """Family coordinates of the matrix side: the angles of
    :func:`_stokes_angles` as Fractions delta / r_m, with the ends 0 and 1
    as ``int``; the polynomial is neither expanded nor rooted."""
    k, beta, rm = _stokes_angles(ChainSing(tuple(a)))
    return HorScal(k, tuple(Fraction(x, rm) if 0 < x < rm else x // rm for x in beta))


def stokes_spectrum(a) -> list:
    """Spectral numbers of the matrix side, exact, in family order."""
    c = ChainSing(tuple(a))
    den = 2 * c.r[-1]
    return [Fraction(x, den) for x in _stokes_numerators(c)]


def stokes_spectral_pairs(a) -> Spp:
    return recipe_spectral_pairs(stokes_scal(a))


# ---------------------------------------------------------------------------
# weighted-homogeneous spectra
# ---------------------------------------------------------------------------

def _qh_exponents(Ns: list, D: int):
    """The exponents e (ascending) and their multiplicities, as two integer
    arrays, of the generating function prod_k (t - t^{w_k}) / (t^{w_k} - 1)
    = sum_e mult t^{e / D}, given the weight numerators N_k = w_k D.

    With s = t^(1/D) each factor is s^{N_k} (s^{D - N_k} - 1) / (s^{N_k} - 1),
    so the generating function is s^{sum N_k} times a signed product."""
    try:
        quot = signed_product_coeffs([(D - N, 1) for N in Ns] + [(N, -1) for N in Ns])
    except NotPolynomial:
        raise VerificationFailed("generating function is not a polynomial") from None
    if quot.min() < 0:
        raise VerificationFailed("negative multiplicity in the spectrum expansion")
    e = quot.nonzero()[0]
    return e + sum(Ns), quot[e]


def qh_spectrum(weights) -> list:
    """Exponent multiset {alpha_j} with sum over j of t^(alpha_j + 1)
    = prod_k (t - t^{w_k}) / (t^{w_k} - 1), exact and ascending.

    Each exponent e / D of the generating function over the common
    denominator D of the weights gives alpha = e / D - 1."""
    ws = [Fraction(w) for w in weights]
    if any(not (0 < w < 1) for w in ws):
        raise ValueError("weights must lie strictly between 0 and 1")
    Ns, D = _common_numerators(ws)
    e, mult = _qh_exponents(Ns, D)
    out = []
    for x, c in zip(e.tolist(), mult.tolist()):
        out.extend([Fraction(x - D, D)] * c)
    return out


def _qh_numerators(c: ChainSing, den: int, shift=0):
    """The spectrum of c's weights moved by ``shift``, alpha = e / D - 1 +
    shift, as integer numerators over ``den`` (a multiple of D and of
    shift's denominator): two arrays, the ascending numerators and their
    multiplicities."""
    Ns, D = _common_numerators(c.w)
    e, mult = _qh_exponents(Ns, D)
    return (den // D) * e + (shift.numerator * (den // shift.denominator) - den), mult


def qh_ts_spectrum(w1, w2) -> list:
    """Spectrum of a sum of two weighted-homogeneous singularities in
    disjoint variables: all pairwise sums alpha + alpha' + 1."""
    s1 = qh_spectrum(w1)
    s2 = qh_spectrum(w2)
    return sorted(a + b + 1 for a in s1 for b in s2)


def thom_sebastiani(S1: np.ndarray, S2: np.ndarray) -> np.ndarray:
    """Tensor product of two unit upper-triangular matrices in the
    lexicographic basis order; the monodromy tensors accordingly.

    Raises ValueError unless both factors are unit upper-triangular."""
    for name, F in (("S1", S1), ("S2", S2)):
        if not mx.is_unit_upper_triangular(F, tol=1e-9):
            raise ValueError(f"{name} is not unit upper-triangular")
    S = mx.kron(S1, S2)
    M = mx.monodromy_matrix(S)
    if not (mx.is_unit_upper_triangular(S, tol=1e-9) and mx.mat_eq(
            M, mx.kron(mx.monodromy_matrix(S1), mx.monodromy_matrix(S2)), 1e-9)):
        raise VerificationFailed(
            "the tensor product must be unit upper-triangular with the tensor of "
            "the monodromies as its monodromy")
    return S


# ---------------------------------------------------------------------------
# Jacobi algebra monomial basis and its chain order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """Exponent vector of a monomial in the variables x_0 .. x_m."""

    exps: tuple

    def degree(self, weights) -> Fraction:
        return sum(Fraction(e) * w for e, w in zip(self.exps, weights))

    def times(self, laurent: tuple) -> "Monomial":
        return Monomial(tuple(e + g for e, g in zip(self.exps, laurent)))

    @property
    def is_monomial(self) -> bool:
        return all(e >= 0 for e in self.exps)

    def __repr__(self):
        parts = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(self.exps) if e]
        return "*".join(parts) if parts else "1"


def _require_reduced(c: ChainSing):
    if c.a[0] < 3 or any(x < 2 for x in c.a[1:]):
        raise ReductionRequired(
            f"monomial basis needs a_0 >= 3 and a_j >= 2; reduce {c.a} first")


def jacobi_basis(a) -> list[Monomial]:
    """The distinguished monomial basis of the Jacobi algebra.

    Family i pins the variables x_{m-2i+2}, x_{m-2i+4}, ..., x_m at
    exponent a_j - 1, the interleaved odd positions at 0, and lets
    x_0 .. x_{m-2i} run with the last one capped at a_{m-2i} - 2.  For
    odd m one extra monomial (all odd positions at a_j - 1) appears.
    Requires a_0 >= 3, a_j >= 2.
    """
    c = ChainSing(tuple(a))
    _require_reduced(c)
    m = c.m
    out = []
    for i in range(m // 2 + 1):
        free_top = m - 2 * i
        pinned = tuple(c.a[j] - 1 if (j - free_top) % 2 == 0 else 0
                       for j in range(free_top + 1, m + 1))
        ranges = [range(c.a[j]) for j in range(free_top)] + [range(c.a[free_top] - 1)]
        out.extend(Monomial(free + pinned) for free in product(*ranges))
    if m % 2 == 1:
        exps = [0] * (m + 1)
        for j in range(1, m + 1, 2):
            exps[j] = c.a[j] - 1
        out.append(Monomial(tuple(exps)))
    if len(out) != c.mu:
        raise VerificationFailed(f"basis count {len(out)} != mu = {c.mu}")
    return out


def _step_monomials(c: ChainSing) -> list[tuple]:
    """The m+1 Laurent exponent vectors g(0), ..., g(m) connecting
    consecutive basis monomials.  With d = m - j: d = 0 is x_m^{-1};
    for d >= 1 the head x_j carries (-1)^(d+1), the middle x_t carry
    (-1)^(m-t) (a_t - 1), and x_m carries a_m - 1 for even d,
    a_m - 2 for odd d."""
    m = c.m
    steps = []
    for j in range(m + 1):
        d = m - j
        g = [0] * (m + 1)
        if d == 0:
            g[m] = -1
        else:
            g[j] = 1 if d % 2 == 1 else -1
            for t in range(j + 1, m):
                g[t] = (-1) ** (m - t) * (c.a[t] - 1)
            g[m] = c.a[m] - 1 if d % 2 == 0 else c.a[m] - 2
        steps.append(tuple(g))
    return steps


def chain_graph(a):
    """The basis monomials ordered into a chain by the step monomials.

    Returns (ordered monomials, edges) where edges is a list of
    (step index j, weighted degree increment).  Validates that the graph
    is one chain with the predicted endpoints and that each increment is
    -w_m for j = m mod 2 and 1 - 2 w_m otherwise.
    """
    c = ChainSing(tuple(a))
    m = c.m
    basis = jacobi_basis(a)
    index = {mon.exps: i for i, mon in enumerate(basis)}
    steps = _step_monomials(c)

    succ: dict[int, tuple[int, int]] = {}
    indeg = {i: 0 for i in range(len(basis))}
    for i, mon in enumerate(basis):
        for j, g in enumerate(steps):
            nxt = mon.times(g)
            if nxt.is_monomial and nxt.exps in index and nxt.exps != mon.exps:
                if i in succ:
                    raise ChainBroken(f"two outgoing steps at {mon}", monomial=mon)
                succ[i] = (index[nxt.exps], j)
    for i, (t, _) in succ.items():
        indeg[t] += 1
    starts = [i for i in indeg if indeg[i] == 0]
    if len(basis) == 1:
        order = [basis[0]]
        edges = []
    else:
        if len(starts) != 1:
            raise ChainBroken(f"{len(starts)} chain starts found", monomial=None)
        order = []
        edges = []
        cur = starts[0]
        seen = set()
        while True:
            order.append(basis[cur])
            seen.add(cur)
            if cur not in succ:
                break
            nxt, j = succ[cur]
            if nxt in seen:
                raise ChainBroken("cycle in the step graph", monomial=basis[cur])
            edges.append((j, None))
            cur = nxt
        if len(order) != len(basis):
            raise ChainBroken("step graph is not connected", monomial=None)
        edges = [(j, order[t + 1].degree(c.w) - order[t].degree(c.w))
                 for t, (j, _) in enumerate(edges)]

    # endpoints
    start_exps = [0] * (m + 1)
    end_exps = [0] * (m + 1)
    if m % 2 == 0:
        for j in range(0, m + 1, 2):
            start_exps[j] = c.a[j] - 1
        start_exps[m] = c.a[m] - 2
        for j in range(1, m, 2):
            end_exps[j] = c.a[j] - 1
    else:
        for j in range(1, m + 1, 2):
            start_exps[j] = c.a[j] - 1
        for j in range(0, m, 2):
            end_exps[j] = c.a[j] - 1
    if order[0].exps != tuple(start_exps) or order[-1].exps != tuple(end_exps):
        raise ChainBroken(
            f"chain endpoints {order[0]} .. {order[-1]} do not match the predicted ones",
            monomial=order[0])
    wm = c.w[-1]
    for j, inc in edges:
        want = -wm if (j - m) % 2 == 0 else 1 - 2 * wm
        if inc != want:
            raise VerificationFailed(f"edge g({j}) increment {inc} != {want}")
    return order, edges


def chain_ordered_spectrum(a) -> list:
    """alpha(f) values read along the chain order of the basis."""
    c = ChainSing(tuple(a))
    order, _ = chain_graph(a)
    base = sum(c.w, Fraction(0)) - 1
    return [base + mon.degree(c.w) for mon in order]


# ---------------------------------------------------------------------------
# reductions for small exponents
# ---------------------------------------------------------------------------

def reduce_chain(a):
    """Normalise an exponent tuple to a_0 >= 3, a_j >= 2 (or the single
    quadratic) by suspensions.

    Head a_0 = 2 folds into the next exponent (new head 2 a_1, one
    variable fewer, spectrum shift -1/2); an inner a_j = 1 with j < m and
    a_1..a_{j-1} >= 2 merges a_{j-1} a_{j+1} and drops two variables
    (shift -1).  Returns (suspensions, total shift, reduced tuple) with
    qh_spectrum(reduced) = qh_spectrum(original) + shift elementwise.
    Raises NotReducible for a trailing a_m = 1 pattern.
    """
    cur = list(ChainSing(tuple(a)).a)
    shift = Fraction(0)
    susp = 0
    while True:
        if cur == [2]:
            break
        if cur[0] == 2:
            if len(cur) == 1:
                break
            cur = [2 * cur[1]] + cur[2:]
            shift -= Fraction(1, 2)
            susp += 1
            continue
        j = next((i for i in range(1, len(cur)) if cur[i] == 1), None)
        if j is None:
            break
        m = len(cur) - 1
        if j == m:
            raise NotReducible(
                f"trailing unit exponent in {tuple(cur)} has no two-variable fold")
        if any(cur[t] < 2 for t in range(1, j)):
            raise NotReducible(f"unit exponent at {j} preceded by another unit in {tuple(cur)}")
        merged = cur[j - 1] * cur[j + 1]
        cur = cur[:j - 1] + [merged] + cur[j + 2:]
        shift -= 1
        susp += 2
    return susp, shift, tuple(cur)


# ---------------------------------------------------------------------------
# the headline verification
# ---------------------------------------------------------------------------

def verify_spectrum_shift(a) -> bool:
    """Exact multiset equality of the matrix-side spectrum and the
    weighted-homogeneous spectrum shifted down by (m - 1)/2.

    Both sides are compared as sorted integer numerators over 2 r_m, which
    the weight denominator D and the shift's denominator 2 divide."""
    c = ChainSing(tuple(a))
    lhs = sorted(_stokes_numerators(c))
    nums, mult = _qh_numerators(c, 2 * c.r[-1], Fraction(1 - c.m, 2))
    return lhs == np.repeat(nums, mult.astype(np.int64)).tolist()


def grid_tuples(a0_max: int = 6, aj_max: int = 4, m_max: int = 4,
                a0_min: int = 3, aj_min: int = 2):
    """All exponent tuples in the standard verification grid."""
    out = []

    def rec(prefix, depth):
        if depth >= 0:
            out.append(tuple(prefix))
        if len(prefix) == m_max + 1:
            return
        for x in range(aj_min, aj_max + 1):
            rec(prefix + [x], depth + 1)

    for a0 in range(a0_min, a0_max + 1):
        rec([a0], 0)
    return out
