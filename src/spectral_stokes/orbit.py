"""Sign-group and basis-mutation actions on unit-triangular matrices,
orbit exploration, desk-scale conjecture experiments, and eigenvalue
tracking along user paths.

The sign group {+-1}^n acts by diagonal conjugation; the mutation at
position i replaces the basis pair (v_i, v_{i+1}) by
(v_{i+1} - s_{i,i+1} v_i, v_i), which keeps the Gram matrix
unit-triangular and the monodromy class unchanged.  Both actions
preserve the characteristic polynomial of S^{-1} S^t.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import LeftT, VerificationFailed
from .polycore import multiset_eq, num_eq, _lift_path, _point_angles


def sign_act(eps, S: np.ndarray) -> np.ndarray:
    """diag(eps) S diag(eps) for eps in {+-1}^n."""
    n = S.shape[0]
    eps = tuple(eps)
    if len(eps) != n or any(e not in (1, -1) for e in eps):
        raise ValueError(f"need {n} signs in {{1, -1}}, got {eps}")
    out = S.copy()
    for i in range(n):
        for j in range(n):
            out[i, j] = eps[i] * eps[j] * S[i, j]
    return out


def braid_act(i: int, S: np.ndarray, direction: int = 1) -> np.ndarray:
    """Basis mutation at positions (i, i+1), 1-based; direction -1 is the
    inverse move.  Unit-triangularity is restored exactly; the (i, i+1)
    entry flips sign and the monodromy stays similar.
    """
    n = S.shape[0]
    if not 1 <= i <= n - 1:
        raise ValueError(f"mutation position {i} outside 1..{n - 1}")
    G = S.T.copy()
    c = S[i - 1, i]
    B = np.eye(n, dtype=S.dtype)
    if direction == 1:
        # v_i' = v_{i+1} - c v_i, v_{i+1}' = v_i
        B[i - 1, i - 1] = -c
        B[i, i - 1] = 1
        B[i - 1, i] = 1
        B[i, i] = 0
    else:
        # v_i' = v_{i+1}, v_{i+1}' = v_i - c v_{i+1}
        B[i - 1, i - 1] = 0
        B[i, i - 1] = 1
        B[i - 1, i] = 1
        B[i, i] = -c
    G2 = B.T.copy().dot(G).dot(B)
    S2 = G2.T.copy()
    if not mx.is_unit_upper_triangular(S2, tol=1e-9):
        raise VerificationFailed("mutation must preserve the unit upper-triangular shape")
    return S2


def matrix_key(S: np.ndarray) -> tuple:
    return tuple(tuple(S[i, j] for j in range(S.shape[1]))
                 for i in range(S.shape[0]))


def sign_canonical(S: np.ndarray) -> tuple:
    """Lexicographically smallest entry tuple over the sign orbit
    (eps and -eps act identically, so eps_1 = +1 is fixed)."""
    n = S.shape[0]
    best = None
    for mask in range(1 << (n - 1)):
        eps = [1] + [1 if (mask >> t) & 1 == 0 else -1 for t in range(n - 1)]
        key = matrix_key(sign_act(eps, S))
        if best is None or key < best:
            best = key
    return best


#: largest matrix size of orbit_explore: a node canonicalises its 2(n - 1)
#: neighbours over 2^(n-1) sign vectors each
MAX_ORBIT_N = 10


@dataclass
class OrbitReport:
    nodes: set
    exhausted: bool
    generations: int


def orbit_explore(S: np.ndarray, depth: int = 6, budget: int = 10000) -> OrbitReport:
    """Bounded breadth-first exploration of the mutation/sign orbit.

    Nodes are canonicalised by the smallest sign-orbit representative;
    the characteristic polynomial of the monodromy is verified invariant
    on every node.  ``exhausted`` reports whether the walk was cut off
    by depth or budget (orbits may be infinite).  Matrices larger than
    MAX_ORBIT_N raise ValueError.
    """
    n = S.shape[0]
    if n > MAX_ORBIT_N:
        raise ValueError(f"orbit exploration takes matrices of size at most {MAX_ORBIT_N}, "
                         f"got {n}")
    start = sign_canonical(S)
    base_cp = mx.char_poly_exact(mx.monodromy_matrix(S)) \
        if mx.is_exact_matrix(S) else None
    seen = {start}
    frontier = deque([(start, 0)])
    exhausted = False
    gens = 0
    while frontier:
        key, d = frontier.popleft()
        gens = max(gens, d)
        if d >= depth:
            exhausted = True
            continue
        cur = mx.to_matrix([list(r) for r in key])
        for i in range(1, n):
            for direction in (1, -1):
                nxt = braid_act(i, cur, direction)
                if base_cp is not None:
                    cp = mx.char_poly_exact(mx.monodromy_matrix(nxt))
                    if cp != base_cp:
                        raise VerificationFailed("mutation changed the monodromy class")
                ck = sign_canonical(nxt)
                if ck not in seen:
                    if len(seen) >= budget:
                        exhausted = True
                        continue
                    seen.add(ck)
                    frontier.append((ck, d + 1))
    return OrbitReport(seen, exhausted, gens)


# ---------------------------------------------------------------------------
# eigenvalue-stratum experiment
# ---------------------------------------------------------------------------

@dataclass
class Conjecture16Report:
    groups: dict          # char poly coeffs -> list of (label, spectrum)
    violations: list      # (coeffs, label1, sp1, label2, sp2)

    def to_json(self):
        return {
            "groups": [
                {"char_poly": [str(c) for c in key],
                 "members": [{"label": lab, "spectrum": [str(x) for x in sp]}
                             for lab, sp in vals]}
                for key, vals in sorted(self.groups.items())
            ],
            "violations": [
                {"char_poly": [str(c) for c in key], "a": la, "b": lb,
                 "sp_a": [str(x) for x in sa], "sp_b": [str(x) for x in sb]}
                for key, la, sa, lb, sb in self.violations
            ],
        }


def conjecture16_check(pool) -> Conjecture16Report:
    """Group banded family members by the characteristic polynomial of
    S^{-1} S^t and compare spectra inside each group.

    ``pool`` is a list of (label, HorMatrix).  Agreement everywhere
    supports the eigenvalue-stratum expectation; any violation is
    reported with full data, never suppressed.
    """
    from .hor import matrix_to_scal, recipe_spectrum

    groups: dict = {}
    for label, M in pool:
        mono = mx.monodromy_matrix(M.S)
        cp = mx.char_poly_exact(mono) if mx.is_exact_matrix(M.S) else None
        key = cp.coeffs if cp is not None else tuple(
            round(float(c), 9) for c in np.poly(np.asarray(mono, dtype=float))[::-1])
        sp = sorted(recipe_spectrum(matrix_to_scal(M)))
        groups.setdefault(key, []).append((label, sp))
    violations = []
    for key, vals in groups.items():
        ref_label, ref = vals[0]
        for lab, sp in vals[1:]:
            if not multiset_eq(sp, ref, num_eq):
                violations.append((key, ref_label, ref, lab, sp))
    return Conjecture16Report(groups, violations)


# ---------------------------------------------------------------------------
# tracking along arbitrary paths
# ---------------------------------------------------------------------------

@dataclass
class GenericTrack:
    times: np.ndarray
    alphas: np.ndarray
    collisions: list          # (r, i, j) tracked indices that met
    path_dependent: bool

    @property
    def endpoint(self):
        return list(self.alphas[-1])


def generic_path_track(path, steps: int = 256) -> GenericTrack:
    """Continue the n eigenvalue angles of S^{-1} S^t along a piecewise
    linear path of unit upper-triangular matrices, starting from the
    identity matrix with all angles 0.

    Every sample must stay in the unit-circle-eigenvalue set (LeftT is
    raised otherwise).  Strands are continued by a predictor step (each
    is expected at its linear continuation from the two samples before),
    so strands that cross pass through each other; the first step out of
    the identity, where every strand is at 0, matches by least distance.
    Two strands meet where their eigenvalues coincide, that is where the
    difference of their lifts is an integer.  A meeting is reported
    (as ``(t, i, j)``, once per meeting) at a sample where the two are
    within 1e-6 after having separated, or, when the difference crosses
    an integer strictly between two samples neither of which is within
    1e-6, at the later of the two.  Results are flagged path/choice
    dependent when any meeting is reported.

    The ``steps`` samples are evaluated as one batch: one shape and
    finiteness check, one ``solve`` and one ``eigvals`` over the stack.
    One singular sample makes the batched ``solve`` fail; only then is
    ``det`` taken over the stack, to find the first sample whose ``det``
    is 0 (``det`` and ``solve`` factor a sample alike), and the samples
    before it are solved again.  An exact entry past float range is
    refused with ValueError.  LeftT names the first failing sample: one
    that is not unit upper-triangular, has a non-finite entry, is
    singular, has a non-finite S^{-1} S^t, or has an eigenvalue off the
    circle, checked in that order within a sample.
    Angles are read with ``cmath.phase``, whose last bits ``np.angle`` does
    not always reproduce, mapped over the eigenvalues and reduced in one
    array expression (``polycore._point_angles``), bit for bit
    ``point_to_angle`` of each.  The matching is
    ``polycore._lift_path``: one array pass certifies a step in place
    when each sorted angle's guess from the two sorted rows before lies
    nearer to the angle at the same sorted index than half the smallest
    gap between distinct angles, and each run of such steps is lifted
    strand by strand.  Every other step (about 4% of them on random
    family members: crossings, wraps past the point 1 and the first step
    out of the identity, where every guess is 0) is certified on its own
    or goes to the assignment step ``polycore._lift_angles``.  Tracked
    output is bit for bit that of ``_lift_angles`` applied sample by
    sample.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    try:
        mats = np.asarray(path, dtype=float)
    except OverflowError:
        raise ValueError("a path entry is past float range") from None
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("path must be a non-empty list of square matrices of one size")
    n = mats.shape[1]
    if not np.allclose(mats[0], np.eye(n)):
        raise ValueError("path must start at the identity matrix")
    times = np.linspace(0.0, 1.0, steps + 1)
    segs = len(mats) - 1
    x = times[1:] * segs
    seg = np.minimum(x.astype(int), segs - 1)
    loc = (x - seg)[:, None, None]
    samples = (1 - loc) * mats[seg] + loc * mats[seg + 1]
    shaped = mx.is_unit_upper_triangular(samples, tol=1e-7)
    finite = np.isfinite(samples).all(axis=(1, 2))
    ok = shaped & finite
    inside = steps if ok.all() else int(np.argmin(ok))
    try:
        mono = mx.monodromy_matrix(samples[:inside])
    except np.linalg.LinAlgError:
        # one singular sample makes the batched solve fail for all of them;
        # det and solve factor a sample alike, so det is 0 exactly where solve fails
        singular = np.flatnonzero(np.linalg.det(samples[:inside]) == 0)
        if not singular.size:
            raise
        inside = int(singular[0])
        mono = mx.monodromy_matrix(samples[:inside])
    overflow = False
    try:
        eig = np.linalg.eigvals(mono)
    except np.linalg.LinAlgError:
        # eigvals refuses the whole stack when one S^{-1} S^t overflowed
        mono_finite = np.isfinite(mono).all(axis=(1, 2))
        if mono_finite.all():
            raise
        inside, overflow = int(np.argmin(mono_finite)), True
        eig = np.linalg.eigvals(mono[:inside])
    off = np.abs(np.abs(eig) - 1.0)
    left = np.flatnonzero((off > 1e-6).any(axis=1))
    if left.size:
        s = left[0]
        raise LeftT(times[s + 1], f"eigenvalue off the circle by {float(np.max(off[s])):.2e}")
    if inside < steps:
        raise LeftT(times[inside + 1], "monodromy has a non-finite entry" if overflow
                    else "sample is not unit upper triangular" if not shaped[inside]
                    else "sample has a non-finite entry" if not finite[inside]
                    else "sample is singular")
    ang = _point_angles(eig)
    lifts = _lift_path(ang)
    # a collision is a genuine meeting: strands that start together (all
    # angles vanish at the identity) are not ambiguous until they separate
    i, j = np.triu_indices(n, 1)
    diff = lifts[1:, i] - lifts[1:, j]
    close = np.abs((diff + 0.5) % 1.0 - 0.5) < 1e-6
    apart = np.logical_or.accumulate(~close, axis=0)
    met = close[1:] & apart[:-1]
    # eigenvalues that coincide strictly between two samples, neither close
    crossed = (np.floor(diff[1:]) != np.floor(diff[:-1])) & ~close[1:] & ~close[:-1]
    collisions = [(float(times[s + 2]), int(i[p]), int(j[p]))
                  for s, p in zip(*np.nonzero(met | crossed))]
    # the lifted angle of an eigenvalue exp(-2 pi i alpha) is alpha itself
    return GenericTrack(times, lifts, collisions, bool(collisions))
