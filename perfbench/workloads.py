"""The benchmark workloads: seeded inputs, the timed item, and the checks.

Every workload runs closed-loop with one caller: the next item starts when
the previous one has returned.  A run's inputs are one seeded pass that the
runner repeats; the items of a pass are drawn with a fixed count from every
cost stratum, so the pass's cost hardly depends on the seed.

A workload is an object with

* ``make_inputs(seed)``: the seeded inputs of a run, as one pass;
* ``run_item(x)``: the timed call into the library, returning raw results;
  ``x[0]`` is the item's key;
* ``end_pass(xs)``: an optional timed pass-level step (``None`` if absent);
* ``check_item`` / ``check_pass``: compare raw results with the reference,
  outside the timed region;
* ``crosscheck(xs, rng)``: independent sympy checks on a seeded subset of
  ``crosscheck_items`` inputs (``None`` if absent).

The parts of ``exact`` have the same methods, with ``inputs()`` and
``stratum(x)`` in place of ``make_inputs``.

``exact`` mixes three parts (family members, size-3 grid points, chain
tuples) whose reference is static data under ``reference/``, written by
``make_reference.py``; ``numeric`` has no finite input set, so its reference
is computed here from closed forms and plain numpy.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from spectral_stokes import chain, hor, lowdim, matrices as mx, orbit, polycore
from spectral_stokes import seifert as sf
from spectral_stokes.errors import LeftT, NotReducible, Unclassified

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

UNCLASSIFIED = "Unclassified"
NOT_REDUCIBLE = "NotReducible"
LEFT_T = "LeftT"


# ---------------------------------------------------------------------------
# helpers shared by the workloads and by make_reference.py
# ---------------------------------------------------------------------------

def deal(items, stratum, n_passes: int, rng: random.Random) -> list[list]:
    """Split ``items`` into ``n_passes`` passes with equal stratum mix.

    Items are grouped by ``stratum(item)``, shuffled inside each group and
    dealt round-robin across the passes; each pass is then shuffled.
    """
    groups: dict = {}
    for x in items:
        groups.setdefault(stratum(x), []).append(x)
    passes: list[list] = [[] for _ in range(n_passes)]
    slot = 0
    for key in sorted(groups):
        group = groups[key]
        rng.shuffle(group)
        for x in group:
            passes[slot % n_passes].append(x)
            slot += 1
    for p in passes:
        rng.shuffle(p)
    return passes


def enc_number(x) -> str:
    """Exact numbers as "p/q", floats with every digit."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def dec_number(s: str):
    return Fraction(s) if "." not in s and "e" not in s and "n" not in s else float(s)


def enc_types(types) -> list:
    """Irreducible types as plain lists: [family, n, eps, lambda, zeta]."""
    out = []
    for t in types:
        lam = t.lam
        if isinstance(lam, complex) or t.family in ("F2hyper", "F4hyper"):
            lam = [complex(lam).real, complex(lam).imag]
        else:
            lam = enc_number(lam)
        zeta = None if t.zeta is None else enc_number(t.zeta)
        out.append([t.family, t.n, t.eps or 0, lam, zeta])
    return sorted(out, key=lambda r: (r[0], r[1], r[2], str(r[3]), str(r[4])))


def _circle_close(a: str, b: str, tol: float = 1e-7) -> bool:
    x, y = dec_number(a), dec_number(b)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return (x - y) % 1 == 0
    d = abs(float(x) - float(y)) % 1.0
    return min(d, 1.0 - d) <= tol


def _type_close(t, u) -> bool:
    if t[:3] != u[:3]:
        return False
    if isinstance(t[3], list) or isinstance(u[3], list):
        if not (isinstance(t[3], list) and isinstance(u[3], list)):
            return False
        return abs(complex(*t[3]) - complex(*u[3])) <= 1e-6 * max(1.0, abs(complex(*t[3])))
    if not _circle_close(t[3], u[3]):
        return False
    if (t[4] is None) != (u[4] is None):
        return False
    return t[4] is None or _circle_close(t[4], u[4])


def types_agree(got: list, want: list) -> bool:
    """Multiset equality of encoded types; exact angles compare exactly,
    float angles on the circle within 1e-7."""
    if len(got) != len(want):
        return False
    rest = list(want)
    for t in got:
        hit = next((i for i, u in enumerate(rest) if _type_close(t, u)), None)
        if hit is None:
            return False
        rest.pop(hit)
    return True


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def sympy_charpoly(S) -> list:
    """Coefficients (constant first) of the char poly of S^{-1} S^t, by sympy."""
    import sympy
    Ss = sympy.Matrix(S.shape[0], S.shape[1],
                      [sympy.Rational(str(Fraction(x))) for x in S.flatten()])
    cp = (Ss.inv() * Ss.T).charpoly()
    return [Fraction(str(c)) for c in reversed(cp.all_coeffs())]


def sympy_cyclotomic_mults(coeffs) -> dict | None:
    """Cyclotomic multiplicities of an integer polynomial by sympy's
    factor_list, or None when a factor is not cyclotomic."""
    import sympy
    x = sympy.Symbol("x")
    p = sympy.Poly(list(reversed([int(c) for c in coeffs])), x)
    _, factors = sympy.factor_list(p)
    out: dict[int, int] = {}
    for f, m in factors:
        f = sympy.Poly(f, x)
        deg = f.degree()
        d = next((d for d in range(1, 2 * deg * deg + 3)
                  if polycore.totient(d) == deg
                  and f == sympy.Poly(sympy.cyclotomic_poly(d, x), x)), None)
        if d is None:
            return None
        out[d] = out.get(d, 0) + m
    return out


# ---------------------------------------------------------------------------
# family: exact banded-family members of sizes 2..8
# ---------------------------------------------------------------------------

def family_key(k: int, mults: dict) -> str:
    return f"{k}|" + ",".join(f"{d}^{m}" for d, m in sorted(mults.items()))


class Family:
    name = "family"
    crosscheck_items = 6
    sizes = range(2, 9)

    def inputs(self):
        out = []
        for n in self.sizes:
            for k in (1, 2):
                for mults in hor.enumerate_cyclotomic_mults(n, k):
                    p = polycore.poly_from_cyclotomic_mults(mults)
                    out.append((family_key(k, mults), n, k, mults, p))
        return out

    def stratum(self, x):
        return x[1], x[2]

    def run_item(self, x):
        _, _, k, _, p = x
        M = hor.poly_to_matrix(p, k)
        power_ok, _ = hor.verify_power_identity(M)
        spp = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
        ladder = sf.class_from_spp(spp, 1, signed=False)
        try:
            direct = sf.classify(sf.SeifertPair.from_triangular(M.S))
        except Unclassified:
            direct = UNCLASSIFIED
        return power_ok, ladder, direct

    def end_pass(self, xs):
        pool = [(x[0], hor.poly_to_matrix(x[4], x[2], check=False)) for x in xs]
        report = orbit.conjecture16_check(pool)
        return len(report.groups), len(report.violations)

    def reference(self):
        return load_reference(self.name)

    def check_item(self, x, result, ref) -> bool:
        power_ok, ladder, direct = result
        want = ref[x[0]]
        if power_ok is not True or not types_agree(enc_types(ladder), want["ladder"]):
            return False
        if direct == UNCLASSIFIED:
            return not want["classified"]
        # a later, more complete classifier may classify what this one does not
        return types_agree(enc_types(direct), want["ladder"])

    def check_pass(self, xs, result, ref) -> bool:
        first: dict = {}
        violations = 0
        for x in xs:
            cp, sp = ref[x[0]]["charpoly"], ref[x[0]]["spectrum"]
            key = tuple(cp)
            if key not in first:
                first[key] = sp
            elif first[key] != sp:
                violations += 1
        return result == (len(first), violations)

    def crosscheck(self, xs, rng: random.Random) -> int:
        """Monodromy char polys against sympy's charpoly and the cyclotomic
        split against sympy's factor_list; returns the number of mismatches."""
        bad = 0
        for _, _, k, mults, p in rng.sample(xs, min(self.crosscheck_items, len(xs))):
            S = hor.poly_to_matrix(p, k).S
            cp = mx.char_poly_exact(mx.solve_unit_upper(S, S.T.copy()))
            if [Fraction(c) for c in cp.coeffs] != sympy_charpoly(S):
                bad += 1
            got, rem = polycore.factor_cyclotomic(p)
            if got != mults or rem.degree != 0 or sympy_cyclotomic_mults(p.coeffs) != mults:
                bad += 1
        return bad


# ---------------------------------------------------------------------------
# grid3: exact points of the size-3 grid with step 1/4
# ---------------------------------------------------------------------------

def grid3_key(a) -> str:
    return ",".join(enc_number(v) for v in a)


class Grid3:
    name = "grid3"
    crosscheck_items = 20
    step = Fraction(1, 4)

    def inputs(self):
        vals = [Fraction(-4) + i * self.step for i in range(int(8 / self.step) + 1)]
        out = []
        for a1 in vals:
            for a2 in vals:
                for a3 in vals:
                    a = (a1, a2, a3)
                    if lowdim.member3(a):
                        out.append((grid3_key(a), a))
        return out

    def stratum(self, x):
        f = lowdim.f3(x[1])
        return 0 if f == 0 else 2 if f == 4 else 1

    def run_item(self, x):
        a = x[1]
        closed = lowdim.classify3(a)
        S = lowdim.s3_matrix(a)
        try:
            direct = sf.classify(sf.SeifertPair.from_triangular(S))
        except Unclassified:
            direct = UNCLASSIFIED
        sig = mx.signature_exact(S + S.T)
        return closed, direct, sig

    end_pass = None

    def reference(self):
        """Point key -> answer; the file stores each distinct answer once
        under "#<i>" and maps every point to one of those keys."""
        data = load_reference(self.name)
        return {k: data[v] for k, v in data.items() if not k.startswith("#")}

    def check_item(self, x, result, ref) -> bool:
        closed, direct, sig = result
        want = ref[x[0]]
        closed_types = enc_types(closed.types)
        if closed.stratum.value != want["stratum"] or not types_agree(closed_types, want["types"]):
            return False
        if list(sig) != want["signature"]:
            return False
        if direct == UNCLASSIFIED:
            return False
        return types_agree(enc_types(direct), want["types"])

    check_pass = None

    def crosscheck(self, xs, rng: random.Random) -> int:
        bad = 0
        for _, a in rng.sample(xs, min(self.crosscheck_items, len(xs))):
            S = lowdim.s3_matrix(a)
            cp = mx.char_poly_exact(mx.solve_unit_upper(S, S.T.copy()))
            want = sympy_charpoly(S)
            if [Fraction(c) for c in cp.coeffs] != want or \
                    [Fraction(c) for c in lowdim.char_poly3(a).coeffs] != want:
                bad += 1
        return bad


# ---------------------------------------------------------------------------
# chain: the chain grid (6, 4, 4) and its reducible extras
# ---------------------------------------------------------------------------

def chain_inputs():
    """Acceptance criterion 4's input set: grid tuples, then the quadratic
    and the small-exponent tuples that may reduce."""
    out = [("g:" + ",".join(map(str, a)), "grid", a) for a in chain.grid_tuples(6, 4, 4)]
    extras = [(2,)] + [a for a in chain.grid_tuples(6, 4, 4, a0_min=2, aj_min=1)
                       if a[0] == 2 or any(x == 1 for x in a[1:])]
    out += [("x:" + ",".join(map(str, a)), "extra", a) for a in extras]
    return out


class Chain:
    name = "chain"
    crosscheck_items = 8

    def inputs(self):
        return chain_inputs()

    def stratum(self, x):
        # cost grows with the Milnor number; bands of it keep passes alike
        return x[1], chain.ChainSing(x[2]).mu.bit_length()

    def run_item(self, x):
        _, kind, a = x
        if kind == "grid":
            return chain.verify_spectrum_shift(a)
        try:
            susp, shift, red = chain.reduce_chain(a)
        except NotReducible:
            return NOT_REDUCIBLE
        lhs = sorted(chain.qh_spectrum(chain.ChainSing(red).w), key=float)
        rhs = sorted((s + shift for s in chain.qh_spectrum(chain.ChainSing(a).w)), key=float)
        return (susp, shift, red, lhs == rhs,
                chain.verify_spectrum_shift(a), chain.verify_spectrum_shift(red))

    end_pass = None

    def reference(self):
        return load_reference(self.name)

    def check_item(self, x, result, ref) -> bool:
        want = ref[x[0]]
        if x[1] == "grid":
            return result is True and want is True
        if result == NOT_REDUCIBLE:
            return want == NOT_REDUCIBLE
        susp, shift, red, same, ok_a, ok_red = result
        return (want != NOT_REDUCIBLE and [susp, enc_number(shift), list(red)] == want
                and same is True and ok_a is True and ok_red is True)

    check_pass = None

    def crosscheck(self, xs, rng: random.Random) -> int:
        """The matrix polynomial prod (x^{r_k} - 1)^{(-1)^{m-k}} expanded by
        sympy against chain.stokes_poly."""
        import sympy
        t = sympy.Symbol("x")
        bad = 0
        grid = [x for x in xs if x[1] == "grid"]
        for _, _, a in rng.sample(grid, min(self.crosscheck_items, len(grid))):
            c = chain.ChainSing(a)
            m = c.m
            expr = (t - 1) ** ((-1) ** (m + 1))
            for kk in range(m + 1):
                expr *= (t ** c.r[kk] - 1) ** ((-1) ** (m - kk))
            want = [int(v) for v in reversed(sympy.Poly(sympy.cancel(expr), t).all_coeffs())]
            p, _, _ = chain.stokes_poly(a)
            if [int(v) for v in p.coeffs] != want:
                bad += 1
        return bad


# ---------------------------------------------------------------------------
# numeric: random float family members
# ---------------------------------------------------------------------------

def closed_form_alphas(n: int, k: int, beta) -> list[float]:
    return [n * float(b) - j + k / 2.0 for j, b in enumerate(beta, start=1)]


def circle_separation(beta) -> float:
    """Smallest circle distance between two of the angles."""
    a = sorted(float(b) % 1.0 for b in beta)
    return min([y - x for x, y in zip(a, a[1:])] + [1.0 - a[-1] + a[0]])


def signature_law(alphas, n: int):
    """(s+, s0, s-) predicted from the spectrum away from eigenvalue -1."""
    plus = minus_one = 0
    for a in alphas:
        if abs(a % 1.0 - 0.5) <= 1e-9:
            minus_one += 1
        elif not 0.5 <= a % 2.0 <= 1.5:
            plus += 1
    return plus, 0, n - minus_one - plus


def _circle_multiset_close(xs, ys, tol: float) -> bool:
    rest = [y % 1.0 for y in ys]
    for x in xs:
        d = [min(abs(x % 1.0 - y), 1.0 - abs(x % 1.0 - y)) for y in rest]
        i = int(np.argmin(d))
        if d[i] > tol:
            return False
        rest.pop(i)
    return True


def off_circle_profile(S: np.ndarray, steps: int) -> float:
    """Largest distance from the unit circle of an eigenvalue of the
    monodromy along the straight path from the identity to S, sampled
    where generic_path_track samples it."""
    n = S.shape[0]
    worst = 0.0
    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        St = (1 - t) * np.eye(n) + t * S
        eig = np.linalg.eigvals(np.linalg.solve(St, St.T))
        worst = max(worst, float(np.max(np.abs(np.abs(eig) - 1.0))))
    return worst


class Numeric:
    name = "numeric"
    per_size = 8            # members per (n, k) in one pass
    sizes = range(2, 9)
    track_steps = 256
    margin = 0.02           # free angles kept inside [margin, 1/2 - margin]
    # Members with two angles closer than about 0.003 are beyond the float
    # path: simplex_path_track mis-tracks them and poly_to_scal's root check
    # rejects them.
    separation = 0.01

    def _sample(self, n: int, k: int, rng: random.Random):
        """A well-conditioned member: its eigenvalue angles at least
        ``separation`` apart on the circle, no spectral number within 1e-3
        of the eigenvalue -1, and the restricted form bounded away from 0
        (the last two as acceptance criterion 6 asks for its samples).

        About one member in 10^4 that passes these tests is still one that
        float ``seifert.classify`` cannot classify ("numeric eigenspace
        dimension mismatch"), a defect of the library; such members are
        redrawn and counted in ``self.redrawn`` so the defect stays in view
        (``seifert.classify.redrawn_frac`` in the traced run)."""
        while True:
            b = hor.sample_scal(n, k, rng, margin=self.margin)
            if circle_separation(b.beta) < self.separation:
                continue
            alphas = closed_form_alphas(n, k, b.beta)
            if any(abs(a % 1.0 - 0.5) < 1e-3 for a in alphas):
                continue
            M = hor.scal_to_matrix(b)
            w = hor.restricted_form_eigenvalues(M)
            if len(w) != 0 and np.abs(w).min() < 1e-5:
                continue
            self.drawn += 1
            try:
                sf.classify(sf.SeifertPair.from_triangular(np.asarray(M.S, dtype=float)))
            except Unclassified:
                self.redrawn += 1
                continue
            return b, M

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        self.drawn = self.redrawn = 0
        xs = []
        for n in self.sizes:
            for k in (1, 2):
                for i in range(self.per_size):
                    b, M = self._sample(n, k, rng)
                    xs.append((f"{n}/{k}#{i}", n, k, b, M))
        rng.shuffle(xs)
        return xs

    def run_item(self, x):
        _, n, _, b, M = x
        predicted, computed = hor.is_signature(M, tol=1e-6, scal=b)
        endpoint = hor.simplex_path_track(M).endpoint
        S = np.asarray(M.S, dtype=float)
        try:
            track = orbit.generic_path_track([np.eye(n), S], steps=self.track_steps).endpoint
        except LeftT:
            track = LEFT_T
        try:
            direct = sf.classify(sf.SeifertPair.from_triangular(S))
        except Unclassified:
            direct = UNCLASSIFIED
        return predicted, computed, endpoint, track, direct

    end_pass = None

    def reference(self):
        """Item key -> (off-circle profile, ladder class), filled in on first
        check: both are dear, and a pass is checked every time it repeats."""
        return {}

    def _reference_item(self, x, ref):
        key, _, _, b, M = x
        if key not in ref:
            ref[key] = (off_circle_profile(np.asarray(M.S, dtype=float), self.track_steps),
                        enc_types(sf.class_from_spp(hor.recipe_spectral_pairs(b), 1,
                                                    signed=False)))
        return ref[key]

    def check_item(self, x, result, ref) -> bool:
        _, n, k, b, M = x
        predicted, computed, endpoint, track, direct = result
        alphas = closed_form_alphas(n, k, b.beta)
        law = signature_law(alphas, n)
        if tuple(predicted) != law or tuple(computed) != law:
            return False
        if any(abs(g - w) > 1e-8 for g, w in zip(endpoint, alphas)) or len(endpoint) != n:
            return False
        S = np.asarray(M.S, dtype=float)
        # LeftT must agree with an independent scan of the same samples; a
        # scan between 1e-8 and 1e-4 straddles the tracker's 1e-6 cutoff
        # and accepts either outcome
        worst, want = self._reference_item(x, ref)
        if track == LEFT_T:
            if worst < 1e-8:
                return False
        else:
            if worst > 1e-4 or not _circle_multiset_close(track, alphas, 1e-6):
                return False
        if direct == UNCLASSIFIED:
            return False
        if not types_agree(enc_types(direct), want):
            return False
        # the signature table of the found types against numpy's eigenvalues
        w = np.linalg.eigvalsh(S + S.T)
        sig = (int(np.sum(w > 1e-9)), int(np.sum(np.abs(w) <= 1e-9)), int(np.sum(w < -1e-9)))
        return tuple(map(sum, zip(*(sf.type_signature(t) for t in direct)))) == sig

    check_pass = None
    crosscheck = None


# ---------------------------------------------------------------------------
# exact: the three exact input sets in one mix
# ---------------------------------------------------------------------------

class Exact:
    """Family members, size-3 grid points and chain tuples, dealt so that
    every pass holds the same share of each; a pass ends with
    conjecture16_check over its family members.

    Family members dominate the time (char poly and exact kernels up to
    8x8); grid points are most of the items, so the median latency follows
    per-call cost on 3x3 inputs; chain tuples use no matrix kernel."""

    name = "exact"
    share = 6               # a pass holds one item in ``share`` of every stratum
    parts = (Family(), Grid3(), Chain())
    crosscheck_items = sum(p.crosscheck_items for p in parts)

    def make_inputs(self, seed: int):
        items = [(f"{part.name}:{x[0]}", part, x) for part in self.parts for x in part.inputs()]
        return deal(items, lambda x: (x[1].name, x[1].stratum(x[2])), self.share,
                    random.Random(seed))[0]

    def run_item(self, x):
        return x[1].run_item(x[2])

    @staticmethod
    def _family(xs):
        return [x[2] for x in xs if x[1].name == "family"]

    def end_pass(self, xs):
        return self.parts[0].end_pass(self._family(xs))

    def reference(self):
        return {part.name: part.reference() for part in self.parts}

    def check_item(self, x, result, ref) -> bool:
        return x[1].check_item(x[2], result, ref[x[1].name])

    def check_pass(self, xs, result, ref) -> bool:
        return self.parts[0].check_pass(self._family(xs), result, ref["family"])

    def crosscheck(self, xs, rng: random.Random) -> int:
        return sum(part.crosscheck([x[2] for x in xs if x[1] is part], rng)
                   for part in self.parts)


WORKLOADS = {w.name: w for w in (Exact(), Numeric())}
