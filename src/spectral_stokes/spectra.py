"""Spectral pairs, spectral-pair ladders, partners and their symmetries.

A spectral pair is ``(alpha, k)`` with ``alpha`` real and ``k`` an integer
level.  A ladder with first number ``alpha``, center ``m`` and length
``l + 1`` consists of the pairs ``(alpha + j, m + l - 2j)`` for
``j = 0..l``.  Multisets of pairs are modelled by :class:`Spp`, which
orders its pairs by their exact values (Python compares Fractions, ints
and floats exactly), so two exact multisets are equal exactly when their
sorted tuples are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotLadderComposed
from .polycore import CIRCLE_TOL, format_number, is_exact, num_eq, parse_rational


class Spp:
    """Multiset of spectral pairs, stored as a sorted tuple with repeats."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        self.pairs = tuple(sorted((a, int(k)) for a, k in pairs))

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"({format_number(a)},{k})" for a, k in self.pairs)
        return f"Spp[{inner}]"

    def __add__(self, other: "Spp") -> "Spp":
        return Spp(self.pairs + other.pairs)

    @property
    def is_exact(self) -> bool:
        return all(is_exact(a) for a, _ in self.pairs)

    def alphas(self):
        """The underlying spectrum (first components, sorted)."""
        return [a for a, _ in self.pairs]

    def equals(self, other: "Spp") -> bool:
        if len(self) != len(other):
            return False
        if self.is_exact and other.is_exact:
            return self.pairs == other.pairs
        return all(k1 == k2 and num_eq(a1, a2)
                   for (a1, k1), (a2, k2) in zip(self.pairs, other.pairs))

    def __eq__(self, other):
        return isinstance(other, Spp) and self.equals(other)

    def __hash__(self):
        return hash(len(self.pairs))

    def shift(self, dalpha, dk: int) -> "Spp":
        """Subtract (dalpha, dk) from every pair."""
        return Spp([(a - dalpha, k - dk) for a, k in self.pairs])

    def mod2(self) -> "Spp":
        return Spp([(a % 2, k) for a, k in self.pairs])

    def to_json(self):
        out = []
        counted: dict = {}
        order = []
        for a, k in self.pairs:
            key = (a, k)
            if key not in counted:
                counted[key] = 0
                order.append(key)
            counted[key] += 1
        for a, k in order:
            out.append({"alpha": format_number(a), "level": k, "mult": counted[(a, k)]})
        return out

    @classmethod
    def from_json(cls, data) -> "Spp":
        pairs = []
        for rec in data:
            pairs.extend([(parse_rational(rec["alpha"]), int(rec["level"]))] * int(rec.get("mult", 1)))
        return cls(pairs)


def spp_mod2_equal(s1: Spp, s2: Spp) -> bool:
    """Equality of pair multisets after reducing the first components mod 2."""
    m1, m2 = s1.mod2(), s2.mod2()
    if len(m1) != len(m2):
        return False
    if m1.is_exact and m2.is_exact:
        return m1.pairs == m2.pairs
    # mod-2 reduction can put nearly-equal values at opposite ends (2-eps vs eps)
    used = [False] * len(m2.pairs)
    for a, k in m1.pairs:
        hit = None
        for i, (b, k2) in enumerate(m2.pairs):
            if used[i] or k != k2:
                continue
            d = abs(float(a) - float(b))
            if min(d, 2.0 - d) <= CIRCLE_TOL:
                hit = i
                break
        if hit is None:
            return False
        used[hit] = True
    return True


@dataclass(frozen=True)
class SppLadder:
    """Ladder of spectral pairs: first number alpha, center m, length l + 1."""

    alpha: object
    m: int
    l: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("ladder length parameter l must be >= 0")

    def _pairs(self) -> list:
        return [(self.alpha + j, self.m + self.l - 2 * j) for j in range(self.l + 1)]

    def members(self) -> Spp:
        return Spp(self._pairs())

    @property
    def distance(self):
        """Distance to the partner ladder; zero exactly for single ladders."""
        return 2 * self.alpha + self.l + 1 - self.m

    @property
    def is_single(self) -> bool:
        return num_eq(self.distance, 0)

    def partner(self) -> "SppLadder":
        return SppLadder(self.m - self.l - 1 - self.alpha, self.m, self.l)

    def __repr__(self):
        return f"SppLadder(alpha={format_number(self.alpha)}, m={self.m}, l={self.l})"


def kleinian_image(pair, m: int, which: str):
    """Image of a spectral pair under the Kleinian involutions with center m.

    ``pi1``: (a, w) -> (m - 1 - a, 2m - w)
    ``pi2``: (a, w) -> (2m - 1 - w - a, w)
    ``pi3`` = pi1 o pi2 = pi2 o pi1: (a, w) -> (a + w - m, 2m - w)
    """
    a, w = pair
    if which == "pi1":
        return (m - 1 - a, 2 * m - w)
    if which == "pi2":
        return (2 * m - 1 - w - a, w)
    if which == "pi3":
        return (a + w - m, 2 * m - w)
    raise ValueError("which must be one of 'pi1', 'pi2', 'pi3'")


@dataclass(frozen=True)
class LadderAssignment:
    """One ladder of a decomposition, with its pairing status."""

    ladder: SppLadder
    partner_index: int | None  # index into the decomposition list, None if single

    @property
    def is_single(self) -> bool:
        return self.partner_index is None and self.ladder.is_single


def decompose_into_ladders(s: Spp, m: int) -> list[LadderAssignment]:
    """The unique decomposition of ``s`` into ladders with center ``m``.

    Greedy extraction: among the remaining pairs, the highest level must
    start a full ladder (level m + l forces length l + 1); ties are broken
    by the smallest first number.  Afterwards the ladders are matched into
    partner pairs; ladders without a present partner stay unpaired (their
    assignment has ``partner_index None`` but ``is_single False``).

    Raises NotLadderComposed when the top-level pair cannot be extended to
    a full ladder.
    """
    remaining = list(s.pairs)

    def take(alpha, level):
        for i, (a, k) in enumerate(remaining):
            if k == level and num_eq(a, alpha):
                return remaining.pop(i)
        return None

    ladders: list[SppLadder] = []
    while remaining:
        top = max(k for _, k in remaining)
        l = top - m
        if l < 0:
            raise NotLadderComposed(
                f"pair with level {top} cannot belong to a ladder with center {m}",
                witness=next(p for p in remaining if p[1] == top))
        alpha = min(a for a, k in remaining if k == top)
        got = [take(alpha, top)]
        ok = True
        for j in range(1, l + 1):
            nxt = take(alpha + j, m + l - 2 * j)
            if nxt is None:
                ok = False
                break
            got.append(nxt)
        if not ok:
            raise NotLadderComposed(
                f"ladder starting at ({format_number(alpha)}, {top}) is incomplete",
                witness=(alpha, top))
        ladders.append(SppLadder(got[0][0], m, l))

    assignments: list[LadderAssignment] = []
    used = [False] * len(ladders)
    for i, lad in enumerate(ladders):
        if used[i]:
            continue
        used[i] = True
        if lad.is_single:
            assignments.append(LadderAssignment(lad, None))
            continue
        partner = lad.partner()
        match = None
        for j in range(i + 1, len(ladders)):
            if used[j]:
                continue
            other = ladders[j]
            if other.m == partner.m and other.l == partner.l and \
                    num_eq(other.alpha, partner.alpha):
                match = j
                break
        if match is not None:
            used[match] = True
            assignments.append(LadderAssignment(lad, len(assignments) + 1))
            assignments.append(LadderAssignment(ladders[match], len(assignments) - 1))
        else:
            assignments.append(LadderAssignment(lad, None))
    return assignments
