"""Spectral pairs, spectral-pair ladders, partners and ladder decompositions.

A spectral pair is ``(alpha, k)`` with ``alpha`` real and ``k`` an integer
level.  A ladder with first number ``alpha``, center ``m`` and length
``l + 1`` consists of the pairs ``(alpha + j, m + l - 2j)`` for
``j = 0..l``.  Multisets of pairs are modelled by :class:`Spp`, which
orders its pairs by their exact values (Python compares Fractions, ints
and floats exactly) and compares them through ``polycore.multiset_eq``:
levels equal, first numbers equal by ``num_eq``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import NotLadderComposed
from .polycore import _numerators_or_floats, format_number, multiset_eq, num_eq


class Spp:
    """Multiset of spectral pairs, stored as a sorted tuple with repeats."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        pairs = [(a, int(k)) for a, k in pairs]
        xs, _, tol = _numerators_or_floats([a for a, _ in pairs])
        # exact pairs (tol 0) sort on integer numerators; equal pairs keep their input order
        order = sorted(range(len(pairs)), key=lambda i: pairs[i] if tol else (xs[i], pairs[i][1]))
        self.pairs = tuple(pairs[i] for i in order)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"({format_number(a)},{k})" for a, k in self.pairs)
        return f"Spp[{inner}]"

    def __add__(self, other: "Spp") -> "Spp":
        return Spp(self.pairs + other.pairs)

    def equals(self, other: "Spp") -> bool:
        return multiset_eq(self.pairs, other.pairs,
                           lambda p, q: p[1] == q[1] and num_eq(p[0], q[0]))

    def __eq__(self, other):
        return isinstance(other, Spp) and self.equals(other)

    def __hash__(self):
        return hash(len(self.pairs))

    def to_json(self):
        # the sort puts equal pairs next to each other; each run is named by its first pair
        return [{"alpha": format_number(a), "level": k, "mult": len(list(run))}
                for (a, k), run in groupby(self.pairs)]



def spp_mod2_equal(s1: Spp, s2: Spp) -> bool:
    """Equality of pair multisets after reducing the first components mod 2;
    in floats, values near opposite ends of [0, 2) match too."""
    return multiset_eq(s1.pairs, s2.pairs,
                       lambda p, q: p[1] == q[1] and num_eq((p[0] - q[0] + 1) % 2, 1))


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

    def partner(self) -> "SppLadder":
        return SppLadder(self.m - self.l - 1 - self.alpha, self.m, self.l)

    def __repr__(self):
        return f"SppLadder(alpha={format_number(self.alpha)}, m={self.m}, l={self.l})"


def decompose_into_ladders(s: Spp, m: int) -> list[SppLadder]:
    """The unique decomposition of ``s`` into ladders with center ``m``.

    Greedy extraction: among the remaining pairs, the highest level must
    start a full ladder (level m + l forces length l + 1); ties are broken
    by the smallest first number.  ``seifert.class_from_spp`` pairs the
    ladders with their partners.

    Raises NotLadderComposed when the top-level pair cannot be extended to
    a full ladder.  Exact first numbers are matched as integer numerators
    over one denominator, float ones within ``CIRCLE_TOL``.
    """
    xs, unit, tol = _numerators_or_floats([a for a, _ in s.pairs])
    remaining = [(x, k, a) for x, (a, k) in zip(xs, s.pairs)]

    def take(x, level):
        for i, (y, k, _) in enumerate(remaining):
            if k == level and abs(y - x) <= tol:
                return remaining.pop(i)
        return None

    ladders: list[SppLadder] = []
    while remaining:
        top = max(k for _, k, _ in remaining)
        l = top - m
        if l < 0:
            raise NotLadderComposed(
                f"pair with level {top} cannot belong to a ladder with center {m}",
                witness=next((a, k) for _, k, a in remaining if k == top))
        x = min(y for y, k, _ in remaining if k == top)
        alpha = take(x, top)[2]
        if any(take(x + j * unit, m + l - 2 * j) is None for j in range(1, l + 1)):
            raise NotLadderComposed(
                f"ladder starting at ({format_number(alpha)}, {top}) is incomplete",
                witness=(alpha, top))
        ladders.append(SppLadder(alpha, m, l))
    return ladders
