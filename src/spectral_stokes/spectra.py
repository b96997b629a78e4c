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

from .errors import NotLadderComposed
from .polycore import format_number, multiset_eq, num_eq


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

    def equals(self, other: "Spp") -> bool:
        return multiset_eq(self.pairs, other.pairs,
                           lambda p, q: p[1] == q[1] and num_eq(p[0], q[0]))

    def __eq__(self, other):
        return isinstance(other, Spp) and self.equals(other)

    def __hash__(self):
        return hash(len(self.pairs))

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

    @property
    def is_single(self) -> bool:
        return num_eq(self.distance, 0)

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
    return ladders
