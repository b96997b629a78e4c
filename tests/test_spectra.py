from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes.errors import NotLadderComposed
from spectral_stokes.polycore import format_number, num_eq, parse_rational
from spectral_stokes.seifert import class_from_spp, irr_type_from_ladder
from spectral_stokes.spectra import Spp, SppLadder, decompose_into_ladders, spp_mod2_equal

F = Fraction

alphas = st.integers(-8, 8).map(lambda n: F(n, 4))
levels = st.integers(-3, 4)


def spp_from_json(data):
    """The multiset that ``Spp.to_json`` writes, read back."""
    return Spp(pair for r in data for pair in [(parse_rational(r["alpha"]), r["level"])] * r["mult"])


class TestLadderMembers:
    def test_length_two(self):
        lad = SppLadder(F(-1, 2), 1, 1)
        assert lad.members() == Spp([(F(-1, 2), 2), (F(1, 2), 0)])

    def test_length_three(self):
        lad = SppLadder(F(-1), 1, 2)
        assert lad.members() == Spp([(F(-1), 3), (F(0), 1), (F(1), -1)])

    def test_singleton(self):
        assert SppLadder(F(3, 7), 2, 0).members() == Spp([(F(3, 7), 2)])


class TestPartner:
    def test_self_partner(self):
        m, l = 1, 1
        lad = SppLadder(F(m - l - 1, 2), m, l)
        partner, dist = lad.partner(), lad.distance
        assert partner == lad and dist == 0

    def test_distance_value(self):
        lad = SppLadder(F(-1, 3), 1, 0)
        partner, dist = lad.partner(), lad.distance
        assert partner.alpha == F(1, 3)
        assert dist == F(-2, 3)

    def test_zero_center_single(self):
        lad = SppLadder(F(0), 1, 0)
        partner, dist = lad.partner(), lad.distance
        assert partner == lad and dist == 0

    @given(alphas, st.integers(-2, 3), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, a, m, l):
        lad = SppLadder(a, m, l)
        assert lad.partner().partner() == lad
        assert lad.partner().distance == -lad.distance


class TestDecompose:
    def test_three_pairs(self):
        s = Spp([(F(-1, 2), 2), (F(1, 2), 0), (F(0), 1)])
        got = decompose_into_ladders(s, 1)
        ladders = sorted(got, key=lambda l: (l.l, l.alpha))
        assert ladders == [SppLadder(F(0), 1, 0), SppLadder(F(-1, 2), 1, 1)]
        assert all(lad.distance == 0 for lad in got)

    def test_all_trivial(self):
        n = 5
        s = Spp([(F(0), 1)] * n)
        got = decompose_into_ladders(s, 1)
        assert len(got) == n
        assert all(lad == SppLadder(F(0), 1, 0) and lad.distance == 0 for lad in got)

    def test_missing_member(self):
        with pytest.raises(NotLadderComposed):
            decompose_into_ladders(Spp([(F(0), 2)]), 1)

    @given(st.lists(st.tuples(alphas, st.integers(0, 2), st.booleans()),
                    min_size=1, max_size=10),
           st.integers(-1, 2))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, specs, m):
        spp = Spp()
        count = 0
        for a, l, single in specs:
            if single:
                lads = [SppLadder(F(m - l - 1, 2), m, l)]
            else:
                alpha = F(m - l - 1, 2) + a + F(1, 8)  # guaranteed nonzero distance
                lads = [SppLadder(alpha, m, l), SppLadder(alpha, m, l).partner()]
            for lad in lads:
                spp = spp + lad.members()
                count += 1
        got = decompose_into_ladders(spp, m)
        assert len(got) == count
        back = Spp()
        for lad in got:
            back = back + lad.members()
        assert back == spp
        # every non-single ladder finds its partner
        class_from_spp(spp, m)



def _num_eq_decompose(s, m):
    """decompose_into_ladders on a ladder-composed multiset, matching first
    numbers by ``num_eq`` value by value."""
    remaining = list(s.pairs)

    def take(alpha, level):
        return remaining.pop(next(i for i, (a, k) in enumerate(remaining)
                                  if k == level and num_eq(a, alpha)))
    ladders = []
    while remaining:
        top = max(k for _, k in remaining)
        l = top - m
        alpha = min(a for a, k in remaining if k == top)
        first = take(alpha, top)
        for j in range(1, l + 1):
            take(alpha + j, m + l - 2 * j)
        ladders.append(SppLadder(first[0], m, l))
    return ladders


def _num_eq_class(s, m, signed):
    """class_from_spp with the single test and the partner search by
    ``num_eq`` on the ladders' Fraction or float first numbers."""
    ladders, out = _num_eq_decompose(s, m), []
    while ladders:
        lad = ladders.pop(0)
        t = irr_type_from_ladder(lad.alpha, m, lad.l, signed)
        if num_eq(lad.distance, 0):
            out.append(t)
            continue
        partner = lad.partner()
        del ladders[next(j for j, other in enumerate(ladders)
                         if other.l == partner.l and num_eq(other.alpha, partner.alpha))]
        out.extend([t, t] if t.family == "F1" else [t])
    return out


@given(st.lists(st.tuples(st.integers(-24, 24).map(lambda n: F(n, 12)), st.integers(0, 3),
                          st.booleans()), min_size=1, max_size=8),
       st.integers(-1, 2), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_numerator_matching_is_the_num_eq_matching(specs, m, signed, as_floats):
    # ladders and their partners, some at distance zero, exact or as floats
    pairs = []
    for a, l, single in specs:
        lad = SppLadder(F(m - l - 1, 2) + (0 if single else a), m, l)
        pairs += lad._pairs() + ([] if single or lad.distance == 0 else lad.partner()._pairs())
    s = Spp((float(a), k) if as_floats else (a, k) for a, k in pairs)
    got, want = decompose_into_ladders(s, m), _num_eq_decompose(s, m)
    assert [(type(lad.alpha), repr(lad.alpha), lad.l) for lad in got] == \
        [(type(lad.alpha), repr(lad.alpha), lad.l) for lad in want]
    assert class_from_spp(s, m, signed) == _num_eq_class(s, m, signed)



@given(st.lists(st.tuples(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=12)
                          | st.floats(-3, 3, allow_nan=False), st.integers(-2, 2)), max_size=12),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_pairs_are_in_the_order_of_their_values(pairs, exact_only):
    # exact pairs sort on integer numerators, ties (0 and F(0), say) in input order
    if exact_only:
        pairs = [(a, k) for a, k in pairs if not isinstance(a, float)]
    want = sorted(pairs)
    assert [(type(a), repr(a), k) for a, k in Spp(pairs)] == [(type(a), repr(a), k) for a, k in want]


class TestShiftAndMod2:
    def test_mod2_true(self):
        assert spp_mod2_equal(Spp([(F(0), 1)]), Spp([(F(2), 1)]))

    def test_mod2_false(self):
        assert not spp_mod2_equal(Spp([(F(0), 1)]), Spp([(F(1), 1)]))

    @given(st.lists(st.tuples(alphas, levels), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_mod2_equivalence_relation(self, pairs):
        s = Spp(pairs)
        shifted = Spp([(a + 2, k) for a, k in s])
        assert spp_mod2_equal(s, s)
        assert spp_mod2_equal(s, shifted) and spp_mod2_equal(shifted, s)
        shifted2 = Spp([(a - 4, k) for a, k in shifted])
        if spp_mod2_equal(s, shifted) and spp_mod2_equal(shifted, shifted2):
            assert spp_mod2_equal(s, shifted2)


class TestNearEqualFloats:
    def test_near_equal_alphas_at_swapped_levels(self):
        # sorted, the two tuples hold their levels in opposite order
        assert Spp([(0.1 + 1e-12, 2), (0.1, 1)]) == Spp([(0.1, 2), (0.1 + 1e-12, 1)])
        assert Spp([(0.1 + 1e-6, 2), (0.1, 1)]) != Spp([(0.1, 2), (0.1 + 1e-6, 1)])

    def test_mod2_matches_across_the_seam(self):
        assert spp_mod2_equal(Spp([(2 - 1e-12, 1)]), Spp([(0.0, 1)]))
        assert spp_mod2_equal(Spp([(F(1, 3), 1)]), Spp([(F(1, 3) - 2 + 1e-12, 1)]))
        assert not spp_mod2_equal(Spp([(F(2) - F(1, 10 ** 12), 1)]), Spp([(F(0), 1)]))


def _counted_json(s: Spp):
    """The former ``Spp.to_json``: multiplicities counted in a dict, rows
    in the order of the first occurrence of each pair."""
    counted, order = {}, []
    for key in s.pairs:
        if key not in counted:
            counted[key] = 0
            order.append(key)
        counted[key] += 1
    return [{"alpha": format_number(a), "level": k, "mult": counted[(a, k)]} for a, k in order]


exact_alphas = st.one_of(alphas, st.sampled_from([0, F(0)]))
float_alphas = st.one_of(alphas.map(float), st.sampled_from([0.0, -0.0]),
                         st.floats(-3, 3, allow_nan=False))


class TestSerialization:
    def test_round_trip(self):
        s = Spp([(F(-1, 2), 2), (F(1, 2), 0), (F(-1, 2), 2)])
        data = s.to_json()
        assert {"alpha": "-1/2", "level": 2, "mult": 2} in data
        assert spp_from_json(data) == s

    @given(st.sampled_from([exact_alphas, float_alphas, st.one_of(exact_alphas, float_alphas)])
           .flatmap(lambda a: st.lists(st.tuples(a, levels), max_size=12)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dict_count(self, pairs):
        s = Spp(pairs)
        assert s.to_json() == _counted_json(s)

    def test_zeros_of_every_type_at_one_level(self):
        s = Spp([(-0.0, 1), (F(1, 2), 1), (0.0, 1), (0, 1), (F(0), 1), (F(0), 2)])
        assert s.to_json() == _counted_json(s) == [
            {"alpha": "-0", "level": 1, "mult": 4}, {"alpha": "0", "level": 2, "mult": 1},
            {"alpha": "1/2", "level": 1, "mult": 1}]


class TestExactOrder:
    # equal as floats, so a float sort key would keep the input order
    x = F(1, 3)
    y = F(1, 3) + F(1, 10 ** 20)

    def test_equal_multisets_in_either_order(self):
        assert Spp([(self.x, 1), (self.y, 1)]) == Spp([(self.y, 1), (self.x, 1)])

    def test_exact_values_apart_are_unequal(self):
        assert Spp([(self.x, 1)]) != Spp([(self.y, 1)])
        assert not spp_mod2_equal(Spp([(self.x, 1)]), Spp([(self.y + 2, 1)]))

    def test_alphas_in_exact_order(self):
        assert [a for a, _ in Spp([(self.y, 1), (self.x, 1)])] == [self.x, self.y]
