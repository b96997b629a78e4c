from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes.errors import NotLadderComposed
from spectral_stokes.polycore import parse_rational
from spectral_stokes.seifert import class_from_spp
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
        assert partner == lad and dist == 0 and lad.is_single

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
        assert all(lad.is_single for lad in got)

    def test_all_trivial(self):
        n = 5
        s = Spp([(F(0), 1)] * n)
        got = decompose_into_ladders(s, 1)
        assert len(got) == n
        assert all(lad == SppLadder(F(0), 1, 0) and lad.is_single for lad in got)

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


class TestSerialization:
    def test_round_trip(self):
        s = Spp([(F(-1, 2), 2), (F(1, 2), 0), (F(-1, 2), 2)])
        data = s.to_json()
        assert {"alpha": "-1/2", "level": 2, "mult": 2} in data
        assert spp_from_json(data) == s


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
