import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes import hor, matrices as mx, orbit, seifert as sf
from spectral_stokes.errors import LeftT, Unclassified
from spectral_stokes.polycore import RealPoly, point_to_angle, _lift_angles

F = Fraction


def random_triangular(rng, n, lo=-2, hi=2):
    return mx.to_matrix([[1 if i == j else (rng.randrange(lo, hi + 1) if j > i else 0)
                          for j in range(n)] for i in range(n)])


class TestSignAction:
    def test_trivial(self):
        S = random_triangular(random.Random(0), 3)
        assert mx.mat_eq(orbit.sign_act((1, 1, 1), S), S)

    def test_family_exchange(self):
        # conjugation by (1,-1,1) carries the symmetric band to the
        # antisymmetric band in size 3
        p1 = F(3, 2)
        M1 = hor.poly_to_matrix(RealPoly([1, p1, p1, 1]), 1)
        S2 = orbit.sign_act((1, -1, 1), M1.S)
        assert S2.tolist() == [[1, -p1, p1], [0, 1, -p1], [0, 0, 1]]
        q, k2 = hor.negate_poly_transform(M1)
        assert hor.poly_to_matrix(q, k2).S.tolist() == S2.tolist()

    def test_size2_negation(self):
        S = mx.to_matrix([[1, F(3, 4)], [0, 1]])
        S2 = orbit.sign_act((1, -1), S)
        assert S2.tolist() == [[1, F(-3, 4)], [0, 1]]
        mono1 = mx.char_poly_exact(mx.solve_unit_upper(S, S.T.copy()))
        mono2 = mx.char_poly_exact(mx.solve_unit_upper(S2, S2.T.copy()))
        assert mono1 == mono2


class TestBraidAction:
    def test_identity_fixed(self):
        E = mx.identity(4)
        for i in (1, 2, 3):
            assert mx.mat_eq(orbit.braid_act(i, E), E)

    def test_involution_and_invariance(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randrange(2, 5)
            S = random_triangular(rng, n)
            i = rng.randrange(1, n)
            cp = mx.char_poly_exact(mx.solve_unit_upper(S, S.T.copy()))
            S2 = orbit.braid_act(i, S)
            assert mx.is_unit_upper_triangular(S2)
            assert mx.char_poly_exact(mx.solve_unit_upper(S2, S2.T.copy())) == cp
            assert mx.mat_eq(orbit.braid_act(i, S2, -1), S)
            assert mx.mat_eq(orbit.braid_act(i, orbit.braid_act(i, S, -1)), S)

    def test_involution_bulk_size4(self):
        rng = random.Random(47)
        for _ in range(500):
            S = random_triangular(rng, 4, -3, 3)
            i = rng.randrange(1, 4)
            assert mx.mat_eq(orbit.braid_act(i, orbit.braid_act(i, S), -1), S)

    def test_class_invariance(self):
        rng = random.Random(43)
        for _ in range(20):
            S = random_triangular(rng, 3, -1, 1)
            try:
                before = sf.classify(sf.SeifertPair.from_triangular(S))
            except Unclassified:
                continue
            S2 = orbit.braid_act(rng.randrange(1, 3), S)
            eps = [rng.choice((1, -1)) for _ in range(3)]
            S3 = orbit.sign_act(eps, S2)
            after = sf.classify(sf.SeifertPair.from_triangular(S3))
            assert sf.types_multiset_equal(before, after)


class TestOrbitExplore:
    def test_identity_orbit(self):
        rep = orbit.orbit_explore(mx.identity(3), depth=4, budget=100)
        assert len(rep.nodes) == 1 and not rep.exhausted

    def test_simple_orbit_finite(self):
        S = mx.to_matrix([[1, 1], [0, 1]])
        rep = orbit.orbit_explore(S, depth=12, budget=1000)
        assert not rep.exhausted
        assert len(rep.nodes) == 1  # one class modulo sign conjugation

    def test_invariant_char_poly_per_node(self):
        S = hor.poly_to_matrix(RealPoly([1, 1, 0, 1, 1]), 1).S
        rep = orbit.orbit_explore(S, depth=3, budget=64)
        cp = mx.char_poly_exact(mx.solve_unit_upper(S, S.T.copy()))
        for key in rep.nodes:
            T = mx.to_matrix([list(r) for r in key])
            assert mx.char_poly_exact(mx.solve_unit_upper(T, T.T.copy())) == cp

    def test_size_guard(self):
        with pytest.raises(ValueError, match="at most"):
            orbit.orbit_explore(mx.identity(orbit.MAX_ORBIT_N + 1), depth=1, budget=1)

    def test_budget_exhaustion_reported(self):
        S = hor.poly_to_matrix(RealPoly([1, 3, 3, 1]), 1).S
        rep = orbit.orbit_explore(S, depth=50, budget=10)
        assert rep.exhausted


class TestConjectureExperiment:
    def test_sign_related_members_grouped(self):
        M1 = hor.poly_to_matrix(RealPoly([1, F(3, 2), F(3, 2), 1]), 1)
        q, k2 = hor.negate_poly_transform(M1)
        M2 = hor.poly_to_matrix(q, k2)
        rep = orbit.conjecture16_check([("a", M1), ("b", M2)])
        assert len(rep.violations) == 0

    def test_distinct_polys_grouped_apart(self):
        M1 = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1)
        M2 = hor.poly_to_matrix(RealPoly([1, 2, 1]), 1)
        rep = orbit.conjecture16_check([("a", M1), ("b", M2)])
        assert len(rep.groups) == 2 and not rep.violations

    def test_report_schema(self):
        M = hor.poly_to_matrix(RealPoly([1, 1, 1]), 1)
        rep = orbit.conjecture16_check([("a", M)])
        data = rep.to_json()
        assert set(data) == {"groups", "violations"}

    def test_same_fiber_different_spectrum_is_reported(self):
        # two members with equal monodromy polynomial but different spectra:
        # fibers of the eigenvalue map are coarser than its strata, so this
        # lands in the candidate list (it does not contradict anything)
        from spectral_stokes.polycore import poly_from_cyclotomic_mults
        p_a = poly_from_cyclotomic_mults({2: 2, 10: 1})
        p_b = poly_from_cyclotomic_mults({3: 1, 5: 1})
        M_a = hor.poly_to_matrix(p_a, 1)
        M_b = hor.poly_to_matrix(p_b, 1)
        rep = orbit.conjecture16_check([("a", M_a), ("b", M_b)])
        assert len(rep.groups) == 1
        assert len(rep.violations) == 1


class TestGenericTrack:
    def test_constant_path(self):
        res = orbit.generic_path_track([np.eye(3), np.eye(3)], steps=16)
        assert np.allclose(res.alphas, 0.0)
        assert not res.path_dependent

    def test_boundary_collision_flagged(self):
        res = orbit.generic_path_track(
            [np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])], steps=300)
        assert sorted(res.endpoint) == pytest.approx([-0.5, 0.5], abs=1e-6)
        assert res.path_dependent
        assert any(abs(r - 1.0) < 1e-9 for r, _, _ in res.collisions)

    def test_must_start_at_identity(self):
        with pytest.raises(ValueError):
            orbit.generic_path_track([np.array([[1.0, 1.0], [0.0, 1.0]])] * 2)

    def test_leaving_the_set_detected(self):
        bad = np.array([[1.0, 3.0], [0.0, 1.0]])  # eigenvalues off the circle
        with pytest.raises(LeftT):
            orbit.generic_path_track([np.eye(2), bad], steps=64)

    def test_matches_family_tracking(self):
        p = RealPoly([1.0, 0.7, 0.7, 1.0])
        M = hor.poly_to_matrix(p, 1)
        Sf = np.asarray(M.S, dtype=float)
        res = orbit.generic_path_track([np.eye(3), Sf], steps=600)
        fam = hor.simplex_path_track(hor.poly_to_matrix(p, 1), steps=600)
        assert sorted(res.endpoint) == pytest.approx(
            sorted(float(x) for x in fam.endpoint), abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_family_path_ends_at_recipe(self, seed):
        # continued along the member's own path S(beta(t)), the strands
        # cross where least-distance matching would bounce
        for n in range(2, 8):
            for k in (1, 2):
                b = hor.sample_scal(n, k, random.Random(seed))
                fam = hor.simplex_path_track(hor.scal_to_matrix(b), steps=64 * n)
                res = orbit.generic_path_track(hor.path_matrices(fam.betas), steps=64 * n)
                want = sorted(float(a) for a in hor.recipe_spectrum(b))
                assert sorted(res.endpoint) == pytest.approx(want, abs=1e-6), (n, k)
                # meetings at the times the closed-form strands cross an integer
                strands = np.asarray(fam.alphas, dtype=float)
                crossings = []
                for i in range(n):
                    for j in range(i + 1, n):
                        d = np.floor(strands[1:, i] - strands[1:, j])
                        crossings += [fam.times[s + 2] for s in np.flatnonzero(d[1:] != d[:-1])]
                assert sorted(t for t, _, _ in res.collisions) == sorted(crossings), (n, k)
                assert res.path_dependent == bool(crossings)

    def test_crossing_between_samples_is_reported(self):
        # (3, 1) at seed 0: the strands alpha and -alpha pass through +-1/2,
        # the eigenvalue -1, strictly between two samples, and end at +-0.767
        b = hor.sample_scal(3, 1, random.Random(0))
        fam = hor.simplex_path_track(hor.scal_to_matrix(b), steps=192)
        res = orbit.generic_path_track(hor.path_matrices(fam.betas), steps=192)
        [(t, i, j)] = res.collisions
        assert res.path_dependent
        assert res.alphas[-1, i] == pytest.approx(-res.alphas[-1, j])
        s = int(np.flatnonzero(res.times == t)[0])
        before, after = (res.alphas[r, i] - res.alphas[r, j] for r in (s - 1, s))
        assert math.floor(before) != math.floor(after)
        assert min(abs(before - round(before)), abs(after - round(after))) > 1e-3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_leaves_t(self, bad):
        # the first sample already carries the bad entry, above the diagonal
        with pytest.raises(LeftT, match="non-finite") as exc:
            orbit.generic_path_track([np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])], steps=8)
        assert exc.value.parameter == 0.125

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps"):
            orbit.generic_path_track([np.eye(2), np.eye(2)], steps=0)

    def test_singular_sample_leaves_t(self):
        # inside the shape tolerance, yet exactly singular
        S = np.array([[1.0, 2e7], [5e-8, 1.0]])
        with pytest.raises(LeftT, match="singular") as exc:
            orbit.generic_path_track([np.eye(2), S], steps=1)
        assert exc.value.parameter == 1.0
        # with more samples, an earlier one is already off the circle
        with pytest.raises(LeftT, match="off the circle") as exc:
            orbit.generic_path_track([np.eye(2), S], steps=4)
        assert exc.value.parameter == 0.25


# ---------------------------------------------------------------------------
# the batched tracker against the sample-by-sample loop it replaced
# ---------------------------------------------------------------------------

def _generic_reference(path, steps):
    """generic_path_track evaluated one sample at a time."""
    mats = [np.asarray(S, dtype=float) for S in path]
    n = mats[0].shape[0]
    times = np.linspace(0.0, 1.0, steps + 1)
    segs = len(mats) - 1
    prev = current = np.zeros(n)
    lifts = np.empty((steps + 1, n))
    lifts[0] = current
    collisions = []
    separated = np.zeros((n, n), dtype=bool)
    # every strand starts at 0, so each pair starts close with floor 0
    was_close = np.ones((n, n), dtype=bool)
    floors = np.zeros((n, n))
    for s, t in enumerate(times[1:], start=1):
        x = t * segs
        seg = min(int(x), segs - 1)
        loc = x - seg
        S = (1 - loc) * mats[seg] + loc * mats[seg + 1]
        if any(not abs(S[i, j] - (i == j)) <= 1e-7 for i in range(n) for j in range(i + 1)):
            raise LeftT(t, "sample is not unit upper triangular")
        mono = np.linalg.solve(S, S.T)
        if not np.isfinite(mono).all():
            raise LeftT(t, "monodromy has a non-finite entry")
        eig = np.linalg.eigvals(mono)
        if np.any(np.abs(np.abs(eig) - 1.0) > 1e-6):
            worst = float(np.max(np.abs(np.abs(eig) - 1.0)))
            raise LeftT(t, f"eigenvalue off the circle by {worst:.2e}")
        nxt = _lift_angles(prev, current, np.array([point_to_angle(z) for z in eig]))
        for i in range(n):
            for j in range(i + 1, n):
                diff = nxt[i] - nxt[j]
                close = abs((diff + 0.5) % 1.0 - 0.5) < 1e-6
                # the difference crossed an integer strictly between two samples
                crossed = not close and not was_close[i, j] and math.floor(diff) != floors[i, j]
                if close and separated[i, j] or crossed:
                    collisions.append((float(t), i, j))
                elif not close:
                    separated[i, j] = True
                was_close[i, j], floors[i, j] = close, math.floor(diff)
        prev, current = current, nxt
        lifts[s] = current
    return orbit.GenericTrack(times, lifts, collisions, bool(collisions))


def _track_outcome(fn, path, steps):
    try:
        res = fn(path, steps)
    except LeftT as exc:
        return "LeftT", type(exc.parameter), exc.parameter, str(exc)
    return res.times.tobytes(), res.alphas.tobytes(), res.collisions, res.path_dependent


def _assert_same_as_reference(path, steps):
    got = _track_outcome(orbit.generic_path_track, path, steps)
    assert got == _track_outcome(_generic_reference, path, steps)
    return got


def _blocks(*a):
    """Block-diagonal unit upper-triangular matrix of 2x2 blocks [[1, a], [0, 1]];
    a block's eigenvalues stay on the circle for |a| <= 2 and meet at -1 for |a| = 2."""
    S = np.eye(2 * len(a))
    for q, x in enumerate(a):
        S[2 * q, 2 * q + 1] = x
    return S


_ENTRY = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 1.5, 2.0, -2.0, 2.5]),
                   st.floats(-2.5, 2.5, allow_nan=False))


@st.composite
def _paths(draw):
    n = draw(st.integers(1, 4))
    path = [np.eye(n)]
    for _ in range(draw(st.integers(1, 3))):
        S = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                S[i, j] = draw(_ENTRY)
        if n > 1 and draw(st.booleans()):
            # a lower entry beyond the 1e-7 shape tolerance partway along
            S[n - 1, 0] = draw(st.sampled_from([0.0, 5e-8, 2e-7, 1e-6]))
        path.append(S)
    return path


class TestBatchedGenericTrack:
    @given(_paths(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_matches_sample_loop(self, path, steps):
        _assert_same_as_reference(path, steps)

    @pytest.mark.parametrize("steps", [1, 2, 3, 64])
    def test_few_steps(self, steps):
        _assert_same_as_reference([np.eye(4), _blocks(1.0, -1.5)], steps)

    def test_leaves_partway_along_later_segment(self):
        got = _assert_same_as_reference([np.eye(2), _blocks(1.0), _blocks(3.0)], 40)
        assert got[0] == "LeftT" and "off the circle" in got[3]
        assert 0.5 < got[2] < 1.0

    def test_several_colliding_pairs(self):
        # both blocks reach a = 2 at r = 1 along different routes, so their
        # four strands, apart before, all meet at the eigenvalue -1
        got = _assert_same_as_reference([np.eye(4), _blocks(1.0, 0.5), _blocks(2.0, 2.0)], 64)
        assert {(i, j) for _, i, j in got[2]} == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_shape_check_before_circle_check(self):
        # the last sample is both off the circle and not triangular
        bad = _blocks(3.0)
        bad[1, 0] = 1.0
        got = _assert_same_as_reference([np.eye(2), bad], 1)
        assert got[0] == "LeftT" and "not unit upper triangular" in got[3]

    def test_singular_sample_named_after_solve_fails(self):
        # det S = 1 - 2e7 * 5e-8 = 0: the last sample makes the batched solve
        # fail, and det names it
        E, S = np.eye(2), [[1, 2e7], [5e-8, 1]]
        with pytest.raises(LeftT) as exc:
            orbit.generic_path_track([E, E, S], steps=2)
        assert exc.value.parameter == 1.0 and "sample is singular" in str(exc.value)
        # an earlier sample off the circle is named first
        with pytest.raises(LeftT) as exc:
            orbit.generic_path_track([E, E, S], steps=6)
        assert exc.value.parameter == pytest.approx(2 / 3) and "off the circle" in str(exc.value)

    def test_overflowing_monodromy_leaves(self):
        # each sample is finite and unit upper-triangular, but 1 - a^2 overflows
        with pytest.raises(LeftT) as exc:
            orbit.generic_path_track([np.eye(2), [[1, 1e200], [0, 1]]], steps=4)
        assert exc.value.parameter == 0.25 and "non-finite" in str(exc.value)

    def test_overflow_after_finite_samples(self):
        got = _assert_same_as_reference([np.eye(2), _blocks(1.0), [[1, 1e200], [0, 1]]], 8)
        assert got[0] == "LeftT" and got[2] == 0.625 and "non-finite" in got[3]

    def test_circle_check_before_overflow(self):
        got = _assert_same_as_reference([np.eye(2), _blocks(3.0), [[1, 1e200], [0, 1]]], 8)
        assert got[0] == "LeftT" and "off the circle" in got[3] and got[2] < 0.5
