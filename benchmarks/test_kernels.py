"""Layer microbenchmarks of the exact kernels, one public call each.

    PYTHONPATH=src python -m pytest benchmarks -q

runs them with pytest-benchmark (add ``--benchmark-json out.json`` to keep
the numbers).  They sit outside the test suite's ``testpaths``, so a plain
``pytest`` does not collect them.  Each benchmark first checks its answer,
so a faster wrong kernel fails instead of reporting a time.

Cases: ``seifert.classify`` on one size-3 grid point, on one n = 8
family member and on two 4 x 4 monodromies whose characteristic
polynomial is the square of a rational quadratic (one real hyperbolic
pair with a block of size 2, one semisimple conjugate pair),
``seifert.class_from_spp`` on the recipe pairs of the family member,
``lowdim.classify3`` on one point, one loop body of the size-3 grid
criterion on that point, ``lowdim.member3`` over
the step-1/4 grid of [-4, 4]^3, ``chain.ChainSing``, ``chain.qh_spectrum``
and ``chain.verify_spectrum_shift`` on the largest tuple of the chain grid,
and ``matrices.char_poly_exact`` on the monodromy of the family member.
"""

from fractions import Fraction

import pytest

from spectral_stokes import chain, hor, lowdim, matrices as mx, seifert as sf
from spectral_stokes.polycore import poly_from_cyclotomic_mults

pytest.importorskip("pytest_benchmark")

F = Fraction

#: an InteriorPos point of the step-1/4 grid, with denominators
GRID3_POINT = (F(-7, 4), F(-7, 4), F(5, 4))
#: an n = 8 family member (k = 1) whose monodromy has char poly
#: (x + 1)^2 Phi_6^3, with one Jordan block of size 2 at -1
FAMILY_MULTS = {1: 2, 3: 2, 6: 1}
MONODROMY_MULTS = {2: 2, 6: 3}


@pytest.fixture(scope="module")
def family_member():
    M = hor.cyclotomic_member(FAMILY_MULTS, 1)
    assert M.n == 8
    return M


def test_classify_grid3(benchmark):
    P = sf.SeifertPair.from_triangular(lowdim.s3_matrix(GRID3_POINT))
    want = lowdim.classify3(GRID3_POINT).types
    got = benchmark(sf.classify, P)
    assert sf.types_multiset_equal(got, want)


def test_classify_family8(benchmark, family_member):
    P = sf.SeifertPair.from_triangular(family_member.S)
    want = sf.class_from_spp(hor.recipe_spectral_pairs(hor.matrix_to_scal(family_member)), 1)
    got = benchmark(sf.classify, P)
    assert sf.types_multiset_equal(got, want)


def test_class_from_spp_family8(benchmark, family_member):
    spp = hor.recipe_spectral_pairs(hor.matrix_to_scal(family_member))
    want = sf.classify(sf.SeifertPair.from_triangular(family_member.S))
    assert sf.types_multiset_equal(sf.class_from_spp(spp, 1), want)
    got = benchmark(sf.class_from_spp, spp, 1)
    assert sf.types_multiset_equal(got, want)


#: char poly (x^2 + 11x/4 + 1)^2: one block of size 2 at each real root
QUADRATIC_POWER = [[1, 1, 2, F(-1, 2)], [0, 1, F(3, 2), 2], [0, 0, 1, 0], [0, 0, 0, 1]]
#: char poly (x^2 - 7x/4 + 1)^2: a semisimple conjugate pair of multiplicity 2
SEMISIMPLE_PAIR = [[1, 0, F(1, 2), 0], [0, 1, 0, F(1, 2)], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_classify_quadratic_power(benchmark):
    P = sf.SeifertPair.from_triangular(mx.to_matrix(QUADRATIC_POWER))
    got = benchmark(sf.classify, P)
    assert got == [sf.IrrType("F2hyper", -2.3187293044088437, 2)]


def test_classify_semisimple_pair(benchmark):
    P = sf.SeifertPair.from_triangular(mx.to_matrix(SEMISIMPLE_PAIR))
    got = benchmark(sf.classify, P)
    assert got == [sf.IrrType("F2complex", 0.08043062325516624, 1, zeta=0.9597846883724169)] * 2


def test_classify3(benchmark):
    got = benchmark(lowdim.classify3, GRID3_POINT)
    assert got.stratum == lowdim.Stratum3.INTERIOR_POS and got.f == F(9, 64)


def _grid3_item(a):
    """One loop body of the size-3 grid criterion (``acceptance.criterion_grid3``)
    on the point a: its closed-form types, the types ``classify`` reads off
    S, their summed form signatures and the exact signature of S + S^t."""
    types = lowdim.classify3(a).types
    S = lowdim.s3_matrix(a)
    got = sf.classify(sf.SeifertPair.from_triangular(S))
    sig = tuple(map(sum, zip(*(sf.type_signature(t) for t in types))))
    return types, got, sig, mx.signature_exact(S + S.T)


def test_grid3_item(benchmark):
    types, got, sig, want = _grid3_item(GRID3_POINT)
    assert sf.types_multiset_equal(types, got) and sig == want == (3, 0, 0)
    types, got, sig, want = benchmark(_grid3_item, GRID3_POINT)
    assert sf.types_multiset_equal(types, got) and sig == want == (3, 0, 0)


def test_member3_grid(benchmark):
    vals = [F(-4) + F(i, 4) for i in range(33)]
    points = [(a1, a2, a3) for a1 in vals for a2 in vals for a3 in vals]

    def members():
        return sum(map(lowdim.member3, points))
    assert benchmark(members) == 3665


def test_chain_sing(benchmark):
    got = benchmark(chain.ChainSing, (6, 4, 4, 4, 4))
    assert got.mu == 6 * 4 ** 4 - got.mu_seq[-2]


#: the largest tuple of the chain grid (6, 4, 4): mu = 1229, weights over 1536
CHAIN_TUPLE = (6, 4, 4, 4, 4)


def test_qh_spectrum(benchmark):
    c = chain.ChainSing(CHAIN_TUPLE)
    got = benchmark(chain.qh_spectrum, c.w)
    # the matrix side, which expands nothing, shifted by (m - 1) / 2 = 3/2
    assert len(got) == c.mu and all(type(x) is F for x in got)
    assert sorted(chain.stokes_spectrum(CHAIN_TUPLE)) == [x - F(3, 2) for x in got]


def test_verify_spectrum_shift(benchmark):
    assert benchmark(chain.verify_spectrum_shift, CHAIN_TUPLE) is True


def test_char_poly_exact(benchmark, family_member):
    M = mx.monodromy_matrix(family_member.S)
    got = benchmark(mx.char_poly_exact, M)
    assert got == poly_from_cyclotomic_mults(MONODROMY_MULTS)
