"""Layer microbenchmarks of the exact kernels, one public call each.

    PYTHONPATH=src python -m pytest benchmarks -q

runs them with pytest-benchmark (add ``--benchmark-json out.json`` to keep
the numbers).  They sit outside the test suite's ``testpaths``, so a plain
``pytest`` does not collect them.  Each benchmark first checks its answer,
so a faster wrong kernel fails instead of reporting a time.

Cases: ``seifert.classify`` on one size-3 grid point and on one n = 8
family member, ``lowdim.classify3`` on one point, ``lowdim.member3`` over
the step-1/4 grid of [-4, 4]^3, ``chain.ChainSing`` on one chain tuple,
and ``matrices.char_poly_exact`` and ``matrices.rank_exact`` on the
monodromy of the family member.
"""

from fractions import Fraction

import pytest

from spectral_stokes import chain, hor, lowdim, matrices as mx, seifert as sf
from spectral_stokes.polycore import poly_from_cyclotomic_mults

pytest.importorskip("pytest_benchmark")

F = Fraction

#: an InteriorInd point of the step-1/4 grid, with denominators
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


def test_classify3(benchmark):
    got = benchmark(lowdim.classify3, GRID3_POINT)
    assert got.stratum == lowdim.Stratum3.INTERIOR_POS and got.f == F(9, 64)


def test_member3_grid(benchmark):
    vals = [F(-4) + F(i, 4) for i in range(33)]
    points = [(a1, a2, a3) for a1 in vals for a2 in vals for a3 in vals]

    def members():
        return sum(map(lowdim.member3, points))
    assert benchmark(members) == 3665


def test_chain_sing(benchmark):
    got = benchmark(chain.ChainSing, (6, 4, 4, 4, 4))
    assert got.mu == 6 * 4 ** 4 - got.mu_seq[-2]


def test_char_poly_exact(benchmark, family_member):
    M = mx.monodromy_matrix(family_member.S)
    got = benchmark(mx.char_poly_exact, M)
    assert got == poly_from_cyclotomic_mults(MONODROMY_MULTS)


def test_rank_exact(benchmark, family_member):
    K = mx.monodromy_matrix(family_member.S) + mx.identity(8)
    assert benchmark(mx.rank_exact, K) == 7
