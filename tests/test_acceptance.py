"""The acceptance battery as a test module.

Each test runs one criterion at its stated tolerance and time limit and
prints the one-line verdict; the suite fails if any criterion fails or
overruns its limit.
"""

import itertools

from spectral_stokes import acceptance, chain
from spectral_stokes.errors import NotReducible


def _check(result):
    print(result.line())
    assert result.passed, result.details
    assert result.in_time, f"{result.name} took {result.seconds:.1f}s, " \
                           f"limit {result.limit:.0f}s"


def test_criterion_1_size2_table():
    _check(acceptance.criterion_size2_table())


def test_criterion_2_line3():
    _check(acceptance.criterion_line3())


def test_criterion_3_power_identity():
    _check(acceptance.criterion_power_identity())


def test_criterion_4_chain_grid():
    _check(acceptance.criterion_chain_grid())


def test_criterion_4_checks_each_reducible_extra_once():
    # a_0 in 2..6 and up to four more exponents in 1..4, with a head 2 or an inner 1
    extras = {(a0,) + rest for a0 in range(2, 7) for m in range(5)
              for rest in itertools.product(range(1, 5), repeat=m) if a0 == 2 or 1 in rest}
    reducible = 0
    for a in extras:
        try:
            chain.reduce_chain(a)
        except NotReducible:
            continue
        reducible += 1
    assert acceptance.criterion_chain_grid().details["reducible"] == reducible


def test_criterion_5_e12():
    _check(acceptance.criterion_e12())


def test_criterion_6_signature_law():
    _check(acceptance.criterion_signature_law())


def test_criterion_7_grid3():
    _check(acceptance.criterion_grid3())


def test_criterion_8_class_round_trip():
    _check(acceptance.criterion_class_round_trip())


def test_criterion_9_properties():
    _check(acceptance.criterion_properties())
