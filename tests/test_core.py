import itertools
import math
from fractions import Fraction

import pytest

from hoftrace.core import (
    DegenerateTerm,
    Flux,
    InvalidCoupling,
    InvalidFlux,
    PartitionTerm,
    enumerate_partition_terms,
    lambda_tilde,
    make_flux,
    multinomial_weight,
)


def test_make_flux_reduction():
    assert make_flux(1, 3) == Flux(1, 3)
    assert make_flux(2, 4) == Flux(1, 2)
    assert make_flux(4, 4) == Flux(0, 1)
    assert make_flux(7, 3) == Flux(1, 3)
    assert make_flux(-1, 3) == Flux(2, 3)


def test_make_flux_rejects_bad_denominator():
    with pytest.raises(InvalidFlux):
        make_flux(1, 0)
    with pytest.raises(InvalidFlux):
        make_flux(1, -2)


def test_flux_invariants_enforced():
    with pytest.raises(InvalidFlux):
        Flux(2, 4)
    with pytest.raises(InvalidFlux):
        Flux(3, 3)
    assert Flux(0, 1).gamma == 0.0
    assert make_flux(1, 4).gamma == pytest.approx(math.pi / 2)


def test_coupling_and_lambda_tilde():
    assert lambda_tilde(2.0, 7) == 1.0
    assert lambda_tilde(1.0, 3) == 0.125
    assert lambda_tilde(3.0, 2) == 1.5 * 1.5
    with pytest.raises(InvalidCoupling):
        lambda_tilde(0.0, 2)
    with pytest.raises(InvalidCoupling):
        lambda_tilde(-1.0, 2)


def test_enumeration_small_cases():
    assert list(enumerate_partition_terms(2, 3)) == [PartitionTerm(0, (2,))]
    assert list(enumerate_partition_terms(2, 2)) == [
        PartitionTerm(0, (2,)),
        PartitionTerm(1, (0,)),
    ]
    assert list(enumerate_partition_terms(0, 5)) == [PartitionTerm(0, (0, 0))]
    assert [t for t in enumerate_partition_terms(3, 2) if t.k == 0] == [
        PartitionTerm(0, (3,))
    ]


def _brute_force_terms(half_n, q, wrap):
    m = q // 2
    found = []
    for k in range(0, (half_n // q if wrap else 0) + 1):
        for ell in itertools.product(range(half_n + 1), repeat=m):
            if q * k + sum(j * l for j, l in enumerate(ell, start=1)) == half_n:
                found.append((k, ell))
    return found


@pytest.mark.parametrize("q", range(1, 9))
@pytest.mark.parametrize("wrap", [True, False])
def test_enumeration_matches_brute_force(q, wrap):
    # without wrap, the k = 0 terms alone: the mid-band trace sums exactly these
    for half_n in range(0, 13):
        got = [(t.k, t.ell) for t in enumerate_partition_terms(half_n, q) if wrap or t.k == 0]
        assert sorted(got) == sorted(_brute_force_terms(half_n, q, wrap))
        assert got == sorted(got)  # lexicographic emission order


def _partition_count(n, max_part):
    # partitions of n into parts of size <= max_part
    table = [1] + [0] * n
    for part in range(1, max_part + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


@pytest.mark.parametrize("q", range(1, 9))
def test_enumeration_count_without_wrap(q):
    for half_n in range(0, 13):
        count = sum(1 for t in enumerate_partition_terms(half_n, q) if t.k == 0)
        assert count == _partition_count(half_n, q // 2)


def test_multinomial_weight_values():
    assert multinomial_weight(PartitionTerm(0, (2,))) == Fraction(1, 2)
    assert multinomial_weight(PartitionTerm(1, ())) == Fraction(1, 2)
    assert multinomial_weight(PartitionTerm(0, (1, 1))) == Fraction(1, 1)
    # single slot filled m times, no wrap: weight is 1/m
    for m in range(1, 8):
        assert multinomial_weight(PartitionTerm(0, (m, 0))) == Fraction(1, m)


def test_multinomial_weight_positive_and_exact():
    for term in enumerate_partition_terms(9, 5):
        weight = multinomial_weight(term)
        assert weight > 0
        assert weight.denominator > 0
        assert math.gcd(weight.numerator, weight.denominator) == 1


def test_multinomial_weight_degenerate():
    with pytest.raises(DegenerateTerm):
        multinomial_weight(PartitionTerm(0, (0, 0)))
