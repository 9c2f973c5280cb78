"""Exact Bernoulli table tests."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import oracles
from zetagb.bernoulli import MAX_INDEX, BernoulliTable, build_table
from zetagb.errors import ParameterError


@pytest.fixture(scope="module")
def table() -> BernoulliTable:
    return build_table(MAX_INDEX)


def test_small_values_are_exact(table: BernoulliTable) -> None:
    assert table[0] == Fraction(1)
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[4] == Fraction(-1, 30)
    assert table[6] == Fraction(1, 42)
    assert table[8] == Fraction(-1, 30)
    assert table[12] == Fraction(-691, 2730)


def test_odd_indices_above_one_vanish(table: BernoulliTable) -> None:
    for n in range(3, MAX_INDEX, 2):
        assert table[n] == 0


def test_matches_independent_scheme(table: BernoulliTable) -> None:
    for n in range(MAX_INDEX + 1):
        assert table[n] == oracles.bernoulli_akiyama_tanigawa(n)


def test_defining_recurrence_holds(table: BernoulliTable) -> None:
    # sum_{k=0..n} C(n+1, k) B_k == 0 for every n >= 1
    for n in range(1, MAX_INDEX + 1):
        acc = sum(math.comb(n + 1, k) * table[k] for k in range(n + 1))
        assert acc == 0


def test_even_values_alternate_in_sign(table: BernoulliTable) -> None:
    for m in range(1, MAX_INDEX // 2 + 1):
        expected = 1 if m % 2 == 1 else -1
        assert table[2 * m] * expected > 0


def test_von_staudt_clausen_denominators(table: BernoulliTable) -> None:
    # denominator of B_{2m} is the product of primes p with (p-1) | 2m
    def is_prime(p: int) -> bool:
        return p >= 2 and all(p % d for d in range(2, int(math.isqrt(p)) + 1))

    for m in range(1, MAX_INDEX // 2 + 1):
        denom = 1
        for p in range(2, 2 * m + 2):
            if is_prime(p) and (2 * m) % (p - 1) == 0:
                denom *= p
        assert table[2 * m].denominator == denom


def test_prefix_agreement() -> None:
    small = build_table(12)
    assert small.values == build_table(MAX_INDEX).values[:13]


def test_index_validation(table: BernoulliTable) -> None:
    with pytest.raises(ParameterError):
        table[-1]
    with pytest.raises(ParameterError):
        table[MAX_INDEX + 1]
    with pytest.raises(ParameterError):
        table["2"]  # type: ignore[index]
    with pytest.raises(ParameterError):
        table[True]


@pytest.mark.parametrize("bad", [0, 1, 7, MAX_INDEX + 2, "8"])
def test_build_rejects_bad_max_index(bad) -> None:
    with pytest.raises(ParameterError):
        build_table(bad)


def test_table_shape_is_validated() -> None:
    with pytest.raises(ParameterError):
        BernoulliTable(max_index=4, values=(Fraction(1),))
