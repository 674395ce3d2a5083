import random

import pytest

from voachar.qseries import TruncSeries, euler_product, partition_power


def brute_partitions(k, min_part=1):
    """Count partitions of k with all parts >= min_part, by enumeration."""
    if k == 0:
        return 1
    total = 0
    for first in range(min_part, k + 1):
        total += brute_partitions(k - first, first)
    return total


def test_series_add_examples():
    one_plus_q = TruncSeries(1, [1, 1])
    one_minus_q = TruncSeries(1, [1, -1])
    assert one_plus_q + one_minus_q == TruncSeries(1, [2, 0])

    p5 = partition_power(1, 5)
    assert p5 + TruncSeries.zero(5) == p5


def test_series_add_coefficientwise():
    a = TruncSeries(2, [1, 0, 1])
    b = TruncSeries(2, [0, 1, 1])
    assert a + b == TruncSeries(2, [1, 1, 2])


def test_series_mul_examples():
    one_plus_q = TruncSeries(2, [1, 1, 0])
    one_minus_q = TruncSeries(2, [1, -1, 0])
    assert one_plus_q * one_minus_q == TruncSeries(2, [1, 0, -1])

    # P(q)(1-q) counts partitions with all parts >= 2
    p6 = partition_power(1, 6)
    got = p6 * TruncSeries(6, [1, -1, 0, 0, 0, 0, 0])
    expected = [brute_partitions(k, 2) for k in range(7)]
    assert got.coeffs == expected == [1, 0, 1, 1, 2, 2, 4]

    anything = TruncSeries(4, [3, -1, 0, 7, 2])
    assert anything * TruncSeries.one(4) == anything


def test_min_trunc_rule():
    a = TruncSeries(6, [1] * 7)
    b = TruncSeries(3, [1, 1, 1, 1])
    assert (a + b).trunc == 3
    assert (a * b).trunc == 3


def test_euler_product_partition_numbers():
    trunc = 10
    got = euler_product({j: -1 for j in range(1, trunc + 1)}, trunc)
    assert got.coeffs == [brute_partitions(k) for k in range(trunc + 1)]
    assert got.coeffs[:6] == [1, 1, 2, 3, 5, 7]


def test_euler_product_trivial_and_pairs():
    assert euler_product({j: 0 for j in range(1, 6)}, 5) == TruncSeries.one(5)
    got = euler_product({j: -2 for j in range(1, 3)}, 2)
    assert got.coeffs == [1, 2, 5]


def test_euler_product_positive_exponents():
    got = euler_product({1: 2}, 4)
    assert got.coeffs == [1, -2, 1, 0, 0]
    got = euler_product({2: 1, 3: 1}, 5)
    assert got.coeffs == [1, 0, -1, -1, 0, 1]


def test_euler_product_inverse_pairs():
    rng = random.Random(11)
    for _ in range(5):
        trunc = 8
        exps = {j: rng.randint(-3, 3) for j in range(1, trunc + 1)}
        neg = {j: -e for j, e in exps.items()}
        prod = euler_product(exps, trunc) * euler_product(neg, trunc)
        assert prod == TruncSeries.one(trunc)


def test_mul_commutative_associative_random():
    rng = random.Random(5)
    for _ in range(20):
        t = rng.randint(2, 7)
        a, b, c = (
            TruncSeries(t, [rng.randint(-9, 9) for _ in range(t + 1)]) for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_invariants_rejected():
    with pytest.raises(ValueError):
        TruncSeries(2, [1, 2])
    with pytest.raises(ValueError):
        TruncSeries(-1)
    with pytest.raises(ValueError):
        euler_product({0: -1}, 4)


def test_record_round_trip():
    s = TruncSeries(3, [1, -2, 10**40, 0])
    rec = s.to_record()
    assert rec["coeffs"][2] == str(10**40)
    assert TruncSeries.from_record(rec) == s


def test_shift_and_monomial():
    s = TruncSeries(4, [1, 2, 3, 4, 5])
    assert s.shift(2).coeffs == [0, 0, 1, 2, 3]
    assert TruncSeries.monomial(2, 4).coeffs == [0, 0, 1, 0, 0]
    assert TruncSeries.monomial(9, 4) == TruncSeries.zero(4)
