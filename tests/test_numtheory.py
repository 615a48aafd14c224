import math

import pytest

from scaleshift.numtheory import (
    burnside,
    divisors,
    mobius,
    mobius_invert,
    totient,
)
from scaleshift.series import NonIntegralCoefficientError, TruncatedSeries


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    # first 12 values, standard table
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)
    with pytest.raises(ValueError):
        mobius(-3)


def test_mobius_multiplicative_on_coprime_arguments():
    for m in range(1, 101):
        for n in range(1, 101):
            if math.gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(7) == 6
    with pytest.raises(ValueError):
        totient(0)


def test_totient_divisor_sum_identity():
    # sum_{d | n} phi(d) = n
    for n in range(1, 201):
        assert sum(totient(d) for d in divisors(n)) == n


def test_totient_against_gcd_count():
    for n in range(1, 121):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(13) == (1, 13)
    with pytest.raises(ValueError):
        divisors(0)


def _series(values):
    """The sequence p_1, p_2, ... as the series sum_n p_n z^n."""
    return TruncatedSeries([0, *values])


def _brute_aperiodic_binary_words(n):
    """Count binary words of length n whose minimal period is exactly n."""
    count = 0
    for bits in range(2**n):
        w = tuple((bits >> i) & 1 for i in range(n))
        minimal = True
        for p in range(1, n):
            if n % p == 0 and w == w[p:] + w[:p]:
                minimal = False
                break
        if minimal:
            count += 1
    return count


def test_mobius_invert_golden_mean_periodic_counts():
    # p_n for the golden mean shift; q derived by the direct divisor double loop
    q = mobius_invert(_series([1, 3, 4, 7, 11, 18]))
    assert q.order == 6
    assert q.coeffs == (0, 1, 2, 3, 4, 10, 12)
    assert all(q.coefficient(n) % n == 0 for n in range(1, 7))
    assert tuple(q.coefficient(n) // n for n in range(1, 7)) == (1, 1, 1, 1, 2, 2)


def test_mobius_invert_constant_sequence():
    q = mobius_invert(_series([1, 1, 1, 1]))
    assert q.coeffs == (0, 1, 0, 0, 0)


def test_mobius_invert_full_binary_shift():
    # independent oracle: count aperiodic binary words directly
    brute = tuple(_brute_aperiodic_binary_words(n) for n in range(1, 5))
    assert brute == (2, 2, 6, 12)
    q = mobius_invert(_series([2, 4, 8, 16]))
    assert q.coeffs[1:] == brute


def test_mobius_inversion_round_trip():
    sequences = [
        [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322],
        [2, 4, 8, 16, 32, 64, 128, 256],
        [5, 0, -3, 12, 7, 7, 1, 0, 2, 9],
    ]
    for values in sequences:
        p = _series(values)
        q = mobius_invert(p)
        assert q.order == p.order and q.coefficient(0) == 0
        for n in range(1, p.order + 1):
            assert sum(q.coefficient(k) for k in divisors(n)) == p.coefficient(n)


def test_burnside_binary_necklaces():
    # rotation classes of binary words of length n, against brute force
    for n in range(1, 11):
        brute = len({
            min(w[i:] + w[:i] for i in range(n))
            for w in (tuple((bits >> i) & 1 for i in range(n)) for bits in range(2**n))
        })
        assert burnside(n, n, lambda k: 2 ** (n // k)) == brute


def test_burnside_remainder_raises():
    with pytest.raises(NonIntegralCoefficientError):
        burnside(3, 1, lambda k: 4)
    with pytest.raises(ValueError):
        burnside(4, 2, lambda k: 1)
