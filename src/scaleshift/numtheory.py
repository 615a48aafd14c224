"""Elementary arithmetic functions for periodic-point and necklace counting.

Implements the Mobius function mu(n), Euler's totient phi(n), divisor
enumeration, Mobius inversion of the coefficients z^1.. of a series:

    q_n = sum_{k | n} mu(n/k) * p_k    <=>    p_n = sum_{k | n} q_k,

the Burnside orbit count of a cyclic group action, the one place where
the system divides to count rotation classes, and ``cyclic_counts``, the
Burnside count over the power sums of a rational function's logarithm
behind both wheels and necklaces.

Factorization is plain trial division on purpose: arguments never exceed a
series truncation order (a few hundred at most), so a sieve would be noise.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import Callable

from .series import NonIntegralCoefficientError, RationalFunction, TruncatedSeries, log_derivative


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def totient(n: int) -> int:
    """Euler's totient phi(n) = #{1 <= k <= n : gcd(n, k) = 1}."""
    result = n
    for p, _ in _factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1 in ascending order, including 1 and n."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def burnside(length: int, g: int, fixed: Callable[[int], int]) -> int:
    """Orbits of the cyclic group of order ``length``, by Burnside's lemma.

    (1/length) sum_{k | g} phi(k) fixed(k): the group has phi(k) elements of
    each order k, and fixed(k) counts the objects one of them fixes; orders
    not dividing ``g`` fix nothing.  A remainder means the fixed counts are
    inconsistent, and raises ``NonIntegralCoefficientError``.
    """
    total = sum(phi * fixed(k) for k, phi in _orders(g))
    quot, rem = divmod(total, length)
    if rem:
        raise NonIntegralCoefficientError(f"orbit count {total}/{length} is not an integer")
    return quot


@lru_cache(maxsize=None)
def _orders(g: int) -> tuple[tuple[int, int], ...]:
    """(k, phi(k)) for every divisor k of g; cached, as the wheel table asks
    for the same few g once per cell."""
    return tuple((k, totient(k)) for k in divisors(g))


def cyclic_counts(form: RationalFunction, order: int) -> TruncatedSeries:
    """The cycle construction of ``form`` = F: sum_k phi(k)/k log F(z^k), to ``order``.

    Without fractions: with F = A/B and L(f) = -z f'/f, log F has m-th
    coefficient P_m / m, P_m the z^m coefficient of P = L(B) - L(A); so the
    z^n coefficient is the Burnside count (1/n) sum_{k|n} phi(k) P_{n/k},
    and z^0 is 0.  For F = 1/(1 - s) these are the wheels over the part
    set with indicator s; for F the zeta function 1/det(I - zA), the
    necklaces of the shift.
    """
    logs = (log_derivative(poly, order).coeffs for poly in (form.denominator, form.numerator))
    p = list(map(sub, *logs))
    coeffs = [0] + [burnside(n, n, lambda k: p[n // k]) for n in range(1, order + 1)]
    return TruncatedSeries(coeffs, order)


def mobius_invert(p: TruncatedSeries) -> TruncatedSeries:
    """Mobius inversion: q_n = sum_{k | n} mu(n/k) p_k for n = 1..order, q_0 = 0.

    Round-trips with divisor summation: sum_{k | n} q_k = p_n.
    """
    q = [sum(mobius(n // k) * p.coeffs[k] for k in divisors(n)) for n in range(1, p.order + 1)]
    return TruncatedSeries([0] + q, p.order)
