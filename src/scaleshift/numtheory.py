"""Elementary arithmetic functions for periodic-point and necklace counting.

Implements the Mobius function mu(n), Euler's totient phi(n), divisor
enumeration, Mobius inversion of 1-indexed integer sequences:

    q_n = sum_{k | n} mu(n/k) * p_k    <=>    p_n = sum_{k | n} q_k,

and the Burnside orbit count of a cyclic group action, the one place where
the system divides to count rotation classes.

Factorization is plain trial division on purpose: arguments never exceed a
series truncation order (a few hundred at most), so a sieve would be noise.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .series import NonIntegralCoefficientError
from .values import Value


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


class ArithSequence(Value):
    """Finite integer sequence indexed from 1, mirroring a_1, ..., a_N.

    Index 0 is a hard error, never a silent zero; whatever happens at n = 0
    belongs to the series layer, not here.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        object.__setattr__(self, "_values", tuple(int(v) for v in values))
        if not self._values:
            raise ValueError("ArithSequence needs at least one term")

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= len(self._values):
            raise IndexError(f"index {n} outside 1..{len(self._values)}")
        return self._values[n - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def _key(self) -> tuple:
        return self._values


def mobius_invert(p: ArithSequence) -> ArithSequence:
    """Mobius inversion: q_n = sum_{k | n} mu(n/k) p_k for every index n.

    Round-trips with divisor summation: sum_{k | n} q_k = p_n.
    """
    q = []
    for n in range(1, len(p) + 1):
        q.append(sum(mobius(n // k) * p[k] for k in divisors(n)))
    return ArithSequence(q)
