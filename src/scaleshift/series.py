"""Exact truncated formal power series over the integers.

Three carriers:

- ``TruncatedSeries``: dense integer coefficient table for z^0 .. z^N.
  Truncated series add; they do not multiply.
- ``BivariateSeries``: triangular table c[n][m] for 0 <= m <= n <= N, where z
  marks size and u marks length; truncation applies to z only, the bound
  m <= n is structural (no composition has more parts than its size).
- ``RationalFunction``: quotient of integer polynomials.  Rational functions
  multiply exactly, and each expands at 0 by one linear recurrence, so a
  product of closed forms is one expansion, not a product of truncations.

Every series here counts something, so coefficients are plain ``int`` and a
constructor given anything else raises ``NonIntegralCoefficientError``. No
operation here divides; the one closed form that does, the Burnside orbit
count in ``numtheory``, checks the remainder where it divides.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .values import Value

#: Default truncation order; every bundled check needs N <= 16, headroom is cheap.
DEFAULT_ORDER = 64


class NonIntegralCoefficientError(ValueError):
    """A counting series was given a coefficient that is not an ``int``."""


def _ints(values: Iterable[int]) -> list[int]:
    out = list(values)
    for v in out:
        if not isinstance(v, int):
            raise NonIntegralCoefficientError(f"coefficient {v!r} is not an int")
    return out


class TruncatedSeries(Value):
    """Formal power series truncated at a fixed order N, integer coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        values = _ints(coeffs)
        if order is None:
            if not values:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(values) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(values) < order + 1:
            values.extend([0] * (order + 1 - len(values)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(values[: order + 1]))

    # -- basics ------------------------------------------------------------

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"mismatched truncation orders {self.order} and {other.order}")
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON form with decimal-string integer coefficients."""
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    def _key(self) -> tuple:
        return self.order, self.coeffs


class BivariateSeries(Value):
    """Triangular bivariate series: z marks size, u marks length, m <= n."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Sequence[Iterable[int]], order: int | None = None):
        table = [_ints(row) for row in rows]
        if order is None:
            order = len(table) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        table = table[: order + 1]
        for n, row in enumerate(table):
            if len(row) > n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, limit is {n + 1}")
            row.extend([0] * (n + 1 - len(row)))
        for n in range(len(table), order + 1):
            table.append([0] * (n + 1))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", tuple(tuple(row) for row in table))

    def coefficient(self, n: int, m: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"size index {n} outside 0..{self.order}")
        if not 0 <= m <= n:
            return 0
        return self.rows[n][m]

    def __add__(self, other) -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"mismatched truncation orders {self.order} and {other.order}")
        return BivariateSeries(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.order,
        )

    def length_weighted(self) -> "BivariateSeries":
        """u * d/du applied termwise: entry (n, m) becomes m * c[n][m]."""
        return BivariateSeries(
            [[m * c for m, c in enumerate(row)] for row in self.rows], self.order
        )

    def at_u1(self) -> TruncatedSeries:
        """Row sums: the univariate series obtained by setting u = 1."""
        return TruncatedSeries([sum(row) for row in self.rows], self.order)

    def to_json(self) -> dict:
        return {"order": self.order, "rows": [[str(c) for c in row] for row in self.rows]}

    def _key(self) -> tuple:
        return self.order, self.rows


class RationalFunction(Value):
    """Quotient of integer polynomials whose denominator has constant term ±1.

    ±1 are the only invertible integers, so the expansion at 0 stays integral
    and never divides.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Sequence[int], denominator: Sequence[int]):
        num = _trim(numerator)
        den = _trim(denominator)
        if not den or den[0] not in (1, -1):
            raise ValueError("denominator needs constant term 1 or -1")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def expand(self, order: int) -> TruncatedSeries:
        """Series expansion at 0: the unique s with numerator = denominator * s."""
        num, den = self.numerator, self.denominator
        d0 = den[0]  # its own inverse
        terms = [(k, c) for k, c in enumerate(den) if k and c]
        s = [0] * (order + 1)
        for n in range(order + 1):
            acc = num[n] if n < len(num) else 0
            for k, c in terms:
                if k > n:
                    break
                acc -= c * s[n - k]
            s[n] = acc * d0
        return TruncatedSeries(s, order)

    def __mul__(self, other) -> "RationalFunction":
        """Exact product; the denominators' constant terms ±1 multiply to ±1."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            _poly_mul(self.numerator, other.numerator),
            _poly_mul(self.denominator, other.denominator),
        )

    def _key(self) -> tuple:
        return self.numerator, self.denominator


def log_derivative(poly: Sequence[int], order: int) -> TruncatedSeries:
    """-z f'/f to ``order``, f(0) = ±1: for f = prod_i (1 - a_i z), the power sums of the a_i."""
    return RationalFunction([-n * c for n, c in enumerate(poly)], poly).expand(order)


def _trim(poly: Sequence[int]) -> tuple[int, ...]:
    coeffs = _ints(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, start=i):
                out[j] += a * b
    return out
