from fractions import Fraction

import pytest

from scaleshift.combinatorics import PartSpec
from scaleshift.scales import composition_bgf
from scaleshift.series import (
    BivariateSeries,
    NonIntegralCoefficientError,
    RationalFunction,
    TruncatedSeries,
)

from refsets import series_product


def S(*coeffs, order=None):
    return TruncatedSeries(list(coeffs), order)


def test_add_and_mul_basics():
    assert S(1, 1, order=4) + S(1, -1, order=4) == S(2, order=4)
    # truncated series add; rational functions multiply
    one_plus = RationalFunction([1, 1], [1])
    one_minus = RationalFunction([1, -1], [1])
    assert (one_plus * one_minus).expand(4) == S(1, 0, -1, order=4)
    g = RationalFunction([0, 1, 1], [1])
    assert (g * g).expand(4) == S(0, 0, 1, 2, 1, order=4)


def test_expanded_rational_plus_zero():
    c = RationalFunction([1, -1], [1, -2]).expand(8)
    assert (c + TruncatedSeries([], 8)).coeffs == (1, 1, 2, 4, 8, 16, 32, 64, 128)


def test_scalar_arithmetic():
    # truncated series neither take int operands nor multiply
    g = S(0, 1, order=3)
    for operation in (
        lambda: 1 + g, lambda: g + 1, lambda: 2 * g, lambda: g * -3, lambda: g * g, lambda: g * 0.5,
    ):
        with pytest.raises(TypeError):
            operation()


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        S(1, order=3) + S(1, order=4)


def test_rational_product_matches_series_product():
    # constant terms -1 in numerators and denominators; -1 * -1 = 1 and 1 * -1 = -1
    forms = [
        RationalFunction([1], [-1, 1]),
        RationalFunction([-1, 0, 2], [1, -1, -1]),
        RationalFunction([0, 1, -1], [-1, 0, 0, 1]),
        RationalFunction([3, 0, 0, 0, -1], [1]),
        RationalFunction([], [-1, 2]),
    ]
    order = 12
    for f in forms:
        for g in forms:
            product = f * g
            assert product.denominator[0] == f.denominator[0] * g.denominator[0]
            assert product.expand(order) == series_product(f.expand(order), g.expand(order))
    assert (forms[0] * forms[0]).denominator == (1, -2, 1)
    for bad in (2, S(1, order=3)):
        with pytest.raises(TypeError):
            forms[1] * bad
        with pytest.raises(TypeError):
            bad * forms[1]


def test_expand_examples():
    assert RationalFunction([1, -1], [1, -2]).expand(5).coeffs == (1, 1, 2, 4, 8, 16)
    assert RationalFunction([1], [1, -1, -1]).expand(5).coeffs == (1, 1, 2, 3, 5, 8)
    assert RationalFunction([0, 1, -1], [1, -1, -1]).expand(6).coeffs == (
        0, 1, 0, 1, 1, 2, 3,
    )
    assert RationalFunction([1], [-1, 1]).expand(3).coeffs == (-1, -1, -1, -1)


def test_expand_rejects_bad_denominator():
    with pytest.raises(ValueError):
        RationalFunction([1], [0, 1])
    with pytest.raises(ValueError):
        RationalFunction([1], [])
    with pytest.raises(ValueError):
        RationalFunction([1], [2, 1])


def test_integral_view():
    assert S(1, 2, 3).coeffs == (1, 2, 3)
    for bad in (Fraction(1, 2), Fraction(2, 1), 0.5):
        with pytest.raises(NonIntegralCoefficientError):
            S(1, bad)
        with pytest.raises(NonIntegralCoefficientError):
            BivariateSeries([[0], [0, bad]])
        with pytest.raises(NonIntegralCoefficientError):
            RationalFunction([bad], [1])


def test_json_round_trip_shapes():
    f = S(1, 0, 7, order=3)
    assert f.to_json() == {"order": 3, "coeffs": ["1", "0", "7", "0"]}
    assert S(-2, 10**30).to_json() == {"order": 1, "coeffs": ["-2", str(10**30)]}


# -- bivariate -------------------------------------------------------------


def u_marked_parts(parts, order):
    """Bivariate series u * sum_{k in parts} z^k."""
    return BivariateSeries([[0]] + [[0, int(k in parts)] for k in range(1, order + 1)], order)


def test_bivariate_triangular_shape_enforced():
    with pytest.raises(ValueError):
        BivariateSeries([[0], [0, 0, 0]], 4)


def test_bivariate_compositions_by_length():
    # 1/(1 - u(z + z^2)): compositions of n with parts in {1,2}, u marks length
    comp = composition_bgf(PartSpec.finite({1, 2}), 6)
    assert comp.coefficient(0, 0) == 1
    # n = 4: (1,1,1,1); (1,1,2) x3 orderings; (2,2)
    assert [comp.coefficient(4, m) for m in range(5)] == [0, 0, 1, 3, 1]
    assert comp.at_u1().coeffs == (1, 1, 2, 3, 5, 8, 13)


def test_bivariate_partial_u_trivial():
    f = u_marked_parts({1, 2, 3, 4}, 4)
    assert f.length_weighted().at_u1() == TruncatedSeries([0, 1, 1, 1, 1], 4)
    assert BivariateSeries([], 4).length_weighted().at_u1() == TruncatedSeries([], 4)


def test_bivariate_partial_u_tail_class():
    # a(z,u) = u z (1-z) / (1 - z - u z^2); d/du at u=1 gives z + 2z^3 + 2z^4 + 5z^5 + 8z^6
    # a[n][m] = c[n-1][m-1]: parts >= 2, then the tail 1 as the last part
    comp = composition_bgf(PartSpec.from_min(2), 6)
    a = BivariateSeries([[0]] + [[0, *comp.rows[n - 1]] for n in range(1, 7)], 6)
    assert a.length_weighted().at_u1().coeffs == (0, 1, 0, 2, 2, 5, 8)


def test_bivariate_length_weighted_matches_partial():
    # u d/du of C = 1/(1 - u s) at u = 1 is s C^2
    comp = composition_bgf(PartSpec.finite({1, 3}), 8)
    weighted = comp.length_weighted()
    c = comp.at_u1()
    assert weighted.at_u1() == series_product(series_product(S(0, 1, 0, 1, order=8), c), c)
    for n in range(9):
        for m in range(n + 1):
            assert weighted.coefficient(n, m) == m * comp.coefficient(n, m)


def test_bivariate_u1_commutes_with_operations():
    f = u_marked_parts({1, 2}, 8)
    g = u_marked_parts({2, 3}, 8)
    assert (f + g).at_u1() == f.at_u1() + g.at_u1()


def test_bivariate_integer_rows_and_json():
    f = BivariateSeries([[0], [], [0, 3]], 2)
    assert f.rows == ((0,), (0, 0), (0, 3, 0))
    assert f.to_json() == {"order": 2, "rows": [["0"], ["0", "0"], ["0", "3", "0"]]}
    with pytest.raises(NonIntegralCoefficientError):
        BivariateSeries([[0], [0, Fraction(1, 2)]], 1)
