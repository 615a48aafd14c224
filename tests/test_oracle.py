import itertools

import pytest

from scaleshift.combinatorics import PartSpec
from scaleshift.oracle import (
    OracleReport,
    oracle_first_return,
    oracle_language_dims,
    oracle_scale_dims,
    oracle_series_coeff,
)
from scaleshift.scales import global_dims, scale_class, symbol_dims
from scaleshift.shiftspace import VertexShift, first_return, language_dims

from refsets import BULL, CIRC, GOLDEN_ROWS, WHEELS_PREFIX, w

GOLDEN = VertexShift.from_rows((CIRC, BULL), GOLDEN_ROWS)
FULL2 = VertexShift.from_rows((CIRC, BULL), ((1, 1), (1, 1)))


def test_language_dims_examples():
    assert oracle_language_dims(GOLDEN, 3) == (3, 7)
    assert oracle_language_dims(GOLDEN, 6) == (8, 36)
    assert oracle_language_dims(FULL2, 2) == (3, 4)


def test_language_dims_guards():
    wide = VertexShift.from_rows(tuple("abcde"), tuple((1,) * 5 for _ in range(5)))
    with pytest.raises(ValueError):
        oracle_language_dims(wide, 3)
    with pytest.raises(ValueError):
        oracle_language_dims(GOLDEN, 15)
    with pytest.raises(ValueError):
        oracle_language_dims(GOLDEN, 0)


def test_language_dims_match_closed_form():
    for shift in (GOLDEN, FULL2):
        report = language_dims(shift, 10)
        for n in range(1, 11):
            assert oracle_language_dims(shift, n) == (
                report.transversal[n - 1],
                report.orbital[n - 1],
            )


def test_scale_dims():
    assert oracle_scale_dims({(3,)}) == (1, 1)
    assert oracle_scale_dims({(1, 2), (2, 1)}) == (1, 2)
    assert oracle_scale_dims(set()) == (0, 0)
    combined = scale_class(GOLDEN, CIRC, 5).at(5) | scale_class(GOLDEN, BULL, 5).at(5)
    assert oracle_scale_dims(combined) == (6, 13)
    report = global_dims(GOLDEN, 5)
    assert oracle_scale_dims(combined) == (report.transversal[4], report.orbital[4])


def test_scale_dims_match_symbol_closed_form():
    for shift in (GOLDEN, FULL2):
        for symbol in shift.alphabet:
            report = symbol_dims(shift, symbol, 8)
            study = scale_class(shift, symbol, 8)
            for n in range(1, 9):
                assert oracle_scale_dims(study.at(n)) == (
                    report.transversal[n - 1],
                    report.orbital[n - 1],
                )


def test_series_coeff():
    assert oracle_series_coeff("wheels", None, 12) == 351
    assert tuple(oracle_series_coeff("wheels", None, n) for n in range(1, 7)) == WHEELS_PREFIX
    assert oracle_series_coeff("compositions", PartSpec.from_min(2), 12) == 89
    assert oracle_series_coeff("compositions", None, 5, m=2) == 4
    assert oracle_series_coeff("wheels", None, 5, m=2) == 2
    assert oracle_series_coeff("compositions", {1, 2}, 5) == 8
    assert oracle_series_coeff("compositions", None, 0) == 1
    with pytest.raises(ValueError):
        oracle_series_coeff("necklaces", None, 5)
    with pytest.raises(ValueError):
        oracle_series_coeff("wheels", None, 21)
    with pytest.raises(ValueError):
        oracle_series_coeff("compositions", {0, 2}, 5)


def test_first_return_examples():
    assert oracle_first_return(GOLDEN, CIRC, 2) == 1
    assert oracle_first_return(GOLDEN, BULL, 1) == 0
    assert oracle_first_return(GOLDEN, BULL, 4) == 1
    with pytest.raises(ValueError):
        oracle_first_return(GOLDEN, "x", 3)
    with pytest.raises(ValueError):
        oracle_first_return(GOLDEN, CIRC, 13)


def test_first_return_matches_closed_form():
    for shift in (GOLDEN, FULL2):
        for symbol in shift.alphabet:
            loops = first_return(shift, symbol, order=10)
            for k in range(1, 11):
                assert oracle_first_return(shift, symbol, k) == loops.series.coefficient(k)


def test_loop_support_matches_oracle():
    # every 0/1 matrix on up to 3 symbols; a loop longer than the alphabet
    # repeats an interior symbol, so it can be pumped.  Order 1 makes the
    # support data come from past the truncation.
    for size in range(1, 4):
        symbols = "abc"[:size]
        for bits in itertools.product((0, 1), repeat=size * size):
            rows = [bits[i * size:(i + 1) * size] for i in range(size)]
            shift = VertexShift.from_rows(symbols, rows)
            for symbol in symbols:
                loops = first_return(shift, symbol, 1)
                sizes = [k for k in range(1, 9) if oracle_first_return(shift, symbol, k) > 0]
                if loops.support_unbounded:
                    assert max(sizes) > size
                else:
                    assert max(sizes, default=None) == loops.support_max


def test_oracle_report():
    report = OracleReport.of("wheels", {"n": 12, "parts": w("∘•")}, 351, 351)
    assert report.match
    data = report.to_json()
    assert data["parameters"]["parts"] == [CIRC, BULL]
    assert data["expected"] == data["actual"] == 351
    bad = OracleReport.of("wheels", {"n": 12}, 351, 350)
    assert not bad.match
    with pytest.raises(ValueError):
        OracleReport("wheels", {}, 1, 2, True)
