import pytest

from scaleshift.scales import language_witnesses
from scaleshift.shiftspace import VertexShift
from scaleshift.verify import (
    CheckResult,
    OracleReport,
    check_exclusions,
    check_oracle_grid,
    check_wheel_integrality,
    _irreducible_shifts,
    run_reference_suite,
)

from refsets import BULL, CIRC, GOLDEN_LANG_WITNESSES, GOLDEN_ROWS, w


def test_irreducible_grid_size():
    shifts = _irreducible_shifts()
    by_size = {}
    for shift in shifts:
        by_size[shift.size] = by_size.get(shift.size, 0) + 1
    assert by_size == {1: 1, 2: 4, 3: 144}


def test_language_witnesses_match_reference():
    golden = VertexShift.from_rows(("∘", "•"), GOLDEN_ROWS)
    for n, expected in GOLDEN_LANG_WITNESSES.items():
        words, witnesses = language_witnesses(golden, n)
        assert {w(text) for text in witnesses} == expected
        # golden's words of length n number Fibonacci(n + 2)
        assert len(words) == len(set(words)) == (2, 3, 5, 8, 13, 21)[n - 1]


def test_oracle_report():
    report = OracleReport("wheels", {"n": 12, "parts": w("∘•")}, 351, 351)
    assert report.match
    data = report.to_json()
    assert data["parameters"]["parts"] == [CIRC, BULL]
    assert data["expected"] == data["actual"] == 351
    bad = OracleReport("wheels", {"n": 12}, 351, 350)
    assert not bad.match
    assert not bad.to_json()["match"]


def test_check_result_failures():
    good = OracleReport("x", {}, 1, 1)
    bad = OracleReport("x", {"n": 2}, 1, 2)
    result = CheckResult(1, "demo", (good, bad))
    assert not result.passed
    assert result.failures() == (bad,)
    assert CheckResult(2, "demo", (good,)).passed


def test_wheel_integrality_deterministic():
    first = check_wheel_integrality(draws=25, seed=7)
    second = check_wheel_integrality(draws=25, seed=7)
    assert [row.to_json() for row in first] == [row.to_json() for row in second]
    assert first[0].match


def test_exclusions_always_pass():
    (report,) = check_exclusions()
    assert report.match
    assert "out of scope" in report.parameters["note"]


def test_suite_shrinks_with_max_n():
    results = {res.number: res for res in run_reference_suite(max_n=1)}
    assert all(res.passed for res in results.values())
    grid = [r for r in results[9].reports if r.quantity == "oracle.dims_grid"]
    assert len(grid) == 149
    assert all(report.expected <= 4 for report in grid)


def test_oracle_grid_rejects_max_n_outside_range():
    for max_n in (0, 11, 50):
        with pytest.raises(ValueError):
            check_oracle_grid(max_n)
