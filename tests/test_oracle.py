import itertools
import random

import pytest

from scaleshift.combinatorics import PartSpec
from scaleshift.oracle import (
    OracleReport,
    oracle_first_return,
    oracle_language_dims,
    oracle_levels,
    oracle_scale_dims,
    oracle_series_coeff,
)
from scaleshift.scales import global_dims, scale_class, symbol_dims
from scaleshift.shiftspace import (
    DegenerateShiftError,
    SftPresentation,
    VertexShift,
    first_return,
    higher_block,
    language_dims,
    word_counts,
)
from scaleshift.verify import _irreducible_shifts

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


def test_levels_scale_sets_match_scale_class():
    # the oracle grid compares dimensions only; this pins the enumerated sets
    for shift in _irreducible_shifts():
        classes = [scale_class(shift, symbol, 7) for symbol in shift.alphabet]
        for n, (_, scales) in enumerate(oracle_levels(shift, 7), start=1):
            for study, found in zip(classes, scales):
                assert found == study.at(n)


def test_by_notes_tables_match_oracle():
    # cell (n, m) of the by-notes tables counts the scales with m parts
    top = 8
    cells = 0
    for shift in _irreducible_shifts():
        reports = [symbol_dims(shift, symbol, top, bivariate=True) for symbol in shift.alphabet]
        for n, (_, scales) in enumerate(oracle_levels(shift, top), start=1):
            for report, found in zip(reports, scales):
                for m in range(1, n + 1):
                    parts = {scale for scale in found if len(scale) == m}
                    assert oracle_scale_dims(parts) == (
                        report.bivariate_transversal.coefficient(n, m),
                        report.bivariate_orbital.coefficient(n, m),
                    )
                    cells += 1
    assert cells == 15876


def _sft_words(symbols, forbidden, top):
    """{n: length-n words over ``symbols`` with no forbidden block}, for n <= top.

    Each word extends an admissible one, so only a block ending at the new
    letter can occur.
    """
    levels = {0: [()]}
    for n in range(1, top + 1):
        levels[n] = [
            word
            for prefix in levels[n - 1]
            for word in (prefix + (s,) for s in symbols)
            if not any(word[-len(block):] == block for block in forbidden)
        ]
    return levels


def test_sft_words_match_higher_block():
    # an SFT's words read straight off its forbidden blocks, with no recoding:
    # a word of length n >= step is a path of n - step + 1 blocks
    rng = random.Random(2020)
    top = 7
    checked = 0
    while checked < 40:
        symbols = "abc"[:rng.randint(2, 3)]
        forbidden = {
            tuple(rng.choice(symbols) for _ in range(rng.randint(2, 4)))
            for _ in range(rng.randint(1, 4))
        }
        try:
            recoded = higher_block(SftPresentation.of(symbols, forbidden))
        except DegenerateShiftError:
            continue
        checked += 1
        step = len(recoded.blocks[0])
        levels = _sft_words(symbols, forbidden, top)
        counts = word_counts(recoded.shift, top)
        tokens = dict(zip(recoded.blocks, recoded.shift.alphabet.symbols))
        # scales from each block, marking the blocks that share its first letter
        studies = {
            block: scale_class(
                recoded.shift, token, top - step + 1,
                distinguished=[t for b, t in tokens.items() if b[0] == block[0]],
            )
            for block, token in tokens.items()
        }
        for n in range(step, top + 1):
            assert len(levels[n]) == counts[n - step]
            length = n - step + 1
            scales = {block: set() for block in tokens}
            for word in levels[n]:
                visits = [i for i in range(length) if word[i] == word[0]]
                gaps = [b - a for a, b in zip(visits, visits[1:])] + [length - visits[-1]]
                scales[word[:step]].add(tuple(gaps))
            for block, study in studies.items():
                assert study.at(length) == scales[block]


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
