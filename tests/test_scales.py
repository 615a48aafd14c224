import itertools
import json
from collections import Counter

import pytest

import scaleshift.scales

from scaleshift.combinatorics import PartSpec, least_rotation
from scaleshift.numtheory import burnside
from scaleshift.scales import (
    EnumerationCapError,
    ScaleClass,
    a_series,
    b_series,
    composition_bgf,
    composition_gf,
    global_dims,
    language_witnesses,
    scale_class,
    scale_classes,
    symbol_dims,
    wheels_bgf,
    wheels_gf,
    wheels_row,
)
from scaleshift.series import BivariateSeries, TruncatedSeries
from scaleshift.shiftspace import (
    SftPresentation,
    VertexShift,
    higher_block,
    is_irreducible,
    language_from,
    loop_supports,
    word_texts,
)
from scaleshift.values import JsonText
from scaleshift.verify import MAX_GRID_N, _irreducible_shifts

from oracle_refs import oracle_series_coeff, word_levels, word_scale_sets
from refsets import (
    BULL,
    CIRC,
    GOLDEN_A_BULL,
    GOLDEN_B_BULL,
    GOLDEN_C5_ALL,
    GOLDEN_C5_BULL,
    GOLDEN_C5_CIRC,
    GOLDEN_C_BULL,
    GOLDEN_GLOBAL_COUNT12,
    GOLDEN_GLOBAL_COUNTS,
    GOLDEN_GLOBAL_O,
    GOLDEN_GLOBAL_O12,
    GOLDEN_GLOBAL_T,
    GOLDEN_MODES5,
    GOLDEN_ROWS,
    GOLDEN_T5_BULL,
    GOLDEN_T5_CIRC,
    GOLDEN_W_BULL,
    GOLDEN_W_CIRC,
    SFT2_FORBIDDEN,
    THREESTEP_FORBIDDEN,
    WHEELS_12,
    WHEELS_12_BY_LENGTH,
    WHEELS_PREFIX,
    class_dims_ref,
    induced_scale,
    orbit,
    rotation_classes_ref,
    series_product,
    w,
)

GOLDEN = VertexShift.from_rows((CIRC, BULL), GOLDEN_ROWS)
FULL2 = VertexShift.from_rows((CIRC, BULL), ((1, 1), (1, 1)))
SFT2 = higher_block(SftPresentation.of((CIRC, BULL), SFT2_FORBIDDEN)).shift
# loops at a: a b a and a c d e f a
TWO_FIVE = VertexShift.from_rows(
    "abcdef",
    ((0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
     (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0)),
)
# loops at a: a b c d a, then one more turn of b c d for each extra 3 edges
PERIOD3 = VertexShift.from_rows("abcd", ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)))
PERIOD3_PARTS = PartSpec(start=4, period=3, residues=frozenset({0}))
GOLDEN_C_CIRC = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)
ORACLE_SPECS = (
    PartSpec.naturals(),
    PartSpec.finite({1, 2}),
    PartSpec.from_min(2),
    PartSpec.finite({2, 5}),
    PartSpec.finite({3}),
)


def test_induced_scale():
    assert induced_scale(w("∘•∘∘•")) == (2, 1, 2)
    assert induced_scale(w("∘••∘•∘∘••∘∘•")) == (3, 2, 1, 3, 1, 2)
    assert induced_scale(w("∘∘∘∘∘")) == (1, 1, 1, 1, 1)
    assert induced_scale(w("•∘∘∘•")) == (4, 1)
    assert induced_scale(w("•")) == (1,)
    with pytest.raises(ValueError):
        induced_scale(())


def test_composition_gf():
    assert composition_gf(PartSpec.finite({1, 2}), 12).coeffs == (1,) + GOLDEN_C_CIRC
    bull = composition_gf(PartSpec.from_min(2), 12)
    assert bull.coeffs == (1,) + GOLDEN_C_BULL
    assert composition_gf(PartSpec.finite(()), 8).coeffs == (1,) + (0,) * 8
    full = composition_gf(PartSpec.naturals(), 20)
    assert full.coeffs[1:] == tuple(2 ** (n - 1) for n in range(1, 21))


def test_composition_bgf():
    table = composition_bgf(PartSpec.finite({1, 2}), 10)
    assert table.at_u1() == composition_gf(PartSpec.finite({1, 2}), 10)
    # parts refined by count: compositions of 4 from {1,2} with 3 parts
    assert table.coefficient(4, 3) == 3
    assert table.coefficient(4, 2) == 1
    bull = composition_bgf(PartSpec.from_min(2), 10)
    assert bull.at_u1() == composition_gf(PartSpec.from_min(2), 10)
    for spec in ORACLE_SPECS:
        table = composition_bgf(spec, 12)
        for n in range(13):
            for m in range(n + 1):
                assert table.coefficient(n, m) == oracle_series_coeff("compositions", spec, n, m)


def test_wheels_gf():
    full = wheels_gf(PartSpec.naturals(), 12)
    assert full.coeffs[1:7] == WHEELS_PREFIX
    assert full.coefficient(12) == WHEELS_12
    assert wheels_gf(PartSpec.finite({1, 2}), 12).coeffs[1:] == GOLDEN_W_CIRC
    assert wheels_gf(PartSpec.from_min(2), 12).coeffs[1:] == GOLDEN_W_BULL


def test_wheels_bgf():
    table = wheels_bgf(PartSpec.naturals(), 12)
    assert table.rows[12][1:] == WHEELS_12_BY_LENGTH
    assert table.at_u1() == wheels_gf(PartSpec.naturals(), 12)
    restricted = wheels_bgf(PartSpec.from_min(2), 12)
    assert restricted.at_u1() == wheels_gf(PartSpec.from_min(2), 12)
    # wheels of 5 into 2 parts >= 2: just (2,3) up to rotation
    assert restricted.coefficient(5, 2) == 1
    for spec in ORACLE_SPECS:
        table = wheels_bgf(spec, 12)
        for n in range(13):
            for m in range(n + 1):
                assert table.coefficient(n, m) == oracle_series_coeff("wheels", spec, n, m)


def test_wheels_row_matches_table():
    # each row from the composition rows it reads, against the whole table at
    # order 200 and the total of wheels_gf; the spans below 41 and near 200
    # are whole, the rows between every seventh
    for parts in ("all", "2,3", "3+"):
        spec = PartSpec.parse(parts)
        table = wheels_bgf(spec, 200)
        totals = wheels_gf(spec, 200)
        for n in (*range(41), *range(41, 190, 7), *range(190, 201)):
            row = wheels_row(spec, n)
            assert row == list(table.rows[n]), (parts, n)
            assert sum(row) == totals.coefficient(n)


def test_wheels_match_enumeration():
    for spec in ORACLE_SPECS:
        series = wheels_gf(spec, 8)
        for n in range(9):
            assert series.coefficient(n) == oracle_series_coeff("wheels", spec, n)


def test_tail_sizes():
    # E, the final gaps outside K, read off the first-return walk
    def tails(shift, symbol):
        e = loop_supports(shift, symbol, 1)[1]
        return e.members_up_to(12), e.unbounded

    cycle3 = VertexShift.from_rows("abc", ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert tails(GOLDEN, CIRC) == ((), False)
    assert tails(GOLDEN, BULL) == ((1,), False)
    assert tails(FULL2, CIRC) == ((), False)
    assert tails(TWO_FIVE, "a") == ((1, 3, 4), False)
    assert tails(cycle3, "a") == ((1, 2), False)
    # loops at a of 4, 7, 10, ... edges leave every other size as a tail
    assert tails(PERIOD3, "a") == ((1, 2, 3, 5, 6, 8, 9, 11, 12), True)
    # reducible: no loop at all, yet the one-symbol word has the scale (1,);
    # and a walk that never comes back makes every size past K a tail
    assert tails(VertexShift.from_rows("a", ((0,),)), "a") == ((1,), False)
    assert tails(VertexShift.from_rows("ab", ((1, 1), (0, 1))), "a") == (tuple(range(2, 13)), True)
    # on irreducible shifts E is every size outside K below some member of K
    for shift in _irreducible_shifts():
        for symbol in shift.alphabet:
            parts, e = loop_supports(shift, symbol, 1)
            assert list(e.members_up_to(24)) == reference_tails(parts, 24)


def reference_tails(spec, order):
    """The k <= order outside K that lie below some member of K."""
    members = spec.members_up_to(order)
    top = order + 1 if spec.unbounded else max(members, default=0)
    return [k for k in range(1, top) if k not in members]


def reference_table(sizes, source, order, first):
    """Rows of first + u sum_{k in sizes} z^k S(z, u), one sum over the sizes per entry.

    With ``source`` None the rows are their own S: the composition table.
    """
    rows = [[first]]
    for n in range(1, order + 1):
        src = rows if source is None else source
        row = [0] * (n + 1)
        for m in range(1, n + 1):
            row[m] = sum(src[n - k][m - 1] for k in sizes if k <= n and m - 1 <= n - k)
        rows.append(row)
    return rows


def tailed_by_length(spec, order):
    """a[n][m] = sum_{k in E} c[n-k][m-1]: the out-of-K scales by size and part count."""
    comp = composition_bgf(spec, order).rows
    return reference_table(reference_tails(spec, order), comp, order, 0)


def test_a_and_b_series():
    bull, one = PartSpec.from_min(2), PartSpec.finite({1})
    assert a_series(bull, one, 12).coeffs[1:] == GOLDEN_A_BULL
    assert b_series(bull, one, 12).coeffs[1:] == GOLDEN_B_BULL
    none = PartSpec.finite(())
    assert a_series(PartSpec.finite({1, 2}), none, 12).coeffs == (0,) * 13
    assert b_series(PartSpec.finite({1, 2}), none, 12).coeffs == (0,) * 13
    assert a_series(bull, one, 12).coeffs == tuple(sum(row) for row in tailed_by_length(bull, 12))
    # b = a C is the derivative of the bivariate a at u = 1, taken the long way
    specs = [bull, PartSpec.finite({2, 5}), PartSpec.finite({3}), PartSpec.finite({1, 2})]
    specs += [loop_supports(GOLDEN, symbol, 24)[0] for symbol in (CIRC, BULL)]
    for spec in specs:
        weighted = tuple(
            sum(m * c for m, c in enumerate(row)) for row in tailed_by_length(spec, 24)
        )
        tails = PartSpec.finite(reference_tails(spec, 24))
        assert b_series(spec, tails, 24).coeffs == weighted
    # the loop sizes at • are {2, 3, ...}, and its one tail is 1
    parts, tails = loop_supports(GOLDEN, BULL, 12)
    assert a_series(parts, tails, 12) == a_series(bull, one, 12)


def test_closed_forms_match_series_products():
    # a = e C and b = e C^2 are each one expansion of an exact product; check
    # them and the report rows against products of the expanded factors, on
    # every 0/1 matrix up to 3 x 3 at each symbol
    order = 12
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            shift = VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
            for symbol in shift.alphabet:
                parts, tails = loop_supports(shift, symbol, order)
                comp = composition_gf(parts, order)
                gaps = tails.members_up_to(order)
                e = TruncatedSeries([int(n in gaps) for n in range(order + 1)], order)
                a = series_product(e, comp)
                b = series_product(a, comp)
                assert a_series(parts, tails, order) == a
                assert b_series(parts, tails, order) == b
                report = symbol_dims(shift, symbol, order)
                assert report.transversal == (wheels_gf(parts, order) + a).coeffs[1:]
                assert report.orbital == (comp + b).coeffs[1:]
                assert report.class_sizes == (comp + a).coeffs[1:]


def test_closed_forms_match_sums_over_parts():
    # the width-w recurrences against the sums over every member of K they replace
    order = 40
    cases = [
        (PartSpec.naturals(), FULL2, CIRC),
        (PartSpec.from_min(2), GOLDEN, BULL),
        (PartSpec.finite({2, 5}), TWO_FIVE, "a"),
        (loop_supports(GOLDEN, BULL, 1)[0], None, None),
        (PERIOD3_PARTS, PERIOD3, "a"),
    ]
    for spec, shift, symbol in cases:
        members = spec.members_up_to(order)
        comp = reference_table(members, None, order, 1)
        assert composition_bgf(spec, order).rows == tuple(map(tuple, comp))
        h = [sum(row) for row in comp]
        p = [0] + [sum(j * h[m - j] for j in members if j <= m) for m in range(1, order + 1)]
        wheels = [0] + [burnside(n, n, lambda k: p[n // k]) for n in range(1, order + 1)]
        assert wheels_gf(spec, order).coeffs == tuple(wheels)
        if shift is None:
            continue
        assert loop_supports(shift, symbol, 1)[0].members_up_to(order) == members
        tails = reference_tails(spec, order)
        tailed = BivariateSeries(reference_table(tails, comp, order, 0), order)
        report = symbol_dims(shift, symbol, order, bivariate=True)
        assert report.bivariate_transversal == wheels_bgf(spec, order) + tailed
        assert report.bivariate_orbital == composition_bgf(spec, order) + tailed.length_weighted()


def test_symbol_dims_golden_circ():
    report = symbol_dims(GOLDEN, CIRC, 12, bivariate=True)
    assert report.transversal == GOLDEN_W_CIRC
    assert report.orbital == GOLDEN_C_CIRC
    assert report.class_sizes == GOLDEN_C_CIRC
    assert report.transversal_at(12) == 31
    assert report.orbital_at(12) == 233
    assert report.includes_empty


def test_symbol_dims_golden_bull():
    report = symbol_dims(GOLDEN, BULL, 12, bivariate=True)
    expected_t = tuple(x + y for x, y in zip(GOLDEN_W_BULL, GOLDEN_A_BULL))
    expected_o = tuple(x + y for x, y in zip(GOLDEN_C_BULL, GOLDEN_B_BULL))
    assert report.transversal == expected_t
    assert report.orbital == expected_o
    assert report.transversal_at(12) == 85
    assert report.orbital_at(12) == 329
    assert report.transversal_at(5) == 4
    assert report.orbital_at(5) == 8
    assert report.class_sizes[11] == 144
    assert report.class_sizes[4] == 5
    # refinement by note count at n=5: classes {(2,3)} and {(4,1)}
    assert report.bivariate_transversal.coefficient(5, 2) == 2
    assert report.bivariate_transversal.coefficient(5, 3) == 1


def test_symbol_dims_runs_the_closed_forms_verify_checks(monkeypatch):
    # vertex dims reads its rows off the public series that verify check 6
    # compares with enumeration, once each, and keeps no copy of them
    calls = Counter()

    def counting(name):
        inner = getattr(scaleshift.scales, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return counted

    names = ("composition_gf", "wheels_gf", "a_series", "b_series")
    for name in names:
        monkeypatch.setattr(scaleshift.scales, name, counting(name))
    # an earlier test may have cached this report; count a fresh one
    scaleshift.scales._loop_system_dims.cache_clear()
    report = symbol_dims(GOLDEN, BULL, 12)
    assert calls == dict.fromkeys(names, 1)
    assert (report.transversal_at(12), report.orbital_at(12)) == (85, 329)


def test_symbol_dims_is_the_uncached_closed_form_of_the_loop_system():
    # every 0/1 matrix on up to 3 symbols, reducible ones included, at each
    # symbol: the cached report equals the closed forms computed afresh from
    # loop_supports' K and tails
    order = 12
    uncached = scaleshift.scales._loop_system_dims.__wrapped__
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            shift = VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
            for symbol in shift.alphabet:
                parts, tails = loop_supports(shift, symbol, order)
                for bivariate in (False, True):
                    report = symbol_dims(shift, symbol, order, bivariate)
                    fresh = uncached(parts, tails, order, bivariate)
                    assert report.to_json() == fresh.to_json(), (bits, symbol, bivariate)


def test_symbol_dims_shares_one_report_per_loop_system():
    relabelled = VertexShift.from_rows("xy", [(0, 1), (1, 1)])
    assert symbol_dims(relabelled, "x", 12, True) is symbol_dims(GOLDEN, BULL, 12, True)
    assert symbol_dims(relabelled, "y", 12) is symbol_dims(GOLDEN, CIRC, 12)
    assert symbol_dims(GOLDEN, CIRC, 12) is not symbol_dims(GOLDEN, CIRC, 12, True)
    # verify's oracle grid: 441 (shift, symbol) reports over 17 loop systems
    pairs = [(shift, symbol) for shift in _irreducible_shifts() for symbol in shift.alphabet]
    assert len(pairs) == 441
    assert len({loop_supports(shift, symbol, MAX_GRID_N) for shift, symbol in pairs}) == 17


def test_symbol_dims_match_enumeration_on_reducible_matrices():
    # every reducible 0/1 matrix on up to 3 symbols (test_oracle checks the
    # irreducible ones), at every symbol, against the enumerated scale sets,
    # with and without the note counts; a scale (g,) shows g is a final gap
    order = 6
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            shift = VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
            if is_irreducible(shift):
                continue
            for symbol in shift.alphabet:
                report = symbol_dims(shift, symbol, order, bivariate=True)
                parts, tails = loop_supports(shift, symbol, order)
                found = scale_class(shift, symbol, order)
                levels = {n: found.at(n) for n in range(1, order + 1)}
                finals = [g for g in range(1, order + 1) if (g,) in levels[g]]
                assert tails.members_up_to(order) == tuple(
                    g for g in finals if g not in parts.members_up_to(order)
                )
                for n, scales in levels.items():
                    assert report.class_sizes[n - 1] == len(scales)
                    assert class_dims_ref(scales) == (report.transversal_at(n), report.orbital_at(n))
                    for m in range(n + 1):
                        by_notes = class_dims_ref([c for c in scales if len(c) == m])
                        assert by_notes == (
                            report.bivariate_transversal.coefficient(n, m),
                            report.bivariate_orbital.coefficient(n, m),
                        )


def test_symbol_dims_match_enumeration():
    for shift in (GOLDEN, FULL2, SFT2):
        for symbol in shift.alphabet:
            report = symbol_dims(shift, symbol, 8)
            cls = scale_class(shift, symbol, 8)
            spec = loop_supports(shift, symbol, 8)[0]
            for n in range(1, 9):
                scales = cls.at(n)
                assert report.class_sizes[n - 1] == len(scales)
                assert report.transversal_at(n) == len({least_rotation(c) for c in scales})
                union = set()
                for comp in scales:
                    union.update(orbit(comp))
                assert report.orbital_at(n) == len(union)
                loops = set(spec.members_up_to(n))
                for comp in scales:
                    assert set(comp[:-1]) <= loops


def test_scale_class_golden_5tet():
    circ = scale_class(GOLDEN, CIRC, 12)
    bull = scale_class(GOLDEN, BULL, 12)
    assert circ.at(5) == GOLDEN_C5_CIRC
    assert bull.at(5) == GOLDEN_C5_BULL
    assert circ.at(5) | bull.at(5) == GOLDEN_C5_ALL
    assert len(circ.at(12)) == 233
    assert len(bull.at(12)) == 144
    assert len(circ.at(12) | bull.at(12)) == GOLDEN_GLOBAL_COUNT12
    union = set()
    for comp in GOLDEN_C5_ALL:
        union.update(orbit(comp))
    assert union == GOLDEN_MODES5


def test_witness_sets_are_transversals():
    # the bundled witness sets pick one member per rotation class
    for witness, scales in (
        (GOLDEN_T5_CIRC, GOLDEN_C5_CIRC),
        (GOLDEN_T5_BULL, GOLDEN_C5_BULL),
    ):
        assert witness <= scales
        assert len(witness) == len({least_rotation(c) for c in scales})
        assert len({least_rotation(c) for c in witness}) == len(witness)
    # and the least member per class is the reference transversal
    assert rotation_classes_ref(GOLDEN_C5_BULL)[0] == {(2, 3), (4, 1), (5,), (2, 2, 1)}
    assert rotation_classes_ref(GOLDEN_C5_CIRC)[0] == GOLDEN_T5_CIRC


def witnesses_ref(shift, n):
    """(L_n's words, the least word of each rotation class), sorted texts, from
    ``rotation_classes_ref`` over the words of ``language_from``."""
    words = language_from(shift, range(shift.size), n)
    return word_texts(shift, sorted(words)), word_texts(shift, sorted(rotation_classes_ref(words)[0]))


def test_language_witnesses_on_every_small_shift():
    # every 0/1 matrix on at most three symbols, named in index order so that
    # text order is index order: both lists come out ascending
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            shift = VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
            for n in range(1, 8):
                words, witnesses = language_witnesses(shift, n)
                assert (words, witnesses) == witnesses_ref(shift, n), (bits, n)


def test_language_witnesses_on_long_words():
    # the 3-cycle a -> b -> c -> a has three words of each length, one class
    # when 3 divides the length and three otherwise (their letter counts differ)
    cycle = VertexShift.from_rows("abc", ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    for n in (63, 64, 65, 200):
        words, witnesses = language_witnesses(cycle, n)
        assert (words, witnesses) == witnesses_ref(cycle, n)
        assert len(words) == 3
        assert witnesses == (words[:1] if n % 3 == 0 else words)
    # a^k b^(70 - k): no rotation of a word with both letters is another word,
    # so every word is alone in its class
    stranded = VertexShift.from_rows("ab", ((1, 1), (0, 1)))
    words, witnesses = language_witnesses(stranded, 70)
    assert witnesses == words == ["a" * k + "b" * (70 - k) for k in range(70, -1, -1)]
    assert (words, witnesses) == witnesses_ref(stranded, 70)


def test_scale_class_unknown_symbol():
    with pytest.raises(ValueError):
        scale_class(GOLDEN, "x", 4)


def test_scale_class_charges_walked_words():
    # the words from • of lengths 1..8 number 1 + 1 + 2 + ... + 21 = 54;
    # the 88 words from ∘ are not walked and not charged
    assert len(scale_class(GOLDEN, BULL, 8, cap=54).at(8)) == 21
    with pytest.raises(EnumerationCapError, match="enumerating 21 words of length 8"):
        scale_class(GOLDEN, BULL, 8, cap=53)


def test_global_dims_golden():
    report = global_dims(GOLDEN, 12)
    assert report.method == "enumeration"
    assert not report.includes_empty
    assert report.transversal == GOLDEN_GLOBAL_T
    assert report.orbital[:9] == GOLDEN_GLOBAL_O
    assert report.orbital_at(12) == GOLDEN_GLOBAL_O12
    assert report.class_sizes[:10] == GOLDEN_GLOBAL_COUNTS
    assert report.class_sizes[11] == GOLDEN_GLOBAL_COUNT12
    assert report.transversal_at(5) == 6
    assert report.orbital_at(5) == 13


def test_global_dims_cap():
    with pytest.raises(EnumerationCapError):
        global_dims(FULL2, 30, cap=100)


def test_global_dims_cap_before_any_word(monkeypatch):
    # golden has 9,227,462 words of lengths 1..31 and 5,702,887 of length 32,
    # so the default cap of 10^7 trips at 32: no word of any length is built,
    # and the price walk draws one row per length up to there, not 8,000.
    # The full shift on 40 symbols has 2,625,640 words of lengths 1..4 and
    # 40^5 of length 5, so at order 4,000 it trips at 5, after five rows.
    def walk(*args):
        raise AssertionError("a word was built before the cap was checked")

    drawn = []
    inner = scaleshift.scales.word_counts

    def counted(shift, order):
        for row in inner(shift, order):
            drawn.append(row)
            yield row

    # the scale walk visits the words; the price walk only counts them
    monkeypatch.setattr(scaleshift.scales, "_scale_levels", walk)
    monkeypatch.setattr(scaleshift.scales, "word_counts", counted)
    with pytest.raises(EnumerationCapError, match="enumerating 5702887 words of length 32 exceeds"):
        global_dims(GOLDEN, 8000)
    assert len(drawn) == 32
    drawn.clear()
    full = VertexShift.from_rows([f"s{i}" for i in range(40)], [[1] * 40] * 40)
    with pytest.raises(EnumerationCapError, match="enumerating 102400000 words of length 5 exceeds"):
        global_dims(full, 4000)
    assert len(drawn) == 5


def test_distinguished_set_scales_sft():
    double = SFT2.alphabet.symbols  # ("∘∘", "∘•", "•∘")

    def body_has_no_adjacent_ones(comp):
        return all(
            not (comp[i] == 1 and comp[i + 1] == 1) for i in range(len(comp) - 2)
        )

    classes = dict(scale_classes(SFT2, double[:2], 12))
    circ_start = classes[double[0]]
    for n in range(2, 13):
        for comp in circ_start.at(n):
            assert set(comp) <= {1, 2}
            assert comp[0] == 1
            assert body_has_no_adjacent_ones(comp)
    bull_start = classes[double[1]]
    assert bull_start.at(1) == {(1,)}
    for n in range(2, 13):
        for comp in bull_start.at(n):
            assert set(comp) <= {1, 2}
            assert comp[0] == 2
            assert body_has_no_adjacent_ones(comp)


def test_distinguished_singleton_matches_scale_class():
    # scale_class is the case of a distinguished set holding the start alone
    [(symbol, via_set)] = scale_classes(GOLDEN, {CIRC}, 6)
    assert symbol == CIRC
    direct = scale_class(GOLDEN, CIRC, 6)
    for n in range(1, 7):
        assert via_set.at(n) == direct.at(n)


def test_distinguished_set_scales_errors():
    with pytest.raises(ValueError):
        dict(scale_classes(GOLDEN, (), 4))
    with pytest.raises(ValueError):
        dict(scale_classes(GOLDEN, {CIRC, "x"}, 4))


def _marked_sets(size):
    """Every non-empty set of symbol indices below ``size``, as a sorted tuple."""
    for r in range(1, size + 1):
        yield from itertools.combinations(range(size), r)


def _prefix_misses(cls: ScaleClass) -> int:
    """How many scales of ``cls`` close their last gap g on a prefix that is
    not a scale of total n - g: the lookups that ``scales_json`` would miss."""
    misses = 0
    for n, scales in cls.by_size.items():
        for p in scales:
            g = (p & -p).bit_length()
            prefix = p >> g
            misses += prefix != 0 and prefix not in cls.by_size[n - g]
    return misses


def test_every_scale_prefix_is_a_scale_of_its_total():
    # every 0/1 matrix on at most 3 symbols, every distinguished set, n <= 10,
    # and the two bundled SFTs' default sets at n <= 30: no scale's prefix
    # misses, and the spelled sets are json.dumps of the sorted compositions
    for size in (1, 2, 3):
        symbols = "abc"[:size]
        for bits in itertools.product((0, 1), repeat=size * size):
            shift = VertexShift.from_rows(symbols, tuple(bits[i * size:(i + 1) * size] for i in range(size)))
            for marked in _marked_sets(size):
                for _, cls in scale_classes(shift, [symbols[i] for i in marked], 10):
                    assert _prefix_misses(cls) == 0, (bits, marked)
    for forbidden in (SFT2_FORBIDDEN, THREESTEP_FORBIDDEN):
        recoded = higher_block(SftPresentation.of((CIRC, BULL), forbidden))
        blocks = recoded.shift.alphabet.symbols
        starts = [blocks[i] for i in range(len(blocks)) if recoded.label(i) == CIRC]
        for _, cls in scale_classes(recoded.shift, starts, 30):
            assert _prefix_misses(cls) == 0
            sets = json.loads(cls.to_json()["sets"])
            assert sets == [{"n": n, "scales": sorted(map(list, cls.at(n)))} for n in range(1, 31)]


def test_enumerated_scales_match_word_rule():
    # every 0/1 matrix on at most 3 symbols (530), every start and every
    # distinguished set containing it (6,210 cases), n <= 8, set for set;
    # global_dims against the union of the singleton cases
    for size in (1, 2, 3):
        symbols = "abc"[:size]
        for bits in itertools.product((0, 1), repeat=size * size):
            rows = tuple(bits[i * size:(i + 1) * size] for i in range(size))
            shift = VertexShift.from_rows(symbols, rows)
            union = [set() for _ in range(8)]
            levels = [word_levels(shift, start, 8) for start in range(size)]
            for marked in _marked_sets(size):
                classes = dict(scale_classes(shift, [symbols[i] for i in marked], 8))
                for start in marked:
                    expected = word_scale_sets(levels[start], set(marked))
                    got = classes[symbols[start]]
                    assert [got.at(n) for n in range(1, 9)] == expected, (rows, start, marked)
                    if marked == (start,):
                        for scales, new in zip(union, expected):
                            scales |= new
            report = global_dims(shift, 8)
            dims = [rotation_classes_ref(scales) for scales in union]
            assert report.transversal == tuple(len(least) for least, _ in dims), rows
            assert report.orbital == tuple(orbital for _, orbital in dims), rows
            assert report.class_sizes == tuple(map(len, union)), rows


@pytest.mark.parametrize("forbidden", [SFT2_FORBIDDEN, THREESTEP_FORBIDDEN], ids=["sft2", "threestep"])
def test_sft_scales_match_word_rule(forbidden):
    # the block graphs sft scales walks: every start block and every
    # distinguished set of blocks containing it, n <= 14, set for set
    shift = higher_block(SftPresentation.of((CIRC, BULL), forbidden)).shift
    blocks = shift.alphabet.symbols
    levels = [word_levels(shift, start, 14) for start in range(shift.size)]
    for marked in _marked_sets(shift.size):
        for block, got in scale_classes(shift, [blocks[i] for i in marked], 14):
            start = blocks.index(block)
            expected = word_scale_sets(levels[start], set(marked))
            assert [got.at(n) for n in range(1, 15)] == expected, (start, marked)


def test_scale_class_json():
    cls = scale_class(GOLDEN, BULL, 3)
    data = cls.to_json()
    assert isinstance(data["sets"], JsonText)
    data["sets"] = json.loads(data["sets"])
    assert data["symbol"] == BULL
    assert data["sets"][0] == {"n": 1, "scales": [[1]]}
    assert data["source"] == "vertex shift"
    assert [entry["n"] for entry in data["sets"]] == [1, 2, 3]
    assert [entry["scales"] for entry in data["sets"]] == [sorted(map(list, cls.at(n))) for n in (1, 2, 3)]
    with pytest.raises(ValueError):
        cls.at(9)
