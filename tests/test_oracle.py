import ast
import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import scaleshift.oracle
from scaleshift.combinatorics import PartSpec
from scaleshift.oracle import (
    MAX_SUM,
    MAX_WORD_LENGTH,
    MAX_SYMBOLS,
    _class_table,
    _mode_table,
    _pattern_table,
    _step_table,
    _word_groups,
    oracle_levels,
    oracle_scale_dims,
)
from scaleshift.scales import global_dims, scale_class, scale_classes, symbol_dims
from scaleshift.shiftspace import (
    DegenerateShiftError,
    SftPresentation,
    VertexShift,
    first_return,
    higher_block,
    language_dims,
    word_counts,
)
from scaleshift.verify import _irreducible_shifts, check_oracle_grid

from oracle_refs import (
    _compositions,
    _cut,
    _orbit_dims,
    _word_levels,
    level_scale_sets,
    oracle_first_return,
    oracle_language_dims,
    oracle_series_coeff,
    per_word_levels,
    word_levels,
    word_of,
)
from refsets import BULL, CIRC, GOLDEN_ROWS, WHEELS_PREFIX

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


FULL3 = VertexShift.from_rows("abc", ((1, 1, 1),) * 3)


def test_levels_language_dims_match_reference():
    # the class tables against the window-striking reference, on every grid
    # shift up to n = 8 and on two shifts at the grid's own n = 10
    cases = [(shift, 8) for shift in _irreducible_shifts()] + [(FULL3, 10), (GOLDEN, 10)]
    for shift, top in cases:
        found = [dims for dims, _, _ in oracle_levels(shift, top)]
        assert found == [oracle_language_dims(shift, n) for n in range(1, top + 1)]


def _spelt(rank, base, n):
    """The n base-``base`` digits of rank, most significant first."""
    return [rank // base ** (n - 1 - i) % base for i in range(n)]


def test_class_table_classes_are_rotation_orbits():
    for base in (2, 3):
        for n in range(1, 9):
            ids, sizes = _class_table(base, n)
            assert len(ids) == sum(sizes) == base ** n
            for rank in range(base ** n):
                digits = _spelt(rank, base, n)
                orbit = {
                    int("".join(map(str, digits[i:] + digits[:i])), base) for i in range(n)
                }
                assert {ids[r] for r in orbit} == {ids[rank]}
                assert sizes[ids[rank]] == len(orbit)
            # equal ids only within an orbit: the orbits fill the table exactly
            assert len(sizes) == len(set(ids))


def test_one_symbol_shift_language_dims():
    # one symbol ranks its words in base 2, in the two-symbol tables
    loop = VertexShift.from_rows("a", ((1,),))
    levels = oracle_levels(loop, MAX_WORD_LENGTH)
    assert [dims for dims, _, _ in levels] == [(1, 1)] * MAX_WORD_LENGTH


def test_word_levels_spell_the_language_and_patterns_cut_its_scales():
    # every 0/1 matrix on up to 3 symbols: each (start, n) group of ranks,
    # spelt out, is the language from that start, each rank sits in the list
    # of its last symbol, and its pattern-table entry, cut before each 1, is
    # the scale of its word; each (base, n, rank) pattern is cut once
    top = 8
    cut = set()
    for size in range(1, 4):
        base = max(size, 2)
        for bits in itertools.product((0, 1), repeat=size * size):
            rows = [bits[i * size:(i + 1) * size] for i in range(size)]
            shift = VertexShift.from_rows("abc"[:size], rows)
            expected = [word_levels(shift, start, top) for start in range(size)]
            for n, level in enumerate(_word_levels(shift, top), start=1):
                patterns = _pattern_table(base, n)
                for start, by_last in enumerate(level):
                    words = []
                    for last, ranks in enumerate(by_last):
                        for rank in ranks:
                            word = word_of(rank, base, n)
                            assert word[-1] == last
                            words.append(word)
                            if (base, n, rank) not in cut:
                                cut.add((base, n, rank))
                                visits = [i for i, s in enumerate(word) if s == word[0]]
                                gaps = tuple(b - a for a, b in zip(visits, visits[1:] + [n]))
                                assert _cut(f"{patterns[rank]:0{n}b}".encode()) == gaps
                    assert sorted(words) == sorted(expected[start][n - 1])
    # the full shifts reach every rank of every length
    assert len(cut) == sum(2 ** n + 3 ** n for n in range(1, top + 1))


def _recording(built, factory, label):
    def record(*args):
        built.append(label)
        return factory(*args)
    return record


#: every table and group set the oracle caches per (base, n) or per n
_ORACLE_CACHES = (_class_table, _pattern_table, _mode_table, _step_table, _word_groups)


def _clear_oracle_caches():
    for cache in _ORACLE_CACHES:
        cache.cache_clear()


def test_class_table_guard_before_allocation(monkeypatch):
    # at the limits 3^4 and 2^6, the longest fitting length on two and on
    # three symbols builds every kind of table and the word groups, and one
    # more is refused before any class, pattern, step or mode table, table
    # array or group set is built; so are too many symbols and a length
    # outside 1..MAX_WORD_LENGTH
    built = []
    labels = {
        "array": "array",
        "_class_table": "classes",
        "_pattern_table": "patterns",
        "_mode_table": "modes",
        "_step_table": "steps",
        "_word_groups": "groups",
    }
    for name, label in labels.items():
        monkeypatch.setattr(
            scaleshift.oracle, name, _recording(built, getattr(scaleshift.oracle, name), label)
        )
    # 3^4 = 81 entries fit 2^6 but not 3^5 or 2^7; 2^6 = 64 fit 3^3 but not 3^4
    fitting = {3 ** 4: ((FULL3, 4), (FULL2, 6)), 2 ** 6: ((FULL3, 3), (FULL2, 6))}
    wide = VertexShift.from_rows(tuple("abcde"), tuple((1,) * 5 for _ in range(5)))
    try:
        for limit, cases in fitting.items():
            monkeypatch.setattr(scaleshift.oracle, "MAX_CLASS_TABLE", limit)
            for shift, n in cases:
                _clear_oracle_caches()
                built.clear()
                oracle_levels(shift, n)
                assert set(built) == set(labels.values())
                built.clear()
                with pytest.raises(ValueError, match=f"\\^{n + 1} entries"):
                    oracle_levels(shift, n + 1)
                assert built == []
        monkeypatch.setattr(scaleshift.oracle, "MAX_CLASS_TABLE", 3 ** 4)
        assert [dims for dims, _, _ in oracle_levels(FULL3, 4)] == [(3, 3), (6, 9), (11, 27), (24, 81)]
        monkeypatch.setattr(scaleshift.oracle, "MAX_CLASS_TABLE", 4 ** 10)
        _clear_oracle_caches()
        built.clear()
        for shift, n, message in (
            (wide, 2, f"at most {MAX_SYMBOLS} symbols, got 5"),
            (FULL2, 0, "got 0"),
            (FULL2, MAX_WORD_LENGTH + 1, f"got {MAX_WORD_LENGTH + 1}"),
        ):
            with pytest.raises(ValueError, match=message):
                oracle_levels(shift, n)
            assert built == []
    finally:
        _clear_oracle_caches()


def test_oracle_imports_no_closed_form_module():
    # oracle.py reads only Composition and VertexShift from the package, so
    # its counts stay independent of the closed forms they check
    tree = ast.parse(Path(scaleshift.oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add((node.module, tuple(alias.name for alias in node.names)))
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "scaleshift", node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("scaleshift") for alias in node.names)
    assert package == {("combinatorics", ("Composition",)), ("shiftspace", ("VertexShift",))}
    closed_forms = {"series", "scales", "numtheory", "reports", "substitutions"}
    assert not {module for module, _ in package} & closed_forms


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


def _literal_orbit_dims(items):
    """(rotation classes, size of the union): every rotation of every item, literally."""
    orbits = {frozenset(item[i:] + item[:i] for i in range(len(item) or 1)) for item in items}
    return len(orbits), len(set().union(*orbits))


def test_orbit_dims_match_literal_rotations():
    periodic = b"\x00\x01" * 3
    compositions = [
        comp
        for m in range(7)
        for comp in itertools.product(range(1, 7), repeat=m)
        if sum(comp) <= 6
    ]
    rng = random.Random(14)
    words = [bytes(rng.randrange(3) for _ in range(7)) for _ in range(300)]
    cases = [
        [],
        [periodic],
        [periodic, periodic[1:] + periodic[:1], periodic, b"\x01\x00\x01"],
        [b""],
        [b"", b"", b"\x02"],
        [b"\x00\x00\x01", b"\x01\x00\x00", b"\x00\x01\x00", b"\x01\x01\x00", b"\x00\x00\x01"],
        compositions,
        [comp for comp in compositions if sum(comp) == 6],
        words + words[::3],
    ]
    for items in cases:
        assert _orbit_dims(items) == _orbit_dims(iter(items)) == _literal_orbit_dims(items)


def test_grid_decodes_each_pattern_once():
    # the grid reads every dimension off the groups of its words: each
    # table and group set is built once per (base, n), every level looks
    # the mode table up once, and no oracle function runs per word, per
    # group, per pattern or per class
    _clear_oracle_caches()
    calls = Counter()
    here = scaleshift.oracle.__file__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == here:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        reports = check_oracle_grid()
    finally:
        sys.setprofile(None)
    assert all(report.match for report in reports)
    shifts = _irreducible_shifts()
    # bases 2 and 3 at n = 1..10 for the words; the mode tables reuse base 2.
    # A cache's wrapper runs no Python code on a hit, so each miss is one frame
    for cache, builds in zip(_ORACLE_CACHES, (20, 20, 10, 20, 20)):
        info = cache.cache_info()
        assert info.misses == info.currsize == calls[cache.__wrapped__.__name__] == builds
    # one lookup per level, and one per group set built
    assert _mode_table.cache_info().hits == 10 * len(shifts) + 20 - 10
    # comprehension frames are named <...> and are inlined on Python 3.12
    assert {name for name in calls if not name.startswith("<")} == {
        "oracle_levels",
        "_successors",
        "_level_dims",
        "_dims",
        "_class_table",
        "_pattern_table",
        "_mode_table",
        "_step_table",
        "_word_groups",
    }
    # one language pair, one scale pair per start symbol and one global pair per level
    assert calls["_level_dims"] == 10 * len(shifts)
    assert calls["_dims"] == sum(10 * (2 + shift.size) for shift in shifts) == 7390


def _all_matrices(size):
    for bits in itertools.product((0, 1), repeat=size * size):
        yield VertexShift.from_rows("abcd"[:size], [bits[i * size:(i + 1) * size] for i in range(size)])


def test_groups_match_per_word_reference():
    # the groups a shift admits against its words enumerated one by one:
    # every 0/1 matrix on up to 3 symbols, reducible and edgeless ones
    # included, at n <= 10, and seeded 4-symbol matrices at n <= 7.  The
    # one-symbol shifts read the base-2 groups, whose second symbol they
    # must never admit: the empty matrix has one word, the loop one per length
    cases = [(shift, 10) for size in range(1, 4) for shift in _all_matrices(size)]
    rng = random.Random(29)
    for _ in range(30):
        rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
        cases.append((VertexShift.from_rows("abcd", rows), 7))
    assert len(cases) == 2 + 16 + 512 + 30
    for shift, top in cases:
        assert oracle_levels(shift, top) == per_word_levels(shift, top)
    lone = VertexShift.from_rows("a", ((0,),))
    loop = VertexShift.from_rows("a", ((1,),))
    assert oracle_levels(lone, 3) == [((1, 1), ((1, 1),), (1, 1))] + [((0, 0), ((0, 0),), (0, 0))] * 2
    assert oracle_levels(loop, 3) == [((1, 1), ((1, 1),), (1, 1))] * 3


def test_global_column_matches_global_dims():
    # the union of a level's per-start scales is its global scale set
    for shift in _irreducible_shifts():
        report = global_dims(shift, 8)
        found = [union for _, _, union in oracle_levels(shift, 8)]
        assert found == [(report.transversal_at(n), report.orbital_at(n)) for n in range(1, 9)]


def test_levels_scale_sets_match_scale_class():
    # the oracle grid compares dimensions only; this pins the oracle's
    # patterns, cut into scales, to scale_class set for set, and each level's
    # scale dimensions to the window-striking count of those sets
    for shift in _irreducible_shifts():
        classes = [scale_class(shift, symbol, 7) for symbol in shift.alphabet]
        levels = zip(oracle_levels(shift, 7), level_scale_sets(shift, 7))
        for n, ((_, dims, _), scales) in enumerate(levels, start=1):
            assert list(dims) == [_orbit_dims(found) for found in scales]
            for study, found in zip(classes, scales):
                assert found == study.at(n)


def test_by_notes_tables_match_oracle():
    # cell (n, m) of the by-notes tables counts the scales with m parts
    top = 8
    cells = 0
    for shift in _irreducible_shifts():
        reports = [symbol_dims(shift, symbol, top, bivariate=True) for symbol in shift.alphabet]
        for n, scales in enumerate(level_scale_sets(shift, top), start=1):
            for report, found in zip(reports, scales):
                for m in range(1, n + 1):
                    parts = {scale for scale in found if len(scale) == m}
                    assert oracle_scale_dims(parts) == (
                        report.bivariate_transversal.coefficient(n, m),
                        report.bivariate_orbital.coefficient(n, m),
                    )
                    cells += 1
    assert cells == 15876


def _random_composition(rng, total):
    if not total:
        return ()
    cuts = sorted(rng.sample(range(1, total), rng.randrange(total)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def test_scale_dims_match_window_striking():
    # the pattern route against the window-striking reference: every subset
    # of the 15 compositions of 1..4, and seeded sets of mixed totals up to 12
    small = [comp for n in range(1, 5) for comp in _compositions(n, tuple(range(1, n + 1)))]
    assert len(small) == 15
    for bits in range(2 ** len(small)):
        subset = [comp for i, comp in enumerate(small) if bits >> i & 1]
        assert oracle_scale_dims(subset) == _orbit_dims(set(subset))
    rng = random.Random(25)
    for _ in range(2600):
        scales = [_random_composition(rng, rng.randint(0, 12)) for _ in range(rng.randint(0, 30))]
        assert oracle_scale_dims(scales) == _orbit_dims(set(scales))
    assert oracle_scale_dims(set()) == (0, 0)
    # the empty scale is its own rotation: one class of one mode
    assert oracle_scale_dims({()}) == _orbit_dims({()}) == (1, 1)
    assert oracle_scale_dims([(), (1,), (), (1, 2), (2, 1)]) == (3, 4)


def test_mode_table_counts_rotations():
    # each pattern with a leading 1 is a scale; its class holds the patterns
    # of that scale's rotations, and its mode count is their number
    for n in range(1, 13):
        ids, modes = _mode_table(n)
        assert len(ids) == 2 ** n and modes[ids[0]] == 0
        assert sum(modes) == 2 ** (n - 1)
        orbits = {}
        for pattern in range(2 ** (n - 1), 2 ** n):
            comp = _cut(f"{pattern:b}".encode())
            rotations = frozenset(comp[i:] + comp[:i] for i in range(len(comp)))
            assert modes[ids[pattern]] == len(rotations)
            orbits.setdefault(ids[pattern], rotations)
            assert orbits[ids[pattern]] == rotations
        # distinct classes hold distinct rotation sets
        assert len(set(orbits.values())) == len(orbits)


def test_scale_dims_guard_before_tables(monkeypatch):
    # a total past MAX_SUM is refused before any class or mode table is built,
    # wherever it sits among the scales; a total at the limit is counted
    built = []
    for name in ("_class_table", "_mode_table", "array"):
        monkeypatch.setattr(scaleshift.oracle, name, _recording(built, getattr(scaleshift.oracle, name), name))
    _mode_table.cache_clear()
    try:
        for scales in ([(MAX_SUM + 1,)], [(1,), (2, 1), (MAX_SUM, 1)], [(MAX_SUM - 1, 1, 1), ()]):
            with pytest.raises(ValueError, match=f"total <= {MAX_SUM}"):
                oracle_scale_dims(scales)
            assert built == []
        monkeypatch.setattr(scaleshift.oracle, "MAX_SUM", 6)
        assert oracle_scale_dims([(6,), (3, 3)]) == (2, 2)
        assert set(built) == {"_class_table", "_mode_table", "array"}
        built.clear()
        with pytest.raises(ValueError, match="total <= 6"):
            oracle_scale_dims([(3, 3), (4, 3)])
        assert built == []
    finally:
        _mode_table.cache_clear()


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
        counts = [sum(row) for row in word_counts(recoded.shift, top)]
        tokens = dict(zip(recoded.blocks, recoded.shift.alphabet.symbols))
        # scales from each block, marking the blocks that share its first letter
        studies = {}
        for letter in {block[0] for block in tokens}:
            marked = [t for b, t in tokens.items() if b[0] == letter]
            studies.update(scale_classes(recoded.shift, marked, top - step + 1))
        for n in range(step, top + 1):
            assert len(levels[n]) == counts[n - step]
            length = n - step + 1
            scales = {block: set() for block in tokens}
            for word in levels[n]:
                visits = [i for i in range(length) if word[i] == word[0]]
                gaps = [b - a for a, b in zip(visits, visits[1:])] + [length - visits[-1]]
                scales[word[:step]].add(tuple(gaps))
            for block, token in tokens.items():
                assert studies[token].at(length) == scales[block]


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
    # every 0/1 matrix on up to 3 symbols, and seeded random ones on 4.
    # With r other symbols, the support is unbounded exactly when a loop size
    # lies in r + 2 .. 2r + 1.  A loop of size n visits n - 1 other symbols;
    # once n - 1 > r one of them repeats, and the cycle between the two
    # visits, of length c <= r, can be pumped, so a bounded support ends by
    # r + 1.  Were the shortest loop longer than r + 1 of size n > 2r + 1,
    # cutting such a cycle out of it would leave a loop of size n - c > r + 1,
    # so an unbounded support has a member in r + 2 .. 2r + 1.  Order 1 makes
    # every support fact come from past the truncation.
    shifts = []
    for size in range(1, 4):
        for bits in itertools.product((0, 1), repeat=size * size):
            rows = [bits[i * size:(i + 1) * size] for i in range(size)]
            shifts.append(VertexShift.from_rows("abc"[:size], rows))
    rng = random.Random(4)
    for _ in range(60):
        shifts.append(VertexShift.from_rows("abcd", [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]))
    # loops at a have 4, 7, 10, ... edges: the first past r + 1 = 4 is 2r + 1
    period3 = VertexShift.from_rows("abcd", ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)))
    shifts.append(period3)
    for shift in shifts:
        r = shift.size - 1
        for symbol in shift.alphabet:
            parts = first_return(shift, symbol, 1).parts
            sizes = [k for k in range(1, 13) if oracle_first_return(shift, symbol, k) > 0]
            assert parts.members_up_to(12) == tuple(sizes)
            assert parts.unbounded == any(r + 2 <= k <= 2 * r + 1 for k in sizes)
            if not parts.unbounded:
                assert max(sizes, default=None) == parts.max_part
            series = first_return(shift, symbol, 40).series
            assert parts.members_up_to(40) == tuple(k for k in range(1, 41) if series.coefficient(k))
    assert first_return(period3, "a", 1).parts.period == 3

