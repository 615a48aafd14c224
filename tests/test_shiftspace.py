import random
from collections import Counter

import pytest

from scaleshift.numtheory import divisors, mobius_invert
from scaleshift.series import RationalFunction, TruncatedSeries
from scaleshift.shiftspace import (
    Alphabet,
    DegenerateShiftError,
    HigherBlock,
    SftPresentation,
    VertexShift,
    first_return,
    first_return_matrix,
    higher_block,
    is_irreducible,
    language,
    language_dims,
    language_from,
    parse_forbidden,
    parse_matrix,
    periodic_counts,
    periodic_orbit_counts,
    word_counts,
    word_texts,
    zeta,
    zeta_rational,
)
from scaleshift.verify import _irreducible_shifts

from refsets import (
    BULL,
    CIRC,
    GOLDEN_LANG_O,
    GOLDEN_LANG_T,
    GOLDEN_P,
    GOLDEN_Q,
    GOLDEN_Q_ORBITS,
    GOLDEN_QBAR,
    GOLDEN_ROWS,
    SFT2_BLOCKS,
    SFT2_FORBIDDEN,
    SFT2_ROWS,
    w,
)

GOLDEN = VertexShift.from_rows((CIRC, BULL), GOLDEN_ROWS)
FULL2 = VertexShift.from_rows((CIRC, BULL), ((1, 1), (1, 1)))
SFT2 = higher_block(SftPresentation.of((CIRC, BULL), SFT2_FORBIDDEN))


def power_table(matrix, top):
    """[A^0, ..., A^top] by schoolbook products: the walk layer's reference."""
    k = len(matrix)
    powers = [[[int(i == j) for j in range(k)] for i in range(k)]]
    for _ in range(top):
        last = powers[-1]
        powers.append(
            [[sum(last[i][l] * matrix[l][j] for l in range(k)) for j in range(k)] for i in range(k)]
        )
    return powers


def random_shifts(count, sizes, seed, density=0.5):
    rng = random.Random(seed)
    shifts = []
    for _ in range(count):
        k = rng.choice(sizes)
        rows = [[int(rng.random() < density) for _ in range(k)] for _ in range(k)]
        shifts.append(VertexShift.from_rows([f"s{i}" for i in range(k)], rows))
    return shifts


WALK_SHIFTS = (
    *_irreducible_shifts(),
    *random_shifts(60, range(4, 9), seed=2020),
    VertexShift.from_rows(("a", "b"), ((1, 0), (0, 1))),
    VertexShift.from_rows(("a", "b", "c"), ((0, 1, 1), (0, 0, 1), (0, 0, 0))),
    SFT2.shift,
)


def test_alphabet():
    a = Alphabet.of((CIRC, BULL))
    assert a.index(BULL) == 1
    assert BULL in a and "x" not in a
    with pytest.raises(ValueError):
        a.index("x")
    with pytest.raises(ValueError):
        Alphabet.of(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet.of(())


def test_vertex_shift_validation():
    with pytest.raises(ValueError):
        VertexShift.from_rows(("a", "b"), ((1, 1),))
    with pytest.raises(ValueError):
        VertexShift.from_rows(("a", "b"), ((1, 1), (2, 0)))
    assert GOLDEN.entry(CIRC, BULL) == 1
    assert GOLDEN.entry(BULL, BULL) == 0


def test_zeta_golden():
    assert zeta_rational(GOLDEN) == RationalFunction([1], [1, -1, -1])
    zs = zeta(GOLDEN, 8)
    assert zs.coeffs == (1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_zeta_other_shifts():
    assert zeta_rational(FULL2) == RationalFunction([1], [1, -2])
    loop = VertexShift.from_rows(("a",), ((1,),))
    assert zeta_rational(loop) == RationalFunction([1], [1, -1])
    assert zeta_rational(SFT2.shift) == RationalFunction([1], [1, 0, -1, -1])


def minimal_orbit_counts(shift, order):
    """q_n / n, with q_n the points of least period n by Mobius inversion of p."""
    q = mobius_invert(periodic_counts(shift, order))
    assert all(q[n] % n == 0 for n in range(1, order + 1))
    return tuple(q[n] // n for n in range(1, order + 1))


def test_periodic_count_family():
    n = len(GOLDEN_P)
    assert tuple(periodic_counts(GOLDEN, n)) == GOLDEN_P
    assert tuple(mobius_invert(periodic_counts(GOLDEN, n))) == GOLDEN_Q
    assert minimal_orbit_counts(GOLDEN, n) == GOLDEN_Q_ORBITS
    assert tuple(periodic_orbit_counts(GOLDEN, n)) == GOLDEN_QBAR


def test_necklaces_match_mobius_route():
    # Burnside on p against the Mobius route: closed orbits of length k | n
    for shift in _irreducible_shifts():
        per_orbit = minimal_orbit_counts(shift, 24)
        necklaces = periodic_orbit_counts(shift, 24)
        for n in range(1, 25):
            assert necklaces[n] == sum(per_orbit[k - 1] for k in divisors(n))


def test_periodic_counts_match_language_closures():
    # p_n is the number of length-n words that close up into a cycle
    for shift in (GOLDEN, FULL2, SFT2.shift):
        p = periodic_counts(shift, 7)
        for n in range(1, 8):
            closed = sum(
                1 for word in language(shift, n) if shift.entry(word[-1], word[0])
            )
            assert p[n] == closed


def test_zeta_log_consistency():
    # p_n = trace(A^n) by schoolbook powers, and log zeta = sum_n p_n z^n / n:
    # with D = det(I - zA) = 1/zeta, -z D' = D sum_n p_n z^n
    order = 30
    for shift in WALK_SHIFTS:
        powers = power_table(shift.matrix, order)
        traces = [sum(power[j][j] for j in range(shift.size)) for power in powers[1:]]
        assert list(periodic_counts(shift, order)) == traces
        det = TruncatedSeries(list(zeta_rational(shift).denominator), order)
        z_det_prime = TruncatedSeries([n * c for n, c in enumerate(det.coeffs)], order)
        assert z_det_prime * -1 == det * TruncatedSeries([0, *traces], order)


def test_language_small():
    assert language(GOLDEN, 0) == {()}
    assert language(GOLDEN, 1) == {w("∘"), w("•")}
    assert language(GOLDEN, 2) == {w("∘∘"), w("∘•"), w("•∘")}
    assert len(language(GOLDEN, 5)) == 13
    start = set(language_from(GOLDEN, (1,), 5))
    assert len(start) == 5
    assert all(word[0] == 1 for word in start)
    assert {tuple((CIRC, BULL)[i] for i in word) for word in start} <= language(GOLDEN, 5)
    assert word_texts(GOLDEN, [(0, 1), (1, 0)]) == ["∘•", "•∘"]
    spaced = VertexShift.from_rows(["a", "bc"], [[1, 1], [1, 1]])
    assert word_texts(spaced, [(1, 0, 1)]) == ["bc a bc"]


def test_language_counts_match_matrix_powers():
    for shift in (GOLDEN, FULL2, SFT2.shift):
        for n, power in enumerate(power_table(shift.matrix, 6), start=1):
            assert len(language(shift, n)) == sum(map(sum, power))


def test_word_counts_match_power_table():
    for shift in WALK_SHIFTS:
        sums = [sum(map(sum, power)) for power in power_table(shift.matrix, 29)]
        assert word_counts(shift, 30) == sums
    assert word_counts(GOLDEN, 0) == []


def test_is_irreducible():
    assert is_irreducible(GOLDEN)
    assert is_irreducible(FULL2)
    assert is_irreducible(SFT2.shift)
    assert is_irreducible(VertexShift.from_rows(("a", "b"), ((0, 1), (1, 0))))
    assert not is_irreducible(VertexShift.from_rows(("a", "b"), ((1, 0), (0, 1))))
    assert not is_irreducible(VertexShift.from_rows(("a", "b"), ((1, 1), (0, 1))))
    assert is_irreducible(VertexShift.from_rows(("a",), ((1,),)))
    assert not is_irreducible(VertexShift.from_rows(("a",), ((0,),)))


def test_first_return_golden():
    f_circ = first_return(GOLDEN, CIRC, 16)
    assert f_circ.series.coeffs[:4] == (0, 1, 1, 0)
    assert f_circ.series == TruncatedSeries([0, 1, 1] + [0] * 14, 16)
    assert f_circ.support == {1, 2}
    assert not f_circ.support_unbounded
    assert f_circ.support_max == 2

    f_bull = first_return(GOLDEN, BULL, 16)
    assert f_bull.series.coeffs == (0, 0) + (1,) * 15
    assert f_bull.support == frozenset(range(2, 17))
    assert f_bull.support_unbounded
    assert f_bull.support_max is None

    spec = f_bull.part_spec()
    assert spec.members_up_to(10) == tuple(range(2, 11))
    with pytest.raises(ValueError):
        spec.members_up_to(30)


def test_first_return_matches_loop_enumeration():
    # brute force: first return loops at s are words s w1 .. w_{n-1} with
    # no interior s that close back into s
    for shift in (GOLDEN, FULL2, SFT2.shift):
        for symbol in shift.alphabet:
            f = first_return(shift, symbol, 8)
            for n in range(1, 9):
                loops = [
                    word
                    for word in language(shift, n)
                    if word[0] == symbol
                    and symbol not in word[1:]
                    and shift.entry(word[-1], symbol)
                ]
                assert f.series.coefficient(n) == len(loops)


def test_first_return_support_analysis():
    loop = VertexShift.from_rows(("a",), ((1,),))
    f = first_return(loop, "a", 8)
    assert f.support == {1} and f.support_max == 1 and not f.support_unbounded

    swap = VertexShift.from_rows(("a", "b"), ((0, 1), (1, 0)))
    f = first_return(swap, "a", 8)
    assert f.support == {2} and f.support_max == 2

    f = first_return(SFT2.shift, SFT2.shift.alphabet.symbols[0], 12)
    assert f.support == {3, 5, 7, 9, 11}
    assert f.support_unbounded and f.support_max is None


def test_first_return_matrix_two_symbol_hole():
    double = SFT2.shift.alphabet.symbols
    table = first_return_matrix(SFT2.shift, double[:2], 8)
    z = TruncatedSeries([0, 1], 8)
    z2 = TruncatedSeries([0, 0, 1], 8)
    assert table[(double[0], double[0])] == TruncatedSeries([], 8)
    assert table[(double[0], double[1])] == z
    assert table[(double[1], double[0])] == z2
    assert table[(double[1], double[1])] == z2


def test_first_return_matrix_consistency():
    # singleton distinguished set reproduces the loop system series
    for shift in (GOLDEN, SFT2.shift):
        for symbol in shift.alphabet:
            table = first_return_matrix(shift, (symbol,), 10)
            assert table[(symbol, symbol)] == first_return(shift, symbol, 10).series
    # distinguishing everything leaves single edges only
    table = first_return_matrix(GOLDEN, (CIRC, BULL), 6)
    for s in (CIRC, BULL):
        for t in (CIRC, BULL):
            expected = TruncatedSeries([0, GOLDEN.entry(s, t)], 6)
            assert table[(s, t)] == expected
    with pytest.raises(ValueError):
        first_return_matrix(GOLDEN, (), 6)


def test_first_return_matrix_matches_first_passages():
    # brute force: a first passage s -> t of n edges is a word s w1 .. w_{n-1} t
    # of L_{n+1} whose interior avoids the distinguished set
    rng = random.Random(11)
    shifts = (*_irreducible_shifts()[::4], *random_shifts(25, (4, 5), seed=7), SFT2.shift)
    for shift in shifts:
        symbols = shift.alphabet.symbols
        distinguished = rng.sample(symbols, rng.randint(1, len(symbols)))
        table = first_return_matrix(shift, distinguished, 7)
        marked = set(distinguished)
        for n in range(1, 8):
            passages = Counter(
                (word[0], word[-1])
                for word in language(shift, n + 1)
                if word[0] in marked and word[-1] in marked and not marked & set(word[1:-1])
            )
            for s in distinguished:
                for t in distinguished:
                    assert table[s, t].coefficient(n) == passages[s, t]


def test_higher_block_two_step():
    assert SFT2.blocks == SFT2_BLOCKS
    assert SFT2.shift.matrix == SFT2_ROWS
    assert SFT2.shift.alphabet.symbols == ("∘∘", "∘•", "•∘")
    assert [SFT2.label(i) for i in range(3)] == [CIRC, CIRC, BULL]


def test_higher_block_one_step():
    hb = higher_block(SftPresentation.of((CIRC, BULL), {w("••")}))
    assert hb.blocks == (w("∘"), w("•"))
    assert hb.shift.matrix == GOLDEN_ROWS

    hb = higher_block(SftPresentation.of((CIRC, BULL), {w("∘•")}))
    assert hb.shift.matrix == ((1, 0), (1, 1))


def test_forbidden_normalization():
    sft = SftPresentation.of((CIRC, BULL), {w("••"), w("•••"), w("∘••∘")})
    assert sft.forbidden == {w("••")}
    with pytest.raises(ValueError):
        SftPresentation.of((CIRC, BULL), {w("•")})
    with pytest.raises(ValueError):
        SftPresentation.of((CIRC,), {w("•∘")})


def test_higher_block_dead_end():
    hb = higher_block(SftPresentation.of((CIRC,), {w("∘∘")}))
    assert hb.shift.matrix == ((0,),)
    assert language(hb.shift, 1) == {(CIRC,)}
    assert language(hb.shift, 2) == frozenset()


def test_language_dims_golden():
    report = language_dims(GOLDEN, 9)
    assert report.transversal[:6] == GOLDEN_LANG_T
    assert report.orbital == GOLDEN_LANG_O
    assert report.method == "closed_form"


def test_language_dims_match_enumeration():
    # transversal dim: rotation classes meeting L_n; orbital dim: size of
    # the union of the full rotation orbits of the words of L_n
    from scaleshift.combinatorics import least_rotation, orbit

    for shift in (GOLDEN, FULL2, SFT2.shift):
        report = language_dims(shift, 7)
        for n in range(1, 8):
            words = language(shift, n)
            union = set()
            for word in words:
                union.update(orbit(word))
            classes = {least_rotation(word) for word in words}
            assert report.orbital_at(n) == len(union)
            assert report.transversal_at(n) == len(classes)


def test_parse_matrix():
    text = "∘ •\n1 1\n1 0\n"
    shift = parse_matrix(text)
    assert shift.alphabet.symbols == (CIRC, BULL)
    assert shift.matrix == GOLDEN_ROWS
    with_comment = "# golden mean\n∘ •\n1 1\n1 0\n"
    assert parse_matrix(with_comment) == shift
    with pytest.raises(ValueError):
        parse_matrix("∘ •\n1 1\n")
    with pytest.raises(ValueError):
        parse_matrix("")


def test_parse_forbidden():
    text = "# alphabet: ∘ •\n••\n∘∘∘\n"
    sft = parse_forbidden(text)
    assert sft.alphabet.symbols == (CIRC, BULL)
    assert sft.forbidden == SFT2_FORBIDDEN

    inferred = parse_forbidden("••\n∘∘∘\n")
    assert inferred.alphabet.symbols == (BULL, CIRC)

    spaced = parse_forbidden("# alphabet: ab cd\nab cd\n")
    assert spaced.forbidden == {("ab", "cd")}
    with pytest.raises(ValueError):
        parse_forbidden("# alphabet: ∘ •\n")
