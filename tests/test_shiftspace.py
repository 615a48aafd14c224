import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from scaleshift.combinatorics import PartSpec
from scaleshift.numtheory import divisors, mobius_invert
from scaleshift.scales import wheels_gf
from scaleshift.series import RationalFunction, TruncatedSeries
from scaleshift.shiftspace import (
    SUPPORT_WALK_LIMIT,
    Alphabet,
    BlockCountError,
    SftPresentation,
    VertexShift,
    first_return_matrix,
    has_cycle,
    higher_block,
    is_irreducible,
    language_dims,
    language_from,
    loop_supports,
    parse_forbidden,
    parse_matrix,
    periodic_counts,
    periodic_orbit_counts,
    word_counts,
    word_texts,
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
    dense_first_return_matrix,
    forward_word_counts,
    orbit,
    pairwise_block_rows,
    pairwise_blocks,
    pairwise_normalized,
    series_product,
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


def all_words(shift, n):
    """L_n as symbol-index tuples."""
    return set(language_from(shift, range(shift.size), n))


def permutation_shift(cycles):
    """The permutation matrix with one cycle per entry of ``cycles``, of that length."""
    k = sum(cycles)
    image = []
    for start, n in zip(itertools.accumulate(cycles, initial=0), cycles):
        image += [start + (j + 1) % n for j in range(n)]
    rows = [[int(j == t) for j in range(k)] for t in image]
    return VertexShift.from_rows([f"s{i}" for i in range(k)], rows)


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
    # successor lists: one per symbol, each strictly ascending inside the alphabet
    ab = Alphabet.of("ab")
    assert VertexShift(ab, ((0, 1), ())).successors == ((0, 1), ())
    for lists, message in (
        (((0, 1),), "do not match alphabet"),
        (((0, 1), (0,), ()), "do not match alphabet"),
        (((1, 0), (0,)), r"\(1, 0\) does not ascend"),
        (((0, 0), (1,)), r"\(0, 0\) does not ascend"),
        (((0, 1), (2,)), r"\(2,\) does not ascend strictly inside 0\.\.1"),
        (((-1,), (0,)), r"\(-1,\) does not ascend"),
    ):
        with pytest.raises(ValueError, match=message):
            VertexShift(ab, lists)


def test_from_rows_round_trip():
    # every 0/1 matrix on <= 3 symbols: its successor lists give it back as the
    # dense view, and columns equal the column lists read off the rows
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            rows = tuple(bits[i * k:i * k + k] for i in range(k))
            shift = VertexShift.from_rows("abc"[:k], rows)
            assert shift.matrix == rows
            assert VertexShift.from_rows("abc"[:k], shift.matrix) == shift
            assert shift.successors == tuple(tuple(j for j in range(k) if rows[i][j]) for i in range(k))
            assert shift.columns == tuple(tuple(i for i in range(k) if rows[i][j]) for j in range(k))


def test_zeta_golden():
    assert zeta_rational(GOLDEN) == RationalFunction([1], [1, -1, -1])
    zs = zeta_rational(GOLDEN).expand(8)
    assert zs.coeffs == (1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_zeta_other_shifts():
    assert zeta_rational(FULL2) == RationalFunction([1], [1, -2])
    loop = VertexShift.from_rows(("a",), ((1,),))
    assert zeta_rational(loop) == RationalFunction([1], [1, -1])
    assert zeta_rational(SFT2.shift) == RationalFunction([1], [1, 0, -1, -1])
    # at full degree, against closed forms that no walk computes: a permutation
    # matrix has det(I - zA) = prod over its cycles of 1 - z^length
    perm = permutation_shift((2, 3, 5))
    cycles = [RationalFunction([1], [1, *[0] * (n - 1), -1]) for n in (2, 3, 5)]
    assert zeta_rational(perm) == cycles[0] * cycles[1] * cycles[2]
    assert len(zeta_rational(perm).denominator) == perm.size + 1
    full17 = VertexShift.from_rows([f"s{i}" for i in range(17)], [[1] * 17] * 17)
    assert zeta_rational(full17) == RationalFunction([1], [1, -17])
    chain = VertexShift.from_rows(
        [f"s{i}" for i in range(9)], [[int(j == i + 1) for j in range(9)] for i in range(9)]
    )
    assert zeta_rational(chain) == RationalFunction([1], [1])


def minimal_orbit_counts(shift, order):
    """q_n / n, with q_n the points of least period n by Mobius inversion of p."""
    q = mobius_invert(periodic_counts(shift, order))
    assert all(q.coefficient(n) % n == 0 for n in range(1, order + 1))
    return tuple(q.coefficient(n) // n for n in range(1, order + 1))


def test_periodic_count_family():
    n = len(GOLDEN_P)
    assert periodic_counts(GOLDEN, n).coeffs == (0, *GOLDEN_P)
    assert mobius_invert(periodic_counts(GOLDEN, n)).coeffs == (0, *GOLDEN_Q)
    assert minimal_orbit_counts(GOLDEN, n) == GOLDEN_Q_ORBITS
    assert periodic_orbit_counts(GOLDEN, n).coeffs == (0, *GOLDEN_QBAR)


def test_necklaces_match_mobius_route():
    # Burnside on p against the Mobius route: closed orbits of length k | n;
    # every 0/1 matrix on two symbols adds reducible and nilpotent shifts,
    # where det(I - zA) can be 1
    two = [
        VertexShift.from_rows("ab", (bits[:2], bits[2:]))
        for bits in itertools.product((0, 1), repeat=4)
    ]
    for shift in (*_irreducible_shifts(), *two):
        per_orbit = minimal_orbit_counts(shift, 24)
        necklaces = periodic_orbit_counts(shift, 24)
        assert necklaces.coefficient(0) == 0
        for n in range(1, 25):
            assert necklaces.coefficient(n) == sum(per_orbit[k - 1] for k in divisors(n))


def test_binary_necklaces_are_wheels_plus_one():
    # both are the cycle construction: a binary necklace with a 1 in it is a
    # wheel, read as the gaps between its 1s; only the all-0 necklace is not
    necklaces = periodic_orbit_counts(FULL2, 64)
    wheels = wheels_gf(PartSpec.naturals(), 64)
    assert necklaces.coefficient(12) - 1 == wheels.coefficient(12) == 351
    for n in range(1, 65):
        assert necklaces.coefficient(n) - 1 == wheels.coefficient(n)


def test_periodic_counts_match_language_closures():
    # p_n is the number of length-n words that close up into a cycle
    for shift in (GOLDEN, FULL2, SFT2.shift):
        p = periodic_counts(shift, 7)
        for n in range(1, 8):
            closed = sum(1 for word in all_words(shift, n) if shift.matrix[word[-1]][word[0]])
            assert p.coefficient(n) == closed


def test_zeta_log_consistency():
    # p_n = trace(A^n) by schoolbook powers, and log zeta = sum_n p_n z^n / n:
    # with D = det(I - zA) = 1/zeta, -z D' = D sum_n p_n z^n
    order = 30
    for shift in WALK_SHIFTS:
        powers = power_table(shift.matrix, order)
        traces = [sum(power[j][j] for j in range(shift.size)) for power in powers[1:]]
        assert periodic_counts(shift, order).coeffs == (0, *traces)
        det = TruncatedSeries(list(zeta_rational(shift).denominator), order)
        minus_z_det_prime = TruncatedSeries([-n * c for n, c in enumerate(det.coeffs)], order)
        assert minus_z_det_prime == series_product(det, TruncatedSeries([0, *traces], order))


def test_language_small():
    assert all_words(GOLDEN, 0) == {()}
    assert all_words(GOLDEN, 1) == {(0,), (1,)}
    assert word_texts(GOLDEN, sorted(all_words(GOLDEN, 2))) == ["∘∘", "∘•", "•∘"]
    assert len(all_words(GOLDEN, 5)) == 13
    start = language_from(GOLDEN, (1,), 5)
    assert len(start) == len(set(start)) == 5
    assert all(word[0] == 1 for word in start)
    assert set(start) <= all_words(GOLDEN, 5)
    assert word_texts(GOLDEN, [(0, 1), (1, 0)]) == ["∘•", "•∘"]
    spaced = VertexShift.from_rows(["a", "bc"], [[1, 1], [1, 1]])
    assert word_texts(spaced, [(1, 0, 1)]) == ["bc a bc"]


def test_language_counts_match_matrix_powers():
    for shift in (GOLDEN, FULL2, SFT2.shift):
        for n, power in enumerate(power_table(shift.matrix, 6), start=1):
            words = language_from(shift, range(shift.size), n)
            assert len(words) == len(set(words)) == sum(map(sum, power))


def test_language_from_matches_product_filter():
    # the reference: every tuple over the alphabet whose steps are all edges
    shifts = (*_irreducible_shifts(), *WALK_SHIFTS[-3:-1])
    for shift in shifts:
        k, a = shift.size, shift.matrix
        start_sets = [(), *((i,) for i in range(k)), tuple(range(k)), tuple(range(k))[::-2]]
        for starts in start_sets:
            assert language_from(shift, starts, 0) == [()]
        for n in range(1, 7):
            admissible = [
                word for word in itertools.product(range(k), repeat=n)
                if all(a[i][j] for i, j in zip(word, word[1:]))
            ]
            for starts in start_sets:
                words = language_from(shift, starts, n)
                assert len(words) == len(set(words))
                assert sorted(words) == [word for word in admissible if word[0] in starts]


def test_cached_walk_tables_keep_equality_and_hash():
    for shift in (GOLDEN, SFT2.shift, *WALK_SHIFTS[-3:-1]):
        cached = VertexShift(shift.alphabet, shift.successors)
        # the cycle check reads columns; the dense view is read here alone
        has_cycle(cached)
        rows = cached.matrix
        assert {"matrix", "columns"} <= vars(cached).keys()
        plain = VertexShift(shift.alphabet, shift.successors)
        assert not {"matrix", "columns"} & vars(plain).keys()
        assert cached == plain
        assert hash(cached) == hash(plain)
        assert len({cached, plain}) == 1
        # the stored lists and the views cached from them refuse assignment alike
        for name in ("successors", "matrix", "columns"):
            with pytest.raises(AttributeError):
                setattr(cached, name, getattr(plain, name))
        k = cached.size
        assert cached.successors == tuple(tuple(j for j in range(k) if rows[i][j]) for i in range(k))
        assert cached.columns == tuple(tuple(i for i in range(k) if rows[i][j]) for j in range(k))


def test_word_counts_match_power_table():
    # row n - 1 holds the row sums of A^(n-1): the words of length n from each start
    for shift in WALK_SHIFTS:
        sums = [[sum(row) for row in power] for power in power_table(shift.matrix, 29)]
        assert list(word_counts(shift, 30)) == sums
    assert list(word_counts(GOLDEN, 0)) == []


def test_word_counts_match_forward_walk_per_start():
    # one walk u -> Au from the all-ones vector against one forward walk v -> vA per start
    shifts = [
        VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
        for k in (1, 2, 3)
        for bits in itertools.product((0, 1), repeat=k * k)
    ]
    root = Path(__file__).resolve().parents[1]
    for path in ("src/scaleshift/fixtures/twostep.forb", "perfbench/inputs/threestep.forb"):
        shifts.append(higher_block(parse_forbidden((root / path).read_text(encoding="utf-8"))).shift)
    for shift in shifts:
        rows = list(word_counts(shift, 12))
        for start in range(shift.size):
            assert [row[start] for row in rows] == forward_word_counts(shift.matrix, start, 12)


def test_is_irreducible():
    assert is_irreducible(GOLDEN)
    assert is_irreducible(FULL2)
    assert is_irreducible(SFT2.shift)
    assert is_irreducible(VertexShift.from_rows(("a", "b"), ((0, 1), (1, 0))))
    assert not is_irreducible(VertexShift.from_rows(("a", "b"), ((1, 0), (0, 1))))
    assert not is_irreducible(VertexShift.from_rows(("a", "b"), ((1, 1), (0, 1))))
    assert is_irreducible(VertexShift.from_rows(("a",), ((1,),)))
    assert not is_irreducible(VertexShift.from_rows(("a",), ((0,),)))
    # every 0/1 matrix on at most 3 symbols, against the definition: for each
    # pair (i, j), some power A^n with 1 <= n <= k has a positive (i, j) entry
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            rows = tuple(bits[i * k : (i + 1) * k] for i in range(k))
            power, reached = rows, [[0] * k for _ in range(k)]
            for _ in range(k):
                reached = [[r | p for r, p in zip(*pair)] for pair in zip(reached, power)]
                power = [[min(1, sum(row[m] * rows[m][j] for m in range(k))) for j in range(k)] for row in power]
            expected = all(map(all, reached))
            shift = VertexShift.from_rows(tuple("abc"[:k]), rows)
            assert is_irreducible(shift) is expected, rows


def test_first_return_golden():
    f_circ = first_return_matrix(GOLDEN, (CIRC,), 16)[CIRC, CIRC]
    assert f_circ.coeffs[:4] == (0, 1, 1, 0)
    assert f_circ == TruncatedSeries([0, 1, 1] + [0] * 14, 16)
    k_circ = loop_supports(GOLDEN, CIRC, 16)[0]
    assert k_circ.members_up_to(16) == (1, 2)
    assert not k_circ.unbounded
    assert k_circ.max_part == 2

    f_bull = first_return_matrix(GOLDEN, (BULL,), 16)[BULL, BULL]
    assert f_bull.coeffs == (0, 0) + (1,) * 15
    k_bull = loop_supports(GOLDEN, BULL, 16)[0]
    assert k_bull.members_up_to(16) == tuple(range(2, 17))
    assert k_bull.unbounded
    assert k_bull.max_part is None
    # the support is exact past the truncation order
    assert k_bull.members_up_to(30) == tuple(range(2, 31))


def test_first_return_matches_loop_enumeration():
    # brute force: first return loops at s are words s w1 .. w_{n-1} with
    # no interior s that close back into s
    for shift in (GOLDEN, FULL2, SFT2.shift):
        for s, symbol in enumerate(shift.alphabet):
            f = first_return_matrix(shift, (symbol,), 8)[symbol, symbol]
            for n in range(1, 9):
                loops = [
                    word
                    for word in all_words(shift, n)
                    if word[0] == s and s not in word[1:] and shift.matrix[word[-1]][s]
                ]
                assert f.coefficient(n) == len(loops)


def test_first_return_support_analysis():
    loop = VertexShift.from_rows(("a",), ((1,),))
    parts = loop_supports(loop, "a", 8)[0]
    assert parts.members_up_to(8) == (1,) and parts.max_part == 1 and not parts.unbounded

    swap = VertexShift.from_rows(("a", "b"), ((0, 1), (1, 0)))
    parts = loop_supports(swap, "a", 8)[0]
    assert parts.members_up_to(8) == (2,) and parts.max_part == 2

    parts = loop_supports(SFT2.shift, SFT2.shift.alphabet.symbols[0], 12)[0]
    assert parts.members_up_to(12) == (3, 5, 7, 9, 11)
    assert parts.unbounded and parts.max_part is None


def test_first_return_supports_are_canonical():
    # supports compare and hash equal exactly when their members agree, on
    # every 0/1 matrix up to 3 x 3 at each symbol
    supports = []
    for k in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=k * k):
            shift = VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
            supports += [loop_supports(shift, symbol, 1)[0] for symbol in shift.alphabet]
    by_members = {}
    for parts in supports:
        by_members.setdefault(parts.members_up_to(40), set()).add(parts)
    assert all(len(group) == 1 for group in by_members.values())
    assert len(set(supports)) == len(by_members)
    # {2, 3, ...}, walked with period 2
    skew = VertexShift.from_rows("abc", ((0, 0, 1), (1, 0, 1), (1, 1, 0)))
    parts = loop_supports(skew, "a", 1)[0]
    assert parts == PartSpec.from_min(2) and parts.indicator_gf(8) == ((0, 0, 1), (1, -1))


def test_first_return_long_walks():
    # Wielandt's graph on v1..vm, an m-cycle plus the chord vm -> v2 that
    # closes an (m - 1)-cycle, with s = v0 -> v1 -> v0: the loop sizes are 2
    # and 2 + am + b(m - 1) for a >= 1, b >= 0, and the walk supports take
    # about m^2 steps to repeat, past SUPPORT_WALK_LIMIT for m = 66, where
    # the walk still runs to r^2 and K is exact.  Order 1 makes every size
    # past 1 come from the support walk alone.
    for m in (5, 66):
        rows = [[0] * (m + 1) for _ in range(m + 1)]
        rows[0][1] = rows[1][0] = rows[m][2] = 1
        for i in range(1, m + 1):
            rows[i][i % m + 1] = 1
        shift = VertexShift.from_rows([f"v{i}" for i in range(m + 1)], rows)
        loops = {2} | {2 + a * m + b * (m - 1) for a in range(1, 6000 // m + 1) for b in range(6000 // m + 1)}
        parts = loop_supports(shift, "v0", 1)[0]
        assert parts.members_up_to(6000) == tuple(sorted(k for k in loops if k <= 6000))
    assert (m - 1) ** 2 > SUPPORT_WALK_LIMIT
    # a cycle of n symbols entered from s and left back to s at one symbol
    # adds the loop sizes 2 + tn, so the period is the product of the cycle
    # lengths.  Period 210 is found and K is exact; period 30030 is past the
    # walk limit, so K is exact up to it and then holds every size; the tails
    # E are the other sizes the walk reaches.  With no way back to s the
    # cycles add no loop size, only tails, and are folded out of the walk
    # once it has run r steps: K = {2}, and every other size is in E.
    for lengths, back in (((2, 3, 5, 7), 1), ((2, 3, 5, 7, 11, 13), 1), ((2, 3, 5, 7, 11, 13), 0)):
        size = 2 + sum(lengths)
        rows = [[0] * size for _ in range(size)]
        rows[0][1] = rows[1][0] = 1
        first = 2
        for length in lengths:
            rows[0][first], rows[first][0] = 1, back
            for t in range(length):
                rows[first + t][first + (t + 1) % length] = 1
            first += length
        shift = VertexShift.from_rows([f"v{i}" for i in range(size)], rows)
        parts, tails = loop_supports(shift, "v0", 1)
        if not back:
            assert (parts.members_up_to(6000), parts.unbounded, parts.max_part) == ((2,), False, 2)
            assert tails.members_up_to(6000) == (1, *range(3, 6001))
            continue
        loops = {2 + t * n for n in lengths for t in range(3000)}
        top = 6000 if len(lengths) == 4 else SUPPORT_WALK_LIMIT + 2
        assert parts.period == (210 if len(lengths) == 4 else 1)
        assert parts.members_up_to(6000) == (*sorted(k for k in loops if k <= top), *range(top + 1, 6001))
        assert (parts.unbounded, parts.max_part) == (True, None)
        assert tails.members_up_to(6000) == tuple(k for k in range(1, top + 1) if k not in loops)


def test_first_return_matrix_two_symbol_hole():
    double = SFT2.shift.alphabet.symbols
    table = first_return_matrix(SFT2.shift, double[:2], 8)
    z = TruncatedSeries([0, 1], 8)
    z2 = TruncatedSeries([0, 0, 1], 8)
    assert table[(double[0], double[0])] == TruncatedSeries([], 8)
    assert table[(double[0], double[1])] == z
    assert table[(double[1], double[0])] == z2
    assert table[(double[1], double[1])] == z2


def test_first_return_matches_zeta_quotient():
    # the paper's route: 1 - f = det(I - zA) / det(I - zB), with B the matrix
    # A with the distinguished symbol's row and column removed; f walks from
    # the start row to the order, each det strikes one symbol at a time
    order = 16
    for shift in WALK_SHIFTS:
        det_a = TruncatedSeries(list(zeta_rational(shift).denominator), order)
        for s, symbol in enumerate(shift.alphabet):
            rest = [i for i in range(shift.size) if i != s]
            det_b = TruncatedSeries([1], order)
            if rest:
                minor = VertexShift.from_rows(
                    [shift.alphabet.symbols[i] for i in rest],
                    [[shift.matrix[i][j] for j in rest] for i in rest],
                )
                det_b = TruncatedSeries(list(zeta_rational(minor).denominator), order)
            f = first_return_matrix(shift, (symbol,), order)[symbol, symbol]
            assert det_a + series_product(det_b, f) == det_b


def test_first_return_matrix_consistency():
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
        marked = set(rng.sample(range(len(symbols)), rng.randint(1, len(symbols))))
        table = first_return_matrix(shift, [symbols[i] for i in marked], 7)
        for n in range(1, 8):
            passages = Counter(
                (word[0], word[-1])
                for word in all_words(shift, n + 1)
                if word[0] in marked and word[-1] in marked and not marked & set(word[1:-1])
            )
            for s in marked:
                for t in marked:
                    assert table[symbols[s], symbols[t]].coefficient(n) == passages[s, t]


def test_first_return_matrix_matches_dense_walk():
    # the absorbing walk against the dense walk inside the minor: every 0/1
    # matrix on up to 3 symbols, every non-empty distinguished set, orders 0, 1, 2, 8
    for size in (1, 2, 3):
        symbols = "abc"[:size]
        for bits in itertools.product((0, 1), repeat=size * size):
            shift = VertexShift.from_rows(symbols, [bits[i * size:(i + 1) * size] for i in range(size)])
            for r in range(1, size + 1):
                for marked in itertools.combinations(symbols, r):
                    for order in (0, 1, 2, 8):
                        expected = dense_first_return_matrix(shift, marked, order)
                        assert first_return_matrix(shift, marked, order) == expected, (bits, marked)
    # the block graphs sft scales builds, with its default distinguished sets
    root = Path(__file__).resolve().parents[1]
    for path in ("src/scaleshift/fixtures/twostep.forb", "perfbench/inputs/threestep.forb"):
        presentation = parse_forbidden((root / path).read_text(encoding="utf-8"))
        recoded = higher_block(presentation)
        blocks = recoded.shift.alphabet.symbols
        head = presentation.alphabet.symbols[0]
        marked = tuple(b for i, b in enumerate(blocks) if recoded.label(i) == head)
        expected = dense_first_return_matrix(recoded.shift, marked, 16)
        assert first_return_matrix(recoded.shift, marked, 16) == expected, path


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


class RowsBuilt(Exception):
    pass


def test_block_matrix_priced_at_entries(monkeypatch):
    # forbidden •• and ∘ k times: Fibonacci(k + 1) blocks of k - 1 letters;
    # 2584^2 entries (k = 17) are under 10^7 and reach the row builder,
    # 4181^2 (k = 18) are over it and never do
    def rows(blocks, *rest):
        raise RowsBuilt(len(blocks))

    monkeypatch.setattr("scaleshift.shiftspace._block_rows", rows)
    with pytest.raises(RowsBuilt, match="^2584$"):
        higher_block(SftPresentation.of((CIRC, BULL), {w("••"), (CIRC,) * 17}))
    with pytest.raises(BlockCountError, match="4181 blocks needs 17480761 entries"):
        higher_block(SftPresentation.of((CIRC, BULL), {w("••"), (CIRC,) * 18}))


def test_forbidden_normalization():
    sft = SftPresentation.of((CIRC, BULL), {w("••"), w("•••"), w("∘••∘")})
    assert sft.forbidden == {w("••")}
    with pytest.raises(ValueError):
        SftPresentation.of((CIRC, BULL), {w("•")})
    with pytest.raises(ValueError):
        SftPresentation.of((CIRC,), {w("•∘")})


def test_forbidden_windows_match_pairwise_subwords():
    # the window lookups of the normalization, and the blocks and edges that
    # higher_block grows by extension, against testing every pair of blocks,
    # on seeded presentations and on the family of •• and k copies of ∘
    rng = random.Random(24)
    cases = []
    for _ in range(3000):
        symbols = "abc"[: rng.randint(1, 3)]
        blocks = {
            tuple(rng.choice(symbols) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 8))
        }
        cases.append((symbols, blocks))
    cases += [((CIRC, BULL), {w("••"), (CIRC,) * k}) for k in range(2, 13)]
    for symbols, blocks in cases:
        sft = SftPresentation.of(symbols, blocks)
        assert sft.forbidden == pairwise_normalized(blocks), blocks
        recoded = higher_block(sft)
        assert recoded.blocks == pairwise_blocks(symbols, blocks, sft.step), blocks
        assert recoded.shift.matrix == pairwise_block_rows(recoded.blocks, blocks), blocks
    # one long block has no proper window of a forbidden length to look up
    long = w(CIRC * 5000 + BULL * 5000)
    assert SftPresentation.of((CIRC, BULL), [long, w(BULL * 3)]).forbidden == {w(BULL * 3)}


def test_has_cycle_matches_walk_counts():
    # a graph on k symbols has a cycle iff it has a walk of k edges
    shifts = [
        VertexShift.from_rows("abc"[:k], [bits[i * k:i * k + k] for i in range(k)])
        for k in (1, 2, 3)
        for bits in itertools.product((0, 1), repeat=k * k)
    ]
    rng = random.Random(9)
    for _ in range(300):
        k, density = rng.randint(1, 9), rng.random() / 2
        rows = [[int(rng.random() < density) for _ in range(k)] for _ in range(k)]
        shifts.append(VertexShift.from_rows([f"s{i}" for i in range(k)], rows))
    root = Path(__file__).resolve().parents[1]
    for path in ("src/scaleshift/fixtures/twostep.forb", "perfbench/inputs/threestep.forb"):
        shifts.append(higher_block(parse_forbidden((root / path).read_text(encoding="utf-8"))).shift)
    found = Counter()
    for shift in shifts:
        cyclic = has_cycle(shift)
        assert cyclic == (sum(list(word_counts(shift, shift.size + 1))[-1]) > 0), shift.matrix
        found[cyclic] += 1
    assert found[True] > 100 and found[False] > 100


def test_higher_block_dead_end():
    hb = higher_block(SftPresentation.of((CIRC,), {w("∘∘")}))
    assert hb.shift.matrix == ((0,),)
    assert all_words(hb.shift, 1) == {(0,)}
    assert all_words(hb.shift, 2) == set()


def test_language_dims_golden():
    report = language_dims(GOLDEN, 9)
    assert report.transversal[:6] == GOLDEN_LANG_T
    assert report.orbital == GOLDEN_LANG_O
    assert report.method == "closed_form"


def test_language_dims_match_enumeration():
    # transversal dim: rotation classes meeting L_n; orbital dim: size of
    # the union of the full rotation orbits of the words of L_n
    from scaleshift.combinatorics import least_rotation

    for shift in (GOLDEN, FULL2, SFT2.shift):
        report = language_dims(shift, 7)
        for n in range(1, 8):
            words = all_words(shift, n)
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


def test_parse_forbidden_tabs():
    # multi-character symbols may be separated by tabs as well as spaces
    spaced = parse_forbidden("# alphabet: aa bb\nbb bb\naa aa aa\n")
    for body in ("bb\tbb\naa\taa\taa\n", "bb \tbb\naa\taa aa\n"):
        tabbed = parse_forbidden("# alphabet: aa bb\n" + body)
        assert tabbed.alphabet == spaced.alphabet
        assert tabbed.forbidden == spaced.forbidden == {("bb", "bb"), ("aa", "aa", "aa")}
