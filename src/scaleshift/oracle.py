"""Brute-force ground truth for the scale dimensions that ``verify`` checks.

Everything here works by exhaustive generation: no series arithmetic, no
matrix identities, no divisor sums.  The point is independence from the
closed-form modules, so cross-checks catch bugs on either side.  Of a vertex
shift the oracle reads only its alphabet and ``VertexShift.entry``; from
those it derives on its own the admissible words, their rotation classes and
the scales the words induce (the gap rule below).  Every word is generated
and counted.  A word over k symbols is its rank: the number it spells in
base b = max(k, 2), first symbol most significant, so one symbol shares the
tables of two; the words are generated as ranks and never spelt out.  Two
tables per (b, n), built once per process and indexed by rank, give every
word of length n its facts.  The class table, built by striking the
rotations of every one of the b^n words, gives each rank its rotation class
and each class its size.  The pattern table gives each rank its visit
pattern, an n-bit int with a 1 wherever the word repeats its first symbol.
A scale is its visit pattern, so the scale dimensions come off patterns
and no pattern is decoded into gaps: one mode table per n, built once per
process off the base-2 class table, gives each pattern its rotation class
and each class its modes, the members with a leading 1.  The tests'
brute-force counts of compositions, wheels, first return paths and language
classes, and the window-striking orbit counter they check these tables
against, live in ``tests/oracle_refs.py`` and reuse the word levels here.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain
from typing import Collection, Iterable, Iterator

from .combinatorics import Composition
from .shiftspace import VertexShift

MAX_SYMBOLS = 4
MAX_WORD_LENGTH = 14
MAX_SUM = 20
#: Most entries of one rotation-class, visit-pattern or mode table: 4^10, where
#: the grid needs 3^10 and the mode table of total MAX_SUM 2^20
MAX_CLASS_TABLE = 4 ** 10

Dims = tuple[int, int]  # (transversal, orbital): rotation classes and the size of their union


def _successors(shift: VertexShift) -> list[list[int]]:
    """The successor indices of each symbol, from one ``entry`` read per pair."""
    symbols = shift.alphabet.symbols
    return [[j for j, t in enumerate(symbols) if shift.entry(s, t) == 1] for s in symbols]


def _word_levels(shift: VertexShift, max_n: int) -> Iterator[list[list[list[int]]]]:
    """The ranks of the admissible words of length n = 1..max_n.

    Each level holds, per first symbol in alphabet order, one list of ranks
    per last symbol.  Appending successor j to a word of rank r gives rank
    r·b + j, so the next level is built list by list, each list multiplied
    by b once whatever its successors, and a level is dropped as soon as the
    next one is built.
    """
    if shift.size > MAX_SYMBOLS:
        raise ValueError(f"cost guard: at most {MAX_SYMBOLS} symbols, got {shift.size}")
    if not 1 <= max_n <= MAX_WORD_LENGTH:
        raise ValueError(f"cost guard: need 1 <= n <= {MAX_WORD_LENGTH}, got {max_n}")
    base = max(shift.size, 2)
    succ = _successors(shift)
    level = [[[i] if j == i else [] for j in range(shift.size)] for i in range(shift.size)]
    yield level
    for _ in range(max_n - 1):
        grown = []
        for by_last in level:
            by_next: list[list[int]] = [[] for _ in succ]
            for ranks, targets in zip(by_last, succ):
                shifted = list(map(base.__mul__, ranks))
                for j in targets:
                    by_next[j] += map(j.__add__, shifted)
            grown.append(by_next)
        level = grown
        yield level


# the word lengths of bases 2..MAX_SYMBOLS, and the base-2 totals of the mode tables past them
@lru_cache(maxsize=(MAX_SYMBOLS - 1) * MAX_WORD_LENGTH + MAX_SUM - MAX_WORD_LENGTH)
def _class_table(base: int, n: int) -> tuple[list[int], array]:
    """(class id of each rank, size of each class) for the base^n words of length n.

    Rotating a word left by one digit takes its rank r to
    (r mod base^(n-1))·base + r div base^(n-1); each rank not yet struck
    starts a new class, and walking that map until it returns strikes the
    class's every member.  The members of a class share one id object, so a
    lookup allocates nothing and a set of ids finds a repeat by identity.
    """
    top = base ** (n - 1)
    ids: list[int] = [-1] * (top * base)
    sizes = array("b")
    for rank in range(top * base):
        if ids[rank] < 0:
            member, size, cls = rank, 0, len(sizes)
            while ids[member] < 0:
                ids[member] = cls
                member = member % top * base + member // top
                size += 1
            sizes.append(size)
    return ids, sizes


@lru_cache(maxsize=(MAX_SYMBOLS - 1) * MAX_WORD_LENGTH)
def _pattern_table(base: int, n: int) -> array:
    """The visit pattern of each of the base^n words of length n, by rank.

    Bit n-1-i of a pattern is 1 when digit i equals digit 0, so the leading
    bit is always set and a pattern spells its own length.  Appending digit
    j to a word of rank r appends one bit to its pattern: rank r·base + j
    has pattern 2p + 1 when j is r's first digit and 2p otherwise.
    """
    if n == 1:
        # a pattern has at most MAX_WORD_LENGTH bits, so an unsigned short holds it
        return array("H", [1]) * base
    doubled = array("H", map((2).__mul__, _pattern_table(base, n - 1)))
    visited = array("H", map((1).__add__, doubled))
    block = base ** (n - 2)  # the ranks of length n - 1 that start with one digit
    table = doubled * base
    for j in range(base):
        table[j::base] = doubled
        # the words that start with j visit it again where j is appended
        start = j * block
        table[start * base + j:(start + block) * base:base] = visited[start:start + block]
    return table


@lru_cache(maxsize=MAX_SUM)
def _mode_table(n: int) -> tuple[list[int], array]:
    """(base-2 class id of each rank, modes of each class) for the patterns of length n.

    A scale of total n is its visit pattern, and its rotations are the
    rotations of that bit string that start with a 1: two scales share a
    rotation class exactly when their patterns share a class of
    ``_class_table(2, n)``.  A class's modes are its members with a leading
    1, the ranks from 2^(n-1) on, and each is counted there.
    """
    ids, sizes = _class_table(2, n)
    modes = array("b", bytes(len(sizes)))
    for cls in ids[2 ** (n - 1):]:
        modes[cls] += 1
    return ids, modes


def _class_dims(table: tuple[list[int], array], keys: Iterable[int]) -> Dims:
    """The number of classes the keys fall in, and the sum of those classes' weights."""
    ids, weights = table
    classes = set(map(ids.__getitem__, keys))
    return len(classes), sum(map(weights.__getitem__, classes))


def _level_dims(level: list[list[list[int]]], base: int, n: int) -> tuple[Dims, tuple[Dims, ...]]:
    """The language dimensions of the words, and the scale dimensions per first symbol.

    The words' rotation classes come off the class table; the scales of the
    words from one symbol are their distinct patterns, and those patterns'
    classes and modes come off the mode table.
    """
    patterns = _pattern_table(base, n)
    modes = _mode_table(n)
    language = _class_dims(_class_table(base, n), chain.from_iterable(chain.from_iterable(level)))
    return language, tuple(
        _class_dims(modes, set(map(patterns.__getitem__, chain.from_iterable(by_last))))
        for by_last in level
    )


def oracle_levels(shift: VertexShift, max_n: int) -> list[tuple[Dims, tuple[Dims, ...]]]:
    """[(language dimensions, (scale dimensions per start symbol)) of L_n for n = 1..max_n].

    Each length-n level of words gives the (transversal, orbital) pair of
    its words and, per start symbol in alphabet order, that of the scales
    they induce; no level outlives the next.  The class and pattern tables
    of length n each cost base^n entries, and the mode table 2^n, so the
    largest is checked before any word or table is built.
    """
    base = max(shift.size, 2)
    # a length past MAX_WORD_LENGTH is refused by _word_levels; min() keeps
    # the power small for it
    if base ** min(max_n, MAX_WORD_LENGTH) > MAX_CLASS_TABLE:
        raise ValueError(
            f"cost guard: a rotation-class table of {base}^{max_n} entries "
            f"exceeds {MAX_CLASS_TABLE}"
        )
    return [_level_dims(level, base, n) for n, level in enumerate(_word_levels(shift, max_n), start=1)]


def oracle_scale_dims(scales: Collection[Composition]) -> Dims:
    """Rotation classes of the distinct scales, and the size of their union.

    Each scale is spelt as its visit pattern and looked up in the mode table
    of its total.  The empty scale is its own rotation: one class, one mode.
    """
    by_total: dict[int, set[int]] = {}
    for scale in scales:
        total = sum(scale)
        if total > MAX_SUM:
            raise ValueError(f"cost guard: need scales of total <= {MAX_SUM}, got {total}")
        pattern = 0
        for gap in scale:
            pattern = (pattern << gap) | (1 << (gap - 1))
        by_total.setdefault(total, set()).add(pattern)
    empty = int(by_total.pop(0, None) is not None)
    dims = [_class_dims(_mode_table(n), patterns) for n, patterns in by_total.items()]
    return empty + sum(t for t, _ in dims), empty + sum(o for _, o in dims)
