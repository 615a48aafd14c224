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
pattern, an n-bit int with a 1 wherever the word repeats its first symbol;
each distinct pattern is decoded into its gaps once per process.  The tests'
brute-force counts of compositions, wheels, first return paths and language
classes live in ``tests/oracle_refs.py`` and reuse the word levels and orbit
counter here.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, filterfalse
from typing import Collection, Iterable, Iterator

from .combinatorics import Composition
from .shiftspace import VertexShift

MAX_SYMBOLS = 4
MAX_WORD_LENGTH = 14
MAX_SUM = 20
#: Most entries of one rotation-class or visit-pattern table: 4^10, where the
#: grid needs 3^10
MAX_CLASS_TABLE = 4 ** 10


@lru_cache(maxsize=MAX_SUM + 1)
def _windows(n: int) -> tuple[slice, ...]:
    """The slices of the n length-n windows of an item written twice; one for n = 0.

    The oracle's own words and compositions are at most ``MAX_SUM`` long, so
    the cache holds every length they reach.
    """
    return tuple(slice(i, i + n) for i in range(n or 1))


def _orbit_dims(items: Iterable) -> tuple[int, int]:
    """Rotation classes of the distinct items, and the size of their union.

    An item already in the union is a rotation of one counted before, so one
    rotation set is built per class: the length-n windows of the item written
    twice.  The empty item is its own rotation.
    """
    classes = 0
    union: set = set()
    for item in filterfalse(union.__contains__, items):
        classes += 1
        union.update(map((item + item).__getitem__, _windows(len(item))))
    return classes, len(union)


def _successors(shift: VertexShift) -> list[list[int]]:
    """The successor indices of each symbol, from one ``entry`` read per pair."""
    symbols = shift.alphabet.symbols
    return [[j for j, t in enumerate(symbols) if shift.entry(s, t) == 1] for s in symbols]


def _word_levels(shift: VertexShift, max_n: int) -> Iterator[list[list[list[int]]]]:
    """The ranks of the admissible words of length n = 1..max_n.

    Each level holds, per first symbol in alphabet order, one list of ranks
    per last symbol.  Appending successor j to a word of rank r gives rank
    r·b + j, so the next level is built list by list, and a level is dropped
    as soon as the next one is built.
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
                for j in targets:
                    by_next[j] += map(j.__add__, map(base.__mul__, ranks))
            grown.append(by_next)
        level = grown
        yield level


@lru_cache(maxsize=(MAX_SYMBOLS - 1) * MAX_WORD_LENGTH)
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


@lru_cache(maxsize=2 ** MAX_WORD_LENGTH)
def _pattern_gaps(pattern: int) -> Composition:
    """The gaps of a visit pattern: each 1 and the run of 0s after it.

    Read from the leading bit, each 1 is followed by a run of 0s, and its
    gap is that run's length plus one; the run split off before the leading
    1 is empty.  A pattern of length n has its leading bit set, so at most
    2^(n-1) of them exist per length.
    """
    return tuple(len(run) + 1 for run in f"{pattern:b}".split("1")[1:])


def _scale_sets(level: list[list[list[int]]], base: int, n: int) -> tuple[set[Composition], ...]:
    """The scales of the words, one set per first symbol.

    A word induces the gaps between consecutive visits to its first symbol,
    the last gap wrapping past the end.  Only the visits matter, so each
    rank is looked up in the pattern table, and each distinct pattern is
    decoded into its gaps once per process.
    """
    patterns = _pattern_table(base, n)
    return tuple(
        set(map(_pattern_gaps, set(map(patterns.__getitem__, chain.from_iterable(by_last)))))
        for by_last in level
    )


def _language_dims(level: list[list[list[int]]], base: int, n: int) -> tuple[int, int]:
    """Rotation classes of the length-n words, and the size of their union."""
    ids, sizes = _class_table(base, n)
    ranks = chain.from_iterable(chain.from_iterable(level))
    classes = set(map(ids.__getitem__, ranks))
    return len(classes), sum(map(sizes.__getitem__, classes))


def oracle_levels(
    shift: VertexShift, max_n: int
) -> list[tuple[tuple[int, int], tuple[set[Composition], ...]]]:
    """[(language dimensions, scale sets) of L_n for n = 1..max_n], in one pass.

    Each length-n level of words gives its (transversal, orbital) pair and
    the scales its words induce, one set per start symbol in alphabet order;
    only the scales outlive the level.  The class and pattern tables of
    length n each cost base^n entries, so the largest is checked before any
    word or table is built.
    """
    base = max(shift.size, 2)
    # a length past MAX_WORD_LENGTH is refused by _word_levels; min() keeps
    # the power small for it
    if base ** min(max_n, MAX_WORD_LENGTH) > MAX_CLASS_TABLE:
        raise ValueError(
            f"cost guard: a rotation-class table of {base}^{max_n} entries "
            f"exceeds {MAX_CLASS_TABLE}"
        )
    return [
        (_language_dims(level, base, n), _scale_sets(level, base, n))
        for n, level in enumerate(_word_levels(shift, max_n), start=1)
    ]


def oracle_scale_dims(scales: Collection[Composition]) -> tuple[int, int]:
    return _orbit_dims(scales)
