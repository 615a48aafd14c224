"""Brute-force ground truth for the scale dimensions that ``verify`` checks.

Everything here works by exhaustive generation: no series arithmetic, no
matrix identities, no divisor sums.  The point is independence from the
closed-form modules, so cross-checks catch bugs on either side.  Of a vertex
shift the oracle reads only its alphabet and ``VertexShift.entry``; from
those it derives on its own the admissible words, their rotation classes and
the scales the words induce (the gap rule below).  Every word is generated
and counted.  A word over k symbols is its rank: the number it spells in
base b = max(k, 2), first symbol most significant, so one symbol shares the
tables of two; the words are never spelt out.  Three tables per (b, n),
built once per process and indexed by rank, give every one of the b^n words
of length n its facts.  The class table, built by striking the rotations of
every word, gives each rank its rotation class and each class its size.  The
pattern table gives each rank its visit pattern, an n-bit int with a 1
wherever the word repeats its first symbol.  The step table gives each rank
its step set: a bit for each step i -> j the word takes, and one for its
first symbol.  A scale is its visit pattern, so the scale dimensions come
off patterns and no pattern is decoded into gaps: one mode table per n,
built once per process off the base-2 class table, gives each pattern its
rotation class and each class its modes, the members with a leading 1.

The words of each (b, n) are then grouped by step set, once per process, and
each group keeps the rotation classes of its words and the mode classes of
their patterns.  A word is admissible in a vertex shift exactly when every
step it takes is an edge and its first symbol is one of the shift's own, so
a shift's words of length n are the union of the groups whose step set lies
inside its edges and symbols, and no word is generated per shift.  The
groups of one first symbol are bucketed by the steps they take out of it,
so a shift reads only the buckets inside that symbol's row.  The tests'
brute-force counts of compositions, wheels, first return paths and language
classes, the per-shift word levels they are checked against, and the
window-striking orbit counter live in ``tests/oracle_refs.py``.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import lru_cache
from typing import Collection

from .combinatorics import Composition
from .shiftspace import VertexShift

MAX_SYMBOLS = 4
MAX_WORD_LENGTH = 14
MAX_SUM = 20
#: Most entries of one rotation-class, visit-pattern, step or mode table: 4^10,
#: where the grid needs 3^10 and the mode table of total MAX_SUM 2^20
MAX_CLASS_TABLE = 4 ** 10

Dims = tuple[int, int]  # (transversal, orbital): rotation classes and the size of their union
#: A group of words of one length: their step set, the class id of each, and
#: the distinct mode class ids of their visit patterns
Group = tuple[int, list[int], tuple[int, ...]]


def _successors(shift: VertexShift) -> list[list[int]]:
    """The successor indices of each symbol, from one ``entry`` read per pair."""
    symbols = shift.alphabet.symbols
    return [[j for j, t in enumerate(symbols) if shift.entry(s, t) == 1] for s in symbols]


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


@lru_cache(maxsize=(MAX_SYMBOLS - 1) * MAX_WORD_LENGTH)
def _step_table(base: int, n: int) -> array:
    """The step set of each of the base^n words of length n, by rank.

    Bit i·base + j of a step set is 1 when the word steps from digit i to
    digit j somewhere, and bit base² + s when its first digit is s.
    Appending digit j to a word of rank r whose last digit is l adds the
    step l -> j: rank r·base + j has step set t | 1 << (l·base + j), where
    t is r's, so each (l, j) fills one stride-base² slice at once.
    """
    if n == 1:
        # base² + base <= 20 bits, and an unsigned long holds at least 32
        return array("L", [1 << base * base + s for s in range(base)])
    shorter = _step_table(base, n - 1)
    table = array("L", [0]) * base ** n
    for last in range(base):
        ends = shorter[last::base]  # the words of length n - 1 that end in last
        for j in range(base):
            step = 1 << last * base + j
            table[last * base + j::base * base] = array("L", map(step.__or__, ends))
    return table


@lru_cache(maxsize=(MAX_SYMBOLS - 1) * MAX_WORD_LENGTH)
def _word_groups(base: int, n: int) -> list[dict[int, list[Group]]]:
    """The base^n words of length n grouped by step set, per first symbol.

    Entry s maps each set of steps out of s, a base-bit row, to the bucket
    of the groups whose words start with s and take exactly those steps out
    of it.  A group holds its step set, the class id of each of its words,
    and the distinct mode class ids of their patterns.  One pass over the
    ranks deals each word's class id to its group, and one more its mode
    class id; no rank is looked at again.
    """
    steps = _step_table(base, n)
    keys = sorted(set(steps))
    words: dict[int, list[int]] = {key: [] for key in keys}
    scales: dict[int, set[int]] = {key: set() for key in keys}
    # a deque of length 0 drains each map in C: the appends and adds are the work
    deque(map(list.append, map(words.__getitem__, steps), _class_table(base, n)[0]), maxlen=0)
    modes = map(_mode_table(n)[0].__getitem__, _pattern_table(base, n))
    deque(map(set.add, map(scales.__getitem__, steps), modes), maxlen=0)
    row = (1 << base) - 1
    buckets: list[dict[int, list[Group]]] = [{} for _ in range(base)]
    for key in keys:
        first = (key >> base * base).bit_length() - 1
        bucket = buckets[first].setdefault(key >> first * base & row, [])
        bucket.append((key, words.pop(key), tuple(scales.pop(key))))
    return buckets


def _dims(classes: set[int], weights: array) -> Dims:
    """The number of classes, and the sum of their weights."""
    return len(classes), sum(map(weights.__getitem__, classes))


def _level_dims(base: int, n: int, rows: list[int], outside: int) -> tuple[Dims, tuple[Dims, ...], Dims]:
    """The language dims of the words of length n, their scale dims per start, and those of all scales.

    Only the buckets whose steps out of their first symbol lie in that
    symbol's row can hold an admissible group; within one, a group is
    admitted when its step set misses ``outside``.  The admitted groups'
    classes weigh by their sizes, and their scales' mode classes by modes.
    """
    language: set[int] = set()
    starts = []
    for row, buckets in zip(rows, _word_groups(base, n)):
        scales: set[int] = set()
        for out, bucket in buckets.items():
            if out & ~row == 0:
                for key, words, patterns in bucket:
                    if not key & outside:
                        language.update(words)
                        scales.update(patterns)
        starts.append(scales)
    modes = _mode_table(n)[1]
    return (
        _dims(language, _class_table(base, n)[1]),
        tuple(_dims(scales, modes) for scales in starts),
        _dims(set().union(*starts), modes),
    )


def oracle_levels(shift: VertexShift, max_n: int) -> list[tuple[Dims, tuple[Dims, ...], Dims]]:
    """[(language dims, (scale dims per start symbol), global scale dims) of L_n for n = 1..max_n].

    Each length-n level of words gives the (transversal, orbital) pair of
    its words, per start symbol in alphabet order that of the scales they
    induce, and that of the union of those scales.  The class, pattern and
    step tables of length n each cost base^n entries, and the mode table
    2^n, so the largest is checked before any table or group is built.
    """
    base = max(shift.size, 2)
    # a length past MAX_WORD_LENGTH is refused below; min() keeps the power small for it
    if base ** min(max_n, MAX_WORD_LENGTH) > MAX_CLASS_TABLE:
        raise ValueError(
            f"cost guard: a rotation-class table of {base}^{max_n} entries "
            f"exceeds {MAX_CLASS_TABLE}"
        )
    if shift.size > MAX_SYMBOLS:
        raise ValueError(f"cost guard: at most {MAX_SYMBOLS} symbols, got {shift.size}")
    if not 1 <= max_n <= MAX_WORD_LENGTH:
        raise ValueError(f"cost guard: need 1 <= n <= {MAX_WORD_LENGTH}, got {max_n}")
    rows = [sum(1 << j for j in targets) for targets in _successors(shift)]
    # the step sets of the shift's words: its edges, and a first symbol of its own
    inside = sum(row << i * base for i, row in enumerate(rows)) | (1 << shift.size) - 1 << base * base
    return [_level_dims(base, n, rows, ~inside) for n in range(1, max_n + 1)]


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
    dims = []
    for n, patterns in by_total.items():
        ids, modes = _mode_table(n)
        dims.append(_dims(set(map(ids.__getitem__, patterns)), modes))
    return empty + sum(t for t, _ in dims), empty + sum(o for _, o in dims)
