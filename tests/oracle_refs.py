"""Brute-force references that only the tests use: an orbit counter that
strikes rotation windows, language dimensions, composition and wheel counts
by part set, first return path counts, the oracle's levels word by word, and
the scale sets of those levels and of literal words.  The language
dimensions spell each of the oracle's ranks out as its digits and strike
each class's rotation windows, so they check the oracle's rank-indexed class
tables by an independent path; the oracle's scale sets cut each rank's visit
pattern into its gaps, so with the orbit counter they check the oracle's
mode tables; the scale sets of literal words cut every word from
``language_from``, so they check the scale walk of ``scaleshift.scales``
word by word.

The word levels here enumerate the ranks of one shift's words, successor by
successor, and no other word: the per-word path that the tests check the
oracle's step-set groups against.  Like ``scaleshift.oracle``, whose tables
and successor lists they reuse, they work by exhaustive generation and read
nothing from the closed-form modules.
"""

from __future__ import annotations

import re
from itertools import chain, filterfalse
from typing import Iterable, Iterator

from scaleshift.combinatorics import Composition, PartSpec
from scaleshift.oracle import (
    MAX_SUM,
    MAX_SYMBOLS,
    MAX_WORD_LENGTH,
    _class_table,
    _mode_table,
    _pattern_table,
    _successors,
)
from scaleshift.shiftspace import VertexShift, language_from

MAX_RETURN_STEPS = 12

_GAP = re.compile(rb"10*")  # a visit and the run of non-visits after it

KINDS = ("compositions", "wheels")


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
        doubled, n = item + item, len(item)
        union.update(doubled[i:i + n] for i in range(n or 1))
    return classes, len(union)


def _word_levels(shift: VertexShift, max_n: int) -> Iterator[list[list[list[int]]]]:
    """The ranks of the admissible words of length n = 1..max_n, built per shift.

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


def _table_dims(table, keys) -> tuple[int, int]:
    """The number of classes the keys fall in, and the sum of those classes' weights."""
    ids, weights = table
    classes = set(map(ids.__getitem__, keys))
    return len(classes), sum(map(weights.__getitem__, classes))


def per_word_levels(shift: VertexShift, max_n: int) -> list:
    """``oracle_levels`` word by word: each level's ranks from ``_word_levels``.

    The language dimensions come off the class table of the ranks, each
    start's scale dimensions off the mode table of its ranks' patterns, and
    the global ones off the union of those patterns.
    """
    base = max(shift.size, 2)
    levels = []
    for n, level in enumerate(_word_levels(shift, max_n), start=1):
        patterns = _pattern_table(base, n)
        modes = _mode_table(n)
        starts = [set(map(patterns.__getitem__, chain.from_iterable(by_last))) for by_last in level]
        levels.append((
            _table_dims(_class_table(base, n), chain.from_iterable(chain.from_iterable(level))),
            tuple(_table_dims(modes, found) for found in starts),
            _table_dims(modes, set().union(*starts)),
        ))
    return levels


def oracle_language_dims(shift: VertexShift, n: int) -> tuple[int, int]:
    for level in _word_levels(shift, n):
        pass
    base = max(shift.size, 2)
    ranks = chain.from_iterable(chain.from_iterable(level))
    return _orbit_dims(word_of(rank, base, n) for rank in ranks)


def word_of(rank: int, base: int, n: int) -> tuple[int, ...]:
    """The n base-``base`` digits of rank, most significant first: the word it ranks."""
    digits = []
    for _ in range(n):
        rank, digit = divmod(rank, base)
        digits.append(digit)
    return tuple(reversed(digits))


def _allowed_parts(parts: PartSpec | Iterable[int] | None, n: int) -> tuple[int, ...]:
    if parts is None:
        return tuple(range(1, n + 1))
    if isinstance(parts, PartSpec):
        return parts.members_up_to(n)
    explicit = sorted(set(parts))
    if any(k < 1 for k in explicit):
        raise ValueError("parts must be positive")
    return tuple(k for k in explicit if k <= n)


def _compositions(n: int, allowed: tuple[int, ...]) -> list[Composition]:
    out: list[Composition] = []
    stack: list[tuple[Composition, int]] = [((), n)]
    while stack:
        prefix, rest = stack.pop()
        if rest == 0:
            out.append(prefix)
            continue
        for k in allowed:
            if k <= rest:
                stack.append((prefix + (k,), rest - k))
    return out


def oracle_series_coeff(
    kind: str,
    parts: PartSpec | Iterable[int] | None,
    n: int,
    m: int | None = None,
) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if not 0 <= n <= MAX_SUM:
        raise ValueError(f"cost guard: need 0 <= n <= {MAX_SUM}, got {n}")
    comps = _compositions(n, _allowed_parts(parts, n))
    if m is not None:
        comps = [comp for comp in comps if len(comp) == m]
    if kind == "compositions":
        return len(comps)
    # a wheel has at least one part: the empty composition is no wheel
    return _orbit_dims(comp for comp in comps if comp)[0]


def oracle_first_return(shift: VertexShift, symbol: str, k: int) -> int:
    start = shift.alphabet.index(symbol)
    if not 1 <= k <= MAX_RETURN_STEPS:
        raise ValueError(f"cost guard: need 1 <= k <= {MAX_RETURN_STEPS}, got {k}")
    # the end of every path of k edges from symbol back to symbol that
    # avoids symbol in between, one entry per path
    succ = _successors(shift)
    ends = [start]
    for step in range(1, k + 1):
        ends = [t for v in ends for t in succ[v] if (t == start) == (step == k)]
    return len(ends)


def level_scale_sets(shift: VertexShift, max_n: int) -> Iterator[list[set[Composition]]]:
    """The scales of the oracle's words of length n = 1..max_n, one set per first symbol.

    Each rank's entry in the oracle's pattern table is written out as n
    bits and cut before each 1.
    """
    base = max(shift.size, 2)
    for n, level in enumerate(_word_levels(shift, max_n), start=1):
        patterns = _pattern_table(base, n)
        sets = []
        for by_last in level:
            found = set(map(patterns.__getitem__, chain.from_iterable(by_last)))
            sets.append({_cut(f"{pattern:0{n}b}".encode()) for pattern in found})
        yield sets


def word_levels(shift: VertexShift, start: int, order: int) -> list[list[tuple[int, ...]]]:
    """The words from symbol index ``start`` of each length 1..order, from ``language_from``."""
    return [language_from(shift, (start,), n) for n in range(1, order + 1)]


def word_scale_sets(levels, marked) -> list[set[Composition]]:
    """The scale sets of the words of each level, by the word rule.

    Each literal word is spelled as its visit pattern, 1 at the positions
    whose symbol index is in ``marked`` and 0 elsewhere, and cut before each
    1; the last gap runs to the end of the word.
    """
    visits = bytearray(b"0" * 256)
    for i in marked:
        visits[i] = ord("1")
    return [set(map(_cut, {bytes(word).translate(visits) for word in words})) for words in levels]


def _cut(pattern: bytes) -> Composition:
    return tuple(map(len, _GAP.findall(pattern)))
