"""Brute-force ground truth for the scale dimensions that ``verify`` checks.

Everything here works by exhaustive generation: no series arithmetic, no
matrix identities, no divisor sums.  The point is independence from the
closed-form modules, so cross-checks catch bugs on either side.  Of a vertex
shift the oracle reads only its alphabet and ``VertexShift.entry``; from
those it derives on its own the admissible words, their rotation classes and
the scales the words induce (the gap rule below).  Every word is generated
and counted.  A word over k symbols is written in base b = max(k, 2), so its
rank is the number it spells; one table per (b, n), built once per process by
striking the rotations of every one of the b^n words, gives each rank its
class and each class its size.  For its scale, each word becomes its visit
pattern, and each distinct pattern is decoded into its gaps once per process.
The tests' brute-force counts of compositions, wheels, first return paths and
language classes live in ``tests/oracle_refs.py`` and reuse the word levels and
orbit counter here.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, filterfalse, repeat
from typing import Collection, Iterable, Iterator, Mapping

from .combinatorics import Composition
from .shiftspace import VertexShift

MAX_SYMBOLS = 4
MAX_WORD_LENGTH = 14
MAX_SUM = 20
#: Most entries of one rotation-class table: 4^10, where the grid needs 3^10
MAX_CLASS_TABLE = 4 ** 10

# words spell symbol index i as the ASCII digit i; these byte tables map the
# digit of symbol s to 1 and every other byte to 0
_VISITS = [bytes(int(i == ord("0") + s) for i in range(256)) for s in range(MAX_SYMBOLS)]


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


def _word_levels(shift: VertexShift, max_n: int) -> Iterator[list[list[bytes]]]:
    """The admissible words of length n = 1..max_n, symbol index i spelt as the digit i.

    Each level holds one list of words per first symbol, in alphabet order.
    It extends the level before by one edge, so a level is dropped as soon
    as the next one is built.
    """
    if shift.size > MAX_SYMBOLS:
        raise ValueError(f"cost guard: at most {MAX_SYMBOLS} symbols, got {shift.size}")
    if not 1 <= max_n <= MAX_WORD_LENGTH:
        raise ValueError(f"cost guard: need 1 <= n <= {MAX_WORD_LENGTH}, got {max_n}")
    letters = [str(i).encode() for i in range(shift.size)]
    follow = {
        letter[0]: [letters[j] for j in succ] for letter, succ in zip(letters, _successors(shift))
    }
    level = [[letter] for letter in letters]
    yield level
    for _ in range(max_n - 1):
        level = [
            [word + letter for word in words for letter in follow[word[-1]]] for words in level
        ]
        yield level


@lru_cache(maxsize=2 ** MAX_WORD_LENGTH)
def _pattern_gaps(pattern: bytes) -> Composition:
    """The gaps of a visit pattern: each 1 and the run of 0s after it.

    Each 1 is followed by a run of 0s, and its gap is that run's length plus
    one; the run split off before the leading 1 is empty.  A pattern of
    length n starts with 1, so at most 2^(n-1) of them exist per length.
    """
    return tuple(len(run) + 1 for run in pattern.split(b"\x01")[1:])


def _scale_sets(level: list[list[bytes]]) -> tuple[set[Composition], ...]:
    """The scales of the words, one set per first symbol.

    A word induces the gaps between consecutive visits to its first symbol,
    the last gap wrapping past the end.  Only the visits matter, so each word
    becomes its visit pattern, 1 at a visit and 0 elsewhere, and each
    distinct pattern is decoded into its gaps once per process.
    """
    return tuple(
        set(map(_pattern_gaps, set(map(bytes.translate, words, repeat(_VISITS[start])))))
        for start, words in enumerate(level)
    )


@lru_cache(maxsize=(MAX_SYMBOLS - 1) * MAX_WORD_LENGTH)
def _class_table(base: int, n: int) -> tuple[array, array]:
    """(class id of each rank, size of each class) for the base^n words of length n.

    Rotating a word left by one digit takes its rank r to
    (r mod base^(n-1))·base + r div base^(n-1); each rank not yet struck
    starts a new class, and walking that map until it returns strikes the
    class's every member.
    """
    top = base ** (n - 1)
    ids = array("i", [-1]) * (top * base)
    sizes = array("b")
    for rank in range(top * base):
        if ids[rank] < 0:
            member, size = rank, 0
            while ids[member] < 0:
                ids[member] = len(sizes)
                member = member % top * base + member // top
                size += 1
            sizes.append(size)
    return ids, sizes


def _language_dims(words: Iterable[bytes], base: int, n: int) -> tuple[int, int]:
    """Rotation classes of the length-n words, and the size of their union."""
    ids, sizes = _class_table(base, n)
    classes = set(map(ids.__getitem__, map(int, words, repeat(base))))
    return len(classes), sum(map(sizes.__getitem__, classes))


def oracle_levels(
    shift: VertexShift, max_n: int
) -> list[tuple[tuple[int, int], tuple[set[Composition], ...]]]:
    """[(language dimensions, scale sets) of L_n for n = 1..max_n], in one pass.

    Each length-n level of words gives its (transversal, orbital) pair and
    the scales its words induce, one set per start symbol in alphabet order;
    only the scales outlive the level.  The rotation-class tables cost
    base^n entries, so that is checked before any word or table is built.
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
        (_language_dims(chain.from_iterable(level), base, n), _scale_sets(level))
        for n, level in enumerate(_word_levels(shift, max_n), start=1)
    ]


def oracle_scale_dims(scales: Collection[Composition]) -> tuple[int, int]:
    return _orbit_dims(scales)


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class OracleReport:
    """One checked row; compared by value, and unhashable, as ``parameters`` is a dict."""

    __slots__ = ("quantity", "parameters", "expected", "actual", "match")

    def __init__(self, quantity: str, parameters: Mapping, expected: int, actual: int, match: bool):
        if match != (expected == actual):
            raise ValueError("match flag inconsistent with expected/actual")
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "match", match)

    def __setattr__(self, name, value):
        raise AttributeError("OracleReport is immutable")

    def _key(self) -> tuple:
        return self.quantity, self.parameters, self.expected, self.actual, self.match

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleReport):
            return NotImplemented
        return self._key() == other._key()

    @classmethod
    def of(cls, quantity: str, parameters: Mapping, expected: int, actual: int) -> "OracleReport":
        return cls(quantity, dict(parameters), int(expected), int(actual), expected == actual)

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "parameters": {key: _jsonable(value) for key, value in self.parameters.items()},
            "expected": self.expected,
            "actual": self.actual,
            "match": self.match,
        }
