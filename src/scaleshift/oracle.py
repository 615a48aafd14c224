"""Brute-force ground truth for every counted quantity.

Everything here works by exhaustive generation: no series arithmetic, no
matrix identities, no divisor sums.  The point is independence from the
closed-form modules, so cross-checks catch bugs on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Mapping

from .combinatorics import Composition, PartSpec
from .shiftspace import VertexShift, Word

MAX_SYMBOLS = 4
MAX_WORD_LENGTH = 14
MAX_SUM = 20
MAX_RETURN_STEPS = 12

KINDS = ("compositions", "wheels")


def _rotations(word: tuple) -> set[tuple]:
    if not word:
        return {word}
    return {word[i:] + word[:i] for i in range(len(word))}


def _admissible_words(shift: VertexShift, n: int) -> tuple[Word, ...]:
    # layered extension: every admissible word of length j, one edge at a time
    words: list[Word] = [(s,) for s in shift.alphabet]
    for _ in range(n - 1):
        words = [
            word + (t,)
            for word in words
            for t in shift.alphabet
            if shift.entry(word[-1], t) == 1
        ]
    return tuple(words)


def oracle_language_dims(shift: VertexShift, n: int) -> tuple[int, int]:
    if shift.size > MAX_SYMBOLS:
        raise ValueError(f"cost guard: at most {MAX_SYMBOLS} symbols, got {shift.size}")
    if not 1 <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"cost guard: need 1 <= n <= {MAX_WORD_LENGTH}, got {n}")
    words = _admissible_words(shift, n)
    classes: set[Word] = set()
    union: set[Word] = set()
    for word in words:
        rotations = _rotations(word)
        classes.add(min(rotations))
        union |= rotations
    return len(classes), len(union)


def oracle_scale_dims(scales: Collection[Composition]) -> tuple[int, int]:
    return _scale_dims(frozenset(scales))


@lru_cache(maxsize=None)
def _scale_dims(scales: frozenset[Composition]) -> tuple[int, int]:
    classes: set[Composition] = set()
    union: set[Composition] = set()
    for comp in scales:
        rotations = _rotations(comp)
        classes.add(min(rotations))
        union |= rotations
    return len(classes), len(union)


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
    return len({min(_rotations(comp)) for comp in comps if comp})


def oracle_first_return(shift: VertexShift, symbol: str, k: int) -> int:
    shift.alphabet.index(symbol)
    if not 1 <= k <= MAX_RETURN_STEPS:
        raise ValueError(f"cost guard: need 1 <= k <= {MAX_RETURN_STEPS}, got {k}")
    # paths of k edges from symbol back to symbol, avoiding symbol in between
    paths: list[Word] = [(symbol,)]
    for step in range(1, k + 1):
        extended: list[Word] = []
        for path in paths:
            for t in shift.alphabet:
                if shift.entry(path[-1], t) != 1:
                    continue
                if (t == symbol) != (step == k):
                    continue
                extended.append(path + (t,))
        paths = extended
    return len(paths)


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    parameters: Mapping
    expected: int
    actual: int
    match: bool

    def __post_init__(self):
        if self.match != (self.expected == self.actual):
            raise ValueError("match flag inconsistent with expected/actual")

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
