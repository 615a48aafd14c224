"""Brute-force references that only the tests use: language dimensions,
composition and wheel counts by part set, and first return path counts.
The language dimensions strike each class's rotation windows, so they check
the oracle's rank-indexed class tables by an independent path.

Like ``scaleshift.oracle``, whose word levels, successor lists and orbit
counter they reuse, they work by exhaustive generation and read nothing
from the closed-form modules.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from scaleshift.combinatorics import Composition, PartSpec
from scaleshift.oracle import MAX_SUM, _orbit_dims, _successors, _word_levels
from scaleshift.shiftspace import VertexShift

MAX_RETURN_STEPS = 12

KINDS = ("compositions", "wheels")


def oracle_language_dims(shift: VertexShift, n: int) -> tuple[int, int]:
    for level in _word_levels(shift, n):
        pass
    return _orbit_dims(chain.from_iterable(level))


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
