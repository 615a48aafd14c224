"""Integer compositions, wheels, and the cyclic shift action.

A composition is a plain tuple of positive integers; the empty tuple is the
empty composition (size 0, length 0). The cyclic shift alpha rotates parts
left; its orbits are the modes of a scale, and a wheel is an orbit class,
keyed by its canonical (lexicographically least) rotation.

``PartSpec`` describes a set K of allowed part sizes. Besides explicit finite
sets it covers the two shapes that first-return supports produce: cofinite
sets ("every k >= k0") and partially known sets (membership known up to a
horizon, plus boundedness data read off the loop series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

Composition = tuple[int, ...]


def rotate(w: Composition, j: int) -> Composition:
    """Cyclic left shift by j positions; negative j rotates right."""
    if len(w) < 2:
        return w
    j %= len(w)
    return w[j:] + w[:j]


def orbit(w: Composition) -> frozenset[Composition]:
    """All distinct rotations of w; the modes of the scale w encodes."""
    return frozenset(rotate(w, j) for j in range(max(len(w), 1)))


def least_rotation(w: tuple) -> tuple:
    """Lexicographically least rotation of any tuple (compositions or words)."""
    if len(w) < 2:
        return w
    doubled = w + w
    n = len(w)
    return min(doubled[i : i + n] for i in range(n))


def rotation_dims(B: Collection[Composition]) -> tuple[int, int]:
    """(transversal, orbital): the rotation classes B meets, and the size of
    the union of their full orbits.

    One pass over a copy of B: take any w, strike its rotations (the windows
    of w + w) from the copy, and count one class of orbit size p, the least
    period of w, which is the position of the first window equal to w.  The
    empty composition is its own orbit of size 1.  Distinct classes have
    disjoint orbits, so the sum of the orbit sizes is the size of the union.
    """
    rest = set(B)
    classes = orbital = 0
    while rest:
        w = rest.pop()
        m = len(w)
        doubled = w + w
        windows = [doubled[i : i + m] for i in range(1, max(m, 1) + 1)]
        rest.difference_update(windows)
        classes += 1
        orbital += windows.index(w) + 1
    return classes, orbital


def transversal_of(B: Collection[Composition]) -> set[Composition]:
    """One element of B per represented class: the least element of B in the class."""
    chosen: dict[Composition, Composition] = {}
    for w in B:
        key = least_rotation(w)
        if key not in chosen or w < chosen[key]:
            chosen[key] = w
    return set(chosen.values())


def mutually_independent(A: Collection[Composition], B: Collection[Composition]) -> bool:
    """True when no element of A is a rotation of an element of B."""
    return not {least_rotation(w) for w in A} & {least_rotation(w) for w in B}


@dataclass(frozen=True)
class PartSpec:
    """A set K of allowed part sizes, possibly known only up to a horizon.

    ``known`` holds the members at or below ``horizon`` (all members when
    ``horizon`` is None and there is no tail); ``tail_from`` marks cofinite
    sets where every k >= tail_from belongs; ``unbounded`` and ``max_part``
    record boundedness of the full, untruncated set.
    """

    known: frozenset[int]
    tail_from: int | None = None
    horizon: int | None = None
    unbounded: bool = False
    max_part: int | None = None

    def __post_init__(self):
        for k in self.known:
            if k < 1:
                raise ValueError(f"part sizes must be >= 1, got {k}")
        if self.tail_from is not None:
            if self.tail_from < 1:
                raise ValueError("tail_from must be >= 1")
            if not self.unbounded:
                raise ValueError("a tail makes the set unbounded")
        if self.unbounded and self.max_part is not None:
            raise ValueError("unbounded sets have no max part")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite(cls, parts: Iterable[int]) -> "PartSpec":
        members = frozenset(int(p) for p in parts)
        return cls(known=members, max_part=max(members) if members else None)

    @classmethod
    def from_min(cls, k0: int) -> "PartSpec":
        """The cofinite set {k : k >= k0}."""
        return cls(known=frozenset(), tail_from=int(k0), unbounded=True)

    @classmethod
    def naturals(cls) -> "PartSpec":
        return cls.from_min(1)

    @classmethod
    def parse(cls, text: str) -> "PartSpec":
        """Parse CLI syntax: 'all', a 'k+' lower bound, or comma-separated sizes."""
        text = text.strip()
        if text == "all":
            return cls.naturals()
        if text.endswith("+"):
            return cls.from_min(int(text[:-1]))
        tokens = [tok for tok in text.split(",") if tok.strip()]
        if not tokens:
            raise ValueError(f"no part sizes in {text!r}")
        return cls.finite(int(tok) for tok in tokens)

    # -- queries --------------------------------------------------------------

    def _require_known(self, k: int) -> None:
        if self.tail_from is not None and k >= self.tail_from:
            return
        if self.horizon is not None and k > self.horizon:
            raise ValueError(f"membership of {k} unknown beyond horizon {self.horizon}")

    def members_up_to(self, limit: int) -> tuple[int, ...]:
        """All members k <= limit, ascending; errors beyond the horizon."""
        self._require_known(limit)
        members = {k for k in self.known if k <= limit}
        if self.tail_from is not None:
            members.update(range(self.tail_from, limit + 1))
        return tuple(sorted(members))

    def absent_up_to(self, limit: int) -> tuple[int, ...]:
        """All non-members 1 <= k <= limit, ascending; errors beyond the horizon."""
        present = set(self.members_up_to(limit))
        return tuple(k for k in range(1, limit + 1) if k not in present)
