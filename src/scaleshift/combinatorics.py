"""Integer compositions, wheels, and the cyclic shift action.

A composition is a plain tuple of positive integers; the empty tuple is the
empty composition (size 0, length 0). The cyclic shift alpha rotates parts
left; its orbits are the modes of a scale, and a wheel is an orbit class,
keyed by its canonical (lexicographically least) rotation.  A scale of total
n is also an n-bit visit pattern, an int with a 1 at each note; its modes are
then the bit rotations that start on a note, and ``scales_json`` spells a
list of patterns as JSON text, each from the text of its prefix.

``PartSpec`` holds a set K of allowed part sizes as an eventually periodic
set: finite and cofinite sets and first-return loop supports all have this
shape, so K has a rational indicator series N/Q with Q = 1 - z^P or Q = 1.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Collection, Iterable

from .values import JsonText, Value

Composition = tuple[int, ...]


def least_rotation(w: tuple) -> tuple:
    """Lexicographically least rotation of any tuple (compositions or words),
    found by a two-pointer scan of w + w in linear time.

    Two starts race along w + w: i is the best start so far, j the next
    challenger, and every other start below j is ruled out.  A first
    mismatch at offset k rules out the losing start and the k starts after
    it, and moves i + j on by at least k + 1, so the scan is linear.  It
    ends when j runs past n or k reaches n (w is then periodic and start i
    is as good as start j).
    """
    n = len(w)
    s = w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
        elif a > b:  # start i loses; so do the k starts after it
            i, j, k = j, max(j, i + k) + 1, 0
        else:  # start j loses; so do the k starts after it
            j, k = j + k + 1, 0
    return s[i : i + n]


def composition_of(pattern: int) -> Composition:
    """The composition that a visit pattern spells: the gaps between its 1 bits,
    read from the leading bit (the start) down, the last gap wrapping to it.

    A scale of total n is the n-bit pattern with a 1 at each note, the start
    at bit n - 1, so closing gap g on a pattern c gives ``c << g | 1 << g - 1``.
    For compositions of one total, descending patterns are ascending tuples.
    """
    return tuple(_parts(pattern))


def _parts(pattern: int):
    """The parts that a visit pattern spells, lazily: each part is a 1 bit and
    the 0 bits after it, a run that a space before each 1 marks off."""
    return map(len, bin(pattern)[2:].replace("1", " 1").split())


def scales_json(patterns: Iterable[int], spelled: dict[int, str]) -> JsonText:
    """The compositions that ``patterns`` spell, in their order, as the JSON
    array of arrays that ``json.dumps`` writes for them.

    A composition's text is its parts joined by ", "; each pattern's text is
    read from ``spelled``, or made and stored there.  A pattern p closes its
    last gap g = (p & -p).bit_length() on its prefix c = p >> g, so its text
    is c's text, ", " and g, or g alone when c = 0.  c's text is read from
    ``spelled`` too; a miss spells c from its bits in linear time and does
    not store it, so ``spelled`` holds only the patterns asked for.  A scale
    set of a word rule holds the prefix of each of its scales a total lower
    (``ScaleClass``), so spelling its totals in ascending order never misses.
    """
    texts = []
    for p in patterns:
        text = spelled.get(p)
        if text is None:
            g = (p & -p).bit_length()
            c = p >> g
            if c:
                text = f"{spelled.get(c) or ', '.join(map(str, _parts(c)))}, {g}"
            else:
                text = str(g)
            spelled[p] = text
        texts.append(text)
    return JsonText(f"[[{'], ['.join(texts)}]]" if texts else "[]")


def pattern_classes(patterns: set[int]) -> tuple[list[int], int]:
    """(the largest member of each rotation class that a set of visit patterns
    of one total n meets, the size of the union of their orbits); for one
    total, the largest pattern is the least composition.

    Pops a pattern p and strikes its modes from the set: the rotations that
    start on a note, the n-bit windows of p << n | p that end t bits up for
    each partial sum t of its parts.  The last of them is p; the first equal
    to p closes one least period, so its position counts the class's modes.
    The set is consumed.
    """
    members = []
    orbital = 0
    while patterns:
        p = patterns.pop()
        n = p.bit_length()
        mask = (1 << n) - 1
        doubled = p << n | p
        modes = [doubled >> n - t & mask for t in accumulate(_parts(p))]
        orbital += modes.index(p) + 1
        if not patterns.isdisjoint(modes):
            struck = patterns.intersection(modes)
            patterns -= struck
            p = max(p, max(struck))
        members.append(p)
    return members, orbital


def mutually_independent(A: Collection[Composition], B: Collection[Composition]) -> bool:
    """True when no element of A is a rotation of an element of B."""
    return not {least_rotation(w) for w in A} & {least_rotation(w) for w in B}


class PartSpec(Value):
    """An eventually periodic set K of part sizes, held exactly.

    Below ``start`` the members are ``prefix``; from ``start`` on, k is a
    member exactly when (k - start) mod ``period`` lies in ``residues``.
    The fields are stored in canonical form, the least period and then the
    least start, so two specs of one set compare and hash equal.
    """

    __slots__ = ("prefix", "start", "period", "residues")

    def __init__(
        self,
        prefix: frozenset[int] = frozenset(),
        start: int = 1,
        period: int = 1,
        residues: frozenset[int] = frozenset(),
    ):
        if min(prefix | {start}) < 1:
            raise ValueError(f"part sizes must be >= 1, got {min(prefix | {start})}")
        if period < 1 or not all(0 <= r < period for r in residues):
            raise ValueError(f"need period >= 1 and residues in 0..period - 1, got period {period}")
        if any(k >= start for k in prefix):
            raise ValueError(f"prefix members must lie below start {start}")
        # the least period divides every period: keep the least d | period
        # that maps the residues onto themselves
        period = next(
            d for d in range(1, period + 1)
            if period % d == 0 and all((r + d) % period in residues for r in residues)
        )
        residues = {r % period for r in residues}
        # move start down while start - 1 lies in K exactly when the period says so
        if not residues:
            start = max(prefix, default=0) + 1
        shift = 0
        while start > 1 and ((start - 1) in prefix) == ((-shift - 1) % period in residues):
            start, shift = start - 1, shift + 1
        object.__setattr__(self, "prefix", frozenset(k for k in prefix if k < start))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", frozenset((r + shift) % period for r in residues))

    def _key(self) -> tuple:
        return self.prefix, self.start, self.period, self.residues

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite(cls, parts: Iterable[int]) -> "PartSpec":
        members = frozenset(int(p) for p in parts)
        return cls(members, max(members, default=0) + 1)

    @classmethod
    def from_min(cls, k0: int) -> "PartSpec":
        """The cofinite set {k : k >= k0}."""
        return cls(start=int(k0), residues=frozenset({0}))

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

    @property
    def unbounded(self) -> bool:
        return bool(self.residues)

    @property
    def max_part(self) -> int | None:
        """The largest member of a finite K; None when K is unbounded or empty."""
        return None if self.unbounded else max(self.prefix, default=None)

    def members_up_to(self, limit: int) -> tuple[int, ...]:
        """All members k <= limit, ascending."""
        head = sorted(k for k in self.prefix if k <= limit)
        tail = range(self.start, limit + 1)
        return (*head, *(k for k in tail if (k - self.start) % self.period in self.residues))

    def indicator_gf(self, order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(N, Q) with N/Q = sum_{k in K} z^k up to z^order.

        When K is unbounded and start + P is at most order + 1, Q = 1 - z^P and
        N is that sum times Q, cut below start + P.  Otherwise Q = 1 and N is
        the sum cut at order: neither outgrows the order.
        """
        periodic = self.unbounded and self.start + self.period <= order + 1
        p = self.period if periodic else 0
        last = order if self.unbounded else self.max_part or 0
        top = self.start + p if periodic else 1 + min(last, order)
        num = [0] * top
        for k in self.members_up_to(top - 1):
            num[k] += 1
            if periodic and k + p < top:
                num[k + p] -= 1
        return tuple(num), (1,) + (0,) * (p - 1) + (-1,) if periodic else (1,)

