"""Scale classes induced by shift spaces through a distinguished symbol.

A word whose first symbol is distinguished induces a scale: the
composition of gaps between consecutive occurrences of that symbol,
the final gap wrapping around past the end of the word.  Interior
gaps are first return loop sizes; the final gap may additionally be
any size bounded above by some loop size.  That structure yields
closed forms for the number of scales of each total, the number of
their rotation classes, and the size of the union of their modes,
optionally refined by the number of notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .combinatorics import Composition, PartSpec, rotation_dims
from .numtheory import burnside
from .reports import CLOSED_FORM, ENUMERATION, DimReport
from .series import DEFAULT_ORDER, BivariateSeries, TruncatedSeries
from .shiftspace import (
    LoopSystem,
    ReducibleShiftError,
    VertexShift,
    Word,
    first_return,
    is_irreducible,
    language_from,
    word_counts,
)

DEFAULT_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """Word enumeration would exceed the configured budget."""


def _coerce_spec(parts) -> PartSpec:
    if isinstance(parts, LoopSystem):
        return parts.part_spec()
    if isinstance(parts, PartSpec):
        return parts
    return PartSpec.finite(parts)


def induced_scale(word: Word) -> Composition:
    """Gaps between occurrences of the first symbol, last gap wrapping."""
    if not word:
        raise ValueError("the empty word induces no scale")
    positions = [i for i, letter in enumerate(word) if letter == word[0]]
    return _gap_composition(positions, len(word))


def _gap_composition(positions, length: int) -> Composition:
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    gaps.append(length - positions[-1])
    return tuple(gaps)


def _indicator(sizes, order: int) -> TruncatedSeries:
    coeffs = [0] * (order + 1)
    for k in sizes:
        if 1 <= k <= order:
            coeffs[k] = 1
    return TruncatedSeries(coeffs, order)


def composition_gf(parts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """1/(1 - sum_{k in K} z^k): compositions with all parts in K."""
    spec = _coerce_spec(parts)
    return _indicator(spec.members_up_to(order), order).quasi_inverse()


def composition_bgf(parts, order: int = DEFAULT_ORDER) -> BivariateSeries:
    """Same with u marking the number of parts: c[n][m] = sum_{j in K} c[n-j][m-1]."""
    spec = _coerce_spec(parts)
    rows = [[1]]
    _append_shifted(rows, rows, spec.members_up_to(order), order)
    return BivariateSeries(rows, order)


def _append_shifted(rows: list, source, sizes, order: int) -> None:
    """Append rows 1..order of sum_{k in sizes} u z^k S(z, u) to ``rows``.

    ``sizes`` ascend.  ``source`` holds the rows of S; passing ``rows``
    itself turns the sum into the recurrence of 1/(1 - u sum_k z^k).
    """
    for n in range(1, order + 1):
        row = [0] * (n + 1)
        for k in sizes:
            if k > n:
                break
            for m, c in enumerate(source[n - k], start=1):
                row[m] += c
        rows.append(row)


def wheels_gf(parts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Rotation classes of compositions with parts in K, by total.

    sum_k phi(k)/k log 1/(1 - sum_{j in K} z^{jk}), computed without
    fractions: with s the indicator of K and h = 1/(1-s), the inner log
    has m-th coefficient P_m / m where P_m = sum_j j s_j h_{m-j}, so the
    z^n coefficient is the Burnside count (1/n) sum_{k|n} phi(k) P_{n/k}.
    """
    spec = _coerce_spec(parts)
    members = spec.members_up_to(order)
    h = composition_gf(spec, order).coeffs
    p = [0] * (order + 1)
    for m in range(1, order + 1):
        p[m] = sum(j * h[m - j] for j in members if j <= m)
    coeffs = [0] + [burnside(n, n, lambda k: p[n // k]) for n in range(1, order + 1)]
    return TruncatedSeries(coeffs, order)


def wheels_bgf(parts, order: int = DEFAULT_ORDER) -> BivariateSeries:
    """Wheels refined by the number of parts.

    With S_{a,b} the number of compositions of a into exactly b parts
    from K, the (n,m) entry is the Burnside count
    (1/m) sum_{k | gcd(n,m)} phi(k) S_{n/k,m/k}.
    """
    return _wheel_table(composition_bgf(parts, order))


def _wheel_table(comp: BivariateSeries) -> BivariateSeries:
    order, table = comp.order, comp.rows
    rows = [[0]]
    for n in range(1, order + 1):
        row = [0] * (n + 1)
        for m in range(1, n + 1):
            row[m] = burnside(m, gcd(n, m), lambda k: table[n // k][m // k])
        rows.append(row)
    return BivariateSeries(rows, order)


def tail_sizes(parts, order: int = DEFAULT_ORDER) -> tuple[int, ...]:
    """Final gaps outside K: the k not in K below some member of K."""
    spec = _coerce_spec(parts)
    absent = spec.absent_up_to(order)
    if spec.unbounded:
        return absent
    if spec.max_part is None:
        return ()
    return tuple(k for k in absent if k < spec.max_part)


def a_series(parts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Scales whose final gap falls outside K: (sum_{k in E} z^k) C^K(z)."""
    spec = _coerce_spec(parts)
    extras = _indicator(tail_sizes(spec, order), order)
    return composition_gf(spec, order) * extras


def _tailed(comp: BivariateSeries, tails) -> BivariateSeries:
    rows = [[0]]
    _append_shifted(rows, comp.rows, tails, comp.order)
    return BivariateSeries(rows, comp.order)


def b_series(parts, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Modes swept by the out-of-K scales: u d/du of a at u = 1.

    With a = u e C and C = 1/(1 - u s), d/du at u = 1 is
    e C + e s C^2 = e C^2, since 1 + s C = C; so b = a C.
    """
    spec = _coerce_spec(parts)
    return a_series(spec, order) * composition_gf(spec, order)


def symbol_dims(
    shift: VertexShift,
    symbol: str,
    order: int = DEFAULT_ORDER,
    bivariate: bool = False,
) -> DimReport:
    """Closed-form dimensions of the scales distinguished at ``symbol``.

    Transversal: wheels over the loop sizes plus the out-of-K tails,
    each of which heads its own rotation class.  Orbital: compositions
    over the loop sizes plus the modes of the tailed scales.
    """
    if not is_irreducible(shift):
        raise ReducibleShiftError(
            "scale closed forms need an irreducible transition matrix"
        )
    loop = first_return(shift, symbol, order)
    spec = loop.part_spec()
    comp = composition_gf(spec, order)
    tails = tail_sizes(spec, order)
    a = comp * _indicator(tails, order)
    b = a * comp
    transversal = (wheels_gf(spec, order) + a).coeffs[1:]
    orbital = (comp + b).coeffs[1:]
    sizes = (comp + a).coeffs[1:]
    table_t = table_o = None
    if bivariate:
        comp2 = composition_bgf(spec, order)
        a2 = _tailed(comp2, tails)
        table_t = _wheel_table(comp2) + a2
        table_o = comp2 + a2.length_weighted()
    return DimReport(
        transversal,
        orbital,
        CLOSED_FORM,
        includes_empty=True,
        class_sizes=sizes,
        bivariate_transversal=table_t,
        bivariate_orbital=table_o,
    )


def _scale_levels(shift: VertexShift, walks, order: int, cap: int, keep) -> list:
    """[keep(scales of the length-n words) for n = 1..order], one level at a time.

    ``walks`` pairs each start symbol index with the symbol indices whose
    visits mark the gaps of its words.  Each level first charges every word
    of its length against ``cap``, and only what ``keep`` returns outlives
    the level.
    """
    counts = word_counts(shift, order)
    budget = cap
    kept = []
    for n in range(1, order + 1):
        budget -= counts[n - 1]
        if budget < 0:
            raise EnumerationCapError(
                f"enumerating {counts[n - 1]} words of length {n} exceeds the cap"
            )
        scales = set()
        for start, marked in walks:
            for word in language_from(shift, (start,), n):
                positions = [i for i, s in enumerate(word) if s in marked]
                scales.add(_gap_composition(positions, n))
        kept.append(keep(scales))
    return kept


def global_dims(
    shift: VertexShift, order: int = DEFAULT_ORDER, cap: int = DEFAULT_CAP
) -> DimReport:
    """Dimensions of the scales over all distinguished symbols at once.

    Enumerates every word, distinguishes its first symbol, and reduces
    the resulting scale sets exactly; no closed form is attempted.
    """
    walks = [(i, {i}) for i in range(shift.size)]
    dims = _scale_levels(
        shift, walks, order, cap,
        lambda scales: (*rotation_dims(scales), len(scales)),
    )
    return DimReport(
        tuple(t for t, _, _ in dims),
        tuple(o for _, o, _ in dims),
        ENUMERATION,
        class_sizes=tuple(size for _, _, size in dims),
    )


@dataclass(frozen=True, eq=False)
class ScaleClass:
    """The scale sets of one distinguished symbol, graded by total."""

    symbol: str
    by_size: dict[int, frozenset[Composition]] = field(repr=False)

    def at(self, n: int) -> frozenset[Composition]:
        try:
            return self.by_size[n]
        except KeyError:
            raise ValueError(f"no scales computed for total {n}") from None

    def to_json(self) -> dict:
        return {
            "source": "vertex shift",
            "symbol": self.symbol,
            "sets": [
                {"n": n, "scales": [list(c) for c in sorted(self.by_size[n])]}
                for n in sorted(self.by_size)
            ],
        }


def scale_class(
    shift: VertexShift,
    symbol: str,
    order: int = DEFAULT_ORDER,
    cap: int = DEFAULT_CAP,
    *,
    distinguished=None,
) -> ScaleClass:
    """Enumerated scale sets of the words starting at ``symbol``.

    Gaps are measured between visits to the ``distinguished`` symbols,
    ``{symbol}`` by default; ``symbol`` must be one of them.
    """
    members = frozenset((symbol,) if distinguished is None else distinguished)
    if not members:
        raise ValueError("distinguished set is empty")
    marked = {shift.alphabet.index(member) for member in members}
    if symbol not in members:
        raise ValueError(f"start symbol {symbol!r} is not distinguished")
    levels = _scale_levels(shift, [(shift.alphabet.index(symbol), marked)], order, cap, frozenset)
    return ScaleClass(symbol, dict(enumerate(levels, start=1)))
