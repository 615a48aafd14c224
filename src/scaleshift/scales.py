"""Scale classes induced by shift spaces through a distinguished symbol.

A word whose first symbol is distinguished induces a scale: the
composition of gaps between consecutive occurrences of that symbol,
the final gap wrapping around past the end of the word.  Interior
gaps are first return loop sizes; the final gap is one too, or a size
g outside them for which a walk of g - 1 steps from the symbol stays
off it (the tails of ``shiftspace.loop_supports``).  That structure
yields closed forms for the number of scales of each total, the number
of their rotation classes, and the size of the union of their modes,
optionally refined by the number of notes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import gcd

from .combinatorics import Composition, PartSpec, composition_of, least_rotation, pattern_classes, scales_json
from .numtheory import burnside, cyclic_counts
from .reports import CLOSED_FORM, ENUMERATION, DimReport
from .series import DEFAULT_ORDER, BivariateSeries, RationalFunction, TruncatedSeries
from .shiftspace import VertexShift, language_from, loop_supports, word_counts, word_texts
from .values import Frozen, JsonText

DEFAULT_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """Word enumeration would exceed the configured budget.  The message joins ``args`` when
    read, so a count past the int-to-str limit is formatted only where that limit is lifted."""

    def __str__(self) -> str:
        return "".join(map(str, self.args))


@lru_cache(maxsize=64)  # each uncached closed-form report reads one immutable form through four public series
def _composition_form(spec: PartSpec, order: int) -> RationalFunction:
    """C = Q/(Q - N): with s = N/Q the indicator of K, C = 1/(1 - s)."""
    num, den = spec.indicator_gf(order)
    return RationalFunction(den, [q - n for q, n in zip_longest(den, num, fillvalue=0)])


def composition_gf(spec: PartSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """1/(1 - sum_{k in K} z^k): compositions with all parts in K."""
    return _composition_form(spec, order).expand(order)


def composition_bgf(spec: PartSpec, order: int = DEFAULT_ORDER) -> BivariateSeries:
    """Same with u marking the number of parts: C = 1 + u s C."""
    return _shifted(1, None, spec, order)


def _shifted(first: int, source, spec: PartSpec, order: int) -> BivariateSeries:
    """T = first + u s(z) S(z, u), with s = N/Q the indicator of K and S = ``source``.

    Times Q = 1 - z^P (or Q = 1), the entry (n, m) with m >= 1 is
    t[n-P][m] + sum_j N_j S[n-j][m-1], and column 0 vanishes for n >= 1:
    a recurrence as wide as N, whatever the size of K.  With ``source``
    None, S is T itself, so T = 1/(1 - u s).
    """
    num, den = spec.indicator_gf(order)
    period = len(den) - 1
    terms = [(j, c) for j, c in enumerate(num) if c]
    rows = [[first]]
    src = rows if source is None else source.rows
    for n in range(1, order + 1):
        row = [0] * (n + 1)
        if period and n >= period:
            row[1 : n - period + 1] = rows[n - period][1:]
        for j, c in terms:
            if j > n:
                break
            for m, v in enumerate(src[n - j], start=1):
                row[m] += c * v
        rows.append(row)
    return BivariateSeries(rows, order)


def wheels_gf(spec: PartSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Rotation classes of compositions with parts in K, by total.

    sum_k phi(k)/k log 1/(1 - s(z^k)), s the indicator of K: the cycle
    construction of the composition form C (see ``numtheory.cyclic_counts``).
    """
    return cyclic_counts(_composition_form(spec, order), order)


def wheels_bgf(spec: PartSpec, order: int = DEFAULT_ORDER) -> BivariateSeries:
    """Wheels refined by the number of parts.

    With S_{a,b} the number of compositions of a into exactly b parts
    from K, the (n,m) entry is the Burnside count
    (1/m) sum_{k | gcd(n,m)} phi(k) S_{n/k,m/k}.
    """
    return _wheel_table(composition_bgf(spec, order))


def wheels_row(spec: PartSpec, n: int) -> list[int]:
    """Row n of ``wheels_bgf(spec, n)``: the wheels of total n by number of parts, m = 0..n.

    Its Burnside sums read only the composition rows n/k for k | n, so no
    other wheel row is built.
    """
    return _wheel_row(composition_bgf(spec, n).rows, n)


def _wheel_table(comp: BivariateSeries) -> BivariateSeries:
    return BivariateSeries([_wheel_row(comp.rows, n) for n in range(comp.order + 1)], comp.order)


def _wheel_row(table: tuple[tuple[int, ...], ...], n: int) -> list[int]:
    row = [0] * (n + 1)
    for m in range(1, n + 1):
        row[m] = burnside(m, gcd(n, m), lambda k: table[n // k][m // k])
    return row


def a_series(spec: PartSpec, tails: PartSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Scales whose final gap falls outside K: e(z) C^K(z), e the indicator of ``tails``."""
    return (RationalFunction(*tails.indicator_gf(order)) * _composition_form(spec, order)).expand(order)


def b_series(spec: PartSpec, tails: PartSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Modes swept by the out-of-K scales: u d/du of a at u = 1.

    With a = u e C and C = 1/(1 - u s), d/du at u = 1 is
    e C + e s C^2 = e C^2, since 1 + s C = C; so b = a C.
    """
    comp = _composition_form(spec, order)
    return (RationalFunction(*tails.indicator_gf(order)) * comp * comp).expand(order)


def symbol_dims(
    shift: VertexShift,
    symbol: str,
    order: int = DEFAULT_ORDER,
    bivariate: bool = False,
) -> DimReport:
    """Closed-form dimensions of the scales distinguished at ``symbol``.

    Transversal: wheels over the loop sizes plus the out-of-K tails,
    each of which heads its own rotation class.  Orbital: compositions
    over the loop sizes plus the modes of the tailed scales.  Both read K
    and the tails off ``loop_supports``' walk, so they hold for every
    matrix, and no loop series is built.  The report is a function of
    (K, tails, order, bivariate) alone, computed once and shared by every
    shift and symbol with that loop system.
    """
    return _loop_system_dims(*loop_supports(shift, symbol, order), order, bivariate)


# verify's oracle grid asks for 441 (shift, symbol) reports over 17 loop systems;
# all 262,144 (matrix, symbol) pairs on 4 symbols hold 80 at order 8
@lru_cache(maxsize=128)
def _loop_system_dims(spec: PartSpec, tails: PartSpec, order: int, bivariate: bool) -> DimReport:
    comp, a = composition_gf(spec, order), a_series(spec, tails, order)
    transversal = (wheels_gf(spec, order) + a).coeffs[1:]
    orbital = (comp + b_series(spec, tails, order)).coeffs[1:]
    sizes = (comp + a).coeffs[1:]
    table_t = table_o = None
    if bivariate:
        comp2 = composition_bgf(spec, order)
        a2 = _shifted(0, comp2, tails, order)
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


def _charge(shift: VertexShift, order: int, cap: int, starts=None, first: int = 1) -> None:
    """Charge the words of lengths first..order against ``cap`` from one lazy walk of
    ``word_counts``, before any word is built; the first overdraw raises.

    With ``starts`` None every word draws on the one cap; otherwise each start's
    words draw on a whole cap of their own, in the order of ``starts`` within a length.
    """
    spent = [0] * (1 if starts is None else len(starts))
    for n, row in enumerate(word_counts(shift, order), start=1):
        if n < first:
            continue
        for p, count in enumerate([sum(row)] if starts is None else [row[s] for s in starts]):
            spent[p] += count
            if spent[p] > cap:
                raise EnumerationCapError("enumerating ", count, f" words of length {n} exceeds the cap")


def language_witnesses(shift: VertexShift, n: int, cap: int = DEFAULT_CAP) -> tuple[list, list]:
    """L_n's words and one witness per rotation class, the least, as texts in symbol-index
    order; L_n is charged against ``cap`` before it is built, once, for both.  The sorted
    words are walked once, and the first of each least rotation is its class's witness."""
    _charge(shift, n, cap, first=n)
    words = sorted(language_from(shift, range(shift.size), n))
    witnesses = {}
    for word in words:
        witnesses.setdefault(least_rotation(word), word)
    return word_texts(shift, words), word_texts(shift, witnesses.values())


def _scale_levels(shift: VertexShift, walks, order: int, keep) -> list:
    """[keep(scales of the length-n words) for n = 1..order], one level at a time.

    ``walks`` pairs each start symbol index with the set of symbol indices whose
    visits mark the gaps of its words.  Callers charge the words against the cap
    first; the walk builds no word.  A scale is its visit pattern (see
    ``combinatorics.composition_of``), and appending a symbol appends one bit,
    1 at a marked symbol.  A level maps each last symbol index to the patterns
    of the words that end there; merging is exact, since a word's future
    depends on its last symbol alone.  ``keep`` receives the union of a level's
    sets, a fresh set of ints of one total, the level's length.  Only what
    ``keep`` returns outlives a level.
    """
    succ = shift.successors
    levels = [({start: {1}}, marked) for start, marked in walks]
    kept = []
    for n in range(1, order + 1):
        kept.append(keep(set().union(*[patterns for level, _ in levels for patterns in level.values()])))
        if n < order:
            levels = [(_step(level, succ, marked), marked) for level, marked in levels]
    return kept


def _step(level: dict, succ, marked) -> dict:
    """The patterns one symbol on from ``level``, each shifted set built once per
    (last symbol, appended bit) and shared by its successors, so no set is changed in place."""
    out = {}
    for last, patterns in level.items():
        shifted = {}
        for t in succ[last]:
            bit = t in marked
            new = shifted.get(bit)
            if new is None:
                new = shifted[bit] = {p << 1 | bit for p in patterns}
            old = out.get(t)
            out[t] = new if old is None else old | new
    return out


def global_dims(
    shift: VertexShift, order: int = DEFAULT_ORDER, cap: int = DEFAULT_CAP
) -> DimReport:
    """Dimensions of the scales over all distinguished symbols at once.

    Walks the visit patterns of the words from every symbol, distinguishes
    each word's first symbol, and reduces the resulting scale sets exactly;
    no closed form is attempted.
    """
    _charge(shift, order, cap)
    walks = [(i, {i}) for i in range(shift.size)]
    dims = _scale_levels(shift, walks, order, _level_dims)
    return DimReport(
        tuple(t for _, t, _ in dims),
        tuple(o for _, _, o in dims),
        ENUMERATION,
        class_sizes=tuple(size for size, _, _ in dims),
    )


def _level_dims(scales: set[int]) -> tuple[int, int, int]:
    """(size, transversal, orbital) of one level's scale set, which is consumed."""
    size = len(scales)
    members, orbital = pattern_classes(scales)
    return size, len(members), orbital


class ScaleClass(Frozen):
    """The scale sets of one distinguished symbol, graded by total; ``by_size``
    holds each set as visit patterns, and ``at`` spells them as compositions."""

    __slots__ = ("symbol", "by_size")

    def __init__(self, symbol: str, by_size: dict[int, frozenset[int]]):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "by_size", by_size)

    def at(self, n: int) -> frozenset[Composition]:
        try:
            return frozenset(map(composition_of, self.by_size[n]))
        except KeyError:
            raise ValueError(f"no scales computed for total {n}") from None

    def to_json(self) -> dict:
        """The class as a JSON object whose ``sets`` are spelled as one ``JsonText``.

        Totals go up, so ``scales_json`` finds the prefix of every scale
        spelled a total lower; descending patterns of one total are
        ascending compositions.
        """
        spelled: dict[int, str] = {}
        sets = ", ".join(
            f'{{"n": {n}, "scales": {scales_json(sorted(self.by_size[n], reverse=True), spelled)}}}'
            for n in sorted(self.by_size)
        )
        return {"source": "vertex shift", "symbol": self.symbol, "sets": JsonText(f"[{sets}]")}


def scale_classes(shift: VertexShift, distinguished, order: int = DEFAULT_ORDER, cap: int = DEFAULT_CAP):
    """Yield (symbol, ScaleClass) for each start symbol of ``distinguished``, in turn.

    Gaps are measured between visits to any distinguished symbol.  Each
    start's own words are charged against the whole ``cap``, every start
    from one walk, before the first is walked; the starts are then walked
    one at a time, so only the class the caller holds outlives its walk.
    """
    members = tuple(distinguished)
    if not members:
        raise ValueError("distinguished set is empty")
    starts = [shift.alphabet.index(member) for member in members]
    _charge(shift, order, cap, starts)
    marked = set(starts)
    for member, start in zip(members, starts):
        levels = _scale_levels(shift, [(start, marked)], order, frozenset)
        yield member, ScaleClass(member, dict(enumerate(levels, start=1)))


def scale_class(shift: VertexShift, symbol: str, order: int = DEFAULT_ORDER, cap: int = DEFAULT_CAP) -> ScaleClass:
    """Enumerated scale sets of the words starting at ``symbol``, gaps between its visits."""
    return next(scale_classes(shift, (symbol,), order, cap))[1]
