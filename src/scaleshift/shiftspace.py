"""Vertex shifts and shifts of finite type.

A vertex shift is its successor lists over an ordered alphabet; its 0/1 matrix
is a view.  Words label finite paths in its graph.  An SFT given by forbidden
blocks is recoded to a vertex shift on admissible blocks (higher block
presentation).  The module computes languages, irreducibility, zeta functions,
periodic point counts, first return loop systems and language dimensions.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import islice
from operator import or_

from .combinatorics import PartSpec
from .numtheory import cyclic_counts
from .reports import CLOSED_FORM, DimReport
from .series import DEFAULT_ORDER, RationalFunction, TruncatedSeries, _poly_mul, log_derivative
from .values import Frozen, Value

Word = tuple[str, ...]


class DegenerateShiftError(ValueError):
    """The presentation admits no blocks at all."""


class BlockCountError(ValueError):
    """The higher block presentation would need too many blocks (a cost guard)."""


SUPPORT_WALK_LIMIT = 4096  # see first_return


class Alphabet(Value):
    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        if not symbols:
            raise ValueError("alphabet is empty")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols repeat")
        for s in symbols:
            if not s:
                raise ValueError("empty symbol token")
        object.__setattr__(self, "symbols", symbols)

    def _key(self) -> tuple:
        return self.symbols

    @classmethod
    def of(cls, symbols) -> "Alphabet":
        return cls(tuple(symbols))

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"unknown symbol {symbol!r}") from None

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self.symbols


class VertexShift(Value):
    """Its successor lists: row i holds, ascending, the symbols that may follow symbol i.  No
    ``__slots__``: the views ``columns`` and ``matrix`` are cached in ``__dict__``."""

    def __init__(self, alphabet: Alphabet, successors: tuple[tuple[int, ...], ...]):
        k = len(alphabet)
        if len(successors) != k:
            raise ValueError("successor lists do not match alphabet")
        for row in successors:
            if any(i >= j for i, j in zip((-1, *row), (*row, k))):  # -1 < row[0] < ... < k
                raise ValueError(f"successor list {row} does not ascend strictly inside 0..{k - 1}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "successors", successors)

    def _key(self) -> tuple:
        return self.alphabet, self.successors

    @classmethod
    def from_rows(cls, symbols, rows) -> "VertexShift":
        alphabet, matrix = Alphabet.of(symbols), [[int(e) for e in r] for r in rows]
        if len(matrix) != len(alphabet):
            raise ValueError("matrix size does not match alphabet")
        for row in matrix:
            if len(row) != len(matrix):
                raise ValueError("matrix is not square")
            if bad := [e for e in row if e not in (0, 1)]:
                raise ValueError(f"matrix entries must be 0 or 1, got {bad[0]}")
        return cls(alphabet, tuple(tuple(j for j, e in enumerate(row) if e) for row in matrix))

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def entry(self, s: str, t: str) -> int:
        return self.matrix[self.alphabet.index(s)][self.alphabet.index(t)]

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense view: A[i, j] = 1 when j follows i.  No kernel reads it."""
        return tuple(tuple(int(j in row) for j in range(self.size)) for row in map(set, self.successors))

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j: the symbols i with A[i, j] = 1, ascending, the input of ``_walks``."""
        columns = [[] for _ in range(self.size)]
        for i, row in enumerate(self.successors):
            for j in row:
                columns[j].append(i)
        return tuple(map(tuple, columns))


class SftPresentation(Frozen):
    __slots__ = ("alphabet", "forbidden")

    def __init__(self, alphabet: Alphabet, forbidden: frozenset[Word]):
        for block in forbidden:
            if len(block) < 2:
                raise ValueError("forbidden blocks must have length >= 2")
            for letter in block:
                if letter not in alphabet:
                    raise ValueError(f"forbidden block uses unknown symbol {letter!r}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "forbidden", forbidden)

    @classmethod
    def of(cls, symbols, blocks) -> "SftPresentation":
        """Normalize: drop any forbidden block containing another as a proper window."""
        words = {tuple(b) for b in blocks}
        lengths = {len(b) for b in words}
        kept = {
            b for b in words
            if not any(b[i:i + k] in words for k in lengths - {len(b)} for i in range(len(b) - k + 1))
        }
        return cls(Alphabet.of(symbols), frozenset(kept))

    @property
    def step(self) -> int:
        """The SFT is step-many steps: max forbidden length minus one."""
        return max((len(b) for b in self.forbidden), default=2) - 1


class HigherBlock(Frozen):
    """A vertex shift on admissible blocks plus the block spelling per vertex."""

    __slots__ = ("shift", "blocks")

    def __init__(self, shift: VertexShift, blocks: tuple[Word, ...]):
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "blocks", blocks)

    def label(self, i: int) -> str:
        """The 1-block factor map: a vertex is sent to its first letter."""
        return self.blocks[i][0]


class LoopSystem(Frozen):
    """First return loops at ``symbol``: series, the part set K of its sizes, and the tails E.

    ``series`` is truncated at its order; ``parts`` holds the sizes with a
    nonzero coefficient.  ``tails`` holds the final gaps of scales outside K:
    the sizes g not in K such that a walk of g - 1 steps from ``symbol`` stays off it.
    """

    __slots__ = ("symbol", "series", "parts", "tails")

    def __init__(self, symbol: str, series: TruncatedSeries, parts: PartSpec, tails: PartSpec):
        if series.coefficient(0) != 0:
            raise ValueError("loop series must have zero constant term")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "tails", tails)

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol,
            "series": self.series.to_json(),
            "support": list(self.parts.members_up_to(self.series.order)),
            "support_unbounded": self.parts.unbounded,
            "support_max": self.parts.max_part,
        }


def higher_block(sft: SftPresentation) -> HigherBlock:
    """Recode an SFT as a vertex shift on its admissible step-blocks.

    Blocks grow a letter at a time in symbol order, so they come out lexicographic.  A grown
    block is kept when no forbidden block ends it: its other windows were checked a letter
    earlier, and a forbidden length past its own takes the whole block, as its own length does.
    """
    m = sft.step
    symbols = tuple(sft.alphabet)
    # growing to length m costs at most |A| + |A|^2 + ... + |A|^m
    if len(symbols) ** m > 2_000_000:
        raise BlockCountError(f"block enumeration over {len(symbols)}^{m} is too large")
    lengths = {len(f) for f in sft.forbidden}
    blocks = [()]
    for _ in range(m):
        grown = (b + (a,) for b in blocks for a in symbols)
        blocks = [b for b in grown if not any(b[-k:] in sft.forbidden for k in lengths)]
    if not blocks:
        raise DegenerateShiftError("no admissible blocks")
    # no block matrix is built: blocks^2 bounds the block pairs of the first-return table
    entries = len(blocks) ** 2
    if entries > 10_000_000:
        raise BlockCountError(
            f"the dense first-return table over {len(blocks)} blocks needs {entries} entries, "
            "one per block pair; the limit is 10^7"
        )
    rows = _block_rows(blocks, symbols, sft.forbidden)
    return HigherBlock(VertexShift(Alphabet.of(map(_block_token, blocks)), rows), tuple(blocks))


def _block_rows(blocks: list[Word], symbols, forbidden) -> tuple[tuple[int, ...], ...]:
    """The successor lists of the block graph, ascending as the blocks are lexicographic:
    u -> u[1:] + a when that block is admissible and u + a is not forbidden."""
    index = {b: j for j, b in enumerate(blocks)}
    rows = [[index.get(u[1:] + (a,)) for a in symbols if u + (a,) not in forbidden] for u in blocks]
    return tuple(tuple(j for j in row if j is not None) for row in rows)


def _block_token(block: Word) -> str:
    if all(len(letter) == 1 for letter in block):
        return "".join(block)
    return "|".join(block)


def word_texts(shift: VertexShift, words) -> list[str]:
    """Index-tuple words as text, spaced when a symbol has several characters."""
    symbols = shift.alphabet.symbols
    separator = " " if any(len(symbol) > 1 for symbol in symbols) else ""
    return [separator.join([symbols[i] for i in word]) for word in words]


def language_from(shift: VertexShift, starts, n: int) -> list[tuple[int, ...]]:
    """The words of length n from the symbol indices ``starts``, as index tuples.

    The walk goes level by level: every word of one length is extended by
    each successor of its last symbol, so two levels are alive at once.
    Each word appears once, in no promised order; callers sort or build sets.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [()]
    succ = shift.successors
    words = [(i,) for i in starts]
    for _ in range(n - 1):
        words = [word + (j,) for word in words for j in succ[word[-1]]]
    return words


def is_irreducible(shift: VertexShift) -> bool:
    """True iff every vertex reaches every vertex along a path of length >= 1."""
    succ, cols = shift.successors, shift.columns
    return len(_reach(succ, succ[0])) == shift.size == len(_reach(cols, cols[0]))


def has_cycle(shift: VertexShift) -> bool:
    """True iff the graph of ``shift`` has a cycle: stripping, in turn, every symbol
    that leads into no remaining symbol leaves some symbol.  Reads each column once."""
    outdegree = [0] * shift.size
    for col in shift.columns:
        for i in col:
            outdegree[i] += 1
    stripped = [j for j, count in enumerate(outdegree) if count == 0]
    for j in stripped:  # grows as stripping frees more symbols
        for i in shift.columns[j]:
            outdegree[i] -= 1
            if outdegree[i] == 0:
                stripped.append(i)
    return len(stripped) < shift.size


def _reach(lists, starts) -> set[int]:
    """The ``starts`` and every index reachable from them, ``lists[i]`` leading on from i."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        step = set(lists[frontier.pop()]) - seen
        seen |= step
        frontier += step
    return seen


def _walks(lists, start):
    """The vector recurrence from ``start``, entry j of a step summing the entries ``lists[j]``.

    Fed the columns (the i with A[i, j] = 1) it walks v -> vA: entry j of start·A^n sums
    start_i over the n-edge walks from i to j.  Fed the successors (the i with A[j, i] = 1)
    it walks u -> Au: entry j of A^n·start sums start_i over the n-edge walks from j to i.
    """
    vector = list(start)
    while True:
        yield vector
        vector = [sum([vector[i] for i in step]) for step in lists]


def _char_det(shift: VertexShift) -> list[int]:
    """Coefficients of det(I - zA), as a product of nested first returns.

    With A_i the matrix on the symbols from i on and F_i the first returns to i
    inside A_i, the Schur complement of i gives det(I - zA_i) = (1 - F_i) det(I - zA_(i+1)).
    That det has degree at most k - i, so F_i is cut there.
    """
    k = shift.size
    det = [1]
    for i in reversed(range(k)):
        # the symbols from i on, renumbered from 0; i absorbs
        cols = tuple(tuple(u - i for u in col if u > i) for col in shift.columns[i:])
        returns = [-v[0] for v in islice(_walks(cols, [int(i in c) for c in shift.columns[i:]]), k - i)]
        det = _poly_mul([1, *returns], det)[:k - i + 1]
    return det


def word_counts(shift: VertexShift, order: int):
    """Rows A^(n-1)·1 for n = 1..order, drawn one at a time: entry s of row
    n - 1 counts the words of length n from symbol s.  Callers that need the
    number of all words of a length sum its row."""
    return islice(_walks(shift.successors, [1] * shift.size), order)


def zeta_rational(shift: VertexShift) -> RationalFunction:
    return RationalFunction([1], _char_det(shift))


def zeta(shift: VertexShift, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    return zeta_rational(shift).expand(order)


def periodic_counts(shift: VertexShift, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """sum_n p_n z^n with p_n = trace(A^n), read off the zeta function; z^0 is 0.

    With D = det(I - zA) = 1/zeta, log zeta = sum_n p_n z^n / n, so
    sum_n p_n z^n = -z D'/D.
    """
    return log_derivative(_char_det(shift), order)


def periodic_orbit_counts(shift: VertexShift, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Necklace counts: closed orbits of length dividing n, the cycle construction of zeta."""
    return cyclic_counts(zeta_rational(shift), order)


def first_return(shift: VertexShift, symbol: str, order: int = DEFAULT_ORDER) -> LoopSystem:
    """The loop system at ``symbol``: the first-return walk with D = {symbol}.

    The series is ``first_return_matrix``'s.  K and the tails E are read off
    the supports X_j of its walk vector A[s, R]·B^j, as bit sets over the r
    symbols of R: n >= 2 is in K when X_(n-2) meets the predecessors of s,
    and in E when X_(n-2) is non-empty and misses them; 1 is in E when
    A[s, s] = 0.  A walk of r steps inside R repeats a symbol, so a
    non-empty X_j with j >= r is never empty again: from there on the
    symbols with no way back to the predecessors of s are folded into s's
    own bit, which marks exactly that.  The first X_j1 equal to an earlier
    X_j0 then makes K and E periodic from j0 + 2, period j1 - j0.  The
    preperiod is below r^2 (the index bound of 0/1 matrices), so with no
    repeat within max(order, r^2, SUPPORT_WALK_LIMIT) steps the period is
    long: K and E are exact up to there, then K holds every size and E none.
    """
    si = shift.alphabet.index(symbol)
    successors, columns = shift.successors, shift.columns
    rest = [v for v in range(shift.size) if v != si]
    # a path to s's predecessors through s itself passes one of them first
    back = _reach(columns, columns[si])
    dead = sum(1 << v for v in rest if v not in back)
    succ = {u: sum(1 << v for v in successors[u] if v != si) for u in rest}
    closing = sum(1 << v for v in columns[si] if v != si)
    running = 1 << si
    x = sum(1 << v for v in successors[si] if v != si)
    seen: dict[int, int] = {}
    while x not in seen and len(seen) <= max(order, len(rest) ** 2, SUPPORT_WALK_LIMIT):
        seen[x] = len(seen)
        x = reduce(or_, (m for u, m in succ.items() if x >> u & 1), x & running)
        if x & dead and len(seen) >= len(rest):
            x = x & ~dead | running
    j0 = seen.get(x, len(seen))  # no repeat: every size past the walk is a loop
    start, period = j0 + 2, len(seen) - j0 or 1
    looped = si in successors[si]
    loops = [j + 2 for j, y in enumerate(seen) if y & closing] + [1] * looped
    tails = [j + 2 for j, y in enumerate(seen) if y and not y & closing] + [1] * (not looped)

    def spec(sizes):
        prefix = frozenset(n for n in sizes if n < start)
        return PartSpec(prefix, start, period, frozenset(n - start for n in sizes if n >= start))

    series = first_return_matrix(shift, (symbol,), order)[symbol, symbol]
    return LoopSystem(symbol, series, spec(loops + [start] * (x not in seen)), spec(tails))


def first_return_matrix(shift: VertexShift, distinguished, order: int = DEFAULT_ORDER):
    """Return series table {(s, t): f}: first passages from s to t outside D.

    The z^n coefficient counts the walks of n edges from s that meet D first
    at their end, t: one walk v -> vA from the row A[s] over the columns
    with D struck, so a symbol of D absorbs and feeds no further step.
    """
    dset = tuple(distinguished)
    if not dset:
        raise ValueError("distinguished set is empty")
    idx = [shift.alphabet.index(s) for s in dset]
    marked = set(idx)
    cols = tuple(tuple(u for u in col if u not in marked) for col in shift.columns)
    table = {}
    for s, si in zip(dset, idx):
        walks = list(islice(_walks(cols, [int(si in col) for col in shift.columns]), order))
        for t, ti in zip(dset, idx):
            table[(s, t)] = TruncatedSeries([0] + [v[ti] for v in walks], order)
    return table


def language_dims(shift: VertexShift, order: int = DEFAULT_ORDER) -> DimReport:
    """Transversal and orbital dimensions of L_n for n = 1..order.

    Of the w_n words, p_n close up (the last symbol may precede the first);
    their classes are the necklaces, and their orbits stay inside them.  No
    rotation of any other word is admissible, so each of the w_n - p_n
    stranded words is a class of its own whose orbit has all n rotations.
    """
    words = [sum(row) for row in word_counts(shift, order)]
    form = zeta_rational(shift)
    p = log_derivative(form.denominator, order).coeffs
    necklaces = cyclic_counts(form, order).coeffs
    transversal = []
    orbital = []
    for n in range(1, order + 1):
        stranded = words[n - 1] - p[n]
        transversal.append(stranded + necklaces[n])
        orbital.append(n * stranded + p[n])
    return DimReport(tuple(transversal), tuple(orbital), CLOSED_FORM)


def parse_matrix(text: str) -> VertexShift:
    """Line 1: symbol tokens; following lines: 0/1 rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    symbols = lines[0].split()
    rows = [ln.split() for ln in lines[1:]]
    if len(rows) != len(symbols):
        raise ValueError(f"expected {len(symbols)} rows, found {len(rows)}")
    return VertexShift.from_rows(symbols, rows)


def parse_forbidden(text: str) -> SftPresentation:
    """One forbidden block per line; optional '# alphabet: ...' header.

    Without the header the alphabet is the sorted set of letters seen.
    Single-character tokens may be concatenated; multi-character tokens
    must be separated by spaces or tabs.
    """
    symbols = None
    blocks = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("alphabet:"):
                symbols = tuple(body[len("alphabet:"):].split())
            continue
        tokens = line.split()
        blocks.append(tuple(tokens) if len(tokens) > 1 else tuple(line))
    if not blocks:
        raise ValueError("no forbidden blocks in file")
    if symbols is None:
        symbols = tuple(sorted({letter for b in blocks for letter in b}))
    return SftPresentation.of(symbols, blocks)
