"""Vertex shifts and shifts of finite type.

A vertex shift is presented by a square 0/1 transition matrix over an
ordered alphabet; words are labelings of finite paths in the matrix
graph.  An SFT given by forbidden blocks is recoded to a vertex shift
on admissible blocks (higher block presentation).  The module computes
languages, irreducibility, zeta functions, periodic point counts,
first return loop systems, and the language dimension formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product, zip_longest
from operator import mul

from .combinatorics import PartSpec, transversal_of
from .numtheory import ArithSequence, burnside
from .reports import CLOSED_FORM, DimReport
from .series import DEFAULT_ORDER, RationalFunction, TruncatedSeries

Word = tuple[str, ...]


class ReducibleShiftError(ValueError):
    """The transition matrix is not irreducible."""


class DegenerateShiftError(ValueError):
    """The presentation admits no blocks at all."""


class BlockCountError(ValueError):
    """The higher block presentation would need too many blocks (a cost guard)."""


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet is empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols repeat")
        for s in self.symbols:
            if not s:
                raise ValueError("empty symbol token")

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


@dataclass(frozen=True)
class VertexShift:
    alphabet: Alphabet
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.alphabet)
        if len(self.matrix) != k:
            raise ValueError("matrix size does not match alphabet")
        for row in self.matrix:
            if len(row) != k:
                raise ValueError("matrix is not square")
            for entry in row:
                if entry not in (0, 1):
                    raise ValueError(f"matrix entries must be 0 or 1, got {entry}")

    @classmethod
    def from_rows(cls, symbols, rows) -> "VertexShift":
        return cls(Alphabet.of(symbols), tuple(tuple(int(e) for e in r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def entry(self, s: str, t: str) -> int:
        return self.matrix[self.alphabet.index(s)][self.alphabet.index(t)]


@dataclass(frozen=True)
class SftPresentation:
    alphabet: Alphabet
    forbidden: frozenset[Word]

    def __post_init__(self):
        for block in self.forbidden:
            if len(block) < 2:
                raise ValueError("forbidden blocks must have length >= 2")
            for letter in block:
                if letter not in self.alphabet:
                    raise ValueError(f"forbidden block uses unknown symbol {letter!r}")

    @classmethod
    def of(cls, symbols, blocks) -> "SftPresentation":
        """Normalize: drop any forbidden block containing another as a subword."""
        words = {tuple(b) for b in blocks}
        kept = {
            b for b in words
            if not any(o != b and _is_subword(o, b) for o in words)
        }
        return cls(Alphabet.of(symbols), frozenset(kept))

    @property
    def step(self) -> int:
        """The SFT is step-many steps: max forbidden length minus one."""
        return max((len(b) for b in self.forbidden), default=2) - 1


def _is_subword(needle: Word, haystack: Word) -> bool:
    k = len(needle)
    return any(haystack[i:i + k] == needle for i in range(len(haystack) - k + 1))


@dataclass(frozen=True)
class HigherBlock:
    """A vertex shift on admissible blocks plus the block spelling per vertex."""

    shift: VertexShift
    blocks: tuple[Word, ...]

    def label(self, i: int) -> str:
        """The 1-block factor map: a vertex is sent to its first letter."""
        return self.blocks[i][0]


@dataclass(frozen=True)
class LoopSystem:
    """First return loops at ``symbol``: series plus support analysis.

    ``support`` lists the sizes k <= order with a nonzero coefficient.
    When the untruncated support is bounded, ``support_max`` is its true
    maximum (read off the rational form of the series, valid beyond the
    truncation order).
    """

    symbol: str
    series: TruncatedSeries
    support: frozenset[int]
    support_unbounded: bool
    support_max: int | None

    def __post_init__(self):
        if self.series.coefficient(0) != 0:
            raise ValueError("loop series must have zero constant term")
        if self.support_unbounded and self.support_max is not None:
            raise ValueError("unbounded support has no maximum")

    def part_spec(self) -> PartSpec:
        return PartSpec(
            known=self.support,
            tail_from=None,
            horizon=self.series.order,
            unbounded=self.support_unbounded,
            max_part=self.support_max,
        )

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol,
            "series": self.series.to_json(),
            "support": sorted(self.support),
            "support_unbounded": self.support_unbounded,
            "support_max": self.support_max,
        }


def higher_block(sft: SftPresentation) -> HigherBlock:
    """Recode an SFT as a vertex shift on its admissible step-blocks."""
    m = sft.step
    symbols = tuple(sft.alphabet)
    if len(symbols) ** m > 2_000_000:
        raise BlockCountError(f"block enumeration over {len(symbols)}^{m} is too large")
    blocks = tuple(
        b for b in product(symbols, repeat=m)
        if not any(_is_subword(f, b) for f in sft.forbidden)
    )
    if not blocks:
        raise DegenerateShiftError("no admissible blocks")
    full = {b for b in sft.forbidden if len(b) == m + 1}
    rows = tuple(
        tuple(
            1 if u[1:] == v[:-1] and u + v[-1:] not in full else 0
            for v in blocks
        )
        for u in blocks
    )
    tokens = tuple(_block_token(b) for b in blocks)
    return HigherBlock(VertexShift.from_rows(tokens, rows), blocks)


def _block_token(block: Word) -> str:
    if all(len(letter) == 1 for letter in block):
        return "".join(block)
    return "|".join(block)


def language(shift: VertexShift, n: int) -> frozenset[Word]:
    """All labelings of (n-1)-edge paths; n = 0 gives the empty word."""
    return frozenset(_spelled(shift, language_from(shift, range(shift.size), n)))


def language_witnesses(shift: VertexShift, n: int) -> set[Word]:
    """One word of L_n per rotation class: the least in symbol-index order."""
    return set(_spelled(shift, transversal_of(set(language_from(shift, range(shift.size), n)))))


def word_texts(shift: VertexShift, words) -> list[str]:
    """Index-tuple words as text, spaced when a symbol has several characters."""
    separator = " " if any(len(symbol) > 1 for symbol in shift.alphabet) else ""
    return [separator.join(word) for word in _spelled(shift, words)]


def _spelled(shift: VertexShift, words):
    symbols = shift.alphabet.symbols
    return (tuple(symbols[i] for i in word) for word in words)


def language_from(shift: VertexShift, starts, n: int) -> list[tuple[int, ...]]:
    """The words of length n from the symbol indices ``starts``, as index tuples."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [()]
    succ = [[j for j, e in enumerate(row) if e] for row in shift.matrix]
    stack = [(i,) for i in starts]
    words = []
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            words.append(prefix)
        else:
            stack.extend(prefix + (j,) for j in succ[prefix[-1]])
    return words


def is_irreducible(shift: VertexShift) -> bool:
    """True iff every vertex reaches every vertex along a path of length >= 1."""
    k = shift.size
    if k == 1:
        return shift.matrix[0][0] == 1
    return _spans(shift.matrix, 0) and _spans(_transpose(shift.matrix), 0)


def _transpose(matrix):
    return tuple(tuple(row[i] for row in matrix) for i in range(len(matrix)))


def _spans(matrix, start) -> bool:
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j, e in enumerate(matrix[i]):
            if e and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(matrix)


def _walks(matrix, start):
    """start·A^n for n = 0, 1, 2, ...: the vector recurrence v -> vA.

    Entry j of start·A^n sums start_i over the walks of n edges from i to j.
    """
    cols = [[i for i, row in enumerate(matrix) if row[j]] for j in range(len(matrix))]
    vector = list(start)
    while True:
        yield vector
        vector = [sum([vector[i] for i in col]) for col in cols]


def _char_det(matrix) -> list[int]:
    """Coefficients of det(I - zA), by Newton's identities on trace powers."""
    k = len(matrix)
    traces = [0] * (k + 1)
    for i in range(k):
        unit = [int(j == i) for j in range(k)]
        for n, vector in enumerate(islice(_walks(matrix, unit), k + 1)):
            traces[n] += vector[i]
    elem = [1]
    for i in range(1, k + 1):
        acc = sum((-1) ** (j - 1) * elem[i - j] * traces[j] for j in range(1, i + 1))
        quot, rem = divmod(acc, i)
        if rem:
            raise ArithmeticError(f"non-integer elementary symmetric value {acc}/{i}")
        elem.append(quot)
    return [(-1) ** i * e for i, e in enumerate(elem)]


def word_counts(shift: VertexShift, order: int) -> list[int]:
    """Number of length-n words for n = 1..order: the entry sum of A^(n-1).

    The walk starts from the all-ones vector, so entry j of its n-th step
    counts the words of length n + 1 that end at symbol j.
    """
    return [sum(v) for v in islice(_walks(shift.matrix, [1] * shift.size), order)]


def zeta_rational(shift: VertexShift) -> RationalFunction:
    return RationalFunction([1], _char_det(shift.matrix))


def zeta(shift: VertexShift, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    return zeta_rational(shift).expand(order)


def periodic_counts(shift: VertexShift, order: int = DEFAULT_ORDER) -> ArithSequence:
    """p_n = trace(A^n) for n = 1..order, read off the zeta function.

    With D = det(I - zA) = 1/zeta, log zeta = sum_n p_n z^n / n, so
    sum_n p_n z^n = -z D'/D.
    """
    det = _char_det(shift.matrix)
    series = RationalFunction([-n * c for n, c in enumerate(det)], det).expand(order)
    return ArithSequence(series.coeffs[1:])


def periodic_orbit_counts(shift: VertexShift, order: int = DEFAULT_ORDER) -> ArithSequence:
    """Necklace counts: closed orbits of length dividing n."""
    return _necklaces(periodic_counts(shift, order))


def _necklaces(p: ArithSequence) -> ArithSequence:
    """Burnside on the periodic counts p."""
    return ArithSequence(burnside(n, n, lambda k: p[n // k]) for n in range(1, len(p) + 1))


def first_return(shift: VertexShift, symbol: str, order: int = DEFAULT_ORDER) -> LoopSystem:
    """The loop system at ``symbol``: 1 - det(I-zA)/det(I-zB), B = A minus 𝔰.

    The series is num/den with den(0) = 1, so past deg num its coefficients
    follow the recurrence of den, and a polynomial quotient has degree at
    most deg num.  The support is therefore bounded exactly when the deg den
    coefficients after deg num vanish; its maximum is then the last nonzero
    coefficient.
    """
    s = shift.alphabet.index(symbol)
    det_a = _char_det(shift.matrix)
    minor = tuple(
        tuple(e for j, e in enumerate(row) if j != s)
        for i, row in enumerate(shift.matrix)
        if i != s
    )
    det_b = _char_det(minor)
    form = RationalFunction([b - a for a, b in zip_longest(det_a, det_b, fillvalue=0)], det_b)
    top = len(form.numerator) - 1
    window = len(form.denominator) - 1
    coeffs = form.expand(max(order, top + window)).coeffs
    unbounded = any(coeffs[top + 1 : top + window + 1])
    bound = None if unbounded else max((k for k, c in enumerate(coeffs) if c), default=None)
    support = frozenset(k for k in range(1, order + 1) if coeffs[k])
    return LoopSystem(symbol, TruncatedSeries(coeffs, order), support, unbounded, bound)


def first_return_matrix(shift: VertexShift, distinguished, order: int = DEFAULT_ORDER):
    """Return series table {(s, t): f}: first passages from s to t outside D.

    The z^n coefficient, n >= 2, is A[s, R]·B^(n-2)·A[R, t] with R the
    non-distinguished symbols and B = A[R, R]: one walk inside B from each
    start s, dotted with the closing column of each t.
    """
    dset = tuple(distinguished)
    if not dset:
        raise ValueError("distinguished set is empty")
    idx = [shift.alphabet.index(s) for s in dset]
    a = shift.matrix
    rest = [v for v in range(shift.size) if v not in idx]
    sub = [[a[u][v] for v in rest] for u in rest]
    table = {}
    for s, si in zip(dset, idx):
        walks = list(islice(_walks(sub, [a[si][v] for v in rest]), max(order - 1, 0)))
        for t, ti in zip(dset, idx):
            close = [a[v][ti] for v in rest]
            coeffs = [0, a[si][ti]] + [sum(map(mul, v, close)) for v in walks]
            table[(s, t)] = TruncatedSeries(coeffs, order)
    return table


def language_dims(shift: VertexShift, order: int = DEFAULT_ORDER) -> DimReport:
    """Transversal and orbital dimensions of L_n for n = 1..order.

    Of the w_n words, p_n close up (the last symbol may precede the first);
    their classes are the necklaces, and their orbits stay inside them.  No
    rotation of any other word is admissible, so each of the w_n - p_n
    stranded words is a class of its own whose orbit has all n rotations.
    """
    words = word_counts(shift, order)
    p = periodic_counts(shift, order)
    necklaces = _necklaces(p)
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
    must be whitespace-separated.
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
        blocks.append(tuple(line.split()) if " " in line else tuple(line))
    if not blocks:
        raise ValueError("no forbidden blocks in file")
    if symbols is None:
        symbols = tuple(sorted({letter for b in blocks for letter in b}))
    return SftPresentation.of(symbols, blocks)
