"""Reference data shared across test modules.

Composition sets and expected numbers for the built-in case studies:
the golden mean shift, the two-step SFT with forbidden blocks
{distinguished-pair, triple}, and the three substitution sequences.
Words are spelled as strings over the two-symbol alphabet and turned
into letter tuples with `w`; `rotate` and `orbit` are the brute-force
rotation helpers the tests compare the library's rotation counts against,
`keyed_classes_ref` the least-rotation-keyed reference for sets too large for them,
`pattern_of` a composition's visit pattern by the gap rule, which the
scale walk's appended bits are checked against,
`series_product` the schoolbook product they check closed forms against,
`dense_first_return_matrix` the dense first-passage walk they check the
absorbing walk against, `pairwise_normalized`, `pairwise_blocks` and
`pairwise_block_rows` the every-pair subword tests they check the
forbidden-window lookups and the block graph's edge lookups against, and
`forward_word_counts` the forward walk per start the price walk is checked against,
and `apply`, `induced_scale`, `block_language_ref` and `substitution_scales_ref`
the letter-tuple substitution path that the string and pattern path is checked
against (`letters` and `spelled_study` spell that path's results as tuples).
"""

from itertools import chain, product
from operator import mul

from scaleshift.combinatorics import composition_of, least_rotation
from scaleshift.series import TruncatedSeries

CIRC = "∘"   # open note symbol
BULL = "•"   # closed note symbol


def w(text):
    """Spell a word string as a tuple of single-character symbols."""
    return tuple(text)


def rotate(c, j):
    """Cyclic left shift of a composition by j positions; negative j rotates right."""
    if len(c) < 2:
        return c
    j %= len(c)
    return c[j:] + c[:j]


def orbit(c):
    """All distinct rotations of c, the windows of c + c; the modes of the scale c encodes."""
    doubled = c + c
    return frozenset(doubled[j : j + len(c)] for j in range(max(len(c), 1)))


def rotation_classes_ref(members):
    """(the least member of each rotation class, the size of the union of the orbits).

    Takes any c from a copy of ``members``, strikes its rotations (the windows
    of c + c) from the copy, and keeps the least of c and the members struck.
    """
    rest = set(members)
    least, union = set(), set()
    while rest:
        c = rest.pop()
        windows = orbit(c)
        least.add(min(windows & rest | {c}))
        rest -= windows
        union |= windows
    return least, len(union)


def keyed_classes_ref(members):
    """``rotation_classes_ref``'s answer with no orbit built: the least member per
    ``least_rotation`` key, and the sum over the keys of their least periods, the
    least d dividing the length with c[d:] + c[:d] == c."""
    least = {}
    for c in members:
        key = least_rotation(c)
        least[key] = min(least.get(key, c), c)
    orbital = sum(
        next(d for d in range(1, len(c) + 1) if len(c) % d == 0 and c[d:] + c[:d] == c) if c else 1
        for c in least
    )
    return set(least.values()), orbital


def class_dims_ref(members):
    """(transversal, orbital) of ``members``: the two counts ``rotation_classes_ref`` gives."""
    least, orbital = rotation_classes_ref(members)
    return len(least), orbital


def pattern_of(c):
    """The visit pattern of a composition, by the gap rule: closing gap g on the
    pattern p gives p << g | 1 << g - 1, from the empty pattern 0.  The scale
    walk appends one bit per symbol instead, so this rule checks it."""
    p = 0
    for g in c:
        p = p << g | 1 << g - 1
    return p


def series_product(f, g):
    """The product of two truncated series, cut at their common order, term by term."""
    if f.order != g.order:
        raise ValueError(f"mismatched truncation orders {f.order} and {g.order}")
    n = f.order
    out = [0] * (n + 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j in range(n + 1 - i):
                out[i + j] += a * g.coeffs[j]
    return TruncatedSeries(out, n)


def dense_first_return_matrix(shift, distinguished, order):
    """The first-passage table {(s, t): f} by the dense walk inside the minor.

    The z^n coefficient, n >= 2, is A[s, R]·B^(n-2)·A[R, t] with R the
    non-distinguished symbols and B = A[R, R]: one walk inside B from each
    start s, dotted with the closing column of each t.
    """
    idx = [shift.alphabet.index(s) for s in distinguished]
    a = shift.matrix
    rest = [v for v in range(shift.size) if v not in idx]
    table = {}
    for s, si in zip(distinguished, idx):
        walks = []
        vector = [a[si][v] for v in rest]
        for _ in range(order - 1):
            walks.append(vector)
            vector = [sum(vector[i] * a[u][v] for i, u in enumerate(rest)) for v in rest]
        for t, ti in zip(distinguished, idx):
            close = [a[v][ti] for v in rest]
            coeffs = [0, a[si][ti]] + [sum(map(mul, v, close)) for v in walks]
            table[(s, t)] = TruncatedSeries(coeffs, order)
    return table


def apply(morphism, word):
    """σ(word), for a word spelled as a tuple of letters."""
    images = dict(morphism.rules)
    return tuple(chain.from_iterable(images[letter] for letter in word))


def induced_scale(word):
    """Gaps between occurrences of the first symbol, last gap wrapping."""
    if not word:
        raise ValueError("the empty word induces no scale")
    first = word[0]
    stops = [i for i, symbol in enumerate(word) if symbol == first] + [len(word)]
    return tuple(b - a for a, b in zip(stops, stops[1:]))


def block_language_ref(morphism, n):
    """The n-blocks of the fixed point as letter tuples: ``block_language``'s closure,
    with σ applied by ``apply``."""
    prefix = list(morphism.image(morphism.seed))
    i = 1
    while len(prefix) < n:
        prefix += morphism.image(prefix[i])
        i += 1
    blocks = set()
    pending = [tuple(prefix[:n])]
    while pending:
        block = pending.pop()
        if block not in blocks:
            blocks.add(block)
            image = apply(morphism, block)
            pending.extend(image[r:r + n] for r in range(len(morphism.image(block[0]))))
    return frozenset(blocks)


def letters(morphism, block):
    """A block of ``block_language``, chr(i) for symbol i, as a tuple of letters."""
    return tuple(morphism.alphabet.symbols[ord(code)] for code in block)


def substitution_scales_ref(morphism, n):
    """(per_symbol, combined, transversal, orbital) of the n-blocks, scales as
    compositions: ``induced_scale`` of every block of ``block_language_ref``,
    and ``rotation_classes_ref`` of their union."""
    blocks = block_language_ref(morphism, n)
    per_symbol = {
        symbol: frozenset(induced_scale(block) for block in blocks if block[0] == symbol)
        for symbol in morphism.alphabet
    }
    combined = frozenset().union(*per_symbol.values())
    least, orbital = rotation_classes_ref(combined)
    return per_symbol, combined, frozenset(least), orbital


def spelled_study(study):
    """A ``ScaleStudy``'s fields as ``substitution_scales_ref`` gives them."""
    def spell(patterns):
        return frozenset(map(composition_of, patterns))

    per_symbol = {symbol: spell(scales) for symbol, scales in study.per_symbol.items()}
    return per_symbol, spell(study.combined), spell(study.transversal), study.orbital_dim


def is_subword(needle, haystack):
    """True when ``needle`` occurs in ``haystack`` as a run of consecutive letters."""
    k = len(needle)
    return any(haystack[i:i + k] == needle for i in range(len(haystack) - k + 1))


def pairwise_normalized(blocks):
    """The forbidden blocks that contain no other one, each pair tested in turn."""
    words = {tuple(b) for b in blocks}
    return frozenset(b for b in words if not any(o != b and is_subword(o, b) for o in words))


def pairwise_blocks(symbols, forbidden, m):
    """The m-blocks over ``symbols`` that contain no forbidden block, each pair tested in turn."""
    return tuple(
        b for b in product(symbols, repeat=m) if not any(is_subword(f, b) for f in forbidden)
    )


def pairwise_block_rows(blocks, forbidden):
    """The 0/1 rows of the block graph, every pair of blocks tested in turn: u -> v
    when v extends u by one letter and u + v[-1] contains no forbidden block."""
    return tuple(
        tuple(
            int(u[1:] == v[:-1] and not any(is_subword(f, u + v[-1:]) for f in forbidden))
            for v in blocks
        )
        for u in blocks
    )


def forward_word_counts(matrix, start, order):
    """Words of lengths 1..order from symbol ``start``: the entry sums of
    e_start·A^(n-1), one forward walk from the indicator vector of ``start``."""
    k = len(matrix)
    vector = [int(i == start) for i in range(k)]
    counts = []
    for _ in range(order):
        counts.append(sum(vector))
        vector = [sum(vector[i] * matrix[i][j] for i in range(k)) for j in range(k)]
    return counts


# Golden mean shift: matrix rows over alphabet (CIRC, BULL).
GOLDEN_ROWS = ((1, 1), (1, 0))

# trace(A^n) for n = 1..12 (the Lucas numbers).
GOLDEN_P = (1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322)
# Mobius inversion of GOLDEN_P.
GOLDEN_Q = (1, 2, 3, 4, 10, 12, 28, 40, 72, 110, 198, 300)
# q_n / n.
GOLDEN_Q_ORBITS = (1, 1, 1, 1, 2, 2, 4, 5, 8, 11, 18, 25)
# necklace counts sum_{k|n} q_k / k.
GOLDEN_QBAR = (1, 2, 2, 3, 3, 5, 5, 8, 10, 15, 19, 31)

# Language dimensions for n = 1..N.
GOLDEN_LANG_T = (2, 2, 3, 4, 5, 8)
GOLDEN_LANG_O = (2, 3, 7, 11, 21, 36, 64, 111, 193)

# Transversal witness word sets for the language, n = 1..6.
GOLDEN_LANG_WITNESSES = {
    1: {w(CIRC), w(BULL)},
    2: {w(CIRC + CIRC), w(CIRC + BULL)},
    3: {w(CIRC * 3), w(CIRC + CIRC + BULL), w(BULL + CIRC + BULL)},
    4: {
        w(CIRC * 4),
        w(CIRC * 3 + BULL),
        w(CIRC + BULL + CIRC + BULL),
        w(BULL + CIRC + CIRC + BULL),
    },
    5: {
        w(CIRC * 5),
        w(CIRC * 4 + BULL),
        w(CIRC + CIRC + BULL + CIRC + BULL),
        w(BULL + CIRC * 3 + BULL),
        w(BULL + CIRC + BULL + CIRC + BULL),
    },
    6: {
        w(CIRC * 6),
        w(CIRC * 5 + BULL),
        w(CIRC * 3 + BULL + CIRC + BULL),
        w(CIRC + CIRC + BULL + CIRC + CIRC + BULL),
        w((CIRC + BULL) * 3),
        w(BULL + CIRC * 4 + BULL),
        w(BULL + CIRC + CIRC + BULL + CIRC + BULL),
        w(BULL + CIRC + BULL + CIRC + CIRC + BULL),
    },
}

# 5-TET scale sets.
GOLDEN_C5_CIRC = {
    (1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1),
    (2, 1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1),
}
GOLDEN_C5_BULL = {(5,), (4, 1), (3, 2), (2, 3), (2, 2, 1)}
GOLDEN_C5_ALL = GOLDEN_C5_CIRC | GOLDEN_C5_BULL          # 12 elements
GOLDEN_T5_CIRC = {(1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 2)}
GOLDEN_T5_BULL = {(5,), (3, 2), (4, 1), (2, 2, 1)}
GOLDEN_W5_BULL = {(5,), (2, 3)}                          # wheel reps
GOLDEN_A5_BULL = {(4, 1), (2, 2, 1)}
GOLDEN_MODES5 = {
    (1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1),
    (2, 1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2),
    (5,), (3, 2), (2, 3), (4, 1), (1, 4),
}

# Series prefixes, index i holds the z^(i+1) coefficient.
GOLDEN_W_CIRC = (1, 2, 2, 3, 3, 5, 5, 8, 10, 15, 19, 31)
GOLDEN_W_BULL = (0, 1, 1, 2, 2, 4, 4, 7, 9, 14, 18, 30)
GOLDEN_A_BULL = (1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)
GOLDEN_B_BULL = (1, 0, 2, 2, 5, 8, 15, 26, 46, 80, 139, 240)
GOLDEN_C_BULL = (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)   # parts >= 2
GOLDEN_GLOBAL_T = (1, 2, 3, 5, 6, 11, 13, 22, 31, 49, 70, 115)
GOLDEN_GLOBAL_O = (1, 2, 4, 8, 13, 25, 40, 72, 117)         # n = 1..9
GOLDEN_GLOBAL_O12 = 561
GOLDEN_GLOBAL_COUNTS = (1, 2, 4, 7, 12, 20, 33, 54, 88, 143)  # n = 1..10
GOLDEN_GLOBAL_COUNT12 = 376

# Two-step SFT with forbidden blocks {BULL BULL, CIRC CIRC CIRC}.
SFT2_FORBIDDEN = {w(BULL + BULL), w(CIRC * 3)}
SFT2_BLOCKS = (w(CIRC + CIRC), w(CIRC + BULL), w(BULL + CIRC))
SFT2_ROWS = ((0, 1, 0), (0, 0, 1), (1, 1, 0))

# Three-step SFT with forbidden blocks {BULL BULL, BULL CIRC CIRC CIRC}.
THREESTEP_FORBIDDEN = {w(BULL + BULL), w(BULL + CIRC * 3)}

# Substitution fixed point prefixes.
TM_PREFIX_16 = w(
    CIRC + BULL + BULL + CIRC + BULL + CIRC + CIRC + BULL
    + BULL + CIRC + CIRC + BULL + CIRC + BULL + BULL + CIRC
)
FIB_PREFIX_13 = w(
    CIRC + BULL + CIRC + CIRC + BULL + CIRC + BULL + CIRC
    + CIRC + BULL + CIRC + CIRC + BULL
)
FEIG_PREFIX_12 = w(
    BULL + CIRC + BULL + BULL + BULL + CIRC + BULL + CIRC
    + BULL + CIRC + BULL + BULL
)

# Thue-Morse 12-note scale set (18 compositions).
TM_SCALES = frozenset({
    (3, 2, 1, 3, 1, 2),
    (3, 2, 1, 2, 3, 1),
    (3, 1, 3, 2, 1, 2),
    (2, 1, 3, 1, 2, 3),
    (2, 1, 2, 3, 1, 3),
    (1, 3, 2, 1, 2, 3),
    (1, 3, 1, 2, 3, 2),
    (1, 2, 3, 1, 3, 2),
    (1, 3, 1, 2, 3, 1, 1),
    (3, 1, 2, 3, 2, 1),
    (2, 3, 1, 3, 2, 1),
    (3, 1, 2, 3, 1, 2),
    (1, 2, 3, 2, 1, 2, 1),
    (1, 2, 3, 2, 1, 3),
    (2, 3, 2, 1, 2, 2),
    (2, 3, 2, 1, 3, 1),
    (1, 3, 2, 1, 3, 1, 1),
    (2, 1, 2, 3, 2, 1, 1),
})
TM_DIM_T = 8
TM_DIM_O = 49

# Fibonacci 12-note scale sets, grouped by first symbol.
FIB_SCALES_CIRC = frozenset({
    (1, 2, 1, 2, 2, 1, 2, 1),
    (1, 2, 2, 1, 2, 1, 2, 1),
    (1, 2, 2, 1, 2, 2, 1, 1),
    (2, 1, 2, 1, 2, 2, 1, 1),
    (2, 1, 2, 2, 1, 2, 1, 1),
    (2, 1, 2, 2, 1, 2, 2),
    (2, 2, 1, 2, 1, 2, 2),
    (2, 2, 1, 2, 2, 1, 2),
})
FIB_SCALES_BULL = frozenset({
    (3, 3, 2, 3, 1),
    (3, 2, 3, 3, 1),
    (3, 2, 3, 2, 2),
    (2, 3, 3, 2, 2),
    (2, 3, 2, 3, 2),
})
FIB_SCALES = FIB_SCALES_CIRC | FIB_SCALES_BULL            # 13 elements
FIB_BLOCK_COUNT_12 = 13
FIB_DIM_T = 10
FIB_DIM_O = 66

# Feigenbaum 12-note scale sets, grouped by first symbol.
FEIG_SCALES_CIRC = frozenset({
    (2, 2, 4, 2, 2),
    (2, 2, 4, 4),
    (2, 4, 2, 2, 2),
    (2, 4, 4, 2),
    (4, 2, 2, 4),
    (4, 4, 2, 2),
    (4, 4, 4),
})
FEIG_SCALES_BULL = frozenset({
    (2, 2, 2, 1, 1, 2, 2),
    (2, 2, 2, 1, 1, 2, 1, 1),
    (2, 2, 1, 1, 2, 2, 2),
    (2, 2, 1, 1, 2, 1, 1, 2),
    (2, 1, 1, 2, 2, 2, 1, 1),
    (2, 1, 1, 2, 1, 1, 2, 2),
    (2, 1, 1, 2, 1, 1, 2, 1, 1),
    (1, 2, 2, 2, 1, 1, 2, 1),
    (1, 2, 1, 1, 2, 2, 2, 1),
    (1, 2, 1, 1, 2, 1, 1, 2, 1),
    (1, 1, 2, 2, 2, 1, 1, 2),
    (1, 1, 2, 1, 1, 2, 2, 2),
    (1, 1, 2, 1, 1, 2, 1, 1, 2),
})
FEIG_SCALES = FEIG_SCALES_CIRC | FEIG_SCALES_BULL         # 20 elements
FEIG_DIM_T = 6
FEIG_DIM_O = 28

# Wheel counts over unrestricted parts: W(z) prefix and the 12-TET row.
WHEELS_PREFIX = (1, 2, 3, 5, 7, 13)
WHEELS_12 = 351
WHEELS_12_BY_LENGTH = (1, 6, 19, 43, 66, 80, 66, 43, 19, 6, 1, 1)
