"""Iterated morphisms and the scale sets of their fixed points.

A morphism whose seed image starts with the seed converges to a
one-sided fixed point.  Its n-block language is computed exactly, as the
closure of the fixed point's first n-block under the morphism; the blocks
then induce scales through the distinguished first symbol, grouped per
symbol and combined.  A block is a string with one code point per letter,
the letter's index in the alphabet, and a scale is its visit pattern (see
``combinatorics.composition_of``).
"""

from __future__ import annotations

import json

from .combinatorics import pattern_classes, scales_json
from .scales import DEFAULT_CAP, EnumerationCapError
from .shiftspace import Alphabet, Word
from .values import Frozen, Value


class Morphism(Value):
    __slots__ = ("alphabet", "rules", "seed")

    def __init__(self, alphabet: Alphabet, rules: tuple[tuple[str, Word], ...], seed: str):
        heads = [symbol for symbol, _ in rules]
        if sorted(heads) != sorted(alphabet.symbols):
            raise ValueError("rules must cover the alphabet exactly once each")
        for symbol, image in rules:
            if not image:
                raise ValueError(f"empty image for {symbol!r}")
            for letter in image:
                if letter not in alphabet:
                    raise ValueError(f"image of {symbol!r} uses unknown {letter!r}")
        if seed not in alphabet:
            raise ValueError(f"seed {seed!r} not in alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "seed", seed)
        start = self.image(seed)
        if start[0] != seed or len(start) < 2:
            raise ValueError(
                "seed image must start with the seed and have length >= 2"
            )

    def _key(self) -> tuple:
        return self.alphabet, self.rules, self.seed

    @classmethod
    def of(cls, rules: dict, seed: str) -> "Morphism":
        """Build from a mapping symbol -> word (string or letter sequence)."""
        pairs = tuple((symbol, tuple(image)) for symbol, image in rules.items())
        return cls(Alphabet.of(symbol for symbol, _ in pairs), pairs, seed)

    def image(self, symbol: str) -> Word:
        for head, body in self.rules:
            if head == symbol:
                return body
        raise ValueError(f"unknown symbol {symbol!r}")


def morphism_from_json(text: str) -> Morphism:
    """Parse {"alphabet": [...], "rules": {sym: word}, "seed": sym}."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("the rules file must hold a JSON object")
    for key in ("rules", "seed"):
        if key not in data:
            raise ValueError(f"missing {key!r}")
    rules = data["rules"]
    if not isinstance(rules, dict):
        raise ValueError("rules must be a mapping")
    for symbol, image in rules.items():
        if not _is_word(image):
            raise ValueError(f"image of {symbol!r} must be a string or a list of strings")
    if "alphabet" in data:
        if not _is_word(data["alphabet"]):
            raise ValueError("alphabet must be a string or a list of strings")
        declared = list(data["alphabet"])
        if sorted(declared) != sorted(rules):
            raise ValueError("alphabet and rule heads disagree")
        rules = {symbol: rules[symbol] for symbol in declared}
    return Morphism.of(rules, data["seed"])


def _is_word(value) -> bool:
    return isinstance(value, (str, list)) and all(isinstance(c, str) for c in value)


PRESETS = {
    "thue-morse": Morphism.of({"∘": "∘•", "•": "•∘"}, "∘"),
    "fibonacci": Morphism.of({"∘": "∘•", "•": "∘"}, "∘"),
    "feigenbaum": Morphism.of({"∘": "••", "•": "•∘"}, "•"),
}


def block_language(morphism: Morphism, n: int, cap: int = DEFAULT_CAP) -> frozenset[str]:
    """The n-blocks of the fixed point u = σ(u) that starts with the seed,
    each a string of n code points, chr(i) for the alphabet's symbol i.

    They form the least set S that holds u[0:n] and, with every block v,
    the blocks σ(v)[r:r+n] for 0 <= r < |σ(v_0)|.  Every such slice fits,
    because each image is non-empty: |σ(v)| >= |σ(v_0)| + n - 1.

    S holds every block of u, by induction on its position i.  At i = 0 it
    is u[0:n].  At i > 0: as u = σ(u), position i lies in the image σ(u_j)
    of a unique j, so the block is σ(v)[r:r+n] with v = u[j:j+n] and
    r < |σ(v_0)|.  Since |σ(u_0)| >= 2 and every image is non-empty, the
    images of u_0 .. u_{j-1} cover at least j + 1 letters when j >= 1;
    either way j < i, so v is in S.  Conversely σ maps blocks of u to
    factors of σ(u) = u, so every element of S is a block of u.

    σ is one ``str.translate``, with each code point's image as its value.
    Each block added to S is charged against ``cap``.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    symbols = morphism.alphabet.symbols
    images = {
        i: "".join(chr(symbols.index(letter)) for letter in morphism.image(symbol))
        for i, symbol in enumerate(symbols)
    }
    heads = [len(images[i]) for i in range(len(symbols))]
    # u = σ(u_0) σ(u_1) ..., so the prefix extends itself letter by letter.
    prefix = images[symbols.index(morphism.seed)]
    i = 1
    while len(prefix) < n:
        prefix += images[ord(prefix[i])]
        i += 1
    blocks = set()
    pending = [prefix[:n]]
    while pending:
        block = pending.pop()
        if block in blocks:
            continue
        blocks.add(block)
        if len(blocks) > cap:
            raise EnumerationCapError(f"the {n}-block language has more than {cap} blocks")
        image = block.translate(images)
        pending.extend([image[r:r + n] for r in range(heads[ord(block[0])])])
    return frozenset(blocks)


class ScaleStudy(Frozen):
    """Scale sets of the n-blocks, as visit patterns, per distinguished symbol
    and combined.

    ``transversal`` holds the least member of each rotation class that the
    combined set meets, the largest pattern, and ``orbital_dim`` the size of
    their orbits' union.
    """

    __slots__ = ("n", "per_symbol", "combined", "transversal", "orbital_dim")

    def __init__(
        self,
        n: int,
        per_symbol: dict[str, frozenset[int]],
        combined: frozenset[int],
        transversal: frozenset[int],
        orbital_dim: int,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "per_symbol", per_symbol)
        object.__setattr__(self, "combined", combined)
        object.__setattr__(self, "transversal", transversal)
        object.__setattr__(self, "orbital_dim", orbital_dim)

    @property
    def transversal_dim(self) -> int:
        return len(self.transversal)

    def to_json(self) -> dict:
        """The study as a JSON object; its scale lists are ``JsonText``, ascending
        compositions, and each distinct scale is spelled once, in ``combined``,
        which is spelled first."""
        spelled: dict[int, str] = {}

        def spell(scales: frozenset[int]):
            return scales_json(sorted(scales, reverse=True), spelled)

        return {
            "combined": spell(self.combined),
            "n": self.n,
            "transversal_dim": self.transversal_dim,
            "orbital_dim": self.orbital_dim,
            "combined_size": len(self.combined),
            "transversal": spell(self.transversal),
            "per_symbol": {symbol: spell(scales) for symbol, scales in self.per_symbol.items()},
        }


def substitution_scales(morphism: Morphism, n: int, cap: int = DEFAULT_CAP) -> ScaleStudy:
    """Scales induced by the admissible n-blocks of the fixed point.

    The scale of a block with first letter a is its visit pattern: the block
    read as binary, a 1 for each a and a 0 for every other letter.
    """
    blocks = block_language(morphism, n, cap)
    symbols = morphism.alphabet.symbols
    marks = [{j: "01"[j == a] for j in range(len(symbols))} for a in range(len(symbols))]
    scales = [set() for _ in symbols]
    for block in blocks:
        a = ord(block[0])
        scales[a].add(int(block.translate(marks[a]), 2))
    per_symbol = dict(zip(symbols, map(frozenset, scales)))
    combined = frozenset().union(*scales)
    transversal, orbital = pattern_classes(set(combined))
    return ScaleStudy(n, per_symbol, combined, frozenset(transversal), orbital)
