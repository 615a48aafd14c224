"""Iterated morphisms and the scale sets of their fixed points.

A morphism whose seed image starts with the seed converges to a
one-sided fixed point.  Its n-block language is computed exactly, as the
closure of the fixed point's first n-block under the morphism; the blocks
then induce scales through the distinguished first symbol, grouped per
symbol and combined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

from .combinatorics import Composition, rotation_dims
from .scales import DEFAULT_CAP, EnumerationCapError, induced_scale
from .shiftspace import Alphabet, Word


@dataclass(frozen=True)
class Morphism:
    alphabet: Alphabet
    rules: tuple[tuple[str, Word], ...]
    seed: str

    def __post_init__(self):
        heads = [symbol for symbol, _ in self.rules]
        if sorted(heads) != sorted(self.alphabet.symbols):
            raise ValueError("rules must cover the alphabet exactly once each")
        for symbol, image in self.rules:
            if not image:
                raise ValueError(f"empty image for {symbol!r}")
            for letter in image:
                if letter not in self.alphabet:
                    raise ValueError(f"image of {symbol!r} uses unknown {letter!r}")
        if self.seed not in self.alphabet:
            raise ValueError(f"seed {self.seed!r} not in alphabet")
        start = self.image(self.seed)
        if start[0] != self.seed or len(start) < 2:
            raise ValueError(
                "seed image must start with the seed and have length >= 2"
            )

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

    def apply(self, word: Word) -> Word:
        images = dict(self.rules)
        return tuple(chain.from_iterable(map(images.__getitem__, word)))


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


def block_language(morphism: Morphism, n: int, cap: int = DEFAULT_CAP) -> frozenset[Word]:
    """The n-blocks of the fixed point u = σ(u) that starts with the seed.

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

    Each block added to S is charged against ``cap``.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    # u = σ(u_0) σ(u_1) ..., so the prefix extends itself letter by letter.
    prefix = list(morphism.image(morphism.seed))
    i = 1
    while len(prefix) < n:
        prefix += morphism.image(prefix[i])
        i += 1
    blocks = set()
    pending = [tuple(prefix[:n])]
    while pending:
        block = pending.pop()
        if block in blocks:
            continue
        blocks.add(block)
        if len(blocks) > cap:
            raise EnumerationCapError(f"the {n}-block language has more than {cap} blocks")
        image = morphism.apply(block)
        pending.extend(image[r:r + n] for r in range(len(morphism.image(block[0]))))
    return frozenset(blocks)


@dataclass(frozen=True, eq=False)
class ScaleStudy:
    """Scale sets of the n-blocks, per distinguished symbol and combined."""

    n: int
    per_symbol: dict[str, frozenset[Composition]] = field(repr=False)
    combined: frozenset[Composition] = field(repr=False)
    transversal_dim: int
    orbital_dim: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "transversal_dim": self.transversal_dim,
            "orbital_dim": self.orbital_dim,
            "combined_size": len(self.combined),
            "combined": [list(c) for c in sorted(self.combined)],
            "per_symbol": {
                symbol: [list(c) for c in sorted(scales)]
                for symbol, scales in self.per_symbol.items()
            },
        }


def substitution_scales(morphism: Morphism, n: int, cap: int = DEFAULT_CAP) -> ScaleStudy:
    """Scales induced by the admissible n-blocks of the fixed point."""
    blocks = block_language(morphism, n, cap)
    per_symbol = {
        symbol: frozenset(
            induced_scale(block) for block in blocks if block[0] == symbol
        )
        for symbol in morphism.alphabet
    }
    combined = frozenset().union(*per_symbol.values())
    return ScaleStudy(n, per_symbol, combined, *rotation_dims(combined))
