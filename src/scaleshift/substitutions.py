"""Iterated morphisms and the scale sets of their fixed points.

A morphism whose seed image starts with the seed converges to a
one-sided fixed point.  Its admissible n-blocks are collected from
iterate prefixes until the block set stops growing, with a recorded
certificate; the blocks then induce scales through the distinguished
first symbol, grouped per symbol and combined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

from .combinatorics import Composition, rotation_dims
from .scales import induced_scale
from .shiftspace import Alphabet, Word

ITERATION_CAP = 30


class StabilizationError(RuntimeError):
    """The block language kept changing within the iteration budget."""


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
        return tuple(chain.from_iterable(self.image(letter) for letter in word))

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.symbols),
            "rules": {symbol: list(image) for symbol, image in self.rules},
            "seed": self.seed,
        }


def morphism_from_json(text: str) -> Morphism:
    """Parse {"alphabet": [...], "rules": {sym: word}, "seed": sym}."""
    data = json.loads(text)
    rules = data["rules"]
    if not isinstance(rules, dict):
        raise ValueError("rules must be a mapping")
    if "alphabet" in data:
        declared = list(data["alphabet"])
        if sorted(declared) != sorted(rules):
            raise ValueError("alphabet and rule heads disagree")
        rules = {symbol: rules[symbol] for symbol in declared}
    return Morphism.of(rules, data["seed"])


PRESETS = {
    "thue-morse": Morphism.of({"∘": "∘•", "•": "•∘"}, "∘"),
    "fibonacci": Morphism.of({"∘": "∘•", "•": "∘"}, "∘"),
    "feigenbaum": Morphism.of({"∘": "••", "•": "•∘"}, "•"),
}


@dataclass(frozen=True)
class StabilizationCertificate:
    """Evidence that the n-block set of the fixed point was exhausted.

    Two consecutive iterates produced the same block set and the later
    iterate is at least 4n letters long.
    """

    n: int
    iterations: int
    prefix_length: int
    blocks: frozenset[Word]


def stabilized_blocks(morphism: Morphism, n: int) -> StabilizationCertificate:
    if n < 1:
        raise ValueError("block length must be >= 1")
    word = (morphism.seed,)
    previous = None
    for step in range(1, ITERATION_CAP + 1):
        word = morphism.apply(word)
        blocks = frozenset(
            word[i:i + n] for i in range(len(word) - n + 1)
        )
        if blocks == previous and len(word) >= 4 * n:
            return StabilizationCertificate(n, step, len(word), blocks)
        previous = blocks
    raise StabilizationError(
        f"{n}-block set not certified after {ITERATION_CAP} iterations"
    )


def block_language(morphism: Morphism, n: int) -> frozenset[Word]:
    """The admissible n-blocks of the fixed point."""
    return stabilized_blocks(morphism, n).blocks


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


def substitution_scales(morphism: Morphism, n: int) -> ScaleStudy:
    """Scales induced by the admissible n-blocks of the fixed point."""
    blocks = block_language(morphism, n)
    per_symbol = {
        symbol: frozenset(
            induced_scale(block) for block in blocks if block[0] == symbol
        )
        for symbol in morphism.alphabet
    }
    combined = frozenset().union(*per_symbol.values())
    return ScaleStudy(n, per_symbol, combined, *rotation_dims(combined))
