"""Sweep every 0/1 matrix on 4 symbols, up to relabelling, against the oracle.

For each of the 3,044 matrices up to a simultaneous permutation of rows
and columns, and each n <= 8, the oracle's brute-force levels must equal
``language_dims``, ``symbol_dims`` at every symbol and ``global_dims``.
Every quantity is equivariant under relabelling, so one matrix per class
covers the class; the tier-1 tests cover every matrix on up to 3 symbols.
It takes seconds, so it runs as a CI step and not under pytest:

    PYTHONPATH=src python tests/sweep_oracle4.py

It prints its wall time and exits 1 on the first mismatch.
"""

from __future__ import annotations

import sys
import time
from itertools import permutations, product

from scaleshift.oracle import oracle_levels
from scaleshift.scales import global_dims, symbol_dims
from scaleshift.shiftspace import VertexShift, language_dims

SIZE = 4
TOP = 8
CLASSES = 3044


def representatives(size: int) -> list[tuple[tuple[int, ...], ...]]:
    """One matrix per class of the 0/1 matrices under relabelling, the first met in product order."""
    seen = set()
    found = []
    orders = list(permutations(range(size)))
    for bits in product((0, 1), repeat=size * size):
        rows = tuple(bits[i * size:(i + 1) * size] for i in range(size))
        if rows in seen:
            continue
        found.append(rows)
        seen.update(tuple(tuple(rows[p[i]][p[j]] for j in range(size)) for i in range(size)) for p in orders)
    return found


def _pairs(report) -> list[tuple[int, int]]:
    return [(report.transversal_at(n), report.orbital_at(n)) for n in range(1, TOP + 1)]


def mismatch(shift: VertexShift) -> str | None:
    """What the closed forms and the walk get wrong against the oracle, if anything."""
    levels = oracle_levels(shift, TOP)
    if [language for language, _, _ in levels] != _pairs(language_dims(shift, TOP)):
        return "language_dims"
    for i, symbol in enumerate(shift.alphabet):
        if [starts[i] for _, starts, _ in levels] != _pairs(symbol_dims(shift, symbol, TOP)):
            return f"symbol_dims at {symbol}"
    if [union for _, _, union in levels] != _pairs(global_dims(shift, TOP)):
        return "global_dims"
    return None


def main() -> int:
    start = time.perf_counter()
    matrices = representatives(SIZE)
    if len(matrices) != CLASSES:
        print(f"expected {CLASSES} matrices up to relabelling, found {len(matrices)}")
        return 1
    for rows in matrices:
        wrong = mismatch(VertexShift.from_rows("abcd", rows))
        if wrong:
            print(f"{wrong} disagrees with the oracle on {rows}")
            return 1
    elapsed = time.perf_counter() - start
    print(f"{len(matrices)} matrices on {SIZE} symbols, n <= {TOP}: all match the oracle in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
