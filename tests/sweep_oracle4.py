"""Sweep every 0/1 matrix on 4 symbols, up to relabelling, against the oracle.

For each of the 3,044 matrices up to a simultaneous permutation of rows
and columns, and each n <= 8, the oracle's brute-force levels must equal
``language_dims``, ``symbol_dims`` at every symbol and ``global_dims``.
Every quantity is equivariant under relabelling, so one matrix per class
covers the class; the tier-1 tests cover every matrix on up to 3 symbols.
It takes seconds, so it runs as a CI step and not under pytest:

    PYTHONPATH=src python tests/sweep_oracle4.py
    PYTHONPATH=src python tests/sweep_oracle4.py --top 10 --irreducible

The second form checks n <= 10 on the 1,168 irreducible classes only; 4^10
words is the oracle's largest class table.  It prints its wall time and
exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import permutations, product

from scaleshift.oracle import oracle_levels
from scaleshift.scales import global_dims, symbol_dims
from scaleshift.shiftspace import VertexShift, is_irreducible, language_dims

SIZE = 4
# classes up to relabelling: all of them, and the irreducible ones
CLASSES = {False: 3044, True: 1168}


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


def _pairs(report, top: int) -> list[tuple[int, int]]:
    return [(report.transversal_at(n), report.orbital_at(n)) for n in range(1, top + 1)]


def mismatch(shift: VertexShift, top: int) -> str | None:
    """What the closed forms and the walk get wrong against the oracle, if anything."""
    levels = oracle_levels(shift, top)
    if [language for language, _, _ in levels] != _pairs(language_dims(shift, top), top):
        return "language_dims"
    for i, symbol in enumerate(shift.alphabet):
        if [starts[i] for _, starts, _ in levels] != _pairs(symbol_dims(shift, symbol, top), top):
            return f"symbol_dims at {symbol}"
    if [union for _, _, union in levels] != _pairs(global_dims(shift, top), top):
        return "global_dims"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=8, help="check n = 1..TOP (default 8, at most 10)")
    parser.add_argument("--irreducible", action="store_true", help="only the irreducible classes")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    shifts = [VertexShift.from_rows("abcd", rows) for rows in representatives(SIZE)]
    if args.irreducible:
        shifts = [shift for shift in shifts if is_irreducible(shift)]
    expected = CLASSES[args.irreducible]
    if len(shifts) != expected:
        print(f"expected {expected} matrices up to relabelling, found {len(shifts)}")
        return 1
    for shift in shifts:
        wrong = mismatch(shift, args.top)
        if wrong:
            print(f"{wrong} disagrees with the oracle on {shift.matrix}")
            return 1
    elapsed = time.perf_counter() - start
    kind = "irreducible matrices" if args.irreducible else "matrices"
    print(f"{len(shifts)} {kind} on {SIZE} symbols, n <= {args.top}: all match the oracle in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
