"""Seeded inputs and the command list of each benchmark workload.

Seed 0 uses the inputs bundled in ``perfbench/inputs``.  Any other seed
draws fresh ones of the same shape:

* ``tri.mat``: an irreducible 3-symbol matrix and a symbol whose first
  return loops have bounded support (as golden ``∘`` does);
* ``quad.mat``: an irreducible 4-symbol matrix and a symbol whose loops
  have unbounded support (as golden ``•`` does);
* ``threestep.forb``: a 3-step forbidden-block file over ``∘ •``.

The closed-form commands cost what the series they expand cost, so drawn
matrices match the bundled ones where that is set: ``quad.mat`` has the
same nonzero pattern in det(I - zA) and in the chosen symbol's minor, and a
growth rate within ``GROWTH_BAND`` of the bundled one; ``tri.mat`` has at
least two loop sizes and a growth rate in ``TRI_GROWTH``.

The orders of ``vertex global`` on ``quad.mat`` and ``sft scales`` on
``threestep.forb`` are chosen so that the words each command enumerates
come within ``WORD_BAND`` of what the bundled input enumerates at the
default order; matrices and files are redrawn until one order in
``GLOBAL_ORDERS`` or ``SFT_ORDERS`` does.  ``SFT_ORDERS`` stays near the
bundled order 30, so the scales, and the output that lists them, have
comparable lengths too.  That keeps the work and memory of a pass comparable
across seeds.  The program sees only the written files and argv.

This module counts words with its own path counting, independent of
``scaleshift``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

DEFAULT_SEED = 0
BUNDLED = Path(__file__).resolve().parent / "inputs"
# Relative to the checkout root, where every command runs.
GOLDEN = "src/scaleshift/fixtures/golden.mat"
TWOSTEP = "src/scaleshift/fixtures/twostep.forb"

SFT_SYMBOLS = ("∘", "•")
DEFAULT_GLOBAL_ORDER = 16
DEFAULT_SFT_ORDER = 30
GLOBAL_ORDERS = range(8, 25)
SFT_ORDERS = range(26, 35)
GROWTH_BAND = 0.05
TRI_GROWTH = (1.4, 2.2)
WORD_BAND = 0.15
MAX_DRAWS = 20_000

WORKLOADS = ("verify", "closed_form", "enumerate")


@dataclass(frozen=True)
class Command:
    """One ``scaleshift`` invocation: a stable name, its kind and its argv."""

    name: str
    kind: str
    argv: tuple[str, ...]
    seeded: bool = False  # reads a generated input, so no recorded digest applies


@dataclass(frozen=True)
class Inputs:
    seed: int
    files: dict[str, str]
    tri_symbol: str
    quad_symbol: str
    global_order: int
    sft_order: int
    notes: dict[str, str]

    def write(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


# -- graphs -----------------------------------------------------------------


def parse_matrix(text: str) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return tuple(lines[0]), tuple(tuple(int(x) for x in row) for row in lines[1:])


def matrix_text(symbols, rows, comment: str) -> str:
    body = [" ".join(symbols)] + [" ".join(str(e) for e in row) for row in rows]
    return f"# {comment}\n" + "\n".join(body) + "\n"


def _reach(rows, vertices, start) -> set[int]:
    """Vertices reachable from ``start`` by paths of length >= 1 inside ``vertices``."""
    seen: set[int] = set()
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in vertices:
            if rows[u][v] and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def irreducible(rows) -> bool:
    every = range(len(rows))
    return all(_reach(rows, every, i) == set(every) for i in every)


def bounded_support(rows, s: int) -> bool:
    """First return loops at ``s`` are bounded iff no cycle avoids ``s``."""
    others = [v for v in range(len(rows)) if v != s]
    return not any(v in _reach(rows, others, v) for v in others)


def loop_sizes(rows, s: int) -> list[int]:
    """Sizes of the first return loops at ``s`` (for bounded support)."""
    sizes = []
    frontier = {s}
    for k in range(1, len(rows) + 1):
        step = {v for u in frontier for v in range(len(rows)) if rows[u][v]}
        if s in step:
            sizes.append(k)
        frontier = step - {s}
    return sizes


def word_counts(rows, starts, order: int) -> list[int]:
    """Words of length n = 1..order that start in ``starts``."""
    vector = [int(i in starts) for i in range(len(rows))]
    counts = []
    for _ in range(order):
        counts.append(sum(vector))
        vector = [sum(vector[u] for u in range(len(rows)) if rows[u][v]) for v in range(len(rows))]
    return counts


def char_poly(rows) -> list[int]:
    """Coefficients of det(I - zA), by Newton's identities on the traces of A^k."""
    k = len(rows)
    traces = []
    power = rows
    for _ in range(k):
        traces.append(sum(power[i][i] for i in range(k)))
        power = [[sum(power[i][m] * rows[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
    e = [1]
    for m in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * traces[i - 1] for i in range(1, m + 1)) // m)
    return [(-1) ** m * e[m] for m in range(k + 1)]


def minor(rows, s: int):
    return tuple(tuple(e for j, e in enumerate(row) if j != s) for i, row in enumerate(rows) if i != s)


def pattern(poly) -> tuple[bool, ...]:
    return tuple(c != 0 for c in poly)


def growth(rows) -> float:
    counts = word_counts(rows, range(len(rows)), 61)
    return (counts[60] / counts[30]) ** (1 / 30)


# -- shifts of finite type ----------------------------------------------------


def _contains(block, word) -> bool:
    k = len(block)
    return any(word[i:i + k] == block for i in range(len(word) - k + 1))


def parse_forbidden(text: str) -> list[tuple[str, ...]]:
    return [tuple(ln.strip()) for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def forbidden_text(blocks, comment: str) -> str:
    header = f"# {comment}\n# alphabet: {' '.join(SFT_SYMBOLS)}\n"
    return header + "\n".join("".join(b) for b in blocks) + "\n"


def block_graph(forbidden):
    """The step-block vertex shift that ``sft scales`` builds, and its distinguished starts."""
    step = max(len(b) for b in forbidden) - 1
    blocks = [
        b for b in product(SFT_SYMBOLS, repeat=step)
        if not any(_contains(f, b) for f in forbidden)
    ]
    full = {f for f in forbidden if len(f) == step + 1}
    rows = tuple(
        tuple(int(u[1:] == v[:-1] and u + v[-1:] not in full) for v in blocks)
        for u in blocks
    )
    starts = [i for i, b in enumerate(blocks) if b[0] == SFT_SYMBOLS[0]]
    return rows, starts


def sft_words(forbidden, order: int) -> int:
    rows, starts = block_graph(forbidden)
    return sum(sum(word_counts(rows, [s], order)) for s in starts)


def global_words(rows, order: int) -> int:
    return sum(word_counts(rows, range(len(rows)), order))


# -- generation ---------------------------------------------------------------


def _pick_order(total, orders, target):
    """The order whose word total is nearest ``target``, if within the band."""
    order = min(orders, key=lambda n: abs(total(n) - target))
    return order if abs(total(order) - target) <= WORD_BAND * target else None


def _tri_fits(rows, s: int) -> bool:
    return (
        bounded_support(rows, s)
        and len(loop_sizes(rows, s)) >= 2
        and TRI_GROWTH[0] <= growth(rows) <= TRI_GROWTH[1]
    )


def _draw_tri(rng: random.Random):
    candidates = []
    for bits in product((0, 1), repeat=9):
        rows = tuple(tuple(bits[3 * i:3 * i + 3]) for i in range(3))
        if irreducible(rows):
            candidates += [(rows, s) for s in range(3) if _tri_fits(rows, s)]
    return rng.choice(candidates)


def _draw_quad(rng: random.Random, target: int, like, like_symbol: int):
    shape = pattern(char_poly(like)), pattern(char_poly(minor(like, like_symbol)))
    rate = growth(like)
    for _ in range(MAX_DRAWS):
        rows = tuple(tuple(int(rng.random() < 0.5) for _ in range(4)) for _ in range(4))
        if not irreducible(rows) or pattern(char_poly(rows)) != shape[0]:
            continue
        symbols = [
            s for s in range(4)
            if not bounded_support(rows, s) and pattern(char_poly(minor(rows, s))) == shape[1]
        ]
        if not symbols or abs(growth(rows) / rate - 1) > GROWTH_BAND:
            continue
        order = _pick_order(lambda n: global_words(rows, n), GLOBAL_ORDERS, target)
        if order is not None:
            return rows, rng.choice(symbols), order
    raise RuntimeError("no 4-symbol matrix met the constraints")


def _draw_threestep(rng: random.Random, target: int):
    for _ in range(MAX_DRAWS):
        lengths = [4] + [rng.randint(2, 4) for _ in range(rng.randint(1, 2))]
        words = {tuple(rng.choice(SFT_SYMBOLS) for _ in range(k)) for k in lengths}
        blocks = sorted(b for b in words if not any(o != b and _contains(o, b) for o in words))
        if max(len(b) for b in blocks) != 4:
            continue
        rows, starts = block_graph(blocks)
        if not starts:
            continue
        order = _pick_order(lambda n: sft_words(blocks, n), SFT_ORDERS, target)
        if order is not None:
            return blocks, order
    raise RuntimeError("no forbidden-block file met the constraints")


def _bundled():
    tri_syms, tri = parse_matrix((BUNDLED / "tri.mat").read_text(encoding="utf-8"))
    quad_syms, quad = parse_matrix((BUNDLED / "quad.mat").read_text(encoding="utf-8"))
    threestep = parse_forbidden((BUNDLED / "threestep.forb").read_text(encoding="utf-8"))
    return tri_syms, tri, quad_syms, quad, threestep


BUNDLED_TRI_SYMBOL = "c"
BUNDLED_QUAD_SYMBOL = "b"


def targets() -> tuple[int, int]:
    """Word totals of the bundled inputs at the default orders: the band centres."""
    _, _, _, quad, threestep = _bundled()
    return global_words(quad, DEFAULT_GLOBAL_ORDER), sft_words(threestep, DEFAULT_SFT_ORDER)


def make_inputs(seed: int) -> Inputs:
    if seed == DEFAULT_SEED:
        tri_syms, tri, quad_syms, quad, threestep = _bundled()
        tri_s = tri_syms.index(BUNDLED_TRI_SYMBOL)
        quad_s = quad_syms.index(BUNDLED_QUAD_SYMBOL)
        global_order, sft_order = DEFAULT_GLOBAL_ORDER, DEFAULT_SFT_ORDER
        files = {
            name: (BUNDLED / name).read_text(encoding="utf-8")
            for name in ("tri.mat", "quad.mat", "threestep.forb")
        }
    else:
        rng = random.Random(seed)
        global_target, sft_target = targets()
        _, _, like_syms, like, _ = _bundled()
        tri_syms, quad_syms = ("a", "b", "c"), ("a", "b", "c", "d")
        tri, tri_s = _draw_tri(rng)
        quad, quad_s, global_order = _draw_quad(
            rng, global_target, like, like_syms.index(BUNDLED_QUAD_SYMBOL)
        )
        threestep, sft_order = _draw_threestep(rng, sft_target)
        files = {
            "tri.mat": matrix_text(tri_syms, tri, f"seed {seed}: irreducible, 3 symbols"),
            "quad.mat": matrix_text(quad_syms, quad, f"seed {seed}: irreducible, 4 symbols"),
            "threestep.forb": forbidden_text(threestep, f"seed {seed}: 3-step forbidden blocks"),
        }
    notes = {
        "tri.mat": (
            f"symbol {tri_syms[tri_s]}: bounded loop support {loop_sizes(tri, tri_s)}, "
            f"growth {growth(tri):.3f}"
        ),
        "quad.mat": (
            f"symbol {quad_syms[quad_s]}: unbounded loop support, growth {growth(quad):.3f}; "
            f"vertex global --order {global_order} enumerates {global_words(quad, global_order)} words"
        ),
        "threestep.forb": (
            f"forbidden {sorted(''.join(b) for b in threestep)}; "
            f"sft scales --order {sft_order} enumerates {sft_words(threestep, sft_order)} words"
        ),
    }
    return Inputs(seed, files, tri_syms[tri_s], quad_syms[quad_s], global_order, sft_order, notes)


def commands(workload: str, inputs: Inputs, input_dir: str) -> list[Command]:
    """The commands of one pass, in order; ``input_dir`` holds the written inputs."""
    tri, quad, threestep = (f"{input_dir}/{n}" for n in ("tri.mat", "quad.mat", "threestep.forb"))
    if workload == "verify":
        return [Command("verify", "verify", ("verify", "--suite", "paper"))]
    if workload == "closed_form":
        dims = [
            Command(f"dims-golden-{tag}{suffix}", "vertex_dims",
                    ("vertex", "dims", "--matrix", GOLDEN, "--symbol", sym) + extra)
            for suffix, extra in (("", ()), ("-bivariate", ("--bivariate",)))
            for tag, sym in (("bull", "•"), ("circ", "∘"))
        ]
        return dims + [
            Command("dims-tri", "vertex_dims",
                    ("vertex", "dims", "--matrix", tri, "--symbol", inputs.tri_symbol), True),
            Command("dims-quad", "vertex_dims",
                    ("vertex", "dims", "--matrix", quad, "--symbol", inputs.quad_symbol), True),
            Command("loops-golden", "vertex_loops",
                    ("vertex", "loops", "--matrix", GOLDEN, "--symbol", "•", "--order", "256")),
            Command("zeta-golden", "vertex_zeta",
                    ("vertex", "zeta", "--matrix", GOLDEN, "--order", "256")),
            Command("zeta-quad", "vertex_zeta",
                    ("vertex", "zeta", "--matrix", quad, "--order", "256"), True),
            Command("wheels-600", "wheels", ("wheels", "--n", "600")),
            Command("wheels-by-length", "wheels", ("wheels", "--by-length", "--n", "160")),
            Command("wheels-by-length-23", "wheels",
                    ("wheels", "--by-length", "--n", "160", "--parts", "2,3")),
        ]
    if workload == "enumerate":
        return [
            Command("global-golden", "vertex_global",
                    ("vertex", "global", "--matrix", GOLDEN, "--order", "22")),
            Command("global-quad", "vertex_global",
                    ("vertex", "global", "--matrix", quad, "--order", str(inputs.global_order)), True),
            Command("sft-twostep", "sft_scales",
                    ("sft", "scales", "--forbidden", TWOSTEP, "--order", "30")),
            Command("sft-threestep", "sft_scales",
                    ("sft", "scales", "--forbidden", threestep, "--order", str(inputs.sft_order)), True),
            Command("subst-thue-morse", "subst_scales",
                    ("subst", "scales", "--preset", "thue-morse", "--n", "400")),
            Command("subst-fibonacci", "subst_scales",
                    ("subst", "scales", "--preset", "fibonacci", "--n", "200")),
            Command("language-golden", "vertex_language",
                    ("vertex", "language", "--matrix", GOLDEN, "--order", "14")),
        ]
    raise ValueError(f"unknown workload {workload!r}")
