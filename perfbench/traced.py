"""Run one ``scaleshift`` command with spans around every layer's public calls.

Usage, from the checkout root::

    python3 perfbench/traced.py SUMMARY.json ARG...

ARG... is the command's argv, exactly as ``python -m scaleshift.cli`` takes
it.  stdout, stderr and the exit code are the command's own.  Spans are kept
in memory while the command runs; after it returns, their aggregate is
written to SUMMARY.json.  Nothing under ``src/`` changes: the wrappers are
installed from here, on every name that looks a wrapped function up.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "series", "numtheory", "combinatorics", "shiftspace", "scales",
    "substitutions", "oracle", "verify", "cli",
)
# Called more than ~1e5 times per command; the caller's span covers them.
HOT = frozenset({"induced_scale", "least_rotation", "rotate"})
SERIES_CLASSES = ("TruncatedSeries", "BivariateSeries", "RationalFunction")
PLAIN_DUNDERS = frozenset({"__init__", "__setattr__", "__eq__", "__hash__", "__repr__", "__str__"})
ENUMERATORS = frozenset({"global_dims", "scale_class", "distinguished_set_scales"})
COMPOSITION_SETS = frozenset({"transversal_dim", "orbital_dim", "transversal_of", "mutually_independent"})


def _paths_from(matrix, starts, order) -> list[int]:
    """Words of length n = 1..order starting in ``starts``: the rule ``_word_counts`` documents."""
    k = len(matrix)
    vector = [int(i in starts) for i in range(k)]
    counts = []
    for _ in range(order):
        counts.append(sum(vector))
        vector = [sum(vector[u] for u in range(k) if matrix[u][v]) for v in range(k)]
    return counts


def _series_size(value) -> int:
    if hasattr(value, "coeffs"):
        return len(value.coeffs)
    return sum(len(row) for row in value.rows)


def _nonzero(value) -> int:
    if hasattr(value, "coeffs"):
        return sum(1 for c in value.coeffs if c != 0)
    return sum(1 for row in value.rows for c in row if c != 0)


def _measure_series(name, args, result):
    counts = {}
    if type(result).__name__ in ("TruncatedSeries", "BivariateSeries"):
        counts["coeffs_out"] = _series_size(result)
    if name.endswith(("__mul__", "__rmul__", ".quasi_inverse")):
        operands = [a for a in args[:2] if hasattr(a, "coeffs") or hasattr(a, "rows")]
        counts["operand_coeffs"] = sum(_series_size(a) for a in operands)
        counts["operand_nonzero"] = sum(_nonzero(a) for a in operands)
    return counts


def _measure_enumeration(name, bound, result):
    shift = bound["shift"]
    order = bound["order"]
    matrix = shift.matrix
    if name == "global_dims":
        starts = range(shift.size)
        distinct = sum(result.class_sizes)
    else:
        if name == "scale_class":
            starts = [shift.alphabet.index(bound["symbol"])]
        elif bound["start"] is not None:
            starts = [shift.alphabet.index(bound["start"])]
        else:
            starts = [shift.alphabet.index(s) for s in set(bound["distinguished"])]
        distinct = sum(len(s) for s in result.by_size.values())
    return {
        "words_enumerated": sum(_paths_from(matrix, set(starts), order)),
        "words_charged": sum(_paths_from(matrix, set(range(shift.size)), order)),
        "cap": bound["cap"],
        "distinct": distinct,
    }


class Tracer:
    """Spans in memory: (label, parent index, start, end, counts)."""

    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []
        self.labels: list[tuple[str, str]] = []

    def wrap(self, fn, layer: str, name: str, measure=None):
        label = len(self.labels)
        self.labels.append((layer, name))
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = (label, parent, start, end, None)
            if measure is not None:
                spans[index] = (label, parent, start, end, measure(args, kwargs, result))
            return result

        return traced

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        functions: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        counters: dict[str, float] = defaultdict(float)
        for i, (label, parent, start, end, counts) in enumerate(self.spans):
            layer, name = self.labels[label]
            entry = functions[f"{layer}.{name}"]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            for key, value in (counts or {}).items():
                if key == "cap":
                    continue
                counters[f"{layer}.{key}"] += value
            if layer == "scales" and counts:
                counters["scales.cap_used_max"] = max(
                    counters["scales.cap_used_max"], counts["words_charged"] / counts["cap"]
                )
            if layer == "shiftspace" and counts and parent >= 0:
                caller = self.labels[self.spans[parent][0]][0]
                counters[f"shiftspace.words_out_under.{caller}"] += counts["words_out"]
        return {
            "functions": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in functions.items()},
            "counters": dict(counters),
        }


def _measures(layer: str, name: str, fn):
    """The counts a span records on return, for the calls that have any."""
    if layer == "series":
        return lambda args, kwargs, result: _measure_series(name, args, result)
    if layer == "shiftspace" and name in ("language", "language_from"):
        return lambda args, kwargs, result: {"words_out": len(result)}
    if layer == "scales" and name in ENUMERATORS:
        signature = inspect.signature(fn)

        def measure(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return _measure_enumeration(name, bound.arguments, result)

        return measure
    if layer == "combinatorics" and name in COMPOSITION_SETS:
        return lambda args, kwargs, result: {"compositions_in": sum(len(a) for a in args[:2])}
    if layer == "substitutions" and name == "stabilized_blocks":
        return lambda args, kwargs, result: {
            "iterations": result.iterations,
            "letters_generated": result.prefix_length,
            "blocks": len(result.blocks),
        }
    if layer == "verify" and name == "run_reference_suite":
        return lambda args, kwargs, result: {
            "rows": sum(len(r.reports) for r in result),
            "rows_failed": sum(len(r.failures()) for r in result),
        }
    return None


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions, and the series carriers' methods."""
    import scaleshift.cli  # noqa: F401  (imports every layer)

    modules = [sys.modules[f"scaleshift.{layer}"] for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and name not in HOT
                and (layer != "cli" or name.startswith("cmd_"))
            ):
                wrapped[id(obj)] = (obj, tracer.wrap(obj, layer, name, _measures(layer, name, obj)))
    package = [m for n, m in sys.modules.items() if n == "scaleshift" or n.startswith("scaleshift.")]
    for module in package:
        for name, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    series = sys.modules["scaleshift.series"]
    for class_name in SERIES_CLASSES:
        cls = getattr(series, class_name)
        for name, attr in list(vars(cls).items()):
            if name in PLAIN_DUNDERS or (name.startswith("_") and not name.startswith("__")):
                continue
            label = f"{class_name}.{name}"
            if isinstance(attr, classmethod):
                fn = attr.__func__
                setattr(cls, name, classmethod(tracer.wrap(fn, "series", label, _measures("series", label, fn))))
            elif inspect.isfunction(attr):
                setattr(cls, name, tracer.wrap(attr, "series", label, _measures("series", label, attr)))


def oracle_cache() -> dict:
    oracle = sys.modules["scaleshift.oracle"]
    hits = misses = 0
    for obj in vars(oracle).values():
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            hits += info.hits
            misses += info.misses
    return {"hits": hits, "misses": misses}


def main(argv: list[str]) -> int:
    summary_path, command = Path(argv[0]), argv[1:]
    sys.path.insert(0, "src")
    tracer = Tracer()
    install(tracer)
    from scaleshift.cli import main as cli_main

    code = cli_main(command)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["oracle_cache"] = oracle_cache()
    summary_path.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
