"""Benchmark for the ``scaleshift`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed_form --seed 3 --seconds 40 --trace 0

Each workload is a fixed list of real ``scaleshift`` commands (see
``workloads.py``).  A pass runs them one after another, each in its own
``python -m scaleshift.cli`` process with ``src`` on the path: a closed loop
at concurrency 1, the way a shell script or CI runs them.  Passes repeat
until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics: the median pass's wall and CPU
time, the largest child max-RSS, and the set-up time of a bare ``import
scaleshift.cli`` plus ``build_parser()``.  Timings are calibrated against a
fixed kernel (see ``REFERENCE_KERNEL_S``).  ``--trace 1`` alternates untraced
passes with passes run through ``traced.py`` and reports per-layer metrics
from the spans.  The harness pins itself, and so its children, to one core.
``--workload all`` runs every workload round-robin, so machine drift hits
them alike, and prints both kinds of metric.

Every command's exit code and stdout are checked (recorded digests, the
``verify`` CHECK lines, traced stdout equal to untraced stdout), and the
``vertex dims`` and ``vertex global`` rows for n <= 10 are cross-checked
against the oracle outside the timed region.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_STARTS = 9
# Timings are reported in reference seconds: measured seconds times
# REFERENCE_KERNEL_S over the median CPU time of a fixed calibration kernel
# that a harness thread runs when each child starts and every
# SAMPLE_INTERVAL_S while it runs, on the core the child is pinned to.  On a
# shared host the speed of that core drifts by up to a half within minutes
# (other tenants, clock changes); the kernel, which shares no code with
# scaleshift, slows with it, so the ratio tracks what the program costs.
# Timing the kernel in CPU time keeps its share of the core out of the
# figure.  The sampler takes about 5% of the core from the child.  Measured
# seconds are printed beside each calibrated figure.
REFERENCE_KERNEL_S = 0.013
SAMPLE_INTERVAL_S = 0.25
# A child still running this long (per workload) after the benchmark started
# is killed and counted as failed, so that a hung command cannot keep a run
# from ending.
DEADLINE_S = 150
CROSS_CHECK_N = 10
DIGESTS = HERE / "digests.json"
CHECK_LINE = re.compile(r"^CHECK (\d+) \(.*\): (PASS|FAIL) \(\d+ rows\)$")
CHECKS = 10
KINDS = (
    "vertex_dims", "vertex_zeta", "vertex_loops", "vertex_global", "vertex_language",
    "wheels", "sft_scales", "subst_scales", "verify",
)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# name -> (unit, better); the per-layer metrics of BENCHMARK.json, in order.
PER_LAYER = {
    "series.self_s": ("s", "lower"),
    "series.calls": ("count", "lower"),
    "series.expand.calls": ("count", "lower"),
    "series.quasi_inverse.calls": ("count", "lower"),
    "series.mul.calls": ("count", "lower"),
    "series.bivariate.calls": ("count", "lower"),
    "series.coeffs_out": ("count", "lower"),
    "series.operand_density": ("ratio", "higher"),
    "numtheory.self_s": ("s", "lower"),
    "numtheory.calls": ("count", "lower"),
    "shiftspace.self_s": ("s", "lower"),
    "shiftspace.calls": ("count", "lower"),
    "shiftspace.words_out": ("count", "lower"),
    "shiftspace.words_per_s": ("words/s", "higher"),
    "shiftspace.first_return.calls": ("count", "lower"),
    "scales.self_s": ("s", "lower"),
    "scales.closed_form.calls": ("count", "lower"),
    "scales.enumeration.calls": ("count", "lower"),
    "scales.words_enumerated": ("count", "lower"),
    "scales.distinct_ratio": ("ratio", "higher"),
    "scales.cap_used_ratio": ("ratio", "lower"),
    "combinatorics.self_s": ("s", "lower"),
    "combinatorics.calls": ("count", "lower"),
    "combinatorics.compositions_in": ("count", "lower"),
    "substitutions.self_s": ("s", "lower"),
    "substitutions.iterations": ("count", "lower"),
    "substitutions.letters_generated": ("count", "lower"),
    "substitutions.block_yield": ("ratio", "higher"),
    "oracle.self_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.cache_hit_ratio": ("ratio", "higher"),
    **{f"verify.check.{i}.s": ("s", "lower") for i in range(1, CHECKS + 1)},
    "verify.rows": ("count", "higher"),
    "verify.rows_failed": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    **{f"cli.{kind}.s": ("s", "lower") for kind in KINDS},
    "trace.overhead_s": ("s", "lower"),
}
CHECK_FUNCTIONS = (
    "check_wheel_counts", "check_composition_counts", "check_golden_series",
    "check_golden_language", "check_golden_scale_sets", "check_golden_dims",
    "check_substitution_studies", "check_two_step_sft", "check_property_suites",
    "check_exclusions",
)
SCALES_CLOSED_FORM = (
    "symbol_dims", "composition_gf", "composition_bgf", "wheels_gf", "wheels_bgf",
    "tail_sizes", "a_series", "a_bgf", "b_series", "b_bgf",
)
SCALES_ENUMERATION = ("global_dims", "scale_class", "distinguished_set_scales")


def kernel_cpu_seconds() -> float:
    """CPU time of one run of a fixed pure-Python kernel: Fractions, tuples, sets."""
    start = time.thread_time()
    total, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 500):
        total += x ** (i % 40) / i
    seen = set()
    for i in range(20_000):
        word = (i % 7, i % 11, i % 13)
        seen.add(word[1:] + word[:1])
    return time.thread_time() - start


@dataclass
class Pass:
    """One pass over a workload's commands; per-command figures keyed by command name.

    ``scale`` is the pass's calibration: reference seconds per measured second.
    """

    scale: float = 1.0
    walls: dict[str, float] = field(default_factory=dict)
    cpus: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    stdout_bytes: int = 0
    summaries: list[dict] = field(default_factory=list)


def median_pass(passes: list[Pass], attr: str, names=None, calibrated: bool = True) -> float:
    """Sum over commands of each command's median across passes.

    A burst of machine noise slows one command in one pass; taking the
    median per command before summing keeps it out of the pass time.
    """
    names = passes[0].walls if names is None else names
    return sum(
        statistics.median(getattr(p, attr)[name] * (p.scale if calibrated else 1.0) for p in passes)
        for name in names
    )


class Bench:
    """One workload's commands, inputs and correctness tally."""

    def __init__(
        self, workload: str, inputs: workloads.Inputs, workdir: Path, digests: dict, deadline: float
    ):
        self.workload = workload
        self.deadline = deadline  # perf_counter time after which a child is killed
        self.inputs = inputs
        self.workdir = workdir
        self.commands = workloads.commands(workload, inputs, os.path.relpath(workdir))
        self.digests = digests
        self.stdout: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p
        ))

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL [{self.workload}] {message}", file=sys.stderr)

    def spawn(self, argv: list[str], name: str, samples: list[float]):
        """Run one child to completion while the calibration kernel runs beside it.

        Returns the exit code, the wall seconds, the rusage and the stdout
        path of the child; kernel timings are appended to ``samples``.
        """
        out_path = self.workdir / f"{name}.out"
        done = threading.Event()

        def sample():
            samples.append(kernel_cpu_seconds())
            while not done.wait(SAMPLE_INTERVAL_S):
                samples.append(kernel_cpu_seconds())

        sampler = threading.Thread(target=sample)
        with open(out_path, "wb") as out, open(self.workdir / f"{name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.perf_counter() - start
                killer.cancel()
                done.set()
                sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, out_path

    def run_pass(self, traced: bool = False) -> Pass:
        results = []
        samples: list[float] = []
        for command in self.commands:
            if traced:
                summary = self.workdir / f"{command.name}.spans.json"
                argv = [sys.executable, str(HERE / "traced.py"), str(summary), *command.argv]
            else:
                argv = [sys.executable, "-m", "scaleshift.cli", *command.argv]
            results.append((command, *self.spawn(argv, command.name, samples)))
        run = Pass(scale=REFERENCE_KERNEL_S / statistics.median(samples))
        for command, code, seconds, usage, out_path in results:
            run.walls[command.name] = seconds
            run.cpus[command.name] = usage.ru_utime + usage.ru_stime
            run.peak_rss_mb = max(run.peak_rss_mb, usage.ru_maxrss / 1024)
            stdout = out_path.read_bytes()
            run.stdout_bytes += len(stdout)
            self.check(command, code, stdout, traced)
            if traced and code == 0:
                run.summaries.append(json.loads((self.workdir / f"{command.name}.spans.json").read_text()))
        return run

    def check(self, command: workloads.Command, code: int, stdout: bytes, traced: bool) -> None:
        self.attempted += 1
        label = f"{command.name}{' (traced)' if traced else ''}"
        if code != 0:
            self.fail(f"{label}: exit code {code}, expected 0")
            return
        first = self.stdout.setdefault(command.name, stdout)
        if stdout != first:
            self.fail(f"{label}: stdout differs from the first run of this command")
            return
        digest = self.digests.get(command.name)
        if digest is not None and (not command.seeded or self.inputs.seed == workloads.DEFAULT_SEED):
            if hashlib.sha256(stdout).hexdigest() != digest:
                self.fail(f"{label}: stdout does not match the recorded sha256")
                return
        if command.kind == "verify":
            lines = stdout.decode("utf-8").splitlines()
            passed = [m.group(1) for m in map(CHECK_LINE.match, lines) if m and m.group(2) == "PASS"]
            if passed != [str(i) for i in range(1, CHECKS + 1)]:
                self.fail(f"{label}: CHECK lines passing: {passed}, expected 1..{CHECKS}")

    def setup_times(self, starts: int) -> tuple[list[float], list[float]]:
        """Calibrated and measured wall seconds of ``starts`` bare starts."""
        argv = [sys.executable, "-c", "import scaleshift.cli as c; c.build_parser()"]
        times: list[float] = []
        samples: list[float] = []
        for i in range(starts):
            code, wall, _, _ = self.spawn(argv, "setup", samples)
            if code != 0:
                self.fail(f"set-up start {i}: exit code {code}")
            times.append(wall)
        scale = REFERENCE_KERNEL_S / statistics.median(samples)
        return [wall * scale for wall in times], times

    def cross_check(self) -> None:
        """Closed-form and enumerated rows for n <= 10 against the oracle."""
        from scaleshift.oracle import oracle_scale_dims
        from scaleshift.scales import scale_class
        from scaleshift.shiftspace import parse_matrix

        for command in self.commands:
            if command.kind not in ("vertex_dims", "vertex_global") or command.name not in self.stdout:
                continue
            self.attempted += 1
            argv = command.argv
            shift = parse_matrix(Path(argv[argv.index("--matrix") + 1]).read_text(encoding="utf-8"))
            rows = json.loads(self.stdout[command.name])["rows"]
            top = min(CROSS_CHECK_N, len(rows))
            if command.kind == "vertex_dims":
                symbols = [argv[argv.index("--symbol") + 1]]
            else:
                symbols = list(shift.alphabet)
            classes = [scale_class(shift, s, top) for s in symbols]
            for row in rows[:top]:
                scales = frozenset().union(*(c.at(row["n"]) for c in classes))
                if oracle_scale_dims(scales) != (row["transversal"], row["orbital"]):
                    self.fail(f"{command.name}: n={row['n']} disagrees with the oracle")
                    break


# -- metrics ------------------------------------------------------------------


def spread(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list[Pass], setup: tuple[list[float], list[float]]) -> dict[str, tuple[float, str]]:
    """Each metric's value and a note on the samples behind it."""
    walls = spread([median_pass([p], "walls") for p in passes])
    setups = spread(setup[0])
    return {
        "wall_s": (
            median_pass(passes, "walls"),
            f"median pass; n={walls['n']}, q1 {walls['q1']:.4f}, q3 {walls['q3']:.4f}; "
            f"measured {median_pass(passes, 'walls', calibrated=False):.4f} s",
        ),
        "cpu_s": (
            median_pass(passes, "cpus"),
            f"median pass; measured {median_pass(passes, 'cpus', calibrated=False):.4f} s",
        ),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), f"largest child of {len(passes)} passes"),
        "setup_s": (
            setups["median"],
            f"median start; n={setups['n']}, q1 {setups['q1']:.4f}, q3 {setups['q3']:.4f}; "
            f"measured {statistics.median(setup[1]):.4f} s",
        ),
    }


def layer_metrics(traced: Pass) -> dict[str, float]:
    """The per-layer metrics that the spans of one traced pass give."""
    functions: dict[str, dict] = {}
    counters: dict[str, float] = {}
    hits = misses = 0
    for summary in traced.summaries:
        for name, entry in summary["functions"].items():
            total = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, value in summary["counters"].items():
            if name == "scales.cap_used_max":
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0.0) + value
        hits += summary["oracle_cache"]["hits"]
        misses += summary["oracle_cache"]["misses"]

    def layer(prefix: str, key: str = "self_s") -> float:
        return sum(e[key] for n, e in functions.items() if n.startswith(prefix + "."))

    def calls(*names: str) -> int:
        return sum(functions.get(n, {"calls": 0})["calls"] for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    series_mul = [f"series.{c}.{m}" for c in ("TruncatedSeries", "BivariateSeries") for m in ("__mul__", "__rmul__")]
    language_s = sum(functions.get(n, {"total_s": 0.0})["total_s"] for n in ("shiftspace.language", "shiftspace.language_from"))
    words_out = counters.get("shiftspace.words_out", 0)
    words_enumerated = counters.get("scales.words_enumerated", 0)
    letters = counters.get("substitutions.letters_generated", 0)
    return {
        "series.self_s": layer("series"),
        "series.calls": layer("series", "calls"),
        "series.expand.calls": calls("series.RationalFunction.expand"),
        "series.quasi_inverse.calls": calls(
            "series.TruncatedSeries.quasi_inverse", "series.BivariateSeries.quasi_inverse"
        ),
        "series.mul.calls": calls(*series_mul),
        "series.bivariate.calls": layer("series.BivariateSeries", "calls"),
        "series.coeffs_out": counters.get("series.coeffs_out", 0),
        "series.operand_density": ratio(
            counters.get("series.operand_nonzero", 0), counters.get("series.operand_coeffs", 0)
        ),
        "numtheory.self_s": layer("numtheory"),
        "numtheory.calls": layer("numtheory", "calls"),
        "shiftspace.self_s": layer("shiftspace"),
        "shiftspace.calls": layer("shiftspace", "calls"),
        "shiftspace.words_out": words_out,
        "shiftspace.words_per_s": ratio(words_out, language_s),
        "shiftspace.first_return.calls": calls("shiftspace.first_return"),
        "scales.self_s": layer("scales"),
        "scales.closed_form.calls": calls(*(f"scales.{n}" for n in SCALES_CLOSED_FORM)),
        "scales.enumeration.calls": calls(*(f"scales.{n}" for n in SCALES_ENUMERATION)),
        "scales.words_enumerated": words_enumerated,
        "scales.distinct_ratio": ratio(counters.get("scales.distinct", 0), words_enumerated),
        "scales.cap_used_ratio": counters.get("scales.cap_used_max", 0.0),
        "combinatorics.self_s": layer("combinatorics"),
        "combinatorics.calls": layer("combinatorics", "calls"),
        "combinatorics.compositions_in": counters.get("combinatorics.compositions_in", 0),
        "substitutions.self_s": layer("substitutions"),
        "substitutions.iterations": counters.get("substitutions.iterations", 0),
        "substitutions.letters_generated": letters,
        "substitutions.block_yield": ratio(counters.get("substitutions.blocks", 0), letters),
        "oracle.self_s": layer("oracle"),
        "oracle.calls": layer("oracle", "calls"),
        "oracle.cache_hit_ratio": ratio(hits, hits + misses),
        **{
            f"verify.check.{i}.s": functions.get(f"verify.{name}", {"total_s": 0.0})["total_s"]
            for i, name in enumerate(CHECK_FUNCTIONS, start=1)
        },
        "verify.rows": counters.get("verify.rows", 0),
        "verify.rows_failed": counters.get("verify.rows_failed", 0),
        "cli.self_s": layer("cli"),
        "cli.stdout_bytes": traced.stdout_bytes,
    }


def traced_metrics(bench: Bench, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Every per-layer metric: span figures as medians over the traced passes,
    command-kind times and the tracing overhead from the untraced ones."""
    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for kind in KINDS:
        names = [c.name for c in bench.commands if c.kind == kind]
        metrics[f"cli.{kind}.s"] = median_pass(untraced, "walls", names)
    metrics["trace.overhead_s"] = median_pass(traced, "walls") - median_pass(untraced, "walls")
    return {name: metrics[name] for name in PER_LAYER}


# -- measurement loop ---------------------------------------------------------


def measure(benches: list[Bench], seconds: float, trace: bool) -> dict[str, dict]:
    """Round-robin passes over ``benches`` until ``seconds`` per workload are used."""
    results = {}
    benches[0].setup_times(1)  # warm-up: byte-compiles the package; not timed
    if not trace or len(benches) > 1:
        setup = {b.workload: b.setup_times(SETUP_STARTS) for b in benches}
        passes: dict[str, list[Pass]] = {b.workload: [] for b in benches}
        budget = seconds * len(benches)
        start = time.perf_counter()
        rounds = 0
        while True:
            for bench in benches:
                passes[bench.workload].append(bench.run_pass())
            rounds += 1
            used = time.perf_counter() - start
            if used + used / rounds > budget:
                break
        for bench in benches:
            results[bench.workload] = {"end_to_end": end_to_end(passes[bench.workload], setup[bench.workload])}
    if trace:
        for bench in benches:
            plain: list[Pass] = []
            traced: list[Pass] = []
            start = time.perf_counter()
            while True:
                plain.append(bench.run_pass())
                traced.append(bench.run_pass(traced=True))
                if len(benches) > 1:
                    break
                used = time.perf_counter() - start
                if used + used / len(plain) > seconds:
                    break
            results.setdefault(bench.workload, {})["per_layer"] = traced_metrics(bench, traced, plain)
    for bench in benches:
        bench.cross_check()
    return results


def report(results: dict[str, dict], benches: list[Bench], single: bool) -> dict:
    metrics = {}
    for bench in benches:
        result = results[bench.workload]
        print(f"== {bench.workload} (seed {bench.inputs.seed})")
        for name, (value, detail) in result.get("end_to_end", {}).items():
            unit = END_TO_END[name]
            print(f"  {name:<14} {value:.4f} {unit}  ({detail})")
            metrics[name if single else f"{bench.workload}.{name}"] = {"value": value, "unit": unit}
        ratio = bench.failed / bench.attempted if bench.attempted else 0.0
        print(f"  {'failed_ratio':<14} {ratio:.4f} ratio  ({bench.failed} of {bench.attempted})")
        for name, value in result.get("per_layer", {}).items():
            unit = PER_LAYER[name][0]
            print(f"  {name:<32} {value:.6g} {unit}")
            metrics[name if single else f"{bench.workload}.{name}"] = {"value": value, "unit": unit}
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not Path("src/scaleshift/cli.py").is_file():
        print("error: run from the root of a scaleshift checkout (src/scaleshift is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    inputs = workloads.make_inputs(args.seed)
    for name, note in inputs.notes.items():
        print(f"input {name}: {note}")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["sha256"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        inputs.write(workdir)
        deadline = start + DEADLINE_S * len(names)
        benches = [Bench(name, inputs, workdir, digests, deadline) for name in names]
        results = measure(benches, args.seconds, bool(args.trace))
        print(json.dumps(report(results, benches, single=len(benches) == 1)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
