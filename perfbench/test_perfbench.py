"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
ENV = dict(os.environ, PYTHONPATH="src")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _scaleshift(argv, workdir: Path, traced: bool):
    if traced:
        summary = workdir / "spans.json"
        cmd = [sys.executable, str(HERE / "traced.py"), str(summary), *argv]
    else:
        summary = None
        cmd = [sys.executable, "-m", "scaleshift.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=ENV, cwd=ROOT, timeout=300)
    spans = json.loads(summary.read_text()) if summary else None
    return proc.returncode, proc.stdout, spans


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in run.PER_LAYER.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_generator_is_seeded():
    first, again, other = (workloads.make_inputs(s) for s in (7, 7, 8))
    assert first == again
    assert first.files != other.files
    bundled = workloads.make_inputs(workloads.DEFAULT_SEED)
    assert bundled.files["quad.mat"] == (workloads.BUNDLED / "quad.mat").read_text(encoding="utf-8")
    assert (bundled.global_order, bundled.sft_order) == (16, 30)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_inputs_keep_their_shape(seed):
    inputs = workloads.make_inputs(seed)
    global_target, sft_target = workloads.targets()
    tri_symbols, tri = workloads.parse_matrix(inputs.files["tri.mat"])
    quad_symbols, quad = workloads.parse_matrix(inputs.files["quad.mat"])
    blocks = workloads.parse_forbidden(inputs.files["threestep.forb"])
    assert workloads.irreducible(tri) and workloads.irreducible(quad)
    assert workloads.bounded_support(tri, tri_symbols.index(inputs.tri_symbol))
    assert not workloads.bounded_support(quad, quad_symbols.index(inputs.quad_symbol))
    band = workloads.WORD_BAND
    assert abs(workloads.global_words(quad, inputs.global_order) - global_target) <= band * global_target
    assert abs(workloads.sft_words(blocks, inputs.sft_order) - sft_target) <= band * sft_target
    assert max(len(b) for b in blocks) == 4


def test_derived_counters_agree(tmp_path):
    commands = [
        ("vertex", "global", "--matrix", workloads.GOLDEN, "--order", "9"),
        ("sft", "scales", "--forbidden", workloads.TWOSTEP, "--order", "12"),
        ("--cap", "300", "vertex", "global", "--matrix", workloads.GOLDEN, "--order", "8"),
    ]
    for argv in commands:
        code, _, spans = _scaleshift(argv, tmp_path, traced=True)
        assert code == 0
        counters = spans["counters"]
        assert counters["scales.words_enumerated"] > 0
        assert counters["scales.words_enumerated"] == counters["shiftspace.words_out_under.scales"]
        assert 0 < counters["scales.cap_used_max"] <= 1
    # golden words of length 1..8 number 2+3+5+8+13+21+34+55 = 141, charged against --cap 300
    assert counters["scales.cap_used_max"] == pytest.approx(141 / 300)


def _all_commands():
    inputs = workloads.make_inputs(workloads.DEFAULT_SEED)
    listed = [
        command
        for name in ("closed_form", "enumerate")
        for command in workloads.commands(name, inputs, "INPUTS")
    ]
    # The full paper suite takes tens of seconds; a smaller grid runs the same code.
    listed.append(workloads.Command("verify-small", "verify", ("verify", "--suite", "paper", "--max-n", "4")))
    return inputs, listed


def test_tracing_leaves_stdout_unchanged(tmp_path):
    inputs, commands = _all_commands()
    inputs.write(tmp_path)
    for command in commands:
        argv = [a.replace("INPUTS", str(tmp_path)) for a in command.argv]
        plain = _scaleshift(argv, tmp_path, traced=False)
        traced = _scaleshift(argv, tmp_path, traced=True)
        assert plain[0] == traced[0] == 0, command.name
        assert plain[1] == traced[1], command.name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
