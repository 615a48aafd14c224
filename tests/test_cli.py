import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scaleshift
from scaleshift import cli, scales
from scaleshift.cli import main
from scaleshift.combinatorics import PartSpec
from scaleshift.scales import (
    global_dims,
    language_witnesses,
    scale_class,
    scale_classes,
    symbol_dims,
    wheels_gf,
    wheels_row,
)
from scaleshift.shiftspace import (
    VertexShift,
    first_return_matrix,
    higher_block,
    parse_forbidden,
    parse_matrix,
    zeta_rational,
)
from scaleshift.substitutions import PRESETS, morphism_from_json

from refsets import WHEELS_12_BY_LENGTH, class_dims_ref, substitution_scales_ref

FIXTURES = "src/scaleshift/fixtures"
GOLDEN_MAT = f"{FIXTURES}/golden.mat"
TWOSTEP_FORB = f"{FIXTURES}/twostep.forb"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wheels_text(capsys):
    code, out, _ = run(["wheels", "--n", "12"], capsys)
    assert code == 0
    assert out.strip() == "351"
    code, out, _ = run(["wheels", "--n", "12", "--by-length"], capsys)
    assert code == 0
    assert out.strip() == ",".join(str(v) for v in WHEELS_12_BY_LENGTH)
    code, out, _ = run(["wheels", "--n", "5", "--parts", "2,3,4,5"], capsys)
    assert code == 0
    assert out.strip() == "2"


def test_wheels_json(capsys):
    code, out, _ = run(["--format", "json", "wheels", "--n", "5", "--parts", "2+"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 5, "parts": "2+", "total": 2}
    code, out, _ = run(["wheels", "--n", "5", "--parts", "nope"], capsys)
    assert code == 2


def test_wheels_parts_past_n(capsys):
    # parts larger than n never enter the tables, however large they are
    for parts, total in (("1,1000000", "1"), ("1000000+", "0"), ("2,3,400", "1")):
        code, out, _ = run(["wheels", "--n", "5", "--parts", parts], capsys)
        assert (code, out.strip()) == (0, total)
        code, out, _ = run(["wheels", "--n", "5", "--by-length", "--parts", parts], capsys)
        assert code == 0 and sum(map(int, out.split(","))) == int(total)


def test_big_integers_print(capsys):
    # the total at n = 15000 has more digits than Python's default limit on
    # int-to-str conversion; printing lifts it, and parsing keeps it after
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, _ = run(["wheels", "--n", "15000"], capsys)
    total = out.strip()
    assert code == 0 and total.isdigit() and len(total) > 4300
    code, out, _ = run(["--format", "json", "wheels", "--n", "15000"], capsys)
    assert code == 0 and json.loads(out, parse_int=str)["total"] == total
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        code, _, err = run(["oeis", "check", "--id", "A000358", "--coeffs", "7" * 5000], capsys)
        assert code == 2 and "bad --coeffs" in err


def test_big_loop_counts_print(tmp_path, capsys):
    # on the full shift over 17 symbols the first returns of length k number
    # 16^(k - 1), more than 4,300 digits at k = 3600; the JSON form turns them
    # into strings, which must happen while printing lifts the limit too
    target = tmp_path / "full17.mat"
    target.write_text(" ".join(f"s{i}" for i in range(17)) + "\n" + ("1 " * 16 + "1\n") * 17, encoding="utf-8")
    argv = ["vertex", "loops", "--matrix", str(target), "--symbol", "s0", "--order", "3600"]
    code, out, _ = run(["--format", "text", *argv], capsys)
    last = out.strip().split(",")[-1]
    # 16^3599 has 4,334 digits; compare its last 18 without converting it whole
    assert code == 0 and len(last) == 4334 and int(last[-18:]) == pow(16, 3599, 10**18)
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["series"]["coeffs"][-1] == last


def test_vertex_zeta(capsys):
    code, out, _ = run(["vertex", "zeta", "--matrix", GOLDEN_MAT, "--order", "8"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["denominator"] == [1, -1, -1]
    assert data["coefficients"] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    code, out, _ = run(["--format", "text", "vertex", "zeta", "--matrix", GOLDEN_MAT], capsys)
    assert code == 0
    assert len(out.strip().split(",")) == 65


def test_vertex_loops(capsys):
    code, out, _ = run(
        ["vertex", "loops", "--matrix", GOLDEN_MAT, "--symbol", "∘", "--order", "6"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["support"] == [1, 2]
    assert not data["support_unbounded"]


def test_vertex_dims(capsys):
    code, out, _ = run(
        ["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", "•", "--order", "12"], capsys
    )
    assert code == 0
    rows = {row["n"]: row for row in json.loads(out)["rows"]}
    assert rows[12]["transversal"] == 85
    assert rows[12]["orbital"] == 329
    code, _, err = run(["vertex", "dims", "--matrix", GOLDEN_MAT, "--order", "4"], capsys)
    assert code == 2
    assert "--symbol" in err
    code, _, err = run(
        ["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", "x", "--order", "4"], capsys
    )
    assert code == 2


def test_vertex_dims_bivariate_text(capsys):
    # with --bivariate, each text line carries the by-notes cells m = 1..n
    # of the JSON tables; without it, the lines stop after the orbital count
    for symbol in ("∘", "•"):
        argv = ["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", symbol, "--order", "12"]
        code, out, _ = run(["--format", "json"] + argv + ["--bivariate"], capsys)
        assert code == 0
        data = json.loads(out)
        code, text, err = run(["--format", "text"] + argv + ["--bivariate"], capsys)
        assert (code, err) == (0, "")
        lines = text.splitlines()
        assert len(lines) == 12
        for row, line in zip(data["rows"], lines):
            n = row["n"]
            cells = {
                name: ",".join(data[f"bivariate_{name}"]["rows"][n][1:])
                for name in ("transversal", "orbital")
            }
            assert line == (
                f"n={n} transversal={row['transversal']} orbital={row['orbital']}"
                f" transversal_by_notes={cells['transversal']}"
                f" orbital_by_notes={cells['orbital']}"
            )
        code, plain, _ = run(["--format", "text"] + argv, capsys)
        assert code == 0
        assert plain.splitlines() == [line.split(" transversal_by_notes=")[0] for line in lines]
    assert lines[4] == "n=5 transversal=4 orbital=8 transversal_by_notes=1,2,1,0,0 orbital_by_notes=1,4,3,0,0"


def test_vertex_global(capsys):
    code, out, _ = run(["vertex", "global", "--matrix", GOLDEN_MAT, "--order", "12"], capsys)
    assert code == 0
    rows = {row["n"]: row for row in json.loads(out)["rows"]}
    assert (rows[12]["transversal"], rows[12]["orbital"]) == (115, 561)
    assert (rows[5]["transversal"], rows[5]["orbital"]) == (6, 13)
    assert rows[12]["class_size"] == 376
    # golden has 984 words of lengths 1..12 from both symbols, 377 of length 12
    argv = ["vertex", "global", "--matrix", GOLDEN_MAT, "--order", "12"]
    code, capped, err = run(["--cap", "984"] + argv, capsys)
    assert (code, capped, err) == (0, out, "")
    code, capped, err = run(["--cap", "983"] + argv, capsys)
    assert (code, capped) == (3, "")
    assert "enumerating 377 words of length 12 exceeds the cap; lower --order or raise --cap" in err


def test_vertex_language(capsys):
    code, out, _ = run(["vertex", "language", "--matrix", GOLDEN_MAT, "--order", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["words"] == ["∘∘∘", "∘∘•", "∘•∘", "•∘∘", "•∘•"]
    assert data["witnesses"] == ["∘∘∘", "∘∘•", "•∘•"]
    # golden has 1,597 words of length 15, charged against --cap before any is built
    code, out, err = run(
        ["--cap", "1596", "vertex", "language", "--matrix", GOLDEN_MAT, "--order", "15"], capsys
    )
    assert code == 3
    assert out == ""
    assert "enumerating 1597 words of length 15 exceeds the cap" in err
    assert "lower --order or raise --cap" in err
    code, out, _ = run(
        ["--cap", "1597", "vertex", "language", "--matrix", GOLDEN_MAT, "--order", "15"], capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == 1597


def test_vertex_language_cap_message_prints_every_digit(capsys):
    # golden has Fibonacci(21002) words of length 21000, 4,389 digits, more
    # than Python's int-to-str limit; the cap message still names them all
    count, longer = 2, 3
    for _ in range(21000 - 1):
        count, longer = longer, count + longer
    code, out, err = run(["vertex", "language", "--matrix", GOLDEN_MAT, "--order", "21000"], capsys)
    assert (code, out) == (3, "")
    prefix, tail = "error: enumerating ", " words of length 21000 exceeds the cap"
    assert err.startswith(prefix) and tail in err
    digits = err[len(prefix):err.index(tail)]
    assert len(digits) > 4300
    with cli._full_digits():
        assert digits == str(count)


def test_vertex_language_default_cap(tmp_path, capsys):
    # a full 4-symbol shift has 4^14 (about 2.7e8) words of length 14, over the default cap
    target = tmp_path / "full4.mat"
    target.write_text("a b c d\n" + "1 1 1 1\n" * 4, encoding="utf-8")
    code, out, err = run(["vertex", "language", "--matrix", str(target), "--order", "14"], capsys)
    assert code == 3
    assert out == ""
    assert "enumerating 268435456 words of length 14" in err


def test_vertex_loops_long_period(tmp_path, capsys):
    # cycles of 2, 3, 5, 7, 11 and 13 symbols hang off s, so the loop sizes
    # 2 + 2t, 2 + 3t, ... repeat with period 30030, past the walk limit;
    # the loops are still reported, exactly up to the order
    lengths = (2, 3, 5, 7, 11, 13)
    size = 1 + sum(lengths)
    rows = [[0] * size for _ in range(size)]
    first = 1
    for length in lengths:
        rows[0][first] = rows[first][0] = 1
        for t in range(length):
            rows[first + t][first + (t + 1) % length] = 1
        first += length
    target = tmp_path / "cycles.mat"
    symbols = " ".join(f"v{i}" for i in range(size))
    lines = [symbols] + [" ".join(map(str, row)) for row in rows]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(["vertex", "loops", "--matrix", str(target), "--symbol", "v0", "--order", "40"], capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["support"] == sorted({2 + t * n for n in lengths for t in range(20) if 2 + t * n <= 40})
    assert data["support"] == [k for k, c in enumerate(data["series"]["coeffs"]) if c != "0"]
    assert (data["support_unbounded"], data["support_max"]) == (True, None)


def test_vertex_dims_reducible(tmp_path, capsys):
    # reducible matrices exit 0, and the rows and by-notes tables equal enumeration
    target = tmp_path / "reducible.mat"
    rows_at = {}
    for rows, symbol, order in (("1 1\n0 1", "a", 12), ("1 1\n0 1", "b", 8), ("1 0\n0 1", "a", 8)):
        target.write_text(f"a b\n{rows}\n", encoding="utf-8")
        argv = ["vertex", "dims", "--matrix", str(target), "--symbol", symbol, "--order", str(order)]
        code, out, err = run(argv + ["--bivariate"], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        found = scale_class(parse_matrix(target.read_text(encoding="utf-8")), symbol, order)
        for row in data["rows"]:
            n, scales = row["n"], found.at(row["n"])
            assert (row["transversal"], row["orbital"], row["class_size"]) == (*class_dims_ref(scales), len(scales))
            for m in range(n + 1):
                cells = (data["bivariate_transversal"]["rows"][n][m], data["bivariate_orbital"]["rows"][n][m])
                assert tuple(map(int, cells)) == class_dims_ref([c for c in scales if len(c) == m])
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["rows"] == data["rows"]
        rows_at[rows, symbol] = data["rows"]
    # at a of a b / 1 1 / 0 1 the scales of 12 are (1, ..., 1, 13 - i) with
    # i parts: 12 rotation classes, with 1 + 2 + ... + 11 + 1 = 67 modes
    assert rows_at["1 1\n0 1", "a"][11] == {
        "n": 12, "transversal": 12, "orbital": 67, "class_size": 12, "method": "closed_form"
    }
    code, _, err = run(
        ["vertex", "zeta", "--matrix", str(tmp_path / "absent.mat"), "--order", "4"], capsys
    )
    assert code == 1


def test_vertex_bad_matrix(tmp_path, capsys):
    target = tmp_path / "bad.mat"
    target.write_text("a b\n1 0\n", encoding="utf-8")
    code, _, err = run(["vertex", "zeta", "--matrix", str(target), "--order", "4"], capsys)
    assert code == 1
    assert "bad matrix file" in err


def test_sft_scales(capsys):
    code, out, _ = run(["sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "16"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["blocks"] == ["∘∘", "∘•", "•∘"]
    assert data["distinguished"] == ["∘∘", "∘•"]
    table = data["first_return"]
    assert table["∘∘->∘∘"] == [0] * 17
    assert table["∘∘->∘•"] == [0, 1] + [0] * 15
    assert table["∘•->∘∘"] == [0, 0, 1] + [0] * 14
    assert table["∘•->∘•"] == [0, 0, 1] + [0] * 14
    by_n = {entry["n"]: entry["scales"] for entry in data["scales"]["∘∘"]["sets"]}
    assert by_n[1] == [[1]]
    assert all(comp[0] == 1 for comp in by_n[12])


def test_sft_scales_charges_each_start(capsys):
    # each distinguished start is charged its own words of lengths 1..16:
    # 198 from ∘∘ and 262 from ∘•, not the 807 words from every block
    argv = ["sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "16"]
    code, out, err = run(["--cap", "262"] + argv, capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["scales"]) == 2
    code, out, err = run(["--cap", "261"] + argv, capsys)
    assert (code, out) == (3, "")
    assert "words of length 16 exceeds the cap; lower --order or raise --cap" in err


def test_sft_scales_charges_every_start_first(capsys, monkeypatch):
    # ∘• overdraws --cap 261, so the command exits before it walks ∘∘'s 198 words
    def walk(*args):
        raise AssertionError("a word was walked before the cap was checked")

    # the scale walk visits the words; the price walk only counts them
    monkeypatch.setattr(scales, "_scale_levels", walk)
    argv = ["--cap", "261", "sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "16"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == (
        "error: enumerating 65 words of length 16 exceeds the cap; lower --order or raise --cap\n"
    )


def test_sft_scales_without_a_block_on_the_first_symbol(tmp_path, capsys):
    # x may be followed by nothing, so no block opens with x, the alphabet's first
    # symbol: the default set is empty, and the command says so before any walk
    path = tmp_path / "e.forb"
    path.write_text("# alphabet: x a b\nxa\nxb\nxx\naab\n", encoding="utf-8")
    code, out, err = run(["sft", "scales", "--forbidden", str(path), "--order", "3"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: no admissible block starts with the first symbol 'x'; name blocks with --set\n"
    assert "Traceback" not in err
    code, out, _ = run(["sft", "scales", "--forbidden", str(path), "--order", "3", "--set", "ab"], capsys)
    assert code == 0 and json.loads(out)["distinguished"] == ["ab"]


def test_no_kernel_reads_the_dense_matrix(tmp_path, capsys, monkeypatch):
    # a shift is its successor lists: with the dense view raising, every
    # command prints the bytes it prints with the view in place
    family = tmp_path / "k12.forb"
    family.write_text("••\n" + "∘" * 12 + "\n", encoding="utf-8")
    argvs = [
        ["sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "12"],
        ["sft", "scales", "--forbidden", str(family), "--order", "6"],
        ["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", "•", "--order", "12"],
        ["vertex", "loops", "--matrix", GOLDEN_MAT, "--symbol", "∘", "--order", "12"],
        ["vertex", "zeta", "--matrix", GOLDEN_MAT, "--order", "12"],
        ["vertex", "global", "--matrix", GOLDEN_MAT, "--order", "10"],
        ["vertex", "language", "--matrix", GOLDEN_MAT, "--order", "6"],
    ]
    expected = [run(argv, capsys)[:2] for argv in argvs]
    assert all(code == 0 and out for code, out in expected)

    def dense(shift):
        raise AssertionError("a kernel read the dense matrix")

    monkeypatch.setattr(VertexShift, "matrix", property(dense))
    for argv, printed in zip(argvs, expected):
        assert run(argv, capsys)[:2] == printed, argv


def test_sft_scales_charges_each_start_once(tmp_path, capsys, monkeypatch):
    # cli counts no words, as its cycle check strips symbols; scales charges
    # every distinguished start from one price walk, before it walks the first:
    # the two starts of the two-step file, and the 89 of the 233 blocks of the
    # family of •• and twelve ∘ that open with •, its alphabet's first symbol
    assert not hasattr(cli, "word_counts")
    walks = []
    inner = scales.word_counts

    def counted(shift, order):
        walks.append(order)
        return inner(shift, order)

    monkeypatch.setattr(scales, "word_counts", counted)
    family = tmp_path / "k12.forb"
    family.write_text("••\n" + "∘" * 12 + "\n", encoding="utf-8")
    for path, starts in ((TWOSTEP_FORB, 2), (family, 89)):
        walks.clear()
        code, out, _ = run(["sft", "scales", "--forbidden", str(path), "--order", "6"], capsys)
        assert code == 0
        assert len(json.loads(out)["scales"]) == starts
        assert walks == [6]


def test_sft_scales_explicit_set(capsys):
    code, out, _ = run(
        ["sft", "scales", "--forbidden", TWOSTEP_FORB, "--set", "∘∘", "--order", "6"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["distinguished"] == ["∘∘"]
    code, _, err = run(
        ["sft", "scales", "--forbidden", TWOSTEP_FORB, "--set", "xx", "--order", "6"], capsys
    )
    assert code == 2
    # an empty or repeated list is a usage error too
    for blocks in (",", "∘∘,∘∘"):
        code, out, err = run(
            ["sft", "scales", "--forbidden", TWOSTEP_FORB, "--set", blocks, "--order", "6"], capsys
        )
        assert code == 2
        assert out == ""
        assert "distinct blocks" in err


def test_sft_scales_tab_separated(tmp_path, capsys):
    outputs = []
    for name, separator in (("spaced.forb", " "), ("tabbed.forb", "\t")):
        target = tmp_path / name
        body = f"bb{separator}bb\naa{separator}aa{separator}aa\n"
        target.write_text("# alphabet: aa bb\n" + body, encoding="utf-8")
        code, out, err = run(["sft", "scales", "--forbidden", str(target), "--order", "4"], capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["blocks"] == ["aa|aa", "aa|bb", "bb|aa"]


def test_sft_degenerate(tmp_path, capsys):
    target = tmp_path / "dead.forb"
    target.write_text("∘•\n•∘\n∘∘\n••\n", encoding="utf-8")
    code, _, err = run(["sft", "scales", "--forbidden", str(target), "--order", "4"], capsys)
    assert code == 1


def test_sft_no_cycles(tmp_path, capsys):
    # only the edge ∘ -> • is left: a nonzero nilpotent matrix
    target = tmp_path / "acyclic.forb"
    target.write_text("∘∘\n••\n•∘\n", encoding="utf-8")
    code, out, err = run(["sft", "scales", "--forbidden", str(target), "--order", "4"], capsys)
    assert code == 1
    assert out == ""
    assert "no cycles" in err


def test_sft_block_count_guard(tmp_path, capsys):
    # a 22-letter forbidden block needs 2^21 blocks of 21 letters: a cost guard
    target = tmp_path / "long.forb"
    target.write_text("# alphabet: ∘ •\n" + "∘" * 21 + "•\n", encoding="utf-8")
    code, out, err = run(["sft", "scales", "--forbidden", str(target), "--order", "4"], capsys)
    assert code == 3
    assert out == ""
    assert "2^21 is too large" in err


def test_sft_block_matrix_guard(tmp_path, capsys, monkeypatch):
    # one 11-letter block over three symbols leaves all 3^10 blocks of 10
    # letters admissible, under the block count guard; their 59049^2 block
    # pairs are priced before any successor list is built
    def no_rows(*args):
        raise AssertionError("a block matrix row was built")

    monkeypatch.setattr("scaleshift.shiftspace._block_rows", no_rows)
    target = tmp_path / "eleven.forb"
    target.write_text("# alphabet: a b c\nabababababa\n", encoding="utf-8")
    code, out, err = run(["sft", "scales", "--forbidden", str(target), "--order", "3"], capsys)
    assert code == 3
    assert out == ""
    assert "59049 blocks needs 3486784401 entries" in err


def test_subst_scales(capsys):
    code, out, _ = run(["subst", "scales", "--preset", "fibonacci", "--n", "12"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["combined_size"] == 13
    assert data["transversal_dim"] == 10
    assert data["orbital_dim"] == 66
    assert len(data["transversal"]) == 10


def test_subst_rules_file(tmp_path, capsys):
    rules = tmp_path / "fib.json"
    rules.write_text(
        '{"alphabet": ["∘", "•"], "rules": {"∘": "∘•", "•": "∘"}, "seed": "∘"}',
        encoding="utf-8",
    )
    code, out, _ = run(["subst", "scales", "--rules", str(rules), "--n", "5"], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 5
    rules.write_text('{"rules": 3}', encoding="utf-8")
    code, _, err = run(["subst", "scales", "--rules", str(rules), "--n", "5"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "body",
    [
        '[1]',
        '{"seed": "a"}',
        '{"rules": {"a": "ab", "b": "a"}}',
        '{"rules": {"a": "ab", "b": 3}, "seed": "a"}',
        '{"rules": {"a": ["a", 2], "b": "a"}, "seed": "a"}',
        '{"alphabet": [1, "a"], "rules": {"a": "ab", "b": "a"}, "seed": "a"}',
    ],
    ids=["not_object", "no_rules", "no_seed", "image_number", "image_list_number", "alphabet_number"],
)
def test_subst_malformed_rules_file(tmp_path, capsys, body):
    rules = tmp_path / "bad.json"
    rules.write_text(body, encoding="utf-8")
    code, out, err = run(["subst", "scales", "--rules", str(rules), "--n", "5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: bad rules file {rules}: ")
    assert "Traceback" not in err


def test_subst_stabilization_failure(tmp_path, capsys):
    # each iterate of the crawler adds one block, so no iterate count bounds its language
    rules = tmp_path / "crawl.json"
    rules.write_text(
        '{"alphabet": ["∘", "•"], "rules": {"∘": "∘•", "•": "•"}, "seed": "∘"}',
        encoding="utf-8",
    )
    code, out, _ = run(["subst", "scales", "--rules", str(rules), "--n", "10"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["per_symbol"] == {"∘": [[10]], "•": [[1] * 10]}
    assert (data["transversal_dim"], data["orbital_dim"]) == (2, 2)


def test_subst_scales_honours_cap(capsys):
    code, out, err = run(["--cap", "5", "subst", "scales", "--preset", "thue-morse", "--n", "10"], capsys)
    assert code == 3
    assert out == ""
    assert "lower --n or raise --cap" in err
    code, _, err = run(["--cap", "5", "vertex", "global", "--matrix", GOLDEN_MAT, "--order", "10"], capsys)
    assert code == 3
    assert "lower --order or raise --cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["wheels", "--n", "12"],
        ["vertex", "zeta", "--matrix", GOLDEN_MAT],
        ["vertex", "loops", "--matrix", GOLDEN_MAT, "--symbol", "∘"],
        ["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", "∘"],
        ["verify", "--suite", "paper", "--max-n", "2"],
        ["oeis", "check", "--id", "A000358", "--coeffs", "1,2,2"],
    ],
    ids=["wheels", "vertex zeta", "vertex loops", "vertex dims", "verify", "oeis check"],
)
def test_cap_rejected_where_nothing_is_enumerated(argv, capsys):
    # a command that would ignore --cap refuses it, and names the ones that honour it
    code, out, err = run(["--cap", "5", *argv], capsys)
    assert (code, out) == (2, "")
    assert "--cap applies only to vertex global, vertex language, sft scales and subst scales" in err


def test_verify_small_grid(capsys):
    code, out, _ = run(["verify", "--suite", "paper", "--max-n", "2"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("CHECK")]
    assert len(lines) == 10
    assert all("PASS" in line for line in lines)


def test_oeis_check(capsys):
    code, out, _ = run(
        ["oeis", "check", "--id", "A000358", "--coeffs", "1,2,2,3,3,5,5,8,10"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "match"
    code, out, _ = run(
        ["oeis", "check", "--id", "A006367", "--coeffs", "1,0,2,2,5,8,15,26,46,80"],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["--format", "json", "oeis", "check", "--id", "A000071", "--coeffs", "0,0,1,2,4"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["match"] is True


def test_oeis_mismatch_and_errors(capsys):
    code, out, _ = run(
        ["oeis", "check", "--id", "A000358", "--coeffs", "1,2,9"], capsys
    )
    assert code == 1
    assert "position 2" in out
    code, _, err = run(
        ["oeis", "check", "--id", "A999999", "--coeffs", "1"], capsys
    )
    assert code == 1
    assert "snapshot" in err
    code, _, err = run(["oeis", "check", "--id", "bogus", "--coeffs", "1"], capsys)
    assert code == 2
    long_prefix = ",".join(["1"] * 40)
    code, out, _ = run(
        ["oeis", "check", "--id", "A000358", "--coeffs", long_prefix], capsys
    )
    assert code == 1
    assert "longer than the snapshot" in out


def test_oeis_fixture_dir_override(tmp_path, capsys):
    (tmp_path / "b111111.txt").write_text("1 7\n2 9\n", encoding="utf-8")
    code, out, _ = run(
        ["oeis", "check", "--id", "A111111", "--coeffs", "7,9", "--fixtures", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "match"


def test_oeis_unreadable_bfile(tmp_path, capsys):
    # a b-file that exists but cannot be read exits 1 with a message, no traceback
    (tmp_path / "b111111.txt").mkdir()
    code, out, err = run(
        ["oeis", "check", "--id", "A111111", "--coeffs", "7,9", "--fixtures", str(tmp_path)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert "cannot read" in err and "Traceback" not in err


def test_usage_errors(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["wheels"]) == 2
    capsys.readouterr()
    assert main(["subst", "scales", "--preset", "unknown", "--n", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: scaleshift subst scales [-h]")
    # newer Pythons print the choices without quotes
    assert err[-1].replace("'", "") == (
        "scaleshift subst scales: error: argument --preset: invalid choice: unknown"
        " (choose from feigenbaum, fibonacci, thue-morse)"
    )
    assert main(["verify", "--suite", "other"]) == 2
    # part sizes start at 1, in a list and in a lower bound alike
    for parts in ("0,2", "0+"):
        assert main(["wheels", "--n", "5", "--parts", parts]) == 2
        assert "bad --parts: part sizes must be >= 1, got 0" in capsys.readouterr().err
    assert main([]) == 2
    # --order belongs to the vertex and sft subcommands, never before them
    assert main(["--format", "text", "--order", "5", "vertex", "zeta", "--matrix", GOLDEN_MAT]) == 2
    # each vertex command rejects the flags it would ignore
    assert main(["vertex", "zeta", "--matrix", GOLDEN_MAT, "--symbol", "∘"]) == 2
    assert main(["vertex", "global", "--matrix", GOLDEN_MAT, "--bivariate"]) == 2
    # the oracle grid stops at n = 10; a larger --max-n is refused, not clamped
    assert main(["verify", "--suite", "paper", "--max-n", "50"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "paper", "--max-n", "11"]) == 2
    assert capsys.readouterr().err == (
        "usage: scaleshift verify [-h] --suite {paper} [--max-n MAX_N]\n"
        "scaleshift verify: error: argument --max-n: must be at most 10\n"
    )
    assert main(["verify", "--suite", "paper", "--max-n", "0"]) == 2
    # oeis check reads snapshots only: no --offline, and --fixtures belongs to it
    assert main(["oeis", "check", "--id", "A000358", "--coeffs", "1", "--offline"]) == 2
    assert main(["--fixtures", FIXTURES, "oeis", "check", "--id", "A000358", "--coeffs", "1"]) == 2


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(scaleshift.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


def test_cli_import_loads_no_network_or_fractions():
    probe = (
        "import sys, scaleshift.cli; "
        "code = scaleshift.cli.main(['oeis', 'check', '--id', 'A000358', '--coeffs', '1,2,2']); "
        "print(code, sorted({'urllib.request', 'fractions'} & set(sys.modules)))"
    )
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_import_defers_verify_and_skips_dataclasses():
    # oracle and verify are registered but execute only when first used
    probe = (
        "import sys, scaleshift.cli\n"
        "scaleshift.cli.build_parser()\n"
        "names = {'oracle': 'oracle_levels', 'verify': 'run_reference_suite'}\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), [\n"
        "    name for name, attr in names.items()\n"
        "    if attr in object.__getattribute__(sys.modules[f'scaleshift.{name}'], '__dict__')\n"
        "])\n"
        "print(scaleshift.cli.verify.MAX_GRID_N, 'run_reference_suite' in vars(scaleshift.verify))\n"
    )
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] []", "10 True"]


def test_oracle_imported_before_cli_is_one_module():
    probe = (
        "import importlib, sys\n"
        "import scaleshift.oracle as first\n"
        "import scaleshift, scaleshift.cli, scaleshift.verify\n"
        "assert sys.modules['scaleshift.oracle'] is scaleshift.oracle is first\n"
        "assert scaleshift.verify.oracle_levels is first.oracle_levels\n"
        "importlib.reload(scaleshift)\n"
        "assert scaleshift.oracle is first and sys.modules['scaleshift.verify'] is scaleshift.verify\n"
        "print(scaleshift.cli.main(['verify', '--suite', 'paper', '--max-n', '2']))\n"
    )
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "0" and len([line for line in lines if ": PASS (" in line]) == 10


def test_closed_stdout_exits_1_without_traceback():
    # 0.9 MB of JSON overfills the pipe, so the writer meets the closed end
    # part way through the document, buffered or not
    src = str(Path(scaleshift.__file__).resolve().parents[1])
    argv = ["sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "30"]
    for unbuffered, head in (("", b'{"blocks":'), ("", b"{"), ("1", b"{")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "scaleshift.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered),
        )
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err, err
        if len(head) == 1:
            assert err == b""


def _sft_document(path, order, distinguished=None):
    """``sft scales``' JSON object, from the public API, scales spelled as lists."""
    presentation = parse_forbidden(Path(path).read_text(encoding="utf-8"))
    recoded = higher_block(presentation)
    shift = recoded.shift
    blocks = shift.alphabet.symbols
    if distinguished is None:
        head = presentation.alphabet.symbols[0]
        distinguished = [b for i, b in enumerate(blocks) if recoded.label(i) == head]
    table = first_return_matrix(shift, distinguished, order)
    return {
        "blocks": list(blocks),
        "distinguished": list(distinguished),
        "first_return": {f"{s}->{t}": list(series.coeffs) for (s, t), series in table.items()},
        "scales": {
            start: {
                "source": "vertex shift",
                "symbol": start,
                "sets": [{"n": n, "scales": sorted(map(list, cls.at(n)))} for n in range(1, order + 1)],
            }
            for start, cls in scale_classes(shift, distinguished, order)
        },
    }


def _subst_document(morphism, n):
    """``subst scales``' JSON object, from the letter-tuple reference."""
    per_symbol, combined, transversal, orbital = substitution_scales_ref(morphism, n)
    return {
        "n": n,
        "transversal_dim": len(transversal),
        "orbital_dim": orbital,
        "combined_size": len(combined),
        "combined": sorted(map(list, combined)),
        "transversal": sorted(map(list, transversal)),
        "per_symbol": {symbol: sorted(map(list, scales)) for symbol, scales in per_symbol.items()},
    }


def test_streamed_json_is_json_dumps_of_the_document(tmp_path, capsys):
    # every command that prints JSON, on small inputs: the streamed bytes are
    # json.dumps of the object that the public API builds, and a newline
    golden = parse_matrix(Path(GOLDEN_MAT).read_text(encoding="utf-8"))
    rules_text = '{"rules": {"ab": ["ab", "c"], "c": ["ab", "ab", "c"]}, "seed": "ab"}'
    rules = tmp_path / "rules.json"
    rules.write_text(rules_text, encoding="utf-8")
    reducible = tmp_path / "reducible.mat"
    reducible.write_text("a b\n1 1\n0 1\n", encoding="utf-8")
    spec = PartSpec.parse("2,3")
    zeta = zeta_rational(golden)
    words, witnesses = language_witnesses(golden, 6)
    bfile = (Path(FIXTURES) / "b000358.txt").read_text(encoding="utf-8")
    available = sum(1 for line in bfile.splitlines() if line.strip() and not line.startswith("#"))
    cases = [
        (["--format", "json", "wheels", "--by-length", "--n", "14", "--parts", "2,3"],
         {"n": 14, "parts": "2,3", "total": wheels_gf(spec, 14).coefficient(14),
          "by_length": wheels_row(spec, 14)[1:]}),
        (["vertex", "zeta", "--matrix", GOLDEN_MAT, "--order", "9"],
         {"numerator": list(zeta.numerator), "denominator": list(zeta.denominator),
          "coefficients": list(zeta.expand(9).coeffs)}),
        (["vertex", "loops", "--matrix", GOLDEN_MAT, "--symbol", "•", "--order", "9"],
         {"series": {"coeffs": ["0", "0", "1", "1", "1", "1", "1", "1", "1", "1"], "order": 9},
          "support": [2, 3, 4, 5, 6, 7, 8, 9], "support_max": None, "support_unbounded": True, "symbol": "•"}),
        (["vertex", "loops", "--matrix", str(reducible), "--symbol", "a", "--order", "5"],
         {"series": {"coeffs": ["0", "1", "0", "0", "0", "0"], "order": 5},
          "support": [1], "support_max": 1, "support_unbounded": False, "symbol": "a"}),
        (["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", "•", "--order", "9"],
         {"symbol": "•", **symbol_dims(golden, "•", 9).to_json()}),
        (["vertex", "dims", "--matrix", GOLDEN_MAT, "--symbol", "∘", "--order", "9", "--bivariate"],
         {"symbol": "∘", **symbol_dims(golden, "∘", 9, bivariate=True).to_json()}),
        (["vertex", "global", "--matrix", GOLDEN_MAT, "--order", "9"], global_dims(golden, 9).to_json()),
        (["vertex", "language", "--matrix", GOLDEN_MAT, "--order", "6"],
         {"n": 6, "count": len(words), "words": words, "witnesses": witnesses}),
        (["sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "12"], _sft_document(TWOSTEP_FORB, 12)),
        (["sft", "scales", "--forbidden", TWOSTEP_FORB, "--order", "9", "--set", "•∘,∘∘"],
         _sft_document(TWOSTEP_FORB, 9, ["•∘", "∘∘"])),
        (["subst", "scales", "--preset", "thue-morse", "--n", "40"], _subst_document(PRESETS["thue-morse"], 40)),
        (["subst", "scales", "--rules", str(rules), "--n", "9"],
         _subst_document(morphism_from_json(rules_text), 9)),
        (["--format", "json", "oeis", "check", "--id", "A000358", "--coeffs", "1,2,2,3"],
         {"id": "A000358", "compared": 4, "available": available, "match": True}),
        (["--format", "json", "oeis", "check", "--id", "A000358", "--coeffs", "1,2,3"],
         {"id": "A000358", "compared": 3, "available": available, "match": False,
          "first_mismatch": {"position": 2, "given": 3, "expected": 2}}),
    ]
    for argv, document in cases:
        code, out, err = run(argv, capsys)
        assert code == (1 if document.get("match") is False else 0), (argv, err)
        assert out == json.dumps(document, ensure_ascii=False, sort_keys=True) + "\n", argv


def test_snapshot_checks_cover_all_bundled_sequences(capsys):
    from scaleshift.combinatorics import PartSpec
    from scaleshift.numtheory import mobius_invert
    from scaleshift.scales import b_series, composition_gf, wheels_gf
    from scaleshift.series import RationalFunction
    from scaleshift.shiftspace import VertexShift, periodic_counts, periodic_orbit_counts

    golden = VertexShift.from_rows(("∘", "•"), ((1, 1), (1, 0)))
    # the loop sizes at • of golden and its one tail size
    bull, one = PartSpec.from_min(2), PartSpec.finite({1})
    qbar = periodic_orbit_counts(golden, 16)
    q = mobius_invert(periodic_counts(golden, 12))
    fib = RationalFunction([0, 1, -1], [1, -1, -1]).expand(11)
    checks = {
        "A000358": list(qbar.coeffs[1:]),
        "A006206": [q.coefficient(n) // n for n in range(1, 13)],
        "A006490": [(n + 1) * fib.coefficient(n + 1) for n in range(10)],
        "A032190": [int(wheels_gf(bull, 12).coefficient(n)) for n in range(1, 13)],
        "A006367": [int(b_series(bull, one, 12).coefficient(n)) for n in range(1, 13)],
        "A206268": [
            int(composition_gf(bull, 12).coefficient(n)) + int(b_series(bull, one, 12).coefficient(n))
            for n in range(13)
        ],
        "A000071": [0, 0, 1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609, 986],
    }
    for sequence_id, values in checks.items():
        coeffs = ",".join(str(v) for v in values)
        code, out, _ = run(
            ["oeis", "check", "--id", sequence_id, "--coeffs", coeffs], capsys
        )
        assert code == 0, f"{sequence_id}: {out}"
