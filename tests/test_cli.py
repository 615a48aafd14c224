import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scaleshift
from scaleshift.cli import main

from refsets import WHEELS_12_BY_LENGTH

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


def test_vertex_global(capsys):
    code, out, _ = run(["vertex", "global", "--matrix", GOLDEN_MAT, "--order", "12"], capsys)
    assert code == 0
    rows = {row["n"]: row for row in json.loads(out)["rows"]}
    assert (rows[12]["transversal"], rows[12]["orbital"]) == (115, 561)
    assert (rows[5]["transversal"], rows[5]["orbital"]) == (6, 13)
    assert rows[12]["class_size"] == 376


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


def test_vertex_language_default_cap(tmp_path, capsys):
    # a full 4-symbol shift has 4^14 (about 2.7e8) words of length 14, over the default cap
    target = tmp_path / "full4.mat"
    target.write_text("a b c d\n" + "1 1 1 1\n" * 4, encoding="utf-8")
    code, out, err = run(["vertex", "language", "--matrix", str(target), "--order", "14"], capsys)
    assert code == 3
    assert out == ""
    assert "enumerating 268435456 words of length 14" in err


def test_vertex_reducible_exit(tmp_path, capsys):
    target = tmp_path / "split.mat"
    target.write_text("a b\n1 0\n0 1\n", encoding="utf-8")
    code, _, err = run(
        ["vertex", "dims", "--matrix", str(target), "--symbol", "a", "--order", "4"], capsys
    )
    assert code == 3
    assert "irreducible" in err
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


def test_sft_degenerate(tmp_path, capsys):
    target = tmp_path / "dead.forb"
    target.write_text("∘•\n•∘\n∘∘\n••\n", encoding="utf-8")
    code, _, err = run(["sft", "scales", "--forbidden", str(target), "--order", "4"], capsys)
    assert code == 1


def test_sft_block_count_guard(tmp_path, capsys):
    # a 22-letter forbidden block needs 2^21 blocks of 21 letters: a cost guard
    target = tmp_path / "long.forb"
    target.write_text("# alphabet: ∘ •\n" + "∘" * 21 + "•\n", encoding="utf-8")
    code, out, err = run(["sft", "scales", "--forbidden", str(target), "--order", "4"], capsys)
    assert code == 3
    assert out == ""
    assert "2^21 is too large" in err


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


def test_usage_errors(capsys):
    assert main(["wheels"]) == 2
    assert main(["subst", "scales", "--preset", "unknown", "--n", "4"]) == 2
    assert main(["verify", "--suite", "other"]) == 2
    assert main([]) == 2
    # --order belongs to the vertex and sft subcommands, never before them
    assert main(["--format", "text", "--order", "5", "vertex", "zeta", "--matrix", GOLDEN_MAT]) == 2
    # each vertex command rejects the flags it would ignore
    assert main(["vertex", "zeta", "--matrix", GOLDEN_MAT, "--symbol", "∘"]) == 2
    assert main(["vertex", "global", "--matrix", GOLDEN_MAT, "--bivariate"]) == 2
    # the oracle grid stops at n = 10; a larger --max-n is refused, not clamped
    assert main(["verify", "--suite", "paper", "--max-n", "50"]) == 2
    assert main(["verify", "--suite", "paper", "--max-n", "11"]) == 2
    assert main(["verify", "--suite", "paper", "--max-n", "0"]) == 2
    # oeis check reads snapshots only: no --offline, and --fixtures belongs to it
    assert main(["oeis", "check", "--id", "A000358", "--coeffs", "1", "--offline"]) == 2
    assert main(["--fixtures", FIXTURES, "oeis", "check", "--id", "A000358", "--coeffs", "1"]) == 2


def test_cli_import_loads_no_network_or_fractions():
    src = str(Path(scaleshift.__file__).resolve().parents[1])
    probe = (
        "import sys, scaleshift.cli; "
        "code = scaleshift.cli.main(['oeis', 'check', '--id', 'A000358', '--coeffs', '1,2,2']); "
        "print(code, sorted({'urllib.request', 'fractions'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_snapshot_checks_cover_all_bundled_sequences(capsys):
    from scaleshift.combinatorics import PartSpec
    from scaleshift.numtheory import mobius_invert
    from scaleshift.scales import b_series, composition_gf, wheels_gf
    from scaleshift.series import RationalFunction
    from scaleshift.shiftspace import VertexShift, periodic_counts, periodic_orbit_counts

    golden = VertexShift.from_rows(("∘", "•"), ((1, 1), (1, 0)))
    qbar = periodic_orbit_counts(golden, 16)
    q = mobius_invert(periodic_counts(golden, 12))
    fib = RationalFunction([0, 1, -1], [1, -1, -1]).expand(11)
    checks = {
        "A000358": [qbar[n] for n in range(1, 17)],
        "A006206": [q[n] // n for n in range(1, 13)],
        "A006490": [(n + 1) * fib.coefficient(n + 1) for n in range(10)],
        "A032190": [int(wheels_gf(PartSpec.from_min(2), 12).coefficient(n)) for n in range(1, 13)],
        "A006367": [int(b_series(PartSpec.from_min(2), 12).coefficient(n)) for n in range(1, 13)],
        "A206268": [
            int(composition_gf(PartSpec.from_min(2), 12).coefficient(n))
            + int(b_series(PartSpec.from_min(2), 12).coefficient(n))
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
