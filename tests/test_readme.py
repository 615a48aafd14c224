"""The README's examples hold: its quick tour and every command line that states its output."""

import shlex
from pathlib import Path

from scaleshift.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _lines(language, containing=""):
    """(code, comment) per line of the first fenced ``language`` block that
    holds ``containing``; a comment alone has code ''."""
    blocks = [part.split("```", 1)[0] for part in README.split(f"```{language}\n")[1:]]
    for line in next(block for block in blocks if containing in block).splitlines():
        code, _, note = line.partition("#")
        yield code.strip(), note.strip()


def test_quick_tour():
    # `expr  # value`, or `expr` with `# value` alone on the next line
    namespace = {}
    pending = None
    checked = 0
    for code, note in _lines("python"):
        if code:
            try:
                compiled = compile(code, "<README>", "eval")
            except SyntaxError:
                exec(code, namespace)
                pending = None
                continue
            pending = eval(compiled, namespace)
        if note and pending is not None:
            assert pending == eval(note, namespace), code or note
            pending = None
            checked += 1
    assert checked == 4


def test_command_lines(capsys, monkeypatch):
    # `scaleshift ...  # stdout` states the whole stdout (a remark after it
    # starts with a letter or a dash), `# ... line` below a command its last line
    monkeypatch.chdir(ROOT / "src" / "scaleshift" / "fixtures")
    lines = list(_lines("sh", "scaleshift wheels"))
    checked = []
    for (code, note), (_, below) in zip(lines, lines[1:] + [("", "")]):
        if not code or not (note[:1].isdigit() or below.startswith("... ")):
            continue
        assert main(shlex.split(code)[1:]) == 0, code
        out = capsys.readouterr().out.strip()
        if note:
            assert out == note.split()[0], code
        else:
            assert out.splitlines()[-1] == below[4:], code
        checked.append(code)
    assert checked == [
        "scaleshift wheels --n 12",
        "scaleshift wheels --n 12 --by-length",
        "scaleshift wheels --n 5 --parts 2,3,4,5",
        "scaleshift --format text vertex dims --matrix golden.mat --symbol • --order 5 --bivariate",
    ]
