"""Command-line front end: build shifts and morphisms, count, emit JSON or text.

Exit codes: 0 success, 1 data or verification failure, 2 usage error,
3 precondition or cost-guard violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import verify  # executes on first use, see scaleshift/__init__.py
from .combinatorics import PartSpec, composition_of
from .scales import (
    DEFAULT_CAP,
    EnumerationCapError,
    global_dims,
    language_witnesses,
    scale_classes,
    symbol_dims,
    wheels_gf,
    wheels_row,
)
from .series import DEFAULT_ORDER
from .shiftspace import (
    BlockCountError,
    DegenerateShiftError,
    VertexShift,
    first_return_matrix,
    has_cycle,
    higher_block,
    loop_supports,
    parse_forbidden,
    parse_matrix,
    zeta_rational,
)
from .substitutions import PRESETS, morphism_from_json, substitution_scales
from .values import JsonText

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

CAPPED = "vertex global, vertex language, sft scales and subst scales"


class CommandError(Exception):
    """Failure with a chosen exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _full_digits():
    """Lift Python's int-to-str limit while output is built and printed, so every count prints
    in full whatever its number of digits, and restore it after: parsing input keeps it."""
    # Python before 3.10.7 has no limit to lift
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _emit(data, fmt: str, text_lines) -> None:
    """Print the dict the callable ``data`` returns as JSON, or the lines the
    callable ``text_lines`` returns.  Only the form that is printed is built.

    The JSON is the bytes of ``json.dumps(data(), ensure_ascii=False,
    sort_keys=True)`` and a newline, written a key at a time (``_write_object``).
    """
    with _full_digits():
        if fmt == "json":
            _write_object(data(), sys.stdout.write)
            sys.stdout.write("\n")
        else:
            for line in text_lines():
                print(line)


def _write_object(obj: dict, write) -> None:
    """Write ``obj`` as ``json.dumps`` spells it with sorted keys, one key at a time."""
    opening = "{"
    for key in sorted(obj):
        write(f"{opening}{json.dumps(key, ensure_ascii=False)}: ")
        _write_value(obj[key], write)
        opening = ", "
    write("}" if obj else "{}")


def _write_value(value, write) -> None:
    """Write one value: a callable's value, built only now; a ``JsonText`` as it
    is; a dict holding either of those key by key; anything else in one
    piece, through ``json.dumps``.  Every write is a key or a whole value,
    never a single scale: unbuffered, each write is a system call."""
    if callable(value):
        value = value()
    if isinstance(value, JsonText):
        write(value)
    elif isinstance(value, dict) and any(callable(v) or isinstance(v, JsonText) for v in value.values()):
        _write_object(value, write)
    else:
        write(json.dumps(value, ensure_ascii=False, sort_keys=True))


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CommandError(EXIT_DATA, f"cannot read {path}: {err}") from err


def _load_shift(path: str) -> VertexShift:
    try:
        return parse_matrix(_read_file(path))
    except ValueError as err:
        raise CommandError(EXIT_DATA, f"bad matrix file {path}: {err}") from err


# -- wheels ---------------------------------------------------------------


def cmd_wheels(args) -> int:
    try:
        spec = PartSpec.parse(args.parts)
    except ValueError as err:
        raise CommandError(EXIT_USAGE, f"bad --parts: {err}") from err
    total = wheels_gf(spec, args.n).coefficient(args.n)
    data = {"n": args.n, "parts": args.parts, "total": total}
    values = [total]
    if args.by_length:
        values = data["by_length"] = wheels_row(spec, args.n)[1:]
    _emit(lambda: data, args.format or "text", lambda: [",".join(str(v) for v in values)])
    return EXIT_OK


# -- vertex ---------------------------------------------------------------


def _require_symbol(args, shift: VertexShift) -> str:
    if args.symbol not in shift.alphabet:
        raise CommandError(
            EXIT_USAGE,
            f"symbol {args.symbol!r} not in alphabet {list(shift.alphabet.symbols)}",
        )
    return args.symbol


def _dims_lines(report, order: int) -> list[str]:
    """One line per n; with by-notes tables, their cells m = 1..n follow on it."""
    lines = [
        f"n={n} transversal={report.transversal_at(n)} orbital={report.orbital_at(n)}"
        for n in range(1, order + 1)
    ]
    if report.bivariate_transversal is None:
        return lines
    return [
        f"{line} transversal_by_notes={_notes(report.bivariate_transversal, n)}"
        f" orbital_by_notes={_notes(report.bivariate_orbital, n)}"
        for n, line in enumerate(lines, start=1)
    ]


def _notes(table, n: int) -> str:
    return ",".join(map(str, table.rows[n][1:]))


def cmd_vertex_zeta(args) -> int:
    shift = _load_shift(args.matrix)
    form = zeta_rational(shift)
    coeffs = list(form.expand(args.order).coeffs)
    data = {
        "numerator": list(form.numerator),
        "denominator": list(form.denominator),
        "coefficients": coeffs,
    }
    _emit(lambda: data, args.format or "json", lambda: [",".join(str(c) for c in coeffs)])
    return EXIT_OK


def cmd_vertex_loops(args) -> int:
    shift = _load_shift(args.matrix)
    symbol = _require_symbol(args, shift)
    series = first_return_matrix(shift, (symbol,), args.order)[symbol, symbol]
    parts = loop_supports(shift, symbol, args.order)[0]
    _emit(
        lambda: {
            "symbol": symbol,
            "series": series.to_json(),
            "support": list(parts.members_up_to(args.order)),
            "support_unbounded": parts.unbounded,
            "support_max": parts.max_part,
        },
        args.format or "json",
        lambda: [",".join(str(c) for c in series.coeffs)],
    )
    return EXIT_OK


def cmd_vertex_dims(args) -> int:
    shift = _load_shift(args.matrix)
    symbol = _require_symbol(args, shift)
    report = symbol_dims(shift, symbol, args.order, bivariate=args.bivariate)
    _emit(
        lambda: {"symbol": symbol, **report.to_json()},
        args.format or "json",
        lambda: _dims_lines(report, args.order),
    )
    return EXIT_OK


def cmd_vertex_global(args) -> int:
    shift = _load_shift(args.matrix)
    report = global_dims(shift, args.order, cap=args.cap)
    _emit(report.to_json, args.format or "json", lambda: _dims_lines(report, args.order))
    return EXIT_OK


def cmd_vertex_language(args) -> int:
    shift = _load_shift(args.matrix)
    words, witnesses = language_witnesses(shift, args.order, args.cap)
    data = {"n": args.order, "count": len(words), "words": words, "witnesses": witnesses}
    _emit(lambda: data, args.format or "json", lambda: [",".join(words)])
    return EXIT_OK


# -- sft ------------------------------------------------------------------


def cmd_sft(args) -> int:
    try:
        presentation = parse_forbidden(_read_file(args.forbidden))
    except ValueError as err:
        raise CommandError(EXIT_DATA, f"bad forbidden-block file {args.forbidden}: {err}") from err
    try:
        recoded = higher_block(presentation)
    except DegenerateShiftError as err:
        raise CommandError(EXIT_DATA, f"degenerate shift: {err}") from err
    shift = recoded.shift
    if not has_cycle(shift):
        raise CommandError(
            EXIT_DATA,
            "degenerate shift: the block graph has no cycles, so no bi-infinite sequences remain",
        )
    blocks = shift.alphabet.symbols
    if args.set is not None:
        distinguished = tuple(token for token in args.set.split(",") if token)
        missing = [token for token in distinguished if token not in blocks]
        if missing:
            raise CommandError(
                EXIT_USAGE, f"unknown block symbols {missing}; choose from {list(blocks)}"
            )
        if not distinguished or len(set(distinguished)) < len(distinguished):
            raise CommandError(EXIT_USAGE, f"--set must name distinct blocks, got {args.set!r}")
    else:
        head = presentation.alphabet.symbols[0]
        distinguished = tuple(
            blocks[i] for i in range(len(blocks)) if recoded.label(i) == head
        )
        if not distinguished:
            raise CommandError(
                EXIT_DATA, f"no admissible block starts with the first symbol {head!r}; name blocks with --set"
            )
    scales = dict(scale_classes(shift, distinguished, args.order, args.cap))
    matrix = first_return_matrix(shift, distinguished, args.order)
    table = {f"{s}->{t}": list(series.coeffs) for (s, t), series in matrix.items()}
    _emit(
        lambda: {
            "blocks": list(blocks),
            "distinguished": list(distinguished),
            "first_return": table,
            # each class is spelled when its key is written, and popped: no two
            # starts hold both forms at once
            "scales": {start: lambda start=start: scales.pop(start).to_json() for start in distinguished},
        },
        args.format or "json",
        lambda: _sft_lines(blocks, distinguished, table, scales),
    )
    return EXIT_OK


def _sft_lines(blocks, distinguished, table: dict, scales: dict) -> list[str]:
    lines = [f"blocks: {' '.join(blocks)}", f"distinguished: {' '.join(distinguished)}"]
    lines += [f"{pair}: {','.join(str(c) for c in coeffs)}" for pair, coeffs in sorted(table.items())]
    for start in distinguished:
        sizes = scales[start].by_size
        lines.append(f"scales from {start}: " + ",".join(str(len(sizes[n])) for n in sorted(sizes)))
    return lines


# -- subst ----------------------------------------------------------------


def cmd_subst(args) -> int:
    if args.preset:
        morphism = PRESETS[args.preset]
    else:
        try:
            morphism = morphism_from_json(_read_file(args.rules))
        except ValueError as err:
            raise CommandError(EXIT_DATA, f"bad rules file {args.rules}: {err}") from err
    study = substitution_scales(morphism, args.n, cap=args.cap)
    _emit(study.to_json, args.format or "json", lambda: _subst_lines(study))
    return EXIT_OK


def _subst_lines(study) -> list[str]:
    lines = [
        f"scales: {len(study.combined)}",
        f"transversal_dim: {study.transversal_dim}",
        f"orbital_dim: {study.orbital_dim}",
    ]
    # descending patterns of one total are ascending compositions
    return lines + [",".join(map(str, composition_of(p))) for p in sorted(study.combined, reverse=True)]


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    results = verify.run_reference_suite(args.max_n or verify.MAX_GRID_N)
    fmt = args.format or "text"
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        summary = f"CHECK {result.number} ({result.label}): {status} ({len(result.reports)} rows)"
        if fmt == "json":
            for report in result.reports:
                print(json.dumps(report.to_json(), ensure_ascii=False, sort_keys=True))
            print(summary, file=sys.stderr)
        else:
            print(summary)
            for report in result.failures():
                print("  " + json.dumps(report.to_json(), ensure_ascii=False, sort_keys=True))
        failed = failed or not result.passed
    return EXIT_DATA if failed else EXIT_OK


# -- oeis -----------------------------------------------------------------


def _parse_bfile(text: str) -> list[int]:
    values = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"bad b-file line: {line!r}")
        values.append(int(fields[1]))
    if not values:
        raise ValueError("b-file holds no terms")
    return values


def cmd_oeis(args) -> int:
    sequence_id = args.id
    if len(sequence_id) != 7 or sequence_id[0] != "A" or not sequence_id[1:].isdigit():
        raise CommandError(EXIT_USAGE, f"bad sequence id {sequence_id!r}, expected Annnnnn")
    try:
        coeffs = [int(tok) for tok in args.coeffs.split(",") if tok.strip()]
    except ValueError as err:
        raise CommandError(EXIT_USAGE, f"bad --coeffs: {err}") from err
    if not coeffs:
        raise CommandError(EXIT_USAGE, "--coeffs needs at least one integer")
    path = Path(args.fixtures) / f"b{sequence_id[1:]}.txt"
    if not path.exists():
        raise CommandError(EXIT_DATA, f"no b-file snapshot for {sequence_id} at {path}")
    try:
        values = _parse_bfile(_read_file(path))
    except ValueError as err:
        raise CommandError(EXIT_DATA, f"unreadable b-file for {sequence_id}: {err}") from err
    data = {
        "id": sequence_id,
        "compared": len(coeffs),
        "available": len(values),
    }
    if len(coeffs) > len(values):
        data["match"] = False
        data["reason"] = "prefix longer than the snapshot"
        _emit(lambda: data, args.format or "text", lambda: [f"mismatch: {data['reason']}"])
        return EXIT_DATA
    for i, (given, known) in enumerate(zip(coeffs, values)):
        if given != known:
            data["match"] = False
            data["first_mismatch"] = {"position": i, "given": given, "expected": known}
            _emit(
                lambda: data,
                args.format or "text",
                lambda: [f"mismatch at position {i}: given {given}, expected {known}"],
            )
            return EXIT_DATA
    data["match"] = True
    _emit(lambda: data, args.format or "text", lambda: ["match"])
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _grid_order(text: str) -> int:
    value = _positive_int(text)
    if value > verify.MAX_GRID_N:
        raise argparse.ArgumentTypeError(f"must be at most {verify.MAX_GRID_N}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaleshift",
        description="Exact scale combinatorics over shift spaces.",
    )
    parser.add_argument("--format", choices=("json", "text"), default=None)
    # the CAPPED commands set takes_cap; main defaults --cap to DEFAULT_CAP, or rejects it
    parser.add_argument("--cap", type=_positive_int, default=None)
    commands = parser.add_subparsers(dest="command", required=True)

    wheels = commands.add_parser("wheels", help="count cyclic composition classes")
    wheels.add_argument("--n", type=_positive_int, required=True)
    wheels.add_argument("--parts", default="all", help="'all', 'k+', or comma-separated sizes")
    wheels.add_argument("--by-length", action="store_true")
    wheels.set_defaults(handler=cmd_wheels)

    vertex = commands.add_parser("vertex", help="vertex shift computations")
    vertex_commands = vertex.add_subparsers(dest="vertex_command", required=True)

    def vertex_leaf(name, handler, help_text, takes_cap=False):
        leaf = vertex_commands.add_parser(name, help=help_text)
        leaf.add_argument("--matrix", required=True)
        leaf.add_argument("--order", type=_positive_int, default=DEFAULT_ORDER)
        leaf.set_defaults(handler=handler, takes_cap=takes_cap)
        return leaf

    vertex_leaf("zeta", cmd_vertex_zeta, "zeta function coefficients")
    loops = vertex_leaf("loops", cmd_vertex_loops, "first-return loops at a symbol")
    loops.add_argument("--symbol", required=True)
    dims = vertex_leaf("dims", cmd_vertex_dims, "closed-form dimensions at a symbol")
    dims.add_argument("--symbol", required=True)
    dims.add_argument("--bivariate", action="store_true")
    vertex_leaf("global", cmd_vertex_global, "enumerated dimensions over all symbols", True)
    vertex_leaf("language", cmd_vertex_language, "words of one length and their witnesses", True)

    sft = commands.add_parser("sft", help="shift of finite type computations")
    sft_commands = sft.add_subparsers(dest="sft_command", required=True)
    sft_scales = sft_commands.add_parser("scales", help="scales via the distinguished block set")
    sft_scales.add_argument("--forbidden", required=True)
    sft_scales.add_argument("--set", default=None, help="comma-separated block symbols")
    sft_scales.add_argument("--order", type=_positive_int, required=True)
    sft_scales.set_defaults(handler=cmd_sft, takes_cap=True)

    subst = commands.add_parser("subst", help="substitution fixed-point computations")
    subst_commands = subst.add_subparsers(dest="subst_command", required=True)
    subst_scales = subst_commands.add_parser("scales", help="scales of the exact block language")
    source = subst_scales.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS))
    source.add_argument("--rules", help="morphism JSON file")
    subst_scales.add_argument("--n", type=_positive_int, required=True)
    subst_scales.set_defaults(handler=cmd_subst, takes_cap=True)

    suite = commands.add_parser("verify", help="run a regression suite")
    suite.add_argument("--suite", choices=("paper",), required=True)
    # no default here: reading verify.MAX_GRID_N would execute verify
    suite.add_argument("--max-n", type=_grid_order, default=None, dest="max_n")
    suite.set_defaults(handler=cmd_verify)

    oeis = commands.add_parser("oeis", help="sequence snapshot checks")
    oeis_commands = oeis.add_subparsers(dest="oeis_command", required=True)
    oeis_check = oeis_commands.add_parser("check", help="compare coefficients with a b-file")
    oeis_check.add_argument("--id", required=True)
    oeis_check.add_argument("--coeffs", required=True)
    oeis_check.add_argument(
        "--fixtures", default=Path(__file__).parent / "fixtures", help="b-file snapshot directory"
    )
    oeis_check.set_defaults(handler=cmd_oeis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return exit_request.code if isinstance(exit_request.code, int) else EXIT_USAGE
    try:
        if args.cap is None:
            args.cap = DEFAULT_CAP
        elif not getattr(args, "takes_cap", False):
            raise CommandError(EXIT_USAGE, f"--cap applies only to {CAPPED}")
        return args.handler(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BlockCountError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EnumerationCapError as err:
        size = "--n" if args.command == "subst" else "--order"
        with _full_digits():
            print(f"error: {err}; lower {size} or raise --cap", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader closed stdout early: point its descriptor at the null
        # device, so the interpreter's final flush of what is still buffered
        # fails silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
