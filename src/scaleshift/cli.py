"""Command-line front end: build shifts and morphisms, count, emit JSON or text.

Exit codes: 0 success, 1 data or verification failure, 2 usage error,
3 precondition or cost-guard violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .combinatorics import PartSpec, transversal_of
from .scales import (
    DEFAULT_CAP,
    EnumerationCapError,
    global_dims,
    scale_class,
    symbol_dims,
    wheels_bgf,
    wheels_gf,
)
from .series import DEFAULT_ORDER
from .shiftspace import (
    BlockCountError,
    DegenerateShiftError,
    ReducibleShiftError,
    VertexShift,
    first_return,
    first_return_matrix,
    higher_block,
    language_from,
    parse_forbidden,
    parse_matrix,
    word_counts,
    word_texts,
    zeta,
    zeta_rational,
)
from .substitutions import PRESETS, morphism_from_json, substitution_scales
from .verify import MAX_GRID_N, run_reference_suite

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class CommandError(Exception):
    """Failure with a chosen exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(data: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(data, ensure_ascii=False, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    lines = [str(total)]
    if args.by_length:
        table = wheels_bgf(spec, args.n)
        row = list(table.rows[args.n][1:])
        data["by_length"] = row
        lines = [",".join(str(v) for v in row)]
    _emit(data, args.format or "text", lines)
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
    return [
        f"n={n} transversal={report.transversal_at(n)} orbital={report.orbital_at(n)}"
        for n in range(1, order + 1)
    ]


def cmd_vertex_zeta(args) -> int:
    shift = _load_shift(args.matrix)
    form = zeta_rational(shift)
    coeffs = list(zeta(shift, args.order).coeffs)
    data = {
        "numerator": list(form.numerator),
        "denominator": list(form.denominator),
        "coefficients": coeffs,
    }
    _emit(data, args.format or "json", [",".join(str(c) for c in coeffs)])
    return EXIT_OK


def cmd_vertex_loops(args) -> int:
    shift = _load_shift(args.matrix)
    loops = first_return(shift, _require_symbol(args, shift), args.order)
    coeffs = loops.series.coeffs
    _emit(loops.to_json(), args.format or "json", [",".join(str(c) for c in coeffs)])
    return EXIT_OK


def cmd_vertex_dims(args) -> int:
    shift = _load_shift(args.matrix)
    symbol = _require_symbol(args, shift)
    report = symbol_dims(shift, symbol, args.order, bivariate=args.bivariate)
    data = {"symbol": symbol, **report.to_json()}
    _emit(data, args.format or "json", _dims_lines(report, args.order))
    return EXIT_OK


def cmd_vertex_global(args) -> int:
    shift = _load_shift(args.matrix)
    report = global_dims(shift, args.order, cap=args.cap)
    _emit(report.to_json(), args.format or "json", _dims_lines(report, args.order))
    return EXIT_OK


def cmd_vertex_language(args) -> int:
    shift = _load_shift(args.matrix)
    order = args.order
    count = word_counts(shift, order)[-1]
    if count > args.cap:
        raise EnumerationCapError(f"enumerating {count} words of length {order} exceeds the cap")
    words = sorted(language_from(shift, range(shift.size), order))
    data = {
        "n": order,
        "count": len(words),
        "words": word_texts(shift, words),
        "witnesses": word_texts(shift, sorted(transversal_of(words))),
    }
    _emit(data, args.format or "json", [data["words"] and ",".join(data["words"]) or ""])
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
    # det(I - zA) = 1 exactly when A is nilpotent, i.e. the graph has no cycle
    if zeta_rational(shift).denominator == (1,):
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
    matrix = first_return_matrix(shift, distinguished, args.order)
    table = {
        f"{s}->{t}": list(series.coeffs)
        for (s, t), series in matrix.items()
    }
    scales = {
        start: scale_class(
            shift, start, args.order, args.cap, distinguished=distinguished
        ).to_json()
        for start in distinguished
    }
    data = {
        "blocks": list(blocks),
        "distinguished": list(distinguished),
        "first_return": table,
        "scales": scales,
    }
    lines = [f"blocks: {' '.join(blocks)}", f"distinguished: {' '.join(distinguished)}"]
    lines += [f"{pair}: {','.join(str(c) for c in coeffs)}" for pair, coeffs in sorted(table.items())]
    for start in distinguished:
        sizes = {entry["n"]: len(entry["scales"]) for entry in scales[start]["sets"]}
        lines.append(f"scales from {start}: " + ",".join(str(sizes[n]) for n in sorted(sizes)))
    _emit(data, args.format or "json", lines)
    return EXIT_OK


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
    data = study.to_json()
    data["transversal"] = [list(comp) for comp in sorted(transversal_of(study.combined))]
    lines = [
        f"scales: {len(study.combined)}",
        f"transversal_dim: {study.transversal_dim}",
        f"orbital_dim: {study.orbital_dim}",
    ]
    lines += [",".join(str(k) for k in comp) for comp in sorted(study.combined)]
    _emit(data, args.format or "json", lines)
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_reference_suite(args.max_n)
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
        values = _parse_bfile(path.read_text(encoding="utf-8"))
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
        _emit(data, args.format or "text", [f"mismatch: {data['reason']}"])
        return EXIT_DATA
    for i, (given, known) in enumerate(zip(coeffs, values)):
        if given != known:
            data["match"] = False
            data["first_mismatch"] = {"position": i, "given": given, "expected": known}
            _emit(
                data,
                args.format or "text",
                [f"mismatch at position {i}: given {given}, expected {known}"],
            )
            return EXIT_DATA
    data["match"] = True
    _emit(data, args.format or "text", ["match"])
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _grid_order(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_GRID_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_GRID_N}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaleshift",
        description="Exact scale combinatorics over shift spaces.",
    )
    parser.add_argument("--format", choices=("json", "text"), default=None)
    parser.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    commands = parser.add_subparsers(dest="command", required=True)

    wheels = commands.add_parser("wheels", help="count cyclic composition classes")
    wheels.add_argument("--n", type=_positive_int, required=True)
    wheels.add_argument("--parts", default="all", help="'all', 'k+', or comma-separated sizes")
    wheels.add_argument("--by-length", action="store_true")
    wheels.set_defaults(handler=cmd_wheels)

    vertex = commands.add_parser("vertex", help="vertex shift computations")
    vertex_commands = vertex.add_subparsers(dest="vertex_command", required=True)

    def vertex_leaf(name, handler, help_text):
        leaf = vertex_commands.add_parser(name, help=help_text)
        leaf.add_argument("--matrix", required=True)
        leaf.add_argument("--order", type=_positive_int, default=DEFAULT_ORDER)
        leaf.set_defaults(handler=handler)
        return leaf

    vertex_leaf("zeta", cmd_vertex_zeta, "zeta function coefficients")
    loops = vertex_leaf("loops", cmd_vertex_loops, "first-return loops at a symbol")
    loops.add_argument("--symbol", required=True)
    dims = vertex_leaf("dims", cmd_vertex_dims, "closed-form dimensions at a symbol")
    dims.add_argument("--symbol", required=True)
    dims.add_argument("--bivariate", action="store_true")
    vertex_leaf("global", cmd_vertex_global, "enumerated dimensions over all symbols")
    vertex_leaf("language", cmd_vertex_language, "words of one length and their witnesses")

    sft = commands.add_parser("sft", help="shift of finite type computations")
    sft_commands = sft.add_subparsers(dest="sft_command", required=True)
    sft_scales = sft_commands.add_parser("scales", help="scales via the distinguished block set")
    sft_scales.add_argument("--forbidden", required=True)
    sft_scales.add_argument("--set", default=None, help="comma-separated block symbols")
    sft_scales.add_argument("--order", type=_positive_int, required=True)
    sft_scales.set_defaults(handler=cmd_sft)

    subst = commands.add_parser("subst", help="substitution fixed-point computations")
    subst_commands = subst.add_subparsers(dest="subst_command", required=True)
    subst_scales = subst_commands.add_parser("scales", help="scales of the exact block language")
    source = subst_scales.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS))
    source.add_argument("--rules", help="morphism JSON file")
    subst_scales.add_argument("--n", type=_positive_int, required=True)
    subst_scales.set_defaults(handler=cmd_subst)

    verify = commands.add_parser("verify", help="run a regression suite")
    verify.add_argument("--suite", choices=("paper",), required=True)
    verify.add_argument("--max-n", type=_grid_order, default=MAX_GRID_N, dest="max_n")
    verify.set_defaults(handler=cmd_verify)

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
        return args.handler(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ReducibleShiftError, BlockCountError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EnumerationCapError as err:
        size = "--n" if args.command == "subst" else "--order"
        print(f"error: {err}; lower {size} or raise --cap", file=sys.stderr)
        return EXIT_PRECONDITION
    except DegenerateShiftError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
