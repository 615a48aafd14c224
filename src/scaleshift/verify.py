"""Full regression grid: reference numbers plus oracle cross-checks.

Each check function returns a list of OracleReport rows; a check passes
when every row matches.  Rows call the public functions the CLI runs, not
copies of them.  The CLI ``verify`` command prints the rows and the
acceptance tests gate on them, so this module is the single place where
the expected numbers live.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

from .combinatorics import PartSpec, composition_of, mutually_independent
from .numtheory import divisors, mobius, mobius_invert, totient
from .oracle import oracle_levels
from .scales import (
    a_series,
    b_series,
    composition_bgf,
    composition_gf,
    global_dims,
    language_witnesses,
    scale_class,
    scale_classes,
    symbol_dims,
    wheels_bgf,
    wheels_gf,
    wheels_row,
)
from .series import RationalFunction, TruncatedSeries
from .shiftspace import (
    SftPresentation,
    VertexShift,
    first_return,
    first_return_matrix,
    higher_block,
    is_irreducible,
    language_dims,
    periodic_counts,
    periodic_orbit_counts,
    zeta,
    zeta_rational,
)
from .substitutions import PRESETS, block_language, substitution_scales
from .values import Frozen

CIRC = "∘"
BULL = "•"

GOLDEN = VertexShift.from_rows((CIRC, BULL), ((1, 1), (1, 0)))

#: Largest word length the oracle grid compares; the CLI rejects larger --max-n.
MAX_GRID_N = 10

WHEELS_PREFIX = (1, 2, 3, 5, 7, 13)
WHEELS_12 = 351
WHEELS_12_BY_LENGTH = (1, 6, 19, 43, 66, 80, 66, 43, 19, 6, 1, 1)

GOLDEN_P_PREFIX = (1, 3, 4, 7, 11, 18)
GOLDEN_QBAR_PREFIX = (1, 2, 2, 3, 3, 5, 5, 8, 10)
GOLDEN_LANG_T = (2, 2, 3, 4, 5, 8)
GOLDEN_LANG_O = (2, 3, 7, 11, 21, 36, 64, 111, 193)

def _w(text: str) -> tuple[str, ...]:
    return tuple(text)

GOLDEN_LANG_WITNESSES = {
    1: {_w("∘"), _w("•")},
    2: {_w("∘∘"), _w("∘•")},
    3: {_w("∘∘∘"), _w("∘∘•"), _w("•∘•")},
    4: {_w("∘∘∘∘"), _w("∘∘∘•"), _w("∘•∘•"), _w("•∘∘•")},
    5: {_w("∘∘∘∘∘"), _w("∘∘∘∘•"), _w("∘∘•∘•"), _w("•∘∘∘•"), _w("•∘•∘•")},
    6: {
        _w("∘∘∘∘∘∘"),
        _w("∘∘∘∘∘•"),
        _w("∘∘∘•∘•"),
        _w("∘∘•∘∘•"),
        _w("∘•∘•∘•"),
        _w("•∘∘∘∘•"),
        _w("•∘∘•∘•"),
        _w("•∘•∘∘•"),
    },
}

GOLDEN_C5 = {
    (1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1),
    (1, 2, 2), (2, 1, 2), (2, 2, 1),
    (5,), (4, 1), (3, 2), (2, 3), (2, 2, 1),
}

TWO_STEP_FORBIDDEN = {(BULL, BULL), (CIRC, CIRC, CIRC)}
TWO_STEP_ROWS = ((0, 1, 0), (0, 0, 1), (1, 1, 0))


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class OracleReport(Frozen):
    """One checked row: a quantity, its parameters, and the expected and actual counts."""

    __slots__ = ("quantity", "parameters", "expected", "actual")

    def __init__(self, quantity: str, parameters, expected: int, actual: int):
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "parameters", dict(parameters))
        object.__setattr__(self, "expected", int(expected))
        object.__setattr__(self, "actual", int(actual))

    @property
    def match(self) -> bool:
        return self.expected == self.actual

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "parameters": {key: _jsonable(value) for key, value in self.parameters.items()},
            "expected": self.expected,
            "actual": self.actual,
            "match": self.match,
        }


def _equals(quantity: str, parameters: dict, expected_obj, actual_obj) -> OracleReport:
    return OracleReport(quantity, parameters, 1, expected_obj == actual_obj)


def check_wheel_counts() -> list[OracleReport]:
    reports = []
    totals = wheels_gf(PartSpec.naturals(), 12)
    reports.append(OracleReport("wheels.total", {"n": 12}, WHEELS_12, totals.coefficient(12)))
    for n, expected in enumerate(WHEELS_PREFIX, start=1):
        reports.append(OracleReport("wheels.prefix", {"n": n}, expected, totals.coefficient(n)))
    row = wheels_row(PartSpec.naturals(), 12)
    for m, expected in enumerate(WHEELS_12_BY_LENGTH, start=1):
        reports.append(OracleReport("wheels.by_length", {"n": 12, "m": m}, expected, row[m]))
    return reports


def check_composition_counts() -> list[OracleReport]:
    series = composition_gf(PartSpec.naturals(), 20)
    return [
        OracleReport("compositions.total", {"n": n}, 2 ** (n - 1), series.coefficient(n))
        for n in range(1, 21)
    ]


def check_golden_series() -> list[OracleReport]:
    reports = []
    reports.append(
        _equals(
            "golden.zeta_form",
            {"denominator": [1, -1, -1]},
            RationalFunction([1], [1, -1, -1]),
            zeta_rational(GOLDEN),
        )
    )
    fib = [1, 1]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    expansion = zeta(GOLDEN, 16)
    matched = sum(expansion.coefficient(n) == fib[n] for n in range(17))
    reports.append(OracleReport("golden.zeta_coeffs", {"order": 16}, 17, matched))
    p = periodic_counts(GOLDEN, 6)
    for n, expected in enumerate(GOLDEN_P_PREFIX, start=1):
        reports.append(OracleReport("golden.periodic", {"n": n}, expected, p.coefficient(n)))
    qbar = periodic_orbit_counts(GOLDEN, 9)
    for n, expected in enumerate(GOLDEN_QBAR_PREFIX, start=1):
        reports.append(OracleReport("golden.orbit_counts", {"n": n}, expected, qbar.coefficient(n)))
    f_circ = first_return(GOLDEN, CIRC, 16).series
    matched = sum(f_circ.coefficient(n) == (1 if n in (1, 2) else 0) for n in range(17))
    reports.append(OracleReport("golden.first_return_circ", {"order": 16}, 17, matched))
    f_bull = first_return(GOLDEN, BULL, 16).series
    matched = sum(f_bull.coefficient(n) == (1 if n >= 2 else 0) for n in range(17))
    reports.append(OracleReport("golden.first_return_bull", {"order": 16}, 17, matched))
    return reports


def check_golden_language() -> list[OracleReport]:
    reports = []
    report = language_dims(GOLDEN, 9)
    for n, expected in enumerate(GOLDEN_LANG_T, start=1):
        reports.append(
            OracleReport("golden.language_transversal", {"n": n}, expected, report.transversal_at(n))
        )
    for n, expected in enumerate(GOLDEN_LANG_O, start=1):
        reports.append(
            OracleReport("golden.language_orbital", {"n": n}, expected, report.orbital_at(n))
        )
    for n, expected in GOLDEN_LANG_WITNESSES.items():
        computed = sorted(language_witnesses(GOLDEN, n)[1])
        parameters = {"n": n, "computed": computed}
        found = {_w(text) for text in computed}
        reports.append(_equals("golden.language_witnesses", parameters, expected, found))
    return reports


def check_golden_scale_sets() -> list[OracleReport]:
    reports = []
    circ = scale_class(GOLDEN, CIRC, 12)
    bull = scale_class(GOLDEN, BULL, 12)
    reports.append(OracleReport("scale_class.size", {"symbol": CIRC, "n": 12}, 233, len(circ.at(12))))
    reports.append(OracleReport("scale_class.size", {"symbol": BULL, "n": 12}, 144, len(bull.at(12))))
    reports.append(
        OracleReport(
            "scale_class.size",
            {"symbol": "all", "n": 12},
            376,
            len(circ.at(12) | bull.at(12)),
        )
    )
    combined5 = circ.at(5) | bull.at(5)
    reports.append(OracleReport("scale_class.size", {"symbol": "all", "n": 5}, 12, len(combined5)))
    reports.append(
        _equals("scale_class.set", {"symbol": "all", "n": 5}, frozenset(GOLDEN_C5), combined5)
    )
    return reports


def check_golden_dims() -> list[OracleReport]:
    reports = []
    circ = symbol_dims(GOLDEN, CIRC, 12, bivariate=True)
    reports.append(OracleReport("dims.transversal", {"symbol": CIRC, "n": 12}, 31, circ.transversal_at(12)))
    reports.append(OracleReport("dims.orbital", {"symbol": CIRC, "n": 12}, 233, circ.orbital_at(12)))
    bull = symbol_dims(GOLDEN, BULL, 12, bivariate=True)
    reports.append(OracleReport("dims.transversal", {"symbol": BULL, "n": 12}, 85, bull.transversal_at(12)))
    reports.append(OracleReport("dims.orbital", {"symbol": BULL, "n": 12}, 329, bull.orbital_at(12)))
    loops = first_return(GOLDEN, BULL, 12)
    tailed = a_series(loops.parts, loops.tails, 12)
    reports.append(OracleReport("dims.tail_classes", {"symbol": BULL, "n": 12}, 55, tailed.coefficient(12)))
    modes = b_series(loops.parts, loops.tails, 12)
    reports.append(OracleReport("dims.tail_modes", {"symbol": BULL, "n": 12}, 240, modes.coefficient(12)))
    top = global_dims(GOLDEN, 12)
    reports.append(OracleReport("dims.global_transversal", {"n": 12}, 115, top.transversal_at(12)))
    reports.append(OracleReport("dims.global_orbital", {"n": 12}, 561, top.orbital_at(12)))
    reports.append(OracleReport("dims.global_transversal", {"n": 5}, 6, top.transversal_at(5)))
    reports.append(OracleReport("dims.global_orbital", {"n": 5}, 13, top.orbital_at(5)))
    return reports


def check_substitution_studies() -> list[OracleReport]:
    reports = []
    expected = {
        "thue-morse": (18, 8, 49),
        "fibonacci": (13, 10, 66),
        "feigenbaum": (20, 6, 28),
    }
    studies = {}
    for name, (size, dim_t, dim_o) in expected.items():
        study = substitution_scales(PRESETS[name], 12)
        studies[name] = frozenset(map(composition_of, study.combined))
        reports.append(OracleReport("subst.scale_count", {"preset": name, "n": 12}, size, len(study.combined)))
        reports.append(OracleReport("subst.transversal", {"preset": name, "n": 12}, dim_t, study.transversal_dim))
        reports.append(OracleReport("subst.orbital", {"preset": name, "n": 12}, dim_o, study.orbital_dim))
    reports.append(
        OracleReport(
            "subst.block_count",
            {"preset": "fibonacci", "n": 12},
            13,
            len(block_language(PRESETS["fibonacci"], 12)),
        )
    )
    names = sorted(expected)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            reports.append(
                OracleReport(
                    "subst.mutually_independent",
                    {"presets": (names[i], names[j]), "n": 12},
                    1,
                    int(mutually_independent(studies[names[i]], studies[names[j]])),
                )
            )
    return reports


def _no_adjacent_ones_in_body(comp: tuple[int, ...]) -> bool:
    return all(not (comp[i] == 1 and comp[i + 1] == 1) for i in range(len(comp) - 2))


def check_two_step_sft() -> list[OracleReport]:
    reports = []
    recoded = higher_block(SftPresentation.of((CIRC, BULL), TWO_STEP_FORBIDDEN))
    shift = recoded.shift
    reports.append(_equals("sft.block_matrix", {"rows": TWO_STEP_ROWS}, TWO_STEP_ROWS, shift.matrix))
    double = shift.alphabet.symbols
    distinguished = double[:2]
    matrix = first_return_matrix(shift, distinguished, 16)
    expected_polys = {
        (double[0], double[0]): {},
        (double[0], double[1]): {1: 1},
        (double[1], double[0]): {2: 1},
        (double[1], double[1]): {2: 1},
    }
    for pair, poly in expected_polys.items():
        entry = matrix[pair]
        matched = sum(entry.coefficient(n) == poly.get(n, 0) for n in range(17))
        reports.append(
            OracleReport("sft.first_return_entry", {"from": pair[0], "to": pair[1], "order": 16}, 17, matched)
        )
    rules = {double[0]: 1, double[1]: 2}
    studies = dict(scale_classes(shift, distinguished, 12))
    for start, first in rules.items():
        study = studies[start]
        reports.append(_equals("sft.scales_n1", {"start": start}, frozenset({(1,)}), study.at(1)))
        checked = 0
        passing = 0
        for n in range(2, 13):
            for comp in study.at(n):
                checked += 1
                passing += int(
                    set(comp) <= {1, 2}
                    and comp[0] == first
                    and _no_adjacent_ones_in_body(comp)
                )
        reports.append(
            OracleReport("sft.scale_rule", {"start": start, "first_part": first}, checked, passing)
        )
    return reports


def _irreducible_shifts(max_symbols: int = 3) -> list[VertexShift]:
    shifts = []
    for size in range(1, max_symbols + 1):
        symbols = tuple("abc"[:size])
        for bits in product((0, 1), repeat=size * size):
            rows = tuple(tuple(bits[i * size:(i + 1) * size]) for i in range(size))
            shift = VertexShift.from_rows(symbols, rows)
            if is_irreducible(shift):
                shifts.append(shift)
    return shifts


def check_oracle_grid(max_n: int = MAX_GRID_N) -> list[OracleReport]:
    if not 1 <= max_n <= MAX_GRID_N:
        raise ValueError(f"oracle grid needs 1 <= max_n <= {MAX_GRID_N}, got {max_n}")
    reports = []
    shifts = _irreducible_shifts()
    reports.append(OracleReport("oracle.grid_size", {"max_symbols": 3}, 149, len(shifts)))
    for shift in shifts:
        expected = max_n * (1 + shift.size)
        matched = 0
        language = language_dims(shift, max_n)
        closed = [symbol_dims(shift, symbol, max_n) for symbol in shift.alphabet]
        for n, (found, scales, _) in enumerate(oracle_levels(shift, max_n), start=1):
            matched += int(found == (language.transversal_at(n), language.orbital_at(n)))
            for dims, pair in zip(closed, scales):
                matched += int(pair == (dims.transversal_at(n), dims.orbital_at(n)))
        reports.append(
            OracleReport(
                "oracle.dims_grid",
                {"rows": shift.matrix, "max_n": max_n},
                expected,
                matched,
            )
        )
    return reports


def check_wheel_integrality(draws: int = 200, seed: int = 93) -> list[OracleReport]:
    rng = random.Random(seed)
    subsets = [
        frozenset(k + 1 for k in range(8) if bits & (1 << k)) for bits in range(1, 256)
    ]
    sampled = rng.sample(subsets, draws)
    good = 0
    for parts in sampled:
        try:
            wheels_gf(PartSpec.finite(parts), 32)
            good += 1
        except ValueError:
            pass
    return [OracleReport("wheels.integrality", {"draws": draws, "seed": seed}, draws, good)]


def check_arithmetic_identities() -> list[OracleReport]:
    reports = []
    matched = sum(sum(totient(d) for d in divisors(n)) == n for n in range(1, 201))
    reports.append(OracleReport("numtheory.totient_divisor_sum", {"max_n": 200}, 200, matched))
    pairs = [(m, n) for m in range(1, 101) for n in range(1, 101) if gcd(m, n) == 1]
    matched = sum(mobius(m * n) == mobius(m) * mobius(n) for m, n in pairs)
    reports.append(
        OracleReport("numtheory.mobius_multiplicative", {"max_arg": 100}, len(pairs), matched)
    )
    for label, p in (
        ("golden_periodic", periodic_counts(GOLDEN, 24)),
        ("doubling", TruncatedSeries([0] + [2 ** n for n in range(1, 25)], 24)),
    ):
        q = mobius_invert(p)
        matched = sum(
            sum(q.coefficient(d) for d in divisors(n)) == p.coefficient(n)
            for n in range(1, p.order + 1)
        )
        reports.append(
            OracleReport("numtheory.mobius_round_trip", {"sequence": label}, p.order, matched)
        )
    return reports


def check_bivariate_row_sums() -> list[OracleReport]:
    reports = []
    specs = {
        "{1,2}": PartSpec.finite({1, 2}),
        "{2,3,...}": PartSpec.from_min(2),
        "{1,2,3,...}": PartSpec.naturals(),
        "{2,5}": PartSpec.finite({2, 5}),
    }
    for label, spec in specs.items():
        for name, bgf, gf in (
            ("wheels", wheels_bgf(spec, 16), wheels_gf(spec, 16)),
            ("compositions", composition_bgf(spec, 16), composition_gf(spec, 16)),
        ):
            reports.append(
                _equals("bivariate.row_sums", {"class": name, "parts": label}, gf, bgf.at_u1())
            )
    return reports


def check_property_suites(max_n: int = MAX_GRID_N) -> list[OracleReport]:
    reports = []
    reports.extend(check_oracle_grid(max_n))
    reports.extend(check_wheel_integrality())
    reports.extend(check_arithmetic_identities())
    reports.extend(check_bivariate_row_sums())
    return reports


def check_exclusions() -> list[OracleReport]:
    note = "limit-law and growth-rate statements are out of scope at desk scale"
    return [OracleReport("asymptotics.excluded", {"note": note}, 1, 1)]


class CheckResult(Frozen):
    __slots__ = ("number", "label", "reports")

    def __init__(self, number: int, label: str, reports: tuple[OracleReport, ...]):
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "reports", reports)

    @property
    def passed(self) -> bool:
        return all(report.match for report in self.reports)

    def failures(self) -> tuple[OracleReport, ...]:
        return tuple(report for report in self.reports if not report.match)


def run_reference_suite(max_n: int = MAX_GRID_N) -> list[CheckResult]:
    checks = (
        (1, "wheel counts", check_wheel_counts),
        (2, "composition counts", check_composition_counts),
        (3, "golden mean closed forms", check_golden_series),
        (4, "golden mean language dims", check_golden_language),
        (5, "golden mean scale classes", check_golden_scale_sets),
        (6, "golden mean dimension decompositions", check_golden_dims),
        (7, "substitution case studies", check_substitution_studies),
        (8, "two-step SFT example", check_two_step_sft),
        (9, "property suites", lambda: check_property_suites(max_n)),
        (10, "asymptotics excluded by design", check_exclusions),
    )
    return [CheckResult(number, label, tuple(fn())) for number, label, fn in checks]
