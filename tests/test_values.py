"""The immutable bases: value classes compare by their fields, the rest by identity."""

import pytest

from scaleshift.combinatorics import PartSpec
from scaleshift.reports import DimReport
from scaleshift.scales import ScaleClass
from scaleshift.series import BivariateSeries, RationalFunction, TruncatedSeries
from scaleshift.shiftspace import (
    Alphabet,
    HigherBlock,
    LoopSystem,
    SftPresentation,
    VertexShift,
)
from scaleshift.substitutions import Morphism, ScaleStudy
from scaleshift.values import Frozen, Value
from scaleshift.verify import CheckResult, OracleReport

AB = Alphabet(("a", "b"))
GOLDEN_SUCCESSORS = ((0, 1), (0,))  # the rows ((1, 1), (1, 0))

# class: (build from the fields, the fields, other fields, a field to assign)
VALUES = {
    PartSpec: (
        PartSpec,
        (frozenset(), 2, 1, frozenset({0})),
        (frozenset({1}), 3, 1, frozenset({0})),
        "start",
    ),
    TruncatedSeries: (
        lambda order, coeffs: TruncatedSeries(coeffs, order),
        (2, (1, 1, 2)),
        (2, (1, 1, 3)),
        "order",
    ),
    BivariateSeries: (
        lambda order, rows: BivariateSeries(rows, order),
        (1, ((1,), (0, 1))),
        (1, ((1,), (0, 2))),
        "rows",
    ),
    RationalFunction: (RationalFunction, ((1,), (1, -1)), ((1,), (1, -1, -1)), "numerator"),
    Alphabet: (lambda *f: Alphabet(f), ("a", "b"), ("b", "a"), "symbols"),
    VertexShift: (VertexShift, (AB, GOLDEN_SUCCESSORS), (AB, ((0, 1), (0, 1))), "successors"),
    Morphism: (
        Morphism,
        (AB, (("a", ("a", "b")), ("b", ("a",))), "a"),
        (AB, (("a", ("a", "b")), ("b", ("b",))), "a"),
        "seed",
    ),
}

# class: (build one instance, a field to assign); two builds hold equal fields
FROZEN = {
    DimReport: (lambda: DimReport((1, 1), (1, 2), "enumeration"), "method"),
    ScaleClass: (lambda: ScaleClass("a", {1: frozenset({(1,)})}), "symbol"),
    SftPresentation: (lambda: SftPresentation.of(("a", "b"), [("b", "b")]), "forbidden"),
    HigherBlock: (lambda: HigherBlock(VertexShift(AB, GOLDEN_SUCCESSORS), (("a",), ("b",))), "blocks"),
    LoopSystem: (
        lambda: LoopSystem(
            "a", TruncatedSeries((0, 1, 1), 2), PartSpec(start=1, residues={0}), PartSpec()
        ),
        "parts",
    ),
    ScaleStudy: (
        lambda: ScaleStudy(2, {"a": frozenset({(2,)})}, frozenset({(2,)}), frozenset({(2,)}), 1),
        "n",
    ),
    CheckResult: (lambda: CheckResult(1, "wheel counts", ()), "reports"),
    OracleReport: (lambda: OracleReport("wheels.total", {"n": 12}, 351, 351), "actual"),
}


def test_cases_cover_every_subclass():
    assert set(Value.__subclasses__()) == set(VALUES)
    assert set(Frozen.__subclasses__()) == set(FROZEN) | {Value}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_classes_compare_by_fields(cls):
    build, fields, other_fields, name = VALUES[cls]
    value, twin, other = build(*fields), build(*fields), build(*other_fields)
    assert type(value) is cls
    assert value == twin and hash(value) == hash(twin) and len({value, twin}) == 1
    assert value != other and not value == other
    assert value != fields and not value == fields
    assert repr(value) == f"{cls.__name__}{fields!r}"
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(value, name, getattr(other, name))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_classes_compare_by_identity(cls):
    build, name = FROZEN[cls]
    first, second = build(), build()
    assert type(first) is cls
    assert first == first and first != second
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(first, name, getattr(second, name))
