import itertools

import pytest

import refsets
from scaleshift import combinatorics as cb
from scaleshift import series


def test_rotate():
    assert cb.rotate((2, 2, 1, 2, 2, 2, 1), 1) == (2, 1, 2, 2, 2, 1, 2)
    assert cb.rotate((5,), 3) == (5,)
    assert cb.rotate((3, 2, 1, 3, 1, 2), 6) == (3, 2, 1, 3, 1, 2)
    assert cb.rotate((1, 2, 3), -1) == (3, 1, 2)
    assert cb.rotate((), 4) == ()


def test_orbit():
    assert cb.orbit((4, 1)) == {(4, 1), (1, 4)}
    assert cb.orbit((2, 2)) == {(2, 2)}
    assert cb.orbit((2, 2, 1)) == {(2, 2, 1), (2, 1, 2), (1, 2, 2)}


def test_orbit_size_divides_length():
    for length in range(1, 6):
        for parts in itertools.product((1, 2, 3), repeat=length):
            assert length % len(cb.orbit(parts)) == 0


def test_canonical_wheel():
    assert cb.canonical_wheel((2, 2, 1)).rep == (1, 2, 2)
    assert cb.canonical_wheel((1, 1, 1)).rep == (1, 1, 1)
    assert cb.canonical_wheel((3, 1, 2)).rep == (1, 2, 3)
    with pytest.raises(ValueError):
        cb.canonical_wheel(())


def test_canonical_wheel_rotation_invariant():
    for length in range(1, 6):
        for parts in itertools.product((1, 2, 4), repeat=length):
            rep = cb.canonical_wheel(parts)
            for j in range(length):
                assert cb.canonical_wheel(cb.rotate(parts, j)) == rep


def test_dims_on_reference_sets():
    assert cb.transversal_dim(refsets.TM_SCALES) == refsets.TM_DIM_T
    assert cb.orbital_dim(refsets.TM_SCALES) == refsets.TM_DIM_O
    five = {(5,), (3, 2), (2, 3), (4, 1), (2, 2, 1)}
    assert cb.transversal_dim(five) == 4
    assert cb.orbital_dim(five) == 8
    assert cb.transversal_dim(set()) == 0
    assert cb.orbital_dim(set()) == 0


def test_orbital_dim_is_union_of_orbits():
    sets = [
        refsets.TM_SCALES,
        refsets.FIB_SCALES,
        refsets.FEIG_SCALES,
        refsets.GOLDEN_MODES5,
    ]
    for members in sets:
        union = set()
        for m in members:
            union |= cb.orbit(m)
        assert cb.orbital_dim(members) == len(union)


def test_transversal_of():
    assert cb.transversal_of({(4, 1), (1, 4)}) == {(1, 4)}
    assert cb.transversal_of({(1, 1), (2,)}) == {(1, 1), (2,)}
    t = cb.transversal_of(refsets.FIB_SCALES)
    assert len(t) == refsets.FIB_DIM_T
    assert t <= refsets.FIB_SCALES
    # One representative per class, classes preserved.
    assert {cb.canonical_wheel(x) for x in t} == {
        cb.canonical_wheel(x) for x in refsets.FIB_SCALES
    }


def test_mutually_independent():
    studies = [refsets.TM_SCALES, refsets.FIB_SCALES, refsets.FEIG_SCALES]
    for a, b in itertools.combinations(studies, 2):
        assert cb.mutually_independent(a, b)
    assert not cb.mutually_independent({(1, 2)}, {(2, 1)})


def test_enumerate_compositions():
    assert cb.enumerate_compositions(5, {1, 2}) == refsets.GOLDEN_C5_CIRC
    assert len(cb.enumerate_compositions(12, cb.PartSpec.naturals())) == 2048
    assert cb.enumerate_compositions(3, {2}) == set()
    assert cb.enumerate_compositions(0, {1, 2}) == {()}


def test_enumeration_counts_match_series():
    for bits in range(1, 64):
        parts = {k + 1 for k in range(6) if bits >> k & 1}
        gf = sum(
            (series.TruncatedSeries.monomial(k, 14) for k in parts),
            series.TruncatedSeries.zero(14),
        ).quasi_inverse()
        for n in (0, 1, 4, 9, 14):
            count = len(cb.enumerate_compositions(n, parts))
            assert count == gf.coefficient(n)


def test_enumerate_wheels():
    wheels = cb.enumerate_wheels(12, cb.PartSpec.naturals())
    assert len(wheels) == refsets.WHEELS_12
    by_length = [0] * 12
    for wheel in wheels:
        by_length[len(wheel.rep) - 1] += 1
    assert tuple(by_length) == refsets.WHEELS_12_BY_LENGTH
    assert {w.rep for w in cb.enumerate_wheels(5, cb.PartSpec.from_min(2))} == {
        (5,), (2, 3),
    }
    for n, expected in enumerate(refsets.WHEELS_PREFIX, start=1):
        assert len(cb.enumerate_wheels(n, cb.PartSpec.naturals())) == expected


def test_part_spec_parse():
    assert cb.PartSpec.parse("all") == cb.PartSpec.naturals()
    assert cb.PartSpec.parse("3+") == cb.PartSpec.from_min(3)
    spec = cb.PartSpec.parse("1,2,5")
    assert spec.members_up_to(6) == (1, 2, 5)
    with pytest.raises(ValueError):
        cb.PartSpec.parse("0,2")
    with pytest.raises(ValueError):
        cb.PartSpec.parse("")


def test_part_spec_membership():
    spec = cb.PartSpec.finite({1, 3})
    assert spec.contains(3) and not spec.contains(2)
    assert spec.contains(99) is False
    tail = cb.PartSpec.from_min(2)
    assert not tail.contains(1)
    assert tail.contains(2) and tail.contains(1000)
    assert tail.members_up_to(5) == (2, 3, 4, 5)
    assert tail.absent_up_to(5) == (1,)


def test_part_spec_horizon_guard():
    # Support known only up to the horizon; beyond it membership is undecided.
    spec = cb.PartSpec(
        known=frozenset({2, 3}), tail_from=None, horizon=8,
        unbounded=True, max_part=None,
    )
    assert spec.contains(3)
    assert not spec.contains(7)
    with pytest.raises(ValueError):
        spec.contains(9)
    assert spec.members_up_to(8) == (2, 3)
    with pytest.raises(ValueError):
        spec.members_up_to(9)


def test_wheel_serialization():
    assert cb.canonical_wheel((2, 1)).to_json() == {"rep": [1, 2]}
