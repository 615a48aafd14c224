import itertools
import json
import random

import pytest

import refsets
from scaleshift import combinatorics as cb
from scaleshift import series
from scaleshift.scales import composition_gf
from scaleshift.values import JsonText

from oracle_refs import _compositions, oracle_series_coeff
from refsets import keyed_classes_ref, orbit, pattern_of, rotate, rotation_classes_ref


def dims(members):
    """(transversal, orbital) from the ``cb.least_rotation`` keys of ``keyed_classes_ref``."""
    least, orbital = keyed_classes_ref(members)
    return len(least), orbital


def pattern_classes_ref(members):
    """``cb.pattern_classes``' answer for a set of compositions of one total, from
    ``rotation_classes_ref``: the least member of each class is its largest pattern."""
    least, orbital = rotation_classes_ref(members)
    return sorted(map(pattern_of, least)), orbital


def pattern_classes(patterns):
    members, orbital = cb.pattern_classes(patterns)
    return sorted(members), orbital


def test_rotate():
    assert rotate((2, 2, 1, 2, 2, 2, 1), 1) == (2, 1, 2, 2, 2, 1, 2)
    assert rotate((5,), 3) == (5,)
    assert rotate((3, 2, 1, 3, 1, 2), 6) == (3, 2, 1, 3, 1, 2)
    assert rotate((1, 2, 3), -1) == (3, 1, 2)
    assert rotate((), 4) == ()


def test_orbit():
    assert orbit((4, 1)) == {(4, 1), (1, 4)}
    assert orbit((2, 2)) == {(2, 2)}
    assert orbit((2, 2, 1)) == {(2, 2, 1), (2, 1, 2), (1, 2, 2)}


def test_orbit_size_divides_length():
    for length in range(1, 6):
        for parts in itertools.product((1, 2, 3), repeat=length):
            assert length % len(orbit(parts)) == 0


def test_canonical_wheel():
    # a wheel is keyed by its least rotation
    assert cb.least_rotation((2, 2, 1)) == (1, 2, 2)
    assert cb.least_rotation((1, 1, 1)) == (1, 1, 1)
    assert cb.least_rotation((3, 1, 2)) == (1, 2, 3)
    assert cb.least_rotation(()) == ()


def test_canonical_wheel_rotation_invariant():
    for length in range(1, 6):
        for parts in itertools.product((1, 2, 4), repeat=length):
            rep = cb.least_rotation(parts)
            assert rep in orbit(parts)
            for j in range(length):
                assert cb.least_rotation(rotate(parts, j)) == rep


def test_dims_on_reference_sets():
    assert dims(refsets.TM_SCALES) == (refsets.TM_DIM_T, refsets.TM_DIM_O)
    five = {(5,), (3, 2), (2, 3), (4, 1), (2, 2, 1)}
    assert dims(five) == (4, 8)
    assert pattern_classes({pattern_of(c) for c in five}) == pattern_classes_ref(five)
    assert len(pattern_classes_ref(five)[0]) == 4
    assert dims(set()) == (0, 0)


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
            union |= orbit(m)
        classes = {cb.least_rotation(m) for m in members}
        assert dims(members) == (len(classes), len(union))


def test_rotation_classes_match_brute_force():
    # reference: one least rotation per class, and the union of the full orbits
    rng = random.Random(2020)

    def rotations(c, count):
        return {rotate(c, rng.randrange(max(len(c), 1))) for _ in range(count)}

    for _ in range(30):
        members = set()
        for _ in range(rng.randrange(1, 12)):
            length = rng.choice((1, 2, 3, 5, 8, 150, 151))
            members.add(tuple(rng.choice((1, 1, 2, 3)) for _ in range(length)))
        k = rng.randrange(1, 80)
        members |= rotations((1, 2) * k, 3)
        members |= rotations((1, 1, 2) * rng.randrange(50, 60), 4)
        members |= rotations((3,) * k, 1)
        if rng.random() < 0.5:
            members.add(())
        for c in list(members)[:3]:
            members |= rotations(c, 5)
        union = set().union(*map(orbit, members))
        classes = {cb.least_rotation(c) for c in members}
        for argument in (frozenset(members), set(members), sorted(members)):
            snapshot = list(argument)
            assert dims(argument) == (len(classes), len(union))
            assert list(argument) == snapshot
    assert dims({()}) == (1, 1)
    assert dims({(1, 2) * 90, (2, 1) * 90, (1, 2, 1, 2)}) == (2, 4)


def test_mutually_independent():
    studies = [refsets.TM_SCALES, refsets.FIB_SCALES, refsets.FEIG_SCALES]
    for a, b in itertools.combinations(studies, 2):
        assert cb.mutually_independent(a, b)
    assert not cb.mutually_independent({(1, 2)}, {(2, 1)})
    # random sets of short and long tuples, several members per class, against
    # their full orbits
    rng = random.Random(1977)

    def draw():
        if rng.random() < 0.3:
            base = tuple(rng.choices((1, 2), k=rng.randrange(1, 6)))
            return base * rng.randrange(1, 128 // len(base))
        length = rng.choice((rng.randrange(0, 12), rng.randrange(62, 66), rng.randrange(64, 128)))
        return tuple(rng.choices((1, 1, 2, 3), k=length))

    for _ in range(40):
        members = set()
        for _ in range(rng.randrange(1, 30)):
            c = draw()
            members |= {rotate(c, rng.randrange(max(len(c), 1))) for _ in range(rng.randrange(1, 5))}
        other = {draw() for _ in range(rng.randrange(1, 6))}
        shared = bool(set().union(*map(orbit, members)) & set().union(*map(orbit, other)))
        assert cb.mutually_independent(members, other) is not shared


def test_least_rotation_matches_least_of_all_rotations():
    # short and long tuples, to twice 64 entries and more, periodic and constant tuples,
    # the empty and one-part tuples, and every tuple over {1, 2} up to
    # length 12 and over {1, 2, 3} up to length 7
    rng = random.Random(1980)
    edge = 64
    cases = [(), (4,), (1, 2) * 40, (2, 1) * 41, (3,) * edge, (3,) * (edge - 1), (1, 2, 2) * 30]
    for _ in range(20_000):
        if rng.random() < 0.1:
            base = tuple(rng.choices((1, 2, 3), k=rng.randrange(1, 7)))
            c = base * rng.randrange(1, 2 + 3 * edge // (2 * len(base)))
        else:
            length = rng.choice(
                (*[rng.randrange(0, 24)] * 14, rng.randrange(edge - 3, edge + 3), rng.randrange(edge, 2 * edge))
            )
            c = tuple(rng.choices((1, 1, 2, 3), k=length))
        cases.append(rotate(c, rng.randrange(max(len(c), 1))))
    lengths = {len(c) for c in cases}
    assert {0, 1, edge - 1, edge} <= lengths and max(lengths) >= 3 * edge // 2
    for parts, top in (((1, 2), 12), ((1, 2, 3), 7)):
        cases += (c for length in range(1, top + 1) for c in itertools.product(parts, repeat=length))
    for c in cases:
        assert cb.least_rotation(c) == min(orbit(c)), c


def test_enumerate_compositions():
    # the oracle's brute-force enumeration is the reference for every series
    assert oracle_series_coeff("compositions", {1, 2}, 5) == len(refsets.GOLDEN_C5_CIRC)
    assert oracle_series_coeff("compositions", cb.PartSpec.naturals(), 12) == 2048
    assert oracle_series_coeff("compositions", {2}, 3) == 0
    assert oracle_series_coeff("compositions", {1, 2}, 0) == 1


def test_enumeration_counts_match_series():
    for bits in range(1, 64):
        parts = {k + 1 for k in range(6) if bits >> k & 1}
        gf = composition_gf(cb.PartSpec.finite(parts), 14)
        for n in (0, 1, 4, 9, 14):
            assert oracle_series_coeff("compositions", parts, n) == gf.coefficient(n)


def test_enumerate_wheels():
    naturals = cb.PartSpec.naturals()
    assert oracle_series_coeff("wheels", naturals, 12) == refsets.WHEELS_12
    by_length = tuple(oracle_series_coeff("wheels", naturals, 12, m) for m in range(1, 13))
    assert by_length == refsets.WHEELS_12_BY_LENGTH
    # (5,) and (2, 3)
    assert oracle_series_coeff("wheels", cb.PartSpec.from_min(2), 5) == 2
    # the empty composition is no wheel
    assert oracle_series_coeff("wheels", naturals, 0) == 0
    assert oracle_series_coeff("wheels", naturals, 0, 0) == 0
    for n, expected in enumerate(refsets.WHEELS_PREFIX, start=1):
        assert oracle_series_coeff("wheels", naturals, n) == expected


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
    assert spec.members_up_to(99) == (1, 3)
    assert (spec.unbounded, spec.max_part) == (False, 3)
    tail = cb.PartSpec.from_min(2)
    assert tail.members_up_to(1000)[:2] == (2, 3)
    assert tail.members_up_to(1000)[-1] == 1000
    assert tail.members_up_to(5) == (2, 3, 4, 5)
    assert (tail.unbounded, tail.max_part) == (True, None)
    # {1} then 4, 7, 10, ...: one residue of period 3 from 4
    periodic = cb.PartSpec(frozenset({1}), 4, 3, frozenset({0}))
    assert periodic.members_up_to(12) == (1, 4, 7, 10)
    assert cb.PartSpec.finite(()).members_up_to(5) == ()
    with pytest.raises(ValueError, match="part sizes must be >= 1"):
        cb.PartSpec.from_min(0)
    # the four fields must agree: a period, residues inside it, a prefix below start
    with pytest.raises(ValueError, match="prefix members must lie below start 1"):
        cb.PartSpec(frozenset({5}))
    for period, residues in ((0, {0}), (0, ()), (3, {3}), (2, {-1})):
        with pytest.raises(ValueError, match="need period >= 1"):
            cb.PartSpec(start=2, period=period, residues=frozenset(residues))


def test_part_spec_canonical_form():
    # the least period, then the least start: one field tuple per set
    cases = {
        (frozenset(), 2, 2, frozenset({0, 1})): (frozenset(), 2, 1, frozenset({0})),
        (frozenset({1}), 4, 3, frozenset({0})): (frozenset(), 1, 3, frozenset({0})),
        (frozenset({2}), 3, 4, frozenset({0, 2})): (frozenset({2}), 3, 2, frozenset({0})),
        (frozenset({1, 2}), 6, 1, frozenset()): (frozenset({1, 2}), 3, 1, frozenset()),
        # a finite set takes its start from its largest member, not by walking down
        (frozenset(), 10**9, 1, frozenset()): (frozenset(), 1, 1, frozenset()),
    }
    for fields, canonical in cases.items():
        spec = cb.PartSpec(*fields)
        assert (spec.prefix, spec.start, spec.period, spec.residues) == canonical
    # every spec with start <= 5 and period <= 4: equal exactly when the sets are
    specs = [
        cb.PartSpec(frozenset(prefix), start, period, frozenset(residues))
        for start in range(1, 6)
        for size in range(start)
        for prefix in itertools.combinations(range(1, start), size)
        for period in range(1, 5)
        for count in range(period + 1)
        for residues in itertools.combinations(range(period), count)
    ]
    by_members = {}
    for spec in specs:
        by_members.setdefault(spec.members_up_to(60), set()).add(spec)
    assert all(len(group) == 1 for group in by_members.values())
    assert len(set(specs)) == len(by_members)
    with pytest.raises(AttributeError):
        specs[0].start = 2


def test_part_spec_indicator_gf():
    # N/Q expands to the indicator of K
    specs = [
        cb.PartSpec.finite({1, 3}),
        cb.PartSpec.finite(()),
        cb.PartSpec.naturals(),
        cb.PartSpec.from_min(3),
        cb.PartSpec(frozenset({1, 2}), 4, 3, frozenset({0, 2})),
    ]
    for spec in specs:
        # past start + period, the unbounded sets are periodic: Q = 1 - z^P
        _, den = spec.indicator_gf(30)
        assert den == ((1,) + (0,) * (spec.period - 1) + (-1,) if spec.unbounded else (1,))
        # cut at an order, neither polynomial outgrows it
        for order in (0, 2, 5, 30):
            num, den = spec.indicator_gf(order)
            assert len(num) <= order + 1 and len(den) <= order + 1
            expanded = series.RationalFunction(num, den).expand(order).coeffs
            assert expanded == tuple(int(k in spec.members_up_to(order)) for k in range(order + 1))
    huge = cb.PartSpec.finite({1, 10**6}), cb.PartSpec.from_min(10**6)
    assert [spec.indicator_gf(4) for spec in huge] == [((0, 1, 0, 0, 0), (1,)), ((0,) * 5, (1,))]


def compositions(n):
    """Every composition of n, as a tuple."""
    return _compositions(n, tuple(range(1, n + 1)))


def test_composition_of_spells_the_walk_pattern_back():
    # every composition of n <= 12 (4,095 of them): the pattern has total n,
    # one note per part, and spells back to the composition
    for n in range(1, 13):
        comps = compositions(n)
        assert len(comps) == 2 ** (n - 1)
        for c in comps:
            p = pattern_of(c)
            assert (p.bit_length(), p.bit_count()) == (n, len(c))
            assert cb.composition_of(p) == c


def test_descending_patterns_are_ascending_compositions():
    for n in range(1, 13):
        comps = compositions(n)
        patterns = sorted(map(pattern_of, comps), reverse=True)
        assert [cb.composition_of(p) for p in patterns] == sorted(comps)


def test_pattern_classes_match_reference_on_random_subsets():
    # random subsets of the compositions of n <= 12, rotations of one class
    # often together; the function consumes its argument
    rng = random.Random(1722)
    for n in range(1, 13):
        comps = compositions(n)
        for _ in range(25):
            members = set(rng.sample(comps, rng.randrange(0, len(comps) + 1)))
            for c in rng.sample(sorted(members), min(3, len(members))):
                members |= orbit(c)
            patterns = {pattern_of(c) for c in members}
            assert pattern_classes(patterns) == pattern_classes_ref(members), (n, members)
            assert patterns == set()


def test_pattern_classes_on_long_periodic_patterns():
    # totals of 64 bits or more are multi-digit ints; periodic scales have
    # fewer modes than notes; the empty set has no class
    cases = [
        {(1, 2) * 40},
        {(1, 2) * 40, (2, 1) * 40},
        {(1, 1, 2) * 30, (1, 2, 1) * 30, (2, 1, 1) * 30, (4,) * 30},
        {(3,) * 25, (1, 2) * 25, (2, 1) * 25, (70, 5), (5, 70), (75,)},
        {rotate((1, 2, 2, 3) * 9 + (1,), j) for j in range(0, 37, 4)},
        {(64,), (63, 1), (1, 63), (32, 32), (1,) * 64},
        set(),
    ]
    for members in cases:
        assert len({sum(c) for c in members}) <= 1
        assert pattern_classes({pattern_of(c) for c in members}) == pattern_classes_ref(members)
    assert pattern_classes({pattern_of((1, 2) * 40)}) == ([pattern_of((1, 2) * 40)], 2)


def test_scales_json_spells_every_composition():
    # every composition of n <= 12, totals ascending into one dict, so every
    # prefix is found; then each total again from an empty dict, every prefix
    # a miss; the text is json.dumps of the compositions, in the given order
    spelled = {}
    for n in range(1, 13):
        comps = compositions(n)
        patterns = [pattern_of(c) for c in comps]
        expected = json.dumps([list(c) for c in comps])
        assert cb.scales_json(patterns, spelled) == expected
        assert all(spelled[p] == json.dumps(list(c))[1:-1] for p, c in zip(patterns, comps))
        assert cb.scales_json(patterns, {}) == expected
        assert cb.scales_json(reversed(patterns), spelled) == json.dumps([list(c) for c in reversed(comps)])
    assert len(spelled) == 2**12 - 1
    assert cb.scales_json([], spelled) == json.dumps([])
    assert isinstance(cb.scales_json([1], {}), JsonText)
