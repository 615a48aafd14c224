import json
import random

import pytest

from scaleshift.combinatorics import composition_of, mutually_independent
from scaleshift.scales import EnumerationCapError
from scaleshift.substitutions import (
    Morphism,
    PRESETS,
    block_language,
    morphism_from_json,
    substitution_scales,
)

from refsets import (
    BULL,
    CIRC,
    FEIG_PREFIX_12,
    FEIG_SCALES,
    FEIG_SCALES_BULL,
    FEIG_SCALES_CIRC,
    FIB_BLOCK_COUNT_12,
    FIB_PREFIX_13,
    FIB_SCALES,
    FIB_SCALES_BULL,
    FIB_SCALES_CIRC,
    TM_PREFIX_16,
    TM_SCALES,
    apply,
    block_language_ref,
    class_dims_ref,
    keyed_classes_ref,
    letters,
    rotation_classes_ref,
    spelled_study,
    substitution_scales_ref,
    w,
)

TM = PRESETS["thue-morse"]
FIB = PRESETS["fibonacci"]
FEIG = PRESETS["feigenbaum"]


def iterate(morphism, length):
    """Apply the morphism to the seed until the word has ``length`` letters."""
    word = (morphism.seed,)
    while len(word) < length:
        word = apply(morphism, word)
    return word


def blocks(morphism, n, **kwargs):
    """``block_language``'s blocks spelled as letter tuples."""
    return {letters(morphism, block) for block in block_language(morphism, n, **kwargs)}


def spelled(patterns):
    return frozenset(map(composition_of, patterns))


def blocks_of(word, n):
    return {word[i:i + n] for i in range(len(word) - n + 1)}


def test_preset_prefixes():
    assert iterate(TM, 16)[:16] == TM_PREFIX_16
    assert iterate(FIB, 13)[:13] == FIB_PREFIX_13
    assert iterate(FEIG, 12)[:12] == FEIG_PREFIX_12


def test_prefix_is_iteration_independent():
    # each iterate is a prefix of the next, so they all agree with the fixed point
    for morphism in (TM, FIB, FEIG):
        for length in (1, 2, 7, 33):
            word = iterate(morphism, length)
            assert apply(morphism, word)[: len(word)] == word


def test_morphism_validation():
    with pytest.raises(ValueError):
        Morphism.of({CIRC: "", BULL: "•∘"}, CIRC)
    with pytest.raises(ValueError):
        Morphism.of({CIRC: "•∘", BULL: "•∘"}, CIRC)
    with pytest.raises(ValueError):
        Morphism.of({CIRC: "∘", BULL: "•∘"}, CIRC)
    with pytest.raises(ValueError):
        Morphism.of({CIRC: "∘x", BULL: "•∘"}, CIRC)
    with pytest.raises(ValueError):
        Morphism.of({CIRC: "∘•", BULL: "•∘"}, "x")


def test_morphism_apply():
    assert TM.image(CIRC) == w("∘•")
    assert apply(TM, w("∘•")) == w("∘••∘")
    assert apply(FIB, w("∘•∘")) == w("∘•∘∘•")
    with pytest.raises(ValueError):
        TM.image("x")


def test_block_language_small():
    assert blocks(TM, 1) == {w("∘"), w("•")}
    assert blocks(TM, 2) == {w("∘∘"), w("∘•"), w("•∘"), w("••")}
    assert blocks(FIB, 2) == {w("∘∘"), w("∘•"), w("•∘")}
    assert block_language(TM, 2) == {"\0\0", "\0\1", "\1\0", "\1\1"}
    # the Fibonacci word has n+1 blocks of each length n
    for n in range(1, 9):
        assert len(block_language(FIB, n)) == n + 1
    assert len(block_language(FIB, 12)) == FIB_BLOCK_COUNT_12


# the lengths the factor complexities are checked at: 1..64 and either side of 256 and 512
COMPLEXITY_LENGTHS = (*range(1, 65), 255, 256, 257, 511, 512, 513)


def thue_morse_complexity(n):
    """Brlek 1989; de Luca & Varricchio 1989: p(1) = 2, p(2) = 4, and for
    n = 2^r + q + 1 with 0 < q <= 2^r, p(n) = 3·2^r + 4q when q <= 2^(r-1),
    else 4·2^r + 2q."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2**r
    return 3 * 2**r + 4 * q if 2 * q <= 2**r else 4 * 2**r + 2 * q


def test_thue_morse_factor_complexity():
    for n in COMPLEXITY_LENGTHS:
        assert len(block_language(TM, n)) == thue_morse_complexity(n), n


def test_fibonacci_factor_complexity():
    # Sturmian: p(n) = n + 1 (Morse & Hedlund 1940)
    for n in COMPLEXITY_LENGTHS:
        assert len(block_language(FIB, n)) == n + 1, n


def test_binary_scales_biject_with_blocks():
    # over two letters a block is spelled by its first letter and the gaps
    # between that letter's visits, so the scales from s count the blocks from s
    for morphism in (TM, FIB, FEIG):
        study = substitution_scales(morphism, 200)
        language = blocks(morphism, 200)
        for symbol in morphism.alphabet:
            assert len(study.per_symbol[symbol]) == sum(block[0] == symbol for block in language)


def test_stabilization_cap():
    # each iterate of the crawler adds one block, so no iterate count bounds its language
    crawler = Morphism.of({CIRC: "∘•", BULL: "•"}, CIRC)
    assert blocks(crawler, 2) == {w("∘•"), w("••")}
    assert blocks(crawler, 10) == {w("∘" + "•" * 9), w("•" * 10)}


def test_block_language_of_slow_growing_morphism():
    # its 10-block set still grows at the 16th iterate, 1.9e6 letters long
    slow = Morphism.of({"a": "aab", "b": "ac", "c": "c"}, "a")
    assert len(block_language(slow, 10)) == 98


def test_block_language_cap():
    assert len(block_language(TM, 10, cap=28)) == 28
    with pytest.raises(EnumerationCapError):
        block_language(TM, 10, cap=27)
    with pytest.raises(EnumerationCapError):
        substitution_scales(TM, 10, cap=27)
    with pytest.raises(ValueError):
        block_language(TM, 0)


def test_block_language_contains_every_iterate():
    rng = random.Random(0)
    for _ in range(200):
        letters = "abc"[: rng.choice((2, 3))]
        rules = {s: "".join(rng.choices(letters, k=rng.randint(1, 3))) for s in letters}
        seed = rng.choice(letters)
        rules[seed] = seed + "".join(rng.choices(letters, k=rng.randint(1, 2)))
        morphism = Morphism.of(rules, seed)
        n = rng.randint(1, 8)
        language = blocks(morphism, n)
        assert language == block_language_ref(morphism, n)
        word = (seed,)
        while len(word) < 500:
            assert blocks_of(word, n) <= language
            word = apply(morphism, word)
    # the presets are recurrent: a long enough iterate shows every block
    for morphism in (TM, FIB, FEIG):
        for n in (1, 5, 12, 30):
            assert blocks_of(iterate(morphism, 64 * n), n) == blocks(morphism, n)


def test_thue_morse_scales():
    study = substitution_scales(TM, 12)
    assert spelled(study.combined) == TM_SCALES
    assert len(study.combined) == 18
    assert spelled(study.per_symbol[CIRC]) == TM_SCALES
    assert study.per_symbol[BULL] <= study.combined
    assert study.transversal_dim == 8
    assert study.orbital_dim == 49


def test_fibonacci_scales():
    study = substitution_scales(FIB, 12)
    assert spelled(study.per_symbol[CIRC]) == FIB_SCALES_CIRC
    assert spelled(study.per_symbol[BULL]) == FIB_SCALES_BULL
    assert spelled(study.combined) == FIB_SCALES
    assert len(study.combined) == 13
    assert study.transversal_dim == 10
    assert study.orbital_dim == 66
    assert class_dims_ref(FIB_SCALES_CIRC)[0] == 6
    assert class_dims_ref(FIB_SCALES_BULL)[0] == 4


def test_feigenbaum_scales():
    study = substitution_scales(FEIG, 12)
    assert spelled(study.per_symbol[CIRC]) == FEIG_SCALES_CIRC
    assert spelled(study.per_symbol[BULL]) == FEIG_SCALES_BULL
    assert spelled(study.combined) == FEIG_SCALES
    assert len(study.combined) == 20
    assert study.transversal_dim == 6
    assert study.orbital_dim == 28
    assert class_dims_ref(FEIG_SCALES_CIRC) == (3, 10)
    assert class_dims_ref(FEIG_SCALES_BULL) == (3, 18)


def test_case_studies_mutually_independent():
    studies = (TM_SCALES, FIB_SCALES, FEIG_SCALES)
    for i in range(3):
        for j in range(i + 1, 3):
            assert mutually_independent(studies[i], studies[j])


def test_scale_study_json():
    study = substitution_scales(FIB, 5)
    data = study.to_json()
    for key in ("combined", "transversal"):
        data[key] = json.loads(data[key])
    data["per_symbol"] = {symbol: json.loads(text) for symbol, text in data["per_symbol"].items()}
    assert data["n"] == 5
    assert data["combined_size"] == len(study.combined)
    assert data["transversal_dim"] == study.transversal_dim
    assert data["transversal"] == sorted(map(list, spelled(study.transversal)))
    assert data["combined"] == sorted(map(list, spelled(study.combined)))
    assert all(sum(comp) == 5 for comp in data["combined"])
    for symbol, scales in study.per_symbol.items():
        assert data["per_symbol"][symbol] == sorted(map(list, spelled(scales)))


def test_scale_study_transversal_is_least_per_class():
    # the pattern kernel against the least-rotation keys of the tuples, to
    # n = 400; the quadratic reference runs up to n = 200
    for morphism in (TM, FIB, FEIG):
        for n in (12, 200, 400):
            study = substitution_scales(morphism, n)
            transversal, combined = spelled(study.transversal), spelled(study.combined)
            assert (transversal, study.orbital_dim) == keyed_classes_ref(combined)
            assert study.transversal_dim == len(study.transversal)
            if n <= 200:
                assert (transversal, study.orbital_dim) == rotation_classes_ref(combined)


def test_morphism_from_json():
    text = '{"alphabet": ["∘", "•"], "rules": {"∘": "∘•", "•": "∘"}, "seed": "∘"}'
    parsed = morphism_from_json(text)
    assert parsed == FIB
    assert parsed.rules == ((CIRC, (CIRC, BULL)), (BULL, (CIRC,)))
    with pytest.raises(ValueError):
        morphism_from_json('{"alphabet": ["∘"], "rules": {"∘": "∘•", "•": "∘"}, "seed": "∘"}')
    with pytest.raises(ValueError):
        morphism_from_json('{"rules": ["∘•"], "seed": "∘"}')


@pytest.mark.parametrize(
    "text",
    [
        '{"rules": {"ab": ["ab", "c"], "c": ["ab", "ab", "c"]}, "seed": "ab"}',
        '{"alphabet": ["1", "0"], "rules": {"0": "01", "1": "10"}, "seed": "0"}',
        '{"rules": {"0": ["0", "1", "11"], "1": ["11"], "11": ["0", "1"]}, "seed": "0"}',
    ],
    ids=["multi_character", "zero_one", "zero_one_eleven"],
)
def test_rules_morphisms_match_the_tuple_reference(text):
    # tokens of several characters, and symbols spelled 0 and 1, are one code
    # point each in a block, whatever they look like
    morphism = morphism_from_json(text)
    for n in (1, 2, 7, 30):
        assert blocks(morphism, n) == block_language_ref(morphism, n)
        assert spelled_study(substitution_scales(morphism, n)) == substitution_scales_ref(morphism, n)


def test_presets_match_the_tuple_reference():
    for morphism in (TM, FIB, FEIG):
        for n in (1, 12, 100):
            assert spelled_study(substitution_scales(morphism, n)) == substitution_scales_ref(morphism, n)


def test_scale_study_json_spells_long_scales_from_their_bits():
    # at n = 800 every Thue-Morse scale has 265 to 535 parts, and no prefix of
    # one is a scale of the study, so every lookup misses
    study = substitution_scales(TM, 800)
    assert min(map(int.bit_count, study.combined)) >= 200
    data = study.to_json()
    ordered = sorted(spelled(study.combined))
    assert data["combined"] == json.dumps([list(c) for c in ordered])
    assert data["per_symbol"][CIRC] == json.dumps(sorted(map(list, spelled(study.per_symbol[CIRC]))))
