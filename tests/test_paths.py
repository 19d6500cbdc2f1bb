import gc
import weakref

import pytest

from valleydyck.errors import (
    FamilyViolation,
    IllegalCharacter,
    NegativeLevel,
    NonzeroEnd,
    NotValleyUniform,
)
from valleydyck.paths import (
    FAMILY_STEPS,
    FILTERS,
    STEP_WIDTH,
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    analyze,
    enumerate_family,
    is_valley_uniform,
    primitive_factors,
    render_ascii,
    valley_structures,
)
from valleydyck.verify import INTRO_EXAMPLE


def test_parse_and_validation():
    p = Path("dyck", "UUDD")
    assert p.size == 2
    assert Path("dyck", INTRO_EXAMPLE.steps) == INTRO_EXAMPLE
    with pytest.raises(NonzeroEnd):
        Path("dyck", "UDU")
    with pytest.raises(NegativeLevel):
        Path("dyck", "DU")
    with pytest.raises(IllegalCharacter):
        Path("dyck", "UFD")
    with pytest.raises(FamilyViolation):
        Path("schroder_small", "H")
    # Delannoy paths may dip below the axis
    assert Path("delannoy", "DU").size == 1


def test_analyze_simple():
    stats = analyze(Path("dyck", "UD"))
    assert stats.peaks == ((0, 1),)
    assert stats.valleys == ()
    assert stats.pyramids == ((1, 0, 0),)

    stats = analyze(Path("dyck", "UUDUDD"))
    assert [lvl for _, lvl in stats.valleys] == [1]
    assert [(h, alt) for h, alt, _ in stats.pyramids] == [(1, 1), (1, 1)]
    assert [lvl for _, lvl in stats.peaks] == [2, 2]


def test_analyze_intro_example():
    stats = analyze(INTRO_EXAMPLE)
    assert [(h, alt) for h, alt, _ in stats.pyramids] == [
        (3, 3),
        (1, 3),
        (1, 3),
        (1, 2),
        (1, 2),
        (2, 0),
    ]
    assert [lvl for _, lvl in stats.valleys] == [3, 3, 0, 2, 0]


def test_primitive_factors_and_rebuild():
    p = INTRO_EXAMPLE
    factors = primitive_factors(p)
    assert [f.size for f in factors] == [8, 4, 2]
    assert Path(p.family, "".join(f.steps for f in factors)) == p
    assert primitive_factors(Path("dyck", "UDUD")) == [
        Path("dyck", "UD"),
        Path("dyck", "UD"),
    ]


def test_enumerate_dyck_catalan_counts():
    counts = [len(list(enumerate_family("dyck", n))) for n in range(8)]
    assert counts == [1, 1, 2, 5, 14, 42, 132, 429]


def test_enumerate_motzkin_counts():
    from valleydyck.oracles import motzkin_polynomial

    counts = [len(list(enumerate_family("motzkin", n))) for n in range(11)]
    assert counts == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    for n in range(11):
        assert counts[n] == motzkin_polynomial(n).substitute({"a": 1, "b": 1})


def test_enumerate_schroder_and_delannoy_counts():
    large = [len(list(enumerate_family("schroder_large", n))) for n in range(6)]
    assert large == [1, 2, 6, 22, 90, 394]
    small = [len(list(enumerate_family("schroder_small", n))) for n in range(6)]
    assert small == [1, 1, 3, 11, 45, 197]
    delannoy = [len(list(enumerate_family("delannoy", n))) for n in range(5)]
    assert delannoy == [1, 3, 13, 63, 321]


def test_enumeration_is_lexicographic_and_duplicate_free():
    # lexicographic in the step order U < D < F < H
    rank = {"U": 0, "D": 1, "F": 2, "H": 3}
    paths = [p.steps for p in enumerate_family("dyck", 3)]
    keyed = [tuple(rank[c] for c in s) for s in paths]
    assert keyed == sorted(keyed)
    assert len(set(paths)) == len(paths)
    assert paths[0] == "UUUDDD"


def test_enumerated_paths_pass_the_constructor():
    # enumerate_family builds its paths unchecked, through Path._trusted; the
    # validating constructor must accept each one as it is
    for family in FAMILY_STEPS:
        for filt in FILTERS:
            for n in range(8):
                for path in enumerate_family(family, n, filt):
                    assert type(path.steps) is str
                    assert path == Path(path.family, path.steps), (family, filt, path)


def test_filters():
    motzkin2 = [p.steps for p in enumerate_family("motzkin", 2, "first_not_flat")]
    assert motzkin2 == ["UD"]
    # both leading-H and leading-ud paths are excluded at size one
    assert list(enumerate_family("schroder_large", 1, "y_filter")) == []
    dyck3 = [p.steps for p in enumerate_family("dyck", 3, "first_two_not_ud")]
    assert all(not s.startswith("UD") for s in dyck3)
    assert len(dyck3) == 3


def test_valley_structures_small():
    assert list(valley_structures(0)) == [ValleyStructure(())]
    three = list(valley_structures(3))
    assert len(three) == 5
    assert ValleyStructure((ValleyBlock(1, (1, 1)),)) in three
    assert ValleyStructure((Pyramid(1), Pyramid(2))) in three


def test_valley_structures_frees_its_parts():
    # one call's structures share their parts; once the structures are gone,
    # nothing, not even a reference cycle, may keep a part alive
    gc.disable()
    try:
        structures = list(valley_structures(6))
        part = weakref.ref(structures[-1].parts[0])
        del structures
        assert part() is None
    finally:
        gc.enable()


def test_intro_structure_round_trips():
    structure = ValleyStructure(
        (ValleyBlock(3, (3, 1, 1)), ValleyBlock(2, (1, 1)), Pyramid(2))
    )
    assert structure.semilength == 14
    assert structure.to_path() == INTRO_EXAMPLE
    assert ValleyStructure.from_path(INTRO_EXAMPLE) == structure


def test_structures_match_filtered_enumeration():
    for n in range(8):
        from_structures = sorted(s.to_path().steps for s in valley_structures(n))
        filtered = sorted(
            p.steps for p in enumerate_family("dyck", n) if is_valley_uniform(p)
        )
        assert from_structures == filtered


def test_round_trip_structure_path():
    for n in range(7):
        for s in valley_structures(n):
            assert ValleyStructure.from_path(s.to_path()) == s


def test_is_valley_uniform():
    assert is_valley_uniform(INTRO_EXAMPLE)
    assert is_valley_uniform(Path("dyck", "UD"))
    assert not is_valley_uniform(Path("dyck", "UUUDUDDUDD"))
    with pytest.raises(NotValleyUniform):
        ValleyStructure.from_path(Path("dyck", "UUUDUDDUDD"))


def test_render_ascii():
    assert render_ascii(Path("dyck", "UUDD")) == " /\\\n/  \\"
    assert render_ascii(Path("dyck", "")) == ""
    art = render_ascii(Path("motzkin", "UFD"))
    assert art == " _\n/ \\"
    assert "_" in render_ascii(Path("schroder_large", "H"))
    # Delannoy paths may dip below the axis; rows extend downwards
    assert render_ascii(Path("delannoy", "DU")) == "\\/"
    assert render_ascii(Path("delannoy", "DHU")) == "\\__/"


def test_json_round_trip():
    p = Path("dyck", "UUDD")
    assert Path.from_json(p.to_json()) == p


def test_width_counts_h_twice():
    for family in FAMILY_STEPS:
        for n in range(6):
            for path in enumerate_family(family, n):
                assert path.width == sum(STEP_WIDTH[ch] for ch in path.steps)
                if family != "motzkin":
                    assert path.size == n
    assert Path("delannoy", "DHUHDU").width == 8
