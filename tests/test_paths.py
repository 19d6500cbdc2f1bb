import gc
import inspect
import weakref

import pytest

from conftest import traced_peak
from reference_walk import reference_walk

from valleydyck import paths
from valleydyck.paths import (
    FAMILY_STEPS,
    FILTERS,
    STEP_WIDTH,
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    enumerate_family,
    is_valley_uniform,
    passes_filter,
    render_ascii,
    valley_factors,
    valley_structures,
)
from valleydyck.verify import INTRO_EXAMPLE


def test_parse_and_validation():
    p = Path("dyck", "UUDD")
    assert p.size == 2
    assert Path("dyck", INTRO_EXAMPLE.steps) == INTRO_EXAMPLE
    # Delannoy paths may dip below the axis
    assert Path("delannoy", "DU").size == 1


def test_valley_factors_give_back_each_part():
    # a structure's path is one primitive factor per part, in order: a pyramid
    # has no valley, and a block has its valleys on its ascent level and its
    # inner pyramids for its maximal pyramids
    for n in range(9):
        for s in valley_structures(n):
            steps = s.to_path().steps
            factors = list(valley_factors(steps))
            assert len(factors) == len(s.parts)
            at = 0
            for (start, end, valleys, heights), part in zip(factors, s.parts):
                assert (start, (end - start) // 2) == (at, part.size)
                if isinstance(part, Pyramid):
                    assert (valleys, heights) == (set(), [part.height])
                else:
                    assert (valleys, tuple(heights)) == ({part.ascent}, part.heights)
                at = end
            assert at == len(steps)


def test_valley_factors_of_the_intro_example_and_a_nonuniform_path():
    # blocks of ascent 3 and 2, then an axis pyramid of height 2
    assert list(valley_factors(INTRO_EXAMPLE.steps)) == [
        (0, 16, {3}, [3, 1, 1]), (16, 24, {2}, [1, 1]), (24, 28, set(), [2])
    ]
    assert list(valley_factors("UUUDUDDUDD")) == [(0, 10, {2, 1}, [1, 1, 1])]


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


@pytest.mark.parametrize("family", FAMILY_STEPS)
def test_enumeration_matches_the_reference_walker(family):
    for n in range(11 if family == "motzkin" else 8):
        every = reference_walk(family, n)
        for filt in FILTERS:
            paths_n = list(enumerate_family(family, n, filt))
            want = [steps for steps in every if passes_filter(steps, filt)]
            assert [p.steps for p in paths_n] == want, (filt, n)
            assert {p.family for p in paths_n} <= {family}


def test_enumerate_family_is_a_generator_function():
    # the benchmark tracer counts what a function yields only when it is a
    # generator function; otherwise paths.family_paths_yielded reads 0
    assert inspect.isgeneratorfunction(paths.enumerate_family)


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


def test_intro_structure_builds_the_intro_path():
    structure = ValleyStructure(
        (ValleyBlock(3, (3, 1, 1)), ValleyBlock(2, (1, 1)), Pyramid(2))
    )
    assert structure.semilength == 14
    assert structure.to_path() == INTRO_EXAMPLE


def test_structures_match_filtered_enumeration():
    for n in range(8):
        from_structures = sorted(s.to_path().steps for s in valley_structures(n))
        filtered = sorted(
            p.steps for p in enumerate_family("dyck", n) if is_valley_uniform(p)
        )
        assert from_structures == filtered


def test_is_valley_uniform():
    assert is_valley_uniform(INTRO_EXAMPLE)
    assert is_valley_uniform(Path("dyck", "UD"))
    assert not is_valley_uniform(Path("dyck", "UUUDUDDUDD"))


def test_render_ascii():
    assert render_ascii(Path("dyck", "UUDD")) == " /\\\n/  \\"
    assert render_ascii(Path("dyck", "")) == ""
    art = render_ascii(Path("motzkin", "UFD"))
    assert art == " _\n/ \\"
    assert "_" in render_ascii(Path("schroder_large", "H"))
    # Delannoy paths may dip below the axis; rows extend downwards
    assert render_ascii(Path("delannoy", "DU")) == "\\/"
    assert render_ascii(Path("delannoy", "DHU")) == "\\__/"


def test_a_flat_picture_costs_about_a_byte_a_cell():
    # one buffer per level: 100,000 flat columns peak near 1.7 MB, mostly the levels tuple
    art, peak = traced_peak(lambda: render_ascii(Path("motzkin", "F" * 100_000)))
    assert art == "_" * 100_000
    assert peak < 3_000_000


def test_width_counts_h_twice():
    for family in FAMILY_STEPS:
        for n in range(6):
            for path in enumerate_family(family, n):
                assert path.width == sum(STEP_WIDTH[ch] for ch in path.steps)
                if family != "motzkin":
                    assert path.size == n
    assert Path("delannoy", "DHUHDU").width == 8
