"""JSON round trips of the path and decorated-object types, on inputs drawn by hypothesis.

Paths are drawn as concatenations of flat steps and excursions U...D, to
depth and length beyond what the exhaustive tests enumerate.  Decorated
objects are the inverse images of drawn target paths, and tau objects are
drawn factor by factor, so every drawn object is valid by construction.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from valleydyck.bijections import (  # noqa: E402
    MAPS,
    TAU_SIDES,
    TAU_TABLE,
    DecoratedStructure,
    TauDecorated,
    TauFactor,
    inverse,
)
from valleydyck.paths import FAMILY_STEPS, Path, passes_filter  # noqa: E402
from valleydyck.verify import EXCHANGE_SOURCE  # noqa: E402


def step_strings(flats: str, axis_flats: str):
    """Step strings of flats and excursions that never dip below their start.

    ``flats`` may appear above the axis and ``axis_flats`` on it.
    """
    def level(inner, allowed):
        return st.lists(
            st.one_of(inner.map(lambda s: f"U{s}D"), *map(st.just, allowed)), max_size=4
        ).map("".join)

    above = st.recursive(st.just(""), lambda inner: level(inner, flats), max_leaves=12)
    return level(above, axis_flats)


def paths(family: str):
    if family == "delannoy":
        # any order of as many U as D steps, with double flats among them
        steps = st.tuples(st.integers(0, 6), st.integers(0, 3)).flatmap(
            lambda k: st.permutations("UD" * k[0] + "H" * k[1])
        )
        return steps.map(lambda s: Path(family, "".join(s)))
    flats = FAMILY_STEPS[family].replace("U", "").replace("D", "")
    axis_flats = "" if family == "schroder_small" else flats
    return step_strings(flats, axis_flats).map(lambda s: Path(family, s))


def decorated(map_id: str):
    family, filt = MAPS[map_id].target
    images = paths(family).filter(lambda p: passes_filter(p.steps, filt))
    return images.map(lambda p: inverse(map_id, p))


@st.composite
def tau_objects(draw):
    side = draw(st.sampled_from(TAU_SIDES))
    letters = st.sampled_from(TAU_TABLE[side][0])
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        ascent = draw(st.integers(1, 5))
        heights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        factors.append(TauFactor(ascent, heights, draw(st.lists(
            letters, min_size=ascent - 1, max_size=ascent - 1))))
    return TauDecorated(side, factors)


examples = settings(max_examples=60, deadline=None)


@examples
@given(st.sampled_from(sorted(FAMILY_STEPS)).flatmap(paths))
def test_path_json_round_trip(path):
    assert Path.from_json(path.to_json()) == path


@examples
@given(st.sampled_from(sorted(MAPS)).flatmap(decorated))
def test_decorated_json_round_trip(obj):
    assert DecoratedStructure.from_json(obj.to_json()) == obj


@examples
@given(tau_objects())
@example(EXCHANGE_SOURCE)  # an ascent of 8, above what tau_objects draws
def test_tau_json_round_trip(obj):
    assert TauDecorated.from_json(obj.to_json()) == obj
