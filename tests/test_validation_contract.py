"""What each L2 constructor accepts, and exactly how it refuses the rest.

``Path`` is compared, over every step string of length <= 6 on ``UDFHX``,
with a reference validator written out below; every other raise branch of
the decorated objects and of ``inverse`` is pinned by type and message.
"""

from itertools import product

import pytest

from conftest import rebuilt
from valleydyck.bijections import (
    MAPS,
    DecoratedStructure,
    PartDecoration,
    TauDecorated,
    TauFactor,
    decorations,
    inverse,
)
from valleydyck.errors import (
    BadParams,
    FamilyViolation,
    IllegalCharacter,
    InvalidDecoration,
    NegativeLevel,
    NonzeroEnd,
    NotInTargetFamily,
    UniqueFactorizationFailure,
)
from valleydyck.paths import Path, Pyramid, ValleyBlock, ValleyStructure

FAMILIES = ("dyck", "motzkin", "schroder_large", "schroder_small", "delannoy")
REFERENCE_ALPHABET = {
    "dyck": "UD",
    "motzkin": "UDF",
    "schroder_large": "UDH",
    "schroder_small": "UDH",
    "delannoy": "UDH",
}


def reference_check(family: str, steps: str):
    """The path rules as a plain loop: None, or (error type, message)."""
    if family not in REFERENCE_ALPHABET:
        return FamilyViolation, f"unknown family {family!r}"
    level = 0
    for ch in steps:
        if ch not in REFERENCE_ALPHABET[family]:
            return IllegalCharacter, f"step {ch!r} is not allowed in {family}"
        if family == "schroder_small" and ch == "H" and level == 0:
            return FamilyViolation, "small Schroder paths have no H-step on the axis"
        level += {"U": 1, "D": -1}.get(ch, 0)
        if level < 0 and family != "delannoy":
            return NegativeLevel, f"path dips to level {level}"
    if level != 0:
        return NonzeroEnd, f"path ends at level {level}"
    return None


def outcome(build):
    try:
        build()
    except Exception as exc:  # the contract compares whatever is raised
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("family", FAMILIES + ("bogus",))
def test_path_validation_matches_reference(family):
    accepted = 0
    for length in range(7):
        for chars in product("UDFHX", repeat=length):
            steps = "".join(chars)
            want = reference_check(family, steps)
            assert outcome(lambda: Path(family, steps)) == want, (family, steps)
            if want is None:
                accepted += 1
                path = Path(family, steps)
                assert (path.family, path.steps) == (family, steps)
    assert (accepted > 0) == (family != "bogus")


def raises(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def test_part_decoration_names_the_first_unknown_symbol():
    sub = Path("schroder_large", "")
    raises(InvalidDecoration, "unknown decoration symbol 'zz'",
           lambda: PartDecoration(sub, ("H", "zz", "yy")))
    raises(InvalidDecoration, "unknown decoration symbol 'U'",
           lambda: PartDecoration(sub, "UD"))
    assert PartDecoration(sub, ["ud", "H"]).symbols == ("ud", "H")


def _structure(*parts):
    return ValleyStructure(tuple(parts))


def test_decorated_structure_raise_branches():
    dyck = Path("dyck", "UD")
    raises(BadParams, "unknown map 'nope'",
           lambda: DecoratedStructure("nope", _structure(Pyramid(2)), (PartDecoration(dyck),)))
    raises(InvalidDecoration, "one decoration per part is required",
           lambda: DecoratedStructure("rho", _structure(Pyramid(2), Pyramid(2)),
                                      (PartDecoration(dyck),)))
    raises(InvalidDecoration, "rho decorations are dyck paths",
           lambda: DecoratedStructure("rho", _structure(Pyramid(2)),
                                      (PartDecoration(Path("motzkin", "F")),)))
    raises(InvalidDecoration, "decoration size 1 does not match part size 2",
           lambda: DecoratedStructure("rho", _structure(Pyramid(3)), (PartDecoration(dyck),)))
    raises(InvalidDecoration, "decoration size 1 does not match part size 0",
           lambda: DecoratedStructure("phi", _structure(Pyramid(2)),
                                      (PartDecoration(Path("motzkin", "F")),)))
    raises(InvalidDecoration, "theta needs r-1 symbols",
           lambda: DecoratedStructure("theta", _structure(ValleyBlock(1, (1, 1, 1))),
                                      (PartDecoration(Path("schroder_large", "UD"), ("H",)),)))
    raises(InvalidDecoration, "theta needs r-1 symbols",
           lambda: DecoratedStructure("theta", _structure(Pyramid(2)),
                                      (PartDecoration(Path("schroder_large", "UD"), ("ud",)),)))
    raises(InvalidDecoration, "rho takes no symbols",
           lambda: DecoratedStructure("rho", _structure(Pyramid(2)),
                                      (PartDecoration(dyck, ("H",)),)))
    # the first bad part is reported, and a part's form is checked before its decoration
    raises(InvalidDecoration, "rho admits no axis pyramid of height 1",
           lambda: DecoratedStructure("rho", _structure(Pyramid(2), Pyramid(1)),
                                      (PartDecoration(dyck), PartDecoration(Path("motzkin")))))


def test_part_form_raise_branches():
    for map_id, spec in MAPS.items():
        sub = PartDecoration(Path(spec.decoration, ""))
        raises(InvalidDecoration, f"{map_id} admits no axis pyramid of height 1",
               lambda: DecoratedStructure(map_id, _structure(Pyramid(1)), (sub,)))
        raises(InvalidDecoration, f"{map_id} admits only blocks with unit inner pyramids",
               lambda: DecoratedStructure(map_id, _structure(ValleyBlock(1, (1, 2))), (sub,)))
        assert list(decorations(_structure(Pyramid(1)), map_id)) == []
        assert list(decorations(_structure(Pyramid(2), ValleyBlock(2, (2, 1))), map_id)) == []


def test_tau_factor_raise_branches():
    raises(InvalidDecoration, "the marked ascent must have length at least 1",
           lambda: TauFactor(0, (1,), ()))
    raises(InvalidDecoration, "inner pyramid heights must be positive",
           lambda: TauFactor(1, (), ()))
    raises(InvalidDecoration, "inner pyramid heights must be positive",
           lambda: TauFactor(1, (2, 0, 1), ()))
    raises(InvalidDecoration, "a factor carries ascent-1 letters",
           lambda: TauFactor(3, (1,), ("1",)))
    # the ascent is checked before the heights, the heights before the letters
    raises(InvalidDecoration, "the marked ascent must have length at least 1",
           lambda: TauFactor(0, (), ("1",)))
    raises(InvalidDecoration, "inner pyramid heights must be positive",
           lambda: TauFactor(2, (0,), ()))
    factor = TauFactor(2, [3, 1], ["1h"])
    assert (factor.heights, factor.letters) == ((3, 1), ("1h",))


def test_tau_decorated_raise_branches():
    ok = TauFactor(2, (1,), ("1",))
    raises(BadParams, "unknown tau side 'left'", lambda: TauDecorated("left", (ok,)))
    raises(InvalidDecoration, "letters ['3h', '7'] are not allowed on side src_4372",
           lambda: TauDecorated("src_4372", (ok, TauFactor(4, (1,), ("3h", "1", "7")),
                                             TauFactor(2, (1,), ("3",)))))
    raises(InvalidDecoration, "letters ['1h'] are not allowed on side dst_2174",
           lambda: TauDecorated("dst_2174", (TauFactor(3, (1,), ("3h", "1h")),)))
    assert TauDecorated("dst_2174", [TauFactor(3, (1,), ("3h", "1"))]).factors[0].letters == (
        "3h", "1",
    )


def _unchecked_path(family: str, steps: str) -> Path:
    """A Path that skipped validation, to reach the factorization guards."""
    path = object.__new__(Path)
    object.__setattr__(path, "family", family)
    object.__setattr__(path, "steps", steps)
    return path


def test_inverse_raise_branches(monkeypatch):
    raises(NotInTargetFamily, "rho inverts paths of family 'dyck'",
           lambda: inverse("rho", Path("motzkin", "UD")))
    raises(NotInTargetFamily, "phi inverts paths of family 'motzkin'",
           lambda: inverse("phi", "UD"))
    raises(NotInTargetFamily, "path 'UDUD' fails the first_two_not_ud condition",
           lambda: inverse("rho", Path("dyck", "UDUD")))
    raises(NotInTargetFamily, "path 'HUD' fails the y_filter condition",
           lambda: inverse("theta", Path("schroder_large", "HUD")))
    raises(UniqueFactorizationFailure, "expected an up step at 0 in 'DU'",
           lambda: inverse("rho", _unchecked_path("dyck", "DU")))
    raises(UniqueFactorizationFailure, "expected an up step at 4 in 'UUDDDU'",
           lambda: inverse("psi", _unchecked_path("dyck", "UUDDDU")))
    raises(UniqueFactorizationFailure, "unbalanced factor at 0 in 'UUD'",
           lambda: inverse("rho", _unchecked_path("dyck", "UUD")))
    raises(UniqueFactorizationFailure, "unbalanced factor at 4 in 'UUDDUUD'",
           lambda: inverse("sigma", _unchecked_path("schroder_small", "UUDDUUD")))
    # with the filter lifted, a leading ud is a core factor with an empty subpath
    for map_id in ("rho", "theta"):
        spec = MAPS[map_id]
        lifted = rebuilt(spec, target=(spec.target[0], "none"))
        monkeypatch.setitem(MAPS, map_id, lifted)
    raises(UniqueFactorizationFailure, "empty core factor at 2 in 'UD'",
           lambda: inverse("rho", Path("dyck", "UD")))
    raises(UniqueFactorizationFailure, "empty core factor at 6 in 'UDUDUD'",
           lambda: inverse("rho", Path("dyck", "UDUDUD")))
    raises(UniqueFactorizationFailure, "expected an up step at 0 in 'H'",
           lambda: inverse("theta", Path("schroder_large", "H")))
