"""Executable weight-preserving bijections on decorated valley structures.

Five of the maps (phi, theta, sigma, rho, psi) share one shape: their weight
tables force every block to have inner height 1 and every axis pyramid to
have height at least 2, so each part normalizes to u^k (ud)^r d^k with
k, r >= 1 (a pyramid of height h is the case k = h - 1, r = 1).  A part is
decorated with a subpath Q and one tail unit for each of its r - 1 further
peaks; the forward map emits u Q d t_1 .. t_(r-1) per part and concatenates
the images.  Each map's :class:`MapSpec` record in :data:`MAPS` says which
family Q comes from and at what size, what the tail units are and what
everything weighs, and which target family the images form.  Where a map
offers two tail units (theta), a decoration records its choices as one
symbol per unit.  The forward map and the weight read a part's tail units
from one place: the recorded symbols' units, or else the lone unit r - 1
times.  The inverse reads the unique factorization of a target
path back off: first primitive factor, then the maximal run of tail units.

The sixth map, tau, exchanges the two integer weight systems of the
Delannoy pair (4,3,7,2) and (2,1,7,4).  It works purely on run-length data:
a factor is (marked ascent k0, inner pyramid heights, a letter string of
length k0 - 1), and the map is a reversal-and-relabeling shuffle between
the letter string and the encoded pyramid heights that preserves the letter
value product.  Each side's letters, pyramid marker and far side are one
row of one side table, :data:`TAU_TABLE`.

``MapSpec``, the decorated objects and the tau factors are slotted immutable
values (``_value.Value``), each checked once, by its constructor.  The
decorations a structure admits, the tau objects of a size and the inverse's
output are valid by how they are built, so ``decorations``, ``enumerate_tau``
and ``inverse`` build them unchecked, through the ``_trusted`` that
``Value`` writes for each type; the forward image and the tau exchange, the
maps the checks test, keep their validating constructors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping

from ._value import Value
from .errors import (
    BadParams,
    InvalidDecoration,
    NotInTargetFamily,
    UniqueFactorizationFailure,
)
from .params import A, B, Q, T
from .paths import (
    STEP_RISE,
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    enumerate_family,
    passes_filter,
    primitive_part,
    valley_structures,
)
from .polynomials import Polynomial
from .weights import target_weight

_ONE = Polynomial.one()


class MapSpec(Value):
    """What one structure map is: its two sides and how a part crosses.

    ``tail`` lists the tail units a part may append, as (symbol, letters,
    weight).  A lone unit has the symbol None and is never recorded; where
    there are several, a decoration names each of its units by symbol.
    ``symbols``, what a decoration may record, is derived from ``tail``.
    """

    __slots__ = (
        "target", "target_weighting", "registry", "formula", "decoration",
        "decoration_weighting", "tail", "offset", "core", "symbols",
    )

    def __init__(
        self,
        target: tuple[str, str],  # family and filter of the image paths
        target_weighting: str,  # target_weight() weighting the images carry
        registry: str,  # weight table whose structure weights the map realizes
        formula: str,  # formula_vn() name of the summed weight at each size
        decoration: str,  # family of the subpath Q decorating a part
        decoration_weighting: str,  # target_weight() weighting of Q
        tail: tuple[tuple[str | None, str, Polynomial], ...],
        offset: int = 0,  # Q has size k - offset
        core: Polynomial | None = None,  # weight of u Q d beyond Q's own
    ):
        symbols = tuple(s for s, _, _ in tail if s is not None)
        self._fill(target, target_weighting, registry, formula, decoration,
                   decoration_weighting, tail, offset, core, symbols)


MAPS: dict[str, MapSpec] = {
    "phi": MapSpec(
        target=("motzkin", "first_not_flat"), target_weighting="motzkin_ab",
        registry="motzkin_ab", formula="motzkin_diff",
        decoration="motzkin", decoration_weighting="motzkin_ab",
        tail=((None, "F", A),), offset=1, core=B,
    ),
    "theta": MapSpec(
        target=("schroder_large", "y_filter"), target_weighting="schroder_q",
        registry="schroder_large_q", formula="schroder_large_diff",
        decoration="schroder_large", decoration_weighting="schroder_q",
        tail=(("H", "H", Q), ("ud", "UD", _ONE)),
    ),
    "sigma": MapSpec(
        target=("schroder_small", "first_two_not_ud"), target_weighting="schroder_q",
        registry="schroder_small_q", formula="schroder_small_diff",
        decoration="schroder_large", decoration_weighting="schroder_q",
        tail=((None, "UD", _ONE),),
    ),
    "rho": MapSpec(
        target=("dyck", "first_two_not_ud"), target_weighting="narayana_t",
        registry="narayana_t", formula="narayana_diff",
        decoration="dyck", decoration_weighting="narayana_t",
        tail=((None, "UD", T),),
    ),
    "psi": MapSpec(
        target=("dyck", "first_two_not_ud"), target_weighting="level_peaks",
        registry="narayana_shift_t", formula="narayana_shift_diff",
        decoration="dyck", decoration_weighting="narayana_t",
        tail=((None, "UD", T + 1),),
    ),
}

MAP_TARGET = {map_id: spec.target for map_id, spec in MAPS.items()}

_SYMBOLS = frozenset(s for spec in MAPS.values() for s in spec.symbols)


def _map_spec(map_id: str) -> MapSpec:
    spec = MAPS.get(map_id)
    if spec is None:
        raise BadParams(f"unknown map {map_id!r}")
    return spec


class PartDecoration(Value):
    __slots__ = ("subpath", "symbols")

    def __init__(self, subpath: Path, symbols: tuple[str, ...] = ()):
        symbols = tuple(symbols)
        if not _SYMBOLS.issuperset(symbols):
            bad = next(s for s in symbols if s not in _SYMBOLS)
            raise InvalidDecoration(f"unknown decoration symbol {bad!r}")
        self._fill(subpath, symbols)


class DecoratedStructure(Value):
    __slots__ = ("map_id", "structure", "decorations")

    def __init__(self, map_id: str, structure: ValleyStructure, decorations: tuple = ()):
        decorations = tuple(decorations)
        spec = _map_spec(map_id)
        if len(decorations) != len(structure.parts):
            raise InvalidDecoration("one decoration per part is required")
        family = spec.decoration
        for part, deco in zip(structure.parts, decorations):
            k, r = _part_form(map_id, part)
            if deco.subpath.family != family:
                raise InvalidDecoration(f"{map_id} decorations are {family} paths")
            wanted = k - spec.offset
            if deco.subpath.size != wanted:
                raise InvalidDecoration(
                    f"decoration size {deco.subpath.size} does not match part size {wanted}"
                )
            if spec.symbols:
                if len(deco.symbols) != r - 1:
                    raise InvalidDecoration(f"{map_id} needs r-1 symbols")
            elif deco.symbols:
                raise InvalidDecoration(f"{map_id} takes no symbols")
        self._fill(map_id, structure, decorations)

    def to_json(self) -> dict:
        parts = []
        for part, deco in zip(self.structure.parts, self.decorations):
            if isinstance(part, Pyramid):
                entry: dict = {"kind": "pyramid", "height": part.height}
            else:
                entry = {"kind": "block", "ascent": part.ascent, "heights": list(part.heights)}
            entry["sub"] = deco.subpath.steps
            if deco.symbols:
                entry["symbols"] = list(deco.symbols)
            parts.append(entry)
        return {"map": self.map_id, "parts": parts}

    @classmethod
    def from_json(cls, data: Mapping) -> "DecoratedStructure":
        map_id = data["map"]
        family = _map_spec(map_id).decoration
        parts: list = []
        decos: list[PartDecoration] = []
        for entry in data["parts"]:
            block = entry["kind"] != "pyramid"
            sizes = [entry["ascent"], *entry["heights"]] if block else [entry["height"]]
            if any(type(size) is not int for size in sizes):
                raise TypeError("a part's height, ascent and heights must be integers")
            parts.append(ValleyBlock(sizes[0], tuple(sizes[1:])) if block else Pyramid(sizes[0]))
            sub = Path.from_json({"family": family, "steps": entry["sub"]})
            decos.append(PartDecoration(sub, entry.get("symbols", ())))
        return cls(map_id, ValleyStructure(parts), decos)


def _part_form(map_id: str, part) -> tuple[int, int]:
    """Normalize a part to (ascent k, peak count r); reject parts outside the domain."""
    if isinstance(part, Pyramid):
        if part.height < 2:
            raise InvalidDecoration(f"{map_id} admits no axis pyramid of height 1")
        return part.height - 1, 1
    heights = part.heights
    if heights.count(1) != len(heights):
        raise InvalidDecoration(f"{map_id} admits only blocks with unit inner pyramids")
    return part.ascent, len(heights)


def decorations(structure: ValleyStructure, map_id: str) -> Iterator[DecoratedStructure]:
    """Every decoration of one valley structure; none if a part is outside the domain."""
    spec = _map_spec(map_id)
    try:
        forms = [_part_form(map_id, part) for part in structure.parts]
    except InvalidDecoration:
        return
    # _part_form admitted every part, and each subpath has the size its part needs
    per_part = []
    for k, r in forms:
        subs = list(enumerate_family(spec.decoration, k - spec.offset))
        tails = list(product(spec.symbols, repeat=r - 1)) if spec.symbols else [()]
        per_part.append([PartDecoration._trusted(sub, syms) for sub in subs for syms in tails])
    for combo in product(*per_part):
        yield DecoratedStructure._trusted(map_id, structure, combo)


def enumerate_decorated(n: int, map_id: str) -> Iterator[DecoratedStructure]:
    """All decorated objects of size n, structure by structure."""
    _map_spec(map_id)
    for structure in valley_structures(n):
        yield from decorations(structure, map_id)


def forward(map_id: str, obj):
    """Apply a map; decorated structures map to target paths, tau maps sides."""
    if map_id == "tau":
        if not isinstance(obj, TauDecorated):
            raise BadParams("tau applies to marked, lettered objects")
        return tau_apply(obj)
    if not isinstance(obj, DecoratedStructure) or obj.map_id != map_id:
        raise BadParams(f"object does not belong to map {map_id!r}")
    spec = MAPS[map_id]
    chunks: list[str] = []
    for part, deco in zip(obj.structure.parts, obj.decorations):
        chunks.append("U" + deco.subpath.steps + "D")
        chunks += [letters for _, letters, _ in _tail_units(spec, map_id, part, deco)]
    return Path(spec.target[0], "".join(chunks))


def _tail_units(spec: MapSpec, map_id: str, part, deco: PartDecoration):
    """The ``tail`` entries one part appends, in path order."""
    if spec.symbols:
        return [unit for symbol in deco.symbols for unit in spec.tail if unit[0] == symbol]
    return spec.tail * (_part_form(map_id, part)[1] - 1)  # the lone unit, r - 1 times


@lru_cache(maxsize=256)
def _unit_part(k: int, r: int):
    """The part u^k (ud)^r d^k."""
    return primitive_part(k, (1,) * r)


def inverse(map_id: str, target):
    """Invert a map via the unique factorization of the target object."""
    if map_id == "tau":
        return forward(map_id, target)  # the exchange inverts itself
    spec = _map_spec(map_id)
    family, filt = spec.target
    if not isinstance(target, Path) or target.family != family:
        raise NotInTargetFamily(f"{map_id} inverts paths of family {family!r}")
    if not passes_filter(target.steps, filt):
        raise NotInTargetFamily(f"path {target.steps!r} fails the {filt} condition")
    steps = target.steps
    end = len(steps)
    rise, tail, decoration, offset = STEP_RISE, spec.tail, spec.decoration, spec.offset
    i = 0
    parts: list = []
    decos: list[PartDecoration] = []
    while i < end:
        if steps[i] != "U":
            raise UniqueFactorizationFailure(f"expected an up step at {i} in {steps!r}")
        level = 1
        j = i + 1
        while j < end and level > 0:
            level += rise[steps[j]]
            j += 1
        if level != 0:
            raise UniqueFactorizationFailure(f"unbalanced factor at {i} in {steps!r}")
        # a factor of a target path, less its first and last step, is a
        # decoration path: every map's decoration family admits its target's steps
        sub = Path._trusted(decoration, steps[i + 1 : j - 1])
        i = j
        # the maximal run of tail units after the core factor
        symbols: list[str] = []
        r = 1
        while i < end:
            for symbol, letters, _ in tail:
                if steps.startswith(letters, i):
                    break
            else:
                break
            i += len(letters)
            r += 1
            if symbol is not None:
                symbols.append(symbol)
        k = sub.size + offset
        if k < 1:
            raise UniqueFactorizationFailure(f"empty core factor at {i} in {steps!r}")
        parts.append(_unit_part(k, r))
        decos.append(PartDecoration._trusted(sub, tuple(symbols)))
    # each part is u^k (ud)^r d^k with k >= 1, its subpath has size k - offset,
    # and it records one symbol per tail unit that has one
    return DecoratedStructure._trusted(map_id, ValleyStructure(tuple(parts)), tuple(decos))


def decorated_weight(obj: DecoratedStructure) -> Polynomial:
    """Product over the parts of the core, decoration and tail-unit weights."""
    spec = MAPS[obj.map_id]
    weighting, core = spec.decoration_weighting, spec.core
    total = None
    for part, deco in zip(obj.structure.parts, obj.decorations):
        weight = target_weight(deco.subpath, weighting)
        if core is not None:
            weight = weight * core
        for _, _, unit in _tail_units(spec, obj.map_id, part, deco):
            if unit != _ONE:
                weight = weight * unit
        total = weight if total is None else total * weight
    return _ONE if total is None else total


# -- the tau exchange between the two integer Delannoy weightings ---------------

# side -> (letters, the hatted one last, in enumerate_tau's order; pyramid marker; far side)
TAU_TABLE = {
    "src_4372": (("1", "1h"), "3", "dst_2174"),
    "dst_2174": (("1", "3h"), "1", "src_4372"),
}
TAU_SIDES = tuple(TAU_TABLE)

_TAU_ALLOWED = {side: frozenset(letters) for side, (letters, _, _) in TAU_TABLE.items()}

_LETTER_VALUE = {"1": 1, "1h": 1, "3": 3, "3h": 3, "7": 7}


class TauFactor(Value):
    """One primitive factor: marked ascent, inner pyramid heights, letters.

    The mark sits at the end of the ascent; the letters decorate ascent
    steps 2..k0 and the first up step always carries the value 7.
    """

    __slots__ = ("ascent", "heights", "letters")

    def __init__(self, ascent: int, heights: tuple[int, ...], letters: tuple[str, ...] = ()):
        heights = tuple(heights)
        letters = tuple(letters)
        if ascent < 1:
            raise InvalidDecoration("the marked ascent must have length at least 1")
        if not heights or min(heights) < 1:
            raise InvalidDecoration("inner pyramid heights must be positive")
        if len(letters) != ascent - 1:
            raise InvalidDecoration("a factor carries ascent-1 letters")
        self._fill(ascent, heights, letters)


class TauDecorated(Value):
    __slots__ = ("side", "factors")

    def __init__(self, side: str, factors: tuple[TauFactor, ...] = ()):
        factors = tuple(factors)
        if side not in TAU_SIDES:
            raise BadParams(f"unknown tau side {side!r}")
        allowed = _TAU_ALLOWED[side]
        for factor in factors:
            if not allowed.issuperset(factor.letters):
                bad = [tok for tok in factor.letters if tok not in allowed]
                raise InvalidDecoration(f"letters {bad} are not allowed on side {side}")
        self._fill(side, factors)

    def to_path(self) -> Path:
        return tau_structure(self).to_path()

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "parts": [
                {"k0": f.ascent, "letters": list(f.letters), "blocks": list(f.heights)}
                for f in self.factors
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "TauDecorated":
        factors = []
        for e in data["parts"]:
            k0, blocks = e["k0"], e["blocks"]
            if type(k0) is not int or type(blocks) is not list or any(
                type(h) is not int for h in blocks
            ):
                raise TypeError("a tau part needs an integer k0 and a list of integer blocks")
            factors.append(TauFactor(k0, blocks, e["letters"]))
        return cls(data["side"], factors)


def enumerate_tau(n: int, side: str) -> Iterator[TauDecorated]:
    """All marked, lettered objects of size n on one side of the exchange."""
    if side not in TAU_SIDES:
        raise BadParams(f"unknown tau side {side!r}")
    alphabet = TAU_TABLE[side][0]
    for structure in valley_structures(n):
        if any(isinstance(part, Pyramid) and part.height == 1 for part in structure.parts):
            continue  # an axis pyramid of height 1 has no mark, so the structure has no object
        per_part: list[list[TauFactor]] = []
        for part in structure.parts:
            if isinstance(part, Pyramid):
                # the mark splits a height-h axis pyramid as k0 + (h - k0)
                marks = [(k0, (part.height - k0,)) for k0 in range(1, part.height)]
            else:
                marks = [(part.ascent, part.heights)]
            per_part.append([
                TauFactor._trusted(k0, heights, letters)
                for k0, heights in marks
                for letters in product(alphabet, repeat=k0 - 1)
            ])
        for combo in product(*per_part):
            yield TauDecorated._trusted(side, combo)


def _encode_heights(heights: tuple[int, ...], marker: str) -> tuple[str, ...]:
    """Each pyramid of height h becomes marker^(h-1) followed by '1'."""
    out: list[str] = []
    for h in heights:
        out.extend([marker] * (h - 1))
        out.append("1")
    return tuple(out)


def _decode_heights(tokens: tuple[str, ...]) -> tuple[int, ...]:
    heights: list[int] = []
    run = 0
    for tok in tokens:
        if tok == "1":
            heights.append(run + 1)
            run = 0
        else:
            run += 1
    return tuple(heights)


def tau_apply(obj: TauDecorated) -> TauDecorated:
    """Exchange sides one primitive factor at a time.

    Per factor, with V the encoding of the inner heights in the far side's
    hatted letter ('3h' from the source, '1h' from the target; V always
    ends in '1'):

        new ascent   = sum of old heights
        new heights  = decode of reversed(letters) + ('1',), this side's
                       hatted letter marking the pyramid steps
        new letters  = reverse of V without its final '1'

    The construction is an involution up to the side tag, and the letter
    value product (3 per hatted-3, 7 once per factor) is preserved because
    the dropped token is always the valueless '1'.
    """
    far = TAU_TABLE[obj.side][2]
    theirs = TAU_TABLE[far][0][-1]
    out: list[TauFactor] = []
    for f in obj.factors:
        # TauDecorated admits only "1" and this side's hatted letter
        new_letters = tuple(reversed(_encode_heights(f.heights, theirs)[:-1]))
        new_heights = _decode_heights(tuple(reversed(f.letters)) + ("1",))
        out.append(TauFactor(sum(f.heights), new_heights, new_letters))
    return TauDecorated(far, tuple(out))


def tau_value(obj: TauDecorated) -> int:
    """Product of the letter values over all up steps: per factor 7, the marker's
    value for each inner pyramid step but a pyramid's last, and each letter's."""
    marker = _LETTER_VALUE[TAU_TABLE[obj.side][1]]
    total = 1
    for f in obj.factors:
        total *= 7 * marker ** (sum(f.heights) - len(f.heights))
        for letter in f.letters:
            total *= _LETTER_VALUE[letter]
    return total


def tau_ustep_weights(factor: TauFactor, side: str) -> tuple[str, ...]:
    """Weight tokens of the factor's up steps in path order, starting with '7'."""
    return ("7", *factor.letters, *_encode_heights(factor.heights, TAU_TABLE[side][1]))


def tau_structure(obj: TauDecorated) -> ValleyStructure:
    """Forget marks and letters, keeping the underlying valley structure."""
    return ValleyStructure(tuple(primitive_part(f.ascent, f.heights) for f in obj.factors))
