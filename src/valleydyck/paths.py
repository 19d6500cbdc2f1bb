"""Lattice path families, exhaustive enumerators, and the valley reading of Dyck paths.

Steps are single characters: ``U`` = (1,1), ``D`` = (1,-1), ``F`` = (1,0)
(the Motzkin unit flat) and ``H`` = (2,0) (the Schroder/Delannoy double
flat).  A path is a family tag plus a step string; validation happens at
construction, in one scan of the steps against the family's step-to-rise
table.  Delannoy paths may dip below the axis; every other family is
confined to the first quadrant, and the small Schroder family additionally
forbids ``H`` on the axis.

The size of a path is its semilength (half the width) except for Motzkin
paths, whose size is the step count.

An opening-step filter is the tuple of openings it forbids
(``FORBIDDEN_OPENINGS``), and a path passes it when it starts with none of
them.  The enumerator refuses a step when it would complete a forbidden
opening, so it never walks the paths under one.

A Dyck path is read by its runs: ``valley_factors`` groups the steps once
into up and down runs and gives each primitive factor's valley levels and
maximal pyramid heights, all that ``is_valley_uniform`` and
``weights.path_weight`` read.  An up run and the down run after it are one
maximal pyramid, as high as the shorter run; a down run and the up run after
it meet at a valley unless they meet on the axis, where the factor ends.

``Path`` and the structure types ``Pyramid``, ``ValleyBlock`` and
``ValleyStructure`` are slotted immutable values (``_value.Value``): each
is checked once, by its constructor, and compares by its fields.  The
enumerator's walker keeps every rule as it goes, so it builds its paths
unchecked (``Path._trusted``).
"""

from __future__ import annotations

import math
from itertools import accumulate, groupby
from typing import Callable, Iterator, Mapping, Union

from ._value import Value
from .errors import FamilyViolation, IllegalCharacter, NegativeLevel, NonzeroEnd

STEP_RISE = {"U": 1, "D": -1, "F": 0, "H": 0}
STEP_WIDTH = {"U": 1, "D": 1, "F": 1, "H": 2}

FAMILY_STEPS = {
    "dyck": "UD",
    "motzkin": "UDF",
    "schroder_large": "UDH",
    "schroder_small": "UDH",
    "delannoy": "UDH",
}

# per family: its step -> rise table (a step missing from it is illegal), the
# lowest level it may reach and the step it bars on the axis
_FAMILY_RULES = {
    family: (
        {ch: STEP_RISE[ch] for ch in alphabet},
        -math.inf if family == "delannoy" else 0,
        "H" if family == "schroder_small" else None,
    )
    for family, alphabet in FAMILY_STEPS.items()
}

# per filter: the openings it forbids; a path passes when it starts with none of them
FORBIDDEN_OPENINGS = {
    "none": (),
    "first_not_flat": ("F",),
    "first_two_not_ud": ("UD",),
    "y_filter": ("H", "UD"),
}
FILTERS = tuple(FORBIDDEN_OPENINGS)


def _openings(filt: str) -> tuple[str, ...]:
    try:
        return FORBIDDEN_OPENINGS[filt]
    except KeyError:
        raise ValueError(f"unknown filter {filt!r}") from None


def passes_filter(steps: str, filt: str) -> bool:
    """Whether a step string starts with none of the openings the filter forbids."""
    return not steps.startswith(_openings(filt))


class Path(Value):
    __slots__ = ("family", "steps")

    def __init__(self, family: str, steps: str = ""):
        rules = _FAMILY_RULES.get(family)
        if rules is None:
            raise FamilyViolation(f"unknown family {family!r}")
        rise, floor, barred = rules
        level = 0
        try:
            for ch in steps:
                level += rise[ch]
                if level < floor:
                    raise NegativeLevel(f"path dips to level {level}")
                # the barred step is flat, so it sat on the axis iff it ends there
                if level == 0 and ch == barred:
                    raise FamilyViolation("small Schroder paths have no H-step on the axis")
        except KeyError:
            raise IllegalCharacter(f"step {ch!r} is not allowed in {family}") from None
        if level != 0:
            raise NonzeroEnd(f"path ends at level {level}")
        self._fill(family, steps)

    @property
    def width(self) -> int:
        # every step is one unit wide except H, which is two
        return len(self.steps) + self.steps.count("H")

    @property
    def size(self) -> int:
        """Semilength, or the step count for Motzkin paths."""
        if self.family == "motzkin":
            return len(self.steps)
        return self.width // 2

    def levels(self) -> tuple[int, ...]:
        """Level after 0, 1, 2, ... steps (length len(steps)+1)."""
        return tuple(accumulate(map(STEP_RISE.__getitem__, self.steps), initial=0))

    def to_json(self) -> dict:
        return {"family": self.family, "steps": self.steps}

    @classmethod
    def from_json(cls, data: Mapping) -> "Path":
        steps = data["steps"]
        if type(steps) is not str:
            raise TypeError(f"path steps must be a string, got {type(steps).__name__}")
        return cls(data["family"], steps)


def enumerate_family(family: str, n: int, filt: str = "none") -> Iterator[Path]:
    """All paths of the family with the given size, lexicographic in U<D<F<H,
    less those that start with an opening the filter forbids.

    The walk is one depth-first loop over an explicit stack, one frame per
    point of the current prefix: (level, remaining width, the moves still to
    try from there).  A step is taken only if it keeps the floor, is not the
    barred axis step and leaves a level the remaining width can return from,
    so every frame with no width left closes a path at level 0, which the
    loop yields itself, unchecked, and then steps back from.  The filter is
    kept the same way, when the step is taken: within the first steps, the
    moves offered leave out each step that would complete a forbidden
    opening, so no path under one is walked and nothing is tested at a yield.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    forbidden = _openings(filt)
    rules = _FAMILY_RULES.get(family)
    if rules is None:
        raise FamilyViolation(f"unknown family {family!r}")
    rise, floor, barred = rules
    full = _moves(rise, "", ())
    prefix: list[str] = []
    stack = [(0, n if family == "motzkin" else 2 * n, iter(_moves(rise, "", forbidden)))]
    pop, push, take = stack.pop, stack.append, prefix.append
    while stack:
        level, remaining, moves = pop()
        if not remaining:
            yield Path._trusted(family, "".join(prefix))
            del prefix[-1:]  # step back; the empty path has no step to take back
            continue
        for ch, r, w, after in moves:
            nl = level + r
            if w > remaining or nl < floor or abs(nl) > remaining - w or not level and ch == barred:
                continue
            push((level, remaining, moves))
            push((nl, remaining - w, iter(full if after is None else after)))
            take(ch)
            break
        else:
            del prefix[-1:]  # no step left from here; the root has none to take back


def _moves(rise: Mapping[str, int], opening: str, forbidden: tuple[str, ...]) -> tuple:
    """The moves (step, rise, width, moves after it) from the end of ``opening``,
    in U<D<F<H order, that complete no ``forbidden`` opening.  The moves after
    a step are ``None`` once the prefix it makes starts no forbidden opening:
    from there on every step is a move."""
    moves = []
    for ch, r in rise.items():
        longer = opening + ch
        if longer in forbidden:
            continue
        inside = any(o.startswith(longer) for o in forbidden)
        moves.append((ch, r, STEP_WIDTH[ch], _moves(rise, longer, forbidden) if inside else None))
    return tuple(moves)


# -- valley-uniform structure ------------------------------------------------


class Pyramid(Value):
    """A primitive factor u^h d^h (no valleys)."""

    __slots__ = ("height",)

    def __init__(self, height: int):
        if height < 1:
            raise ValueError("pyramid height must be positive")
        self._fill(height)

    @property
    def size(self) -> int:
        return self.height


class ValleyBlock(Value):
    """A primitive factor u^k (u^i1 d^i1 ... u^ir d^ir) d^k with r >= 2 peaks.

    All valleys sit at the ascent level k; heights are the inner pyramid
    heights in path order.
    """

    __slots__ = ("ascent", "heights")

    def __init__(self, ascent: int, heights: tuple[int, ...] = ()):
        heights = tuple(heights)
        if ascent < 1:
            raise ValueError("block ascent must be positive")
        if len(heights) < 2 or any(h < 1 for h in heights):
            raise ValueError("a block needs at least two positive pyramid heights")
        self._fill(ascent, heights)

    @property
    def size(self) -> int:
        return self.ascent + sum(self.heights)


Part = Union[Pyramid, ValleyBlock]


def primitive_part(ascent: int, heights: tuple[int, ...]) -> Part:
    """u^ascent (u^h d^h for h in heights) d^ascent: a pyramid if one h, else a block."""
    return Pyramid(ascent + heights[0]) if len(heights) == 1 else ValleyBlock(ascent, heights)


class ValleyStructure(Value):
    """Canonical decomposition of a valley-uniform Dyck path into parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Part, ...] = ()):
        parts = tuple(parts)
        self._fill(parts)

    @property
    def semilength(self) -> int:
        return sum(p.size for p in self.parts)

    def to_path(self) -> Path:
        chunks = []
        for part in self.parts:
            if isinstance(part, Pyramid):
                chunks.append("U" * part.height + "D" * part.height)
            else:
                inner = "".join("U" * h + "D" * h for h in part.heights)
                chunks.append("U" * part.ascent + inner + "D" * part.ascent)
        return Path("dyck", "".join(chunks))


def valley_factors(steps: str) -> Iterator[tuple[int, int, set[int], list[int]]]:
    """Each primitive factor of a valid Dyck step string, read off its runs as
    the module docstring says: (start, end, valley levels, maximal pyramid
    heights)."""
    runs = [len(list(run)) for _, run in groupby(steps)]
    start = end = level = 0
    valleys: set[int] = set()
    heights: list[int] = []
    for up, down in zip(runs[::2], runs[1::2]):
        heights.append(min(up, down))
        end += up + down
        level += up - down
        if level:
            valleys.add(level)
        else:
            yield start, end, valleys, heights
            start, valleys, heights = end, set(), []


def is_valley_uniform(path: Path) -> bool:
    """True when every primitive factor has all its valleys at one level."""
    if path.family != "dyck":
        raise FamilyViolation("the valley condition applies to Dyck paths")
    return all(len(valleys) < 2 for _, _, valleys, _ in valley_factors(path.steps))


def valley_structures(n: int) -> Iterator[ValleyStructure]:
    """Every decomposition of total size n into pyramids and valley blocks."""
    for parts in _part_sequences(n, _valley_parts):
        yield ValleyStructure(parts)


def _valley_parts(size: int) -> list[Part]:
    """Every part of the size: its pyramid, then its blocks by ascent."""
    blocks = (ValleyBlock(k, heights) for k in range(1, size - 1)
              for heights in _compositions(size - k, 2))
    return [Pyramid(size), *blocks]


def _part_sequences(
    n: int, parts_of_size: Callable[[int], list[Part]]
) -> Iterator[tuple[Part, ...]]:
    """Every sequence of parts of total size n, by the first part's size, then
    its place in ``parts_of_size``, then the rest the same way.  A caller that
    leaves a part out of its table walks no sequence holding it, and the
    sequences it keeps come in the order of the full walk."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    # every part of each size, built once and shared by the sequences
    return _sequences(n, {s: parts_of_size(s) for s in range(1, n + 1)})


def _sequences(remaining: int, parts_of_size: dict) -> Iterator[tuple[Part, ...]]:
    # not a closure: a recursive closure is a cycle that would keep the parts alive
    if remaining == 0:
        yield ()
        return
    for s in range(1, remaining + 1):
        for part in parts_of_size[s]:
            for tail in _sequences(remaining - s, parts_of_size):
                yield (part,) + tail


def _compositions(total: int, min_parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers with the given sum and length >= min_parts."""

    def go(rest: int, made: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            if made >= min_parts:
                yield ()
            return
        for first in range(1, rest + 1):
            for tail in go(rest - first, made + 1):
                yield (first,) + tail

    return go(total, 0)


_GLYPHS = {"U": b"/", "D": b"\\", "F": b"_", "H": b"__"}


def render_ascii(path: Path) -> str:
    """Fixed-width picture: '/' and '\\' for slopes, '_' for flats, one row per level."""
    if not path.steps:
        return ""
    levels = path.levels()
    low = min(levels)
    # one buffer per level, from the lowest; a step is drawn in the row of its
    # lower end, one glyph per unit of width, after blanks up to its column
    rows = [bytearray() for _ in range(max(levels) - low + 1)]
    x = 0
    for ch, before, after in zip(path.steps, levels, levels[1:]):
        row = rows[min(before, after) - low]
        row += b" " * (x - len(row))
        row += _GLYPHS[ch]
        x = len(row)
    while not rows[-1]:
        rows.pop()  # the top level, when no flat runs along it
    return "\n".join(row.decode() for row in reversed(rows))
