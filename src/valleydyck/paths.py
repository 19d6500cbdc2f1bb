"""Lattice path families, structural statistics, and exhaustive enumerators.

Steps are single characters: ``U`` = (1,1), ``D`` = (1,-1), ``F`` = (1,0)
(the Motzkin unit flat) and ``H`` = (2,0) (the Schroder/Delannoy double
flat).  A path is a family tag plus a step string; validation happens at
construction, in one scan of the steps against the family's step-to-rise
table.  Delannoy paths may dip below the axis; every other family is
confined to the first quadrant, and the small Schroder family additionally
forbids ``H`` on the axis.

The size of a path is its semilength (half the width) except for Motzkin
paths, whose size is the step count.

``Path``, ``PathStats`` and the structure types ``Pyramid``, ``ValleyBlock``
and ``ValleyStructure`` are slotted immutable values (``_value.Value``):
each is checked once, by its constructor, and compares by its fields.  The
enumerator's walker keeps every rule as it goes, so it builds its paths
unchecked (``Path._trusted``).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterator, Mapping, Union

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

_FILTER_PREDICATES = {
    "none": lambda s: True,
    "first_not_flat": lambda s: not s.startswith("F"),
    "first_two_not_ud": lambda s: not s.startswith("UD"),
    "y_filter": lambda s: not (s.startswith("H") or s.startswith("UD")),
}
FILTERS = tuple(_FILTER_PREDICATES)


def passes_filter(steps: str, filt: str) -> bool:
    """Whether a step string satisfies one of the opening-step filters."""
    try:
        return _FILTER_PREDICATES[filt](steps)
    except KeyError:
        raise ValueError(f"unknown filter {filt!r}") from None


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

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {"family": self.family, "steps": self.steps}

    @classmethod
    def from_json(cls, data: Mapping) -> "Path":
        steps = data["steps"]
        if type(steps) is not str:
            raise TypeError(f"path steps must be a string, got {type(steps).__name__}")
        return cls(data["family"], steps)


class PathStats(Value):
    """Deterministic structural statistics of a path.

    Positions are 0-based step indices.  A peak/valley is recorded with the
    level of the shared point of its two steps; a maximal pyramid with its
    height, altitude (level of its last down step) and start position.
    Every field is a tuple of such tuples.
    """

    __slots__ = ("peaks", "valleys", "pyramids")

    def __init__(self, peaks, valleys, pyramids):
        self._fill(peaks, valleys, pyramids)


def analyze(path: Path) -> PathStats:
    steps = path.steps
    levels = path.levels()
    peaks = []
    valleys = []
    for i in range(len(steps) - 1):
        if steps[i] == "U" and steps[i + 1] == "D":
            peaks.append((i, levels[i + 1]))
        elif steps[i] == "D" and steps[i + 1] == "U":
            valleys.append((i, levels[i + 1]))
    pyramids = []
    for i, _ in peaks:
        h = 1
        while (
            i - h >= 0
            and i + 1 + h < len(steps)
            and steps[i - h] == "U"
            and steps[i + 1 + h] == "D"
        ):
            h += 1
        pyramids.append((h, levels[i + 1 + h], i - h + 1))
    return PathStats(peaks=tuple(peaks), valleys=tuple(valleys), pyramids=tuple(pyramids))


def primitive_factors(path: Path) -> list[Path]:
    """Split at every return to level zero."""
    factors = []
    start = 0
    level = 0
    for i, ch in enumerate(path.steps):
        level += STEP_RISE[ch]
        if level == 0:
            factors.append(Path(path.family, path.steps[start : i + 1]))
            start = i + 1
    return factors


def enumerate_family(family: str, n: int, filt: str = "none") -> Iterator[Path]:
    """All paths of the family with the given size, lexicographic in U<D<F<H.

    The optional filter keeps only paths whose opening steps satisfy the
    subfamily condition (no leading flat, no leading ud, or both exclusions
    combined for the large Schroder subfamily).

    The walk is one depth-first loop over an explicit stack, one frame per
    point of the current prefix: (level, remaining width, index of the next
    step to try from there).  A step is taken only if it keeps the floor, is
    not the barred axis step and leaves a level the remaining width can
    return from, so every frame with no width left closes a path at level 0,
    which the loop yields itself, unchecked, and then steps back from.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if filt not in _FILTER_PREDICATES:
        raise ValueError(f"unknown filter {filt!r}")
    rules = _FAMILY_RULES.get(family)
    if rules is None:
        raise FamilyViolation(f"unknown family {family!r}")
    rise, floor, barred = rules
    keep = _FILTER_PREDICATES[filt]
    moves = [(ch, rise[ch], STEP_WIDTH[ch]) for ch in rise]  # in U<D<F<H order
    last = len(moves)
    prefix: list[str] = []
    stack = [(0, n if family == "motzkin" else 2 * n, 0)]
    pop, push, take = stack.pop, stack.append, prefix.append
    while stack:
        level, remaining, i = pop()
        if not remaining:
            steps = "".join(prefix)
            if keep(steps):
                yield Path._trusted(family, steps)
            del prefix[-1:]  # step back; the empty path has no step to take back
            continue
        while i < last:
            ch, r, w = moves[i]
            i += 1
            nl = level + r
            if w > remaining or nl < floor or abs(nl) > remaining - w or not level and ch == barred:
                continue
            push((level, remaining, i))
            push((nl, remaining - w, 0))
            take(ch)
            break
        else:
            del prefix[-1:]  # no step left from here; the root has none to take back


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
        if type(heights) is not tuple:
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


class ValleyStructure(Value):
    """Canonical decomposition of a valley-uniform Dyck path into parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Part, ...] = ()):
        if type(parts) is not tuple:
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


def is_valley_uniform(path: Path) -> bool:
    """True when every primitive factor has all its valleys at one level."""
    if path.family != "dyck":
        raise FamilyViolation("the valley condition applies to Dyck paths")
    for factor in primitive_factors(path):
        levels = {level for _, level in analyze(factor).valleys}
        if len(levels) > 1:
            return False
    return True


def valley_structures(n: int) -> Iterator[ValleyStructure]:
    """Every decomposition of total size n into pyramids and valley blocks."""
    if n < 0:
        raise ValueError("size must be nonnegative")

    # every part of each size, built once and shared by the structures
    parts_of_size = {
        s: [Pyramid(s)]
        + [ValleyBlock(k, heights) for k in range(1, s - 1) for heights in _compositions(s - k, 2)]
        for s in range(1, n + 1)
    }
    for parts in _part_sequences(n, parts_of_size):
        yield ValleyStructure(parts)


def _part_sequences(remaining: int, parts_of_size: dict) -> Iterator[tuple[Part, ...]]:
    # not a closure: a recursive closure is a cycle that would keep the parts alive
    if remaining == 0:
        yield ()
        return
    for s in range(1, remaining + 1):
        for part in parts_of_size[s]:
            for tail in _part_sequences(remaining - s, parts_of_size):
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


_GLYPHS = {"U": "/", "D": "\\", "F": "_", "H": "__"}


def render_ascii(path: Path) -> str:
    """Fixed-width picture: '/' and '\\' for slopes, '_' for flats, one row per level."""
    if not path.steps:
        return ""
    cells: dict[tuple[int, int], str] = {}
    x = 0
    levels = path.levels()
    # a step is drawn in the row of its lower end, one glyph per unit of width
    for ch, before, after in zip(path.steps, levels, levels[1:]):
        for glyph in _GLYPHS[ch]:
            cells[(min(before, after), x)] = glyph
            x += 1
    rows = sorted({r for r, _ in cells})
    lines = []
    for r in range(rows[-1], rows[0] - 1, -1):
        line = "".join(cells.get((r, c), " ") for c in range(x))
        lines.append(line.rstrip())
    return "\n".join(lines)
