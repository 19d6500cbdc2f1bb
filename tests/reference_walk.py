"""A plain recursive reference walker for ``paths.enumerate_family``, shared by the tests.

It writes out each family's rules itself, tries the steps in U<D<F<H order
at every point, and returns a list of step strings.  Nothing here needs
hypothesis.
"""

RISE = {"U": 1, "D": -1, "F": 0, "H": 0}
WIDTH = {"U": 1, "D": 1, "F": 1, "H": 2}
ALPHABET = {
    "dyck": "UD",
    "motzkin": "UDF",
    "schroder_large": "UDH",
    "schroder_small": "UDH",
    "delannoy": "UDH",
}


def reference_walk(family, n):
    """Step strings of the family's paths of size n, lexicographic."""
    out = []

    def walk(prefix, level, remaining):
        if remaining == 0:
            if level == 0:
                out.append(prefix)
            return
        for ch in ALPHABET[family]:
            after, rest = level + RISE[ch], remaining - WIDTH[ch]
            if rest < 0 or abs(after) > rest:
                continue  # too wide, or too far from the axis to get back
            if after < 0 and family != "delannoy":
                continue  # only Delannoy paths dip below the axis
            if ch == "H" and level == 0 and family == "schroder_small":
                continue  # small Schroder paths have no H on the axis
            walk(prefix + ch, after, rest)

    walk("", 0, n if family == "motzkin" else 2 * n)
    return out
