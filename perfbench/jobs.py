"""Seeded job lists for the three benchmark workloads.

A job is one user-level operation, written as a plain JSON-able dict so the
list can be recorded with the results and handed to the workload process.
Nothing here imports ``valleydyck``: the program only ever receives the
generated inputs.

Every list is built from *rounds*.  A round holds one job per stratum (a
weight table, a job kind, a verify suite) in a fixed position, and the
workload process resets the program's caches between rounds, so each round
is one fresh session and its cache hits come only from sharing inside it.

Job cost grows steeply with size (generic ``valley_series`` doubles per
order), so a run's mix is stratified by cost: each stratum's size range is
cut into bins that are visited in a fixed, evenly spread order, and the seed
chooses the value inside each bin, the pinned parameter values, the Delannoy
tuples and the quick command-line calls.  Where one step of size changes a
job's cost several-fold (brute-force enumeration, verify suites), every bin
is one size.  Different seeds therefore give
different inputs of the same cost profile, so a run's end-to-end metrics
barely depend on which seed drew them.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("series_sweep", "brute_force", "cli_verify")

# the longest job list a run can ask for
ROUNDS = 40

# the seven Delannoy weight tuples with their scaled-sum multipliers; kept
# beside the generator because the program receives numbers, not names
DELANNOY_TUPLES = (
    ((4, 3, 7, 2), 7),
    ((2, 1, 7, 4), 7),
    ((5, 4, 4, 1), 4),
    ((5, 1, 1, 1), 4),
    ((1, 0, 4, 5), 4),
    ((3, 2, 8, 3), 8),
    ((3, 1, 4, 3), 8),
)

_GOLDEN = 0.6180339887


class _Bins:
    """Sizes ``lo..hi`` cut into bins of ``width``, visited by a golden-section walk.

    The walk starts at a fixed fraction ``start`` of the bins, so any window of
    consecutive rounds meets the same bins whatever the seed; the seed only
    orders the values inside each bin.  A size is given again only once every
    size of the range has been given; an exhausted bin lends its nearest
    unused neighbour.
    """

    def __init__(self, rng: random.Random, lo: int, hi: int, width: int, start: float):
        values = list(range(lo, hi + 1))
        self.bins = [values[i : i + width] for i in range(0, len(values), width)]
        for b in self.bins:
            rng.shuffle(b)
        size = len(self.bins)
        stride = max(1, round(size * _GOLDEN))
        while size > 1 and math.gcd(stride, size) != 1:
            stride += 1
        self.stride = stride
        self.pos = int(start * size) % size
        self.unused = set(values)

    def next(self) -> int:
        b = self.bins[self.pos]
        self.pos = (self.pos + self.stride) % len(self.bins)
        if not self.unused:
            self.unused = {v for values in self.bins for v in values}
        fresh = [v for v in b if v in self.unused]
        if not fresh:
            centre = sum(b) / len(b)
            fresh = [min(sorted(self.unused), key=lambda v: abs(v - centre))]
        self.unused.discard(fresh[0])
        return fresh[0]


def _start(index: int) -> float:
    """A fixed starting fraction per stratum, so strata peak in different rounds."""
    return (index * _GOLDEN) % 1.0


# -- series_sweep ----------------------------------------------------------------

# (table, lowest order, highest order, bin width, symbolic parameters a job may pin)
SERIES_TABLES = (
    ("generic", 8, 14, 1, ("alpha1",)),
    ("motzkin_ab", 12, 26, 2, ("a", "b")),
    ("schroder_large_q", 10, 20, 2, ("q",)),
    ("schroder_small_q", 10, 20, 2, ("q",)),
    ("narayana_t", 10, 20, 2, ("t",)),
    ("narayana_shift_t", 10, 20, 2, ("t",)),
    ("chebyshev_abcd", 8, 16, 2, ("a", "b", "c", "d")),
    ("chebyshev_second", 8, 16, 2, ("a", "b", "c")),
    ("geom_3x", 20, 60, 3, ()),
    ("geom_fib", 20, 60, 3, ()),
    ("delannoy_tuple", 20, 60, 3, ()),
    ("fuss_sym", 10, 20, 1, ()),
    ("fuss_asym", 10, 20, 1, ()),
    ("fuss_cubic", 10, 20, 1, ()),
)

_FUSS = ("fuss_sym", "fuss_asym", "fuss_cubic")


def _series_jobs(rng: random.Random) -> list[dict]:
    bins = {
        t: _Bins(rng, lo, hi, width, _start(i))
        for i, (t, lo, hi, width, _) in enumerate(SERIES_TABLES)
        if t not in _FUSS
    }
    fuss_bins = _Bins(rng, 10, 20, 1, _start(len(SERIES_TABLES)))
    fuss_m = rng.randrange(3)
    seen: set = set()
    jobs: list[dict] = []
    for rnd in range(ROUNDS):
        # the three Fuss tables of a round share one order and arity, so they
        # share one named_series("fuss", order, r): real sharing, not repeats.
        # (order, r) recurs every 33 rounds, so m moves on each time it does.
        fuss_order, fuss_r = fuss_bins.next(), 1 + rnd % 3
        for i, (table, lo, hi, width, pinnable) in enumerate(SERIES_TABLES):
            params: dict[str, str] = {}
            if table in _FUSS:
                order = fuss_order
                m = fuss_r + (fuss_m + rnd // 33 + _FUSS.index(table)) % 3
                params = {"m": str(m), "r": str(fuss_r)}
            else:
                order = bins[table].next()
                if table == "delannoy_tuple":
                    (a, b, c, d), _ = DELANNOY_TUPLES[rng.randrange(len(DELANNOY_TUPLES))]
                    params = {"a": str(a), "b": str(b), "c": str(c), "d": str(d)}
                # symbolic and pinned variants alternate, from a fixed parity per table
                elif pinnable and ((rnd + i) % 2 or (table, order, ()) in seen):
                    params = {k: str(rng.randint(1, 9)) for k in pinnable}
            key = (table, order, tuple(sorted(params.items())))
            while key in seen and pinnable:
                params = {k: str(rng.randint(1, 99)) for k in pinnable}
                key = (table, order, tuple(sorted(params.items())))
            if key in seen:
                raise AssertionError(f"series_sweep drew {key} twice")
            seen.add(key)
            jobs.append({"kind": "series", "table": table, "order": order, "params": params})
    return jobs


# -- brute_force -----------------------------------------------------------------

# target families with their opening-step filter, weighting and size range
TARGETS = (
    ("motzkin", "first_not_flat", "motzkin_ab", 7, 10),
    ("schroder_large", "y_filter", "schroder_q", 5, 7),
    ("schroder_small", "first_two_not_ud", "schroder_q", 5, 7),
    ("dyck", "first_two_not_ud", "narayana_t", 6, 9),
    ("dyck", "first_two_not_ud", "level_peaks", 6, 9),
)

BIJECTIONS = (("phi", 8, 10), ("theta", 7, 8), ("sigma", 7, 8), ("rho", 7, 9), ("psi", 7, 9))


def _brute_delannoy(rng: random.Random, rnd: int) -> tuple:
    """The Delannoy tuple of a round's structure sum.

    The tuple with a zero weight, (1, 0, 4, 5), makes the sum about half as
    costly as the other six, which cost within a tenth of each other; so it
    takes a fixed round in every seven and the seed draws among the others.
    """
    cheap = DELANNOY_TUPLES[4]
    if rnd % len(DELANNOY_TUPLES) == 3:
        return cheap
    others = [t for t in DELANNOY_TUPLES if t is not cheap]
    return others[rng.randrange(len(others))]


def _brute_jobs(rng: random.Random) -> list[dict]:
    # enumeration cost grows several-fold per size step, so every bin is one size
    generic = _Bins(rng, 6, 10, 1, _start(0))
    delannoy = _Bins(rng, 8, 12, 1, _start(1))
    raw = _Bins(rng, 6, 8, 1, _start(2))
    targets = [_Bins(rng, lo, hi, 1, _start(3 + i)) for i, (*_, lo, hi) in enumerate(TARGETS)]
    maps = [_Bins(rng, lo, hi, 1, _start(8 + i)) for i, (_, lo, hi) in enumerate(BIJECTIONS)]
    tau = _Bins(rng, 7, 10, 1, _start(13))
    jobs: list[dict] = []
    for rnd in range(ROUNDS):
        jobs.append(
            {"kind": "structure_sum", "table": "generic", "n": generic.next(), "params": {}}
        )
        (a, b, c, d), mult = _brute_delannoy(rng, rnd)
        jobs.append(
            {
                "kind": "structure_sum",
                "table": "delannoy_tuple",
                "n": delannoy.next(),
                "params": {"a": a, "b": b, "c": c, "d": d},
                "multiplier": mult,
            }
        )
        jobs.append({"kind": "path_sum", "table": "generic", "n": raw.next()})
        for (family, filt, weighting, _, _), sizes in zip(TARGETS, targets):
            jobs.append(
                {
                    "kind": "target_sum",
                    "family": family,
                    "filter": filt,
                    "weighting": weighting,
                    "n": sizes.next(),
                }
            )
        for (map_id, _, _), sizes in zip(BIJECTIONS, maps):
            jobs.append({"kind": "bijection", "map": map_id, "n": sizes.next()})
        jobs.append({"kind": "tau", "n": tau.next()})
    return jobs


# -- cli_verify ------------------------------------------------------------------

SUITES = (
    "master",
    "closed_forms",
    "motzkin",
    "schroder",
    "narayana",
    "chebyshev",
    "delannoy",
    "fuss",
    "bijections",
    "weights",
    "oracles",
    "all",
)

# the two heavy suites sit apart, with the quick calls spread between
_CLI_LAYOUT = (
    "all", "master", "q:series", "closed_forms", "motzkin", "q:count", "schroder",
    "narayana", "q:biject", "weights", "chebyshev", "q:oracle", "delannoy", "fuss",
    "q:enumerate", "bijections", "oracles", "q:render",
)


def _random_dyck(rng: random.Random, n: int) -> str:
    while True:
        steps = ["U"] * n + ["D"] * n
        rng.shuffle(steps)
        level = 0
        for s in steps:
            level += 1 if s == "U" else -1
            if level < 0:
                break
        else:
            return "".join(steps)


def _quick_job(rng: random.Random, what: str) -> dict:
    if what == "series":
        table = rng.choice(("geom_3x", "geom_fib"))
        order = rng.randint(4, 10)
        argv = ["series", "--spec", table, "--order", str(order), "--format", "json"]
        return {"kind": "cli", "check": "series", "argv": argv, "table": table}
    if what == "count":
        (a, b, c, d), mult = DELANNOY_TUPLES[rng.randrange(len(DELANNOY_TUPLES))]
        n = rng.randint(3, 6)
        argv = ["count", "--spec", "delannoy_tuple", "--n", str(n), "--format", "json"]
        for k, v in zip("abcd", (a, b, c, d)):
            argv += ["--param", f"{k}={v}"]
        return {"kind": "cli", "check": "count", "argv": argv, "multiplier": mult}
    if what == "biject":
        map_id = rng.choice(("phi", "theta", "sigma", "rho", "psi", "tau"))
        argv = ["biject", "--map", map_id, "--n", str(rng.randint(3, 5)), "--roundtrip"]
        return {"kind": "cli", "check": "biject", "argv": argv}
    if what == "oracle":
        if rng.randrange(2):
            argv = ["oracle", "--name", "catalan", "--n", str(rng.randint(3, 15))]
        else:
            argv = ["oracle", "--name", "fuss", "--n", str(rng.randint(3, 12))]
            argv += ["--param", f"r={rng.randint(1, 3)}"]
        return {"kind": "cli", "check": "oracle", "argv": argv + ["--format", "json"]}
    if what == "enumerate":
        argv = ["enumerate", "--family", "dyck", "--n", str(rng.randint(3, 7))]
        return {"kind": "cli", "check": "enumerate", "argv": argv}
    steps = _random_dyck(rng, rng.randint(3, 10))
    return {"kind": "cli", "check": "render", "argv": ["render", "--path", steps]}


def _cli_jobs(rng: random.Random) -> list[dict]:
    max_n = {s: _Bins(rng, 4, 8, 1, _start(i)) for i, s in enumerate(SUITES)}
    jobs: list[dict] = []
    for rnd in range(ROUNDS):
        for i, slot in enumerate(_CLI_LAYOUT):
            if slot.startswith("q:"):
                jobs.append(_quick_job(rng, slot[2:]))
                continue
            m = max_n[slot].next()
            j = 1 + (rnd + i) % 2  # never more than the 2 cores here
            argv = ["verify", "--suite", slot, "--max-n", str(m), "--jobs", str(j)]
            jobs.append({"kind": "cli", "check": "verify", "argv": argv})
    return jobs


# A round's busy time at nominal speed (see speed.py) at the commit that
# introduced this benchmark.  A run does round(seconds / this) whole rounds:
# a fixed amount of work, so every run of a seed, on every commit, runs the
# same jobs, and a slow spell on the machine cannot change the mix.
ROUND_SECONDS = {"series_sweep": 1.3, "brute_force": 2.5, "cli_verify": 5.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, min(ROUNDS, round(seconds / ROUND_SECONDS[workload])))


def round_size(workload: str) -> int:
    return {
        "series_sweep": len(SERIES_TABLES),
        "brute_force": 3 + len(TARGETS) + len(BIJECTIONS) + 1,
        "cli_verify": len(_CLI_LAYOUT),
    }[workload]


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The seeded job list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    build = {"series_sweep": _series_jobs, "brute_force": _brute_jobs, "cli_verify": _cli_jobs}
    jobs = build[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def pool_check(seed: int) -> list[str]:
    """The suite whose --jobs 1 and --jobs 2 JSON reports a cli_verify run compares.

    ``bijections`` runs six checks of similar cost, so the pair also shows
    what the verify process pool gains on two cores.
    """
    m = random.Random(f"pool:{seed}").randint(5, 7)
    return ["verify", "--suite", "bijections", "--max-n", str(m), "--format", "json"]
