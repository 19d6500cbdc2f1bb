"""Golden stdout of ``count`` and ``series`` for every weight table (and in
every format for two pinned tables), of every round trip, of ``biject
--apply`` for every structure map, of ``render``, of ``oracle`` for every name
and of ``enumerate`` for every family, filter and format at small sizes.

The fixture ``fixtures/cli_golden.json`` maps each command line to the exact
stdout it printed when the fixture was made, so a change that alters one
output byte fails here.  Twenty-one more ``series`` outputs are pinned the same
way by the sha256 of their stdout (``DIGESTS``).  Print a fresh fixture with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/fixtures/cli_golden.json

but only from code whose output is known to be right.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path as FilePath

import pytest

from valleydyck import cli, verify
from valleydyck.bijections import MAPS
from valleydyck.paths import FAMILY_STEPS, FILTERS
from valleydyck.weights import REGISTRY

GOLDEN = FilePath(__file__).parent / "fixtures" / "cli_golden.json"

_PARAMS = {
    "delannoy_tuple": ("a=4", "b=3", "c=7", "d=2"),
    "fuss_sym": ("m=2", "r=2"),
    "fuss_asym": ("m=3", "r=2"),
    "fuss_cubic": ("m=1", "r=3"),
}


def _argv_of(table: str) -> list[str]:
    argv = ["count", "--spec", table, "--n", "6", "--format", "json"]
    for pair in _PARAMS.get(table, ()):
        argv += ["--param", pair]
    return argv


# every weight table's series at an order inside its perfbench series_sweep
# range, symbolic where the table has parameters; two tables also pinned
_SERIES_ORDERS = {
    "generic": 8, "motzkin_ab": 14, "schroder_large_q": 12, "schroder_small_q": 12,
    "narayana_t": 12, "narayana_shift_t": 12, "chebyshev_abcd": 8, "chebyshev_second": 8,
    "geom_3x": 24, "geom_fib": 24, "delannoy_tuple": 24, "fuss_sym": 14, "fuss_asym": 14,
    "fuss_cubic": 14,
}


def _series_argv(table: str, order: int, pairs=None) -> list[str]:
    argv = ["series", "--spec", table, "--order", str(order), "--format", "json"]
    for pair in _PARAMS.get(table, ()) if pairs is None else pairs:
        argv += ["--param", pair]
    return argv


# every oracle name at n = 7, with parameters that meet its conditions
_ORACLE_PARAMS = {
    "catalan": (), "fibonacci": (), "motzkin_ab": (), "schroder_large": (),
    "schroder_small": (), "narayana": ("t=sym",), "chebyshev_u": (), "delannoy": (),
    "fuss": ("r=2",), "geom_3x": (), "geom_fib": (), "motzkin_diff": (),
    "schroder_large_diff": (), "schroder_small_diff": (), "narayana_diff": (),
    "narayana_shift_diff": (), "chebyshev_closed": (),
    "abcd_power": ("a=2", "b=1", "c=2", "d=1"),
    "abcd_chebyshev": ("a=3", "b=2", "c=2", "d=1"),
    "abcd_fibonacci": ("a=2", "b=1", "c=1", "d=1"),
    "chebyshev_second": (), "delannoy_convolution": ("multiplier=7",),
    "fuss_sym": ("m=2", "r=2"), "fuss_asym": ("m=3", "r=2"), "fuss_asym_collapse": ("r=2",),
    "fuss_cubic": ("m=1", "r=3"), "fuss_cubic_collapse": ("r=3",),
}


def _oracle_argv(name: str, fmt: str, pairs=None) -> list[str]:
    argv = ["oracle", "--name", name, "--n", "7", "--format", fmt]
    for pair in _ORACLE_PARAMS[name] if pairs is None else pairs:
        argv += ["--param", pair]
    return argv


# one object per structure map in compact JSON: the worked examples of the
# paper for phi, theta and rho, and a small object each for sigma and psi
_APPLY_OBJECTS = [obj.to_json() for obj in verify.DECORATED_EXAMPLES.values()] + [
    {"map": "sigma", "parts": [{"kind": "pyramid", "height": 3, "sub": "UHD"},
                               {"kind": "block", "ascent": 1, "heights": [1, 1], "sub": "H"}]},
    {"map": "psi", "parts": [{"kind": "pyramid", "height": 2, "sub": "UD"},
                             {"kind": "block", "ascent": 2, "heights": [1, 1, 1], "sub": "UUDD"}]},
]


def _compact(data) -> str:
    return json.dumps(data, separators=(",", ":"))


CASES = (
    [_argv_of(table) for table in REGISTRY]
    + [_series_argv(table, _SERIES_ORDERS[table]) for table in REGISTRY]
    + [
        _series_argv("motzkin_ab", 20, ("a=2", "b=3")),
        _series_argv("schroder_large_q", 16, ("q=3",)),
    ]
    + [
        [command, "--spec", table, size, "8" if command == "series" else "6", "--format", fmt]
        + [arg for pair in pairs for arg in ("--param", pair)]
        for table, pairs in (
            ("motzkin_ab", ("a=2", "b=3")),
            ("chebyshev_abcd", ("a=4", "b=3", "c=7", "d=2")),
        )
        for command, size in (("series", "--order"), ("count", "--n"))
        for fmt in ("csv", "pretty")
    ]
    + [["biject", "--map", map_id, "--n", "5", "--roundtrip"] for map_id in (*MAPS, "tau")]
    + [["biject", "--map", data["map"], "--apply", _compact(data)] for data in _APPLY_OBJECTS]
    + [
        ["biject", "--map", "theta", "--direction", "inverse", "--apply",
         _compact({"family": "schroder_large", "steps": "UHDHUD"})],
        ["render", "--path", "UUDDUD"],
    ]
    + [_oracle_argv(name, "json") for name in _ORACLE_PARAMS]
    + [_oracle_argv(name, "pretty") for name in ("catalan", "narayana", "chebyshev_closed")]
    + [
        _oracle_argv("narayana", "json", ("t=3",)),
        _oracle_argv("chebyshev_closed", "json", ("a=4", "b=3", "c=7", "d=2")),
        _oracle_argv("chebyshev_second", "json", ("a=1", "b=2", "c=3")),
    ]
    + [
        ["enumerate", "--family", family, "--n", str(n), "--filter", filt, "--format", fmt]
        for family in sorted(FAMILY_STEPS)
        for filt in FILTERS
        for fmt in ("steps", "json", "ascii", "csv")
        for n in (0, 1, 2)
    ]
)


def _stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# series outputs pinned by the sha256 of their stdout: five too large for the
# fixture (180-640 kB each), where the beta series of motzkin_ab holds a_inv and
# that of narayana_shift_t holds t1_inv, and the five solved tables pinned to
# numbers at orders past the fixture's, including q = -1 and t = 0, where the
# symbolic beta series divides by zero (both Schroder tables at q = -1, as they
# share one beta series), the two geometric tables at order 300, and four more
# tables of numbers at high orders: two Fuss tables, a Delannoy tuple and
# chebyshev_second pinned to fractions
DIGESTS = {
    "series --spec generic --order 12 --format json":
        "361283f5a2856a1c6d5d5dbacf8642fd38d21b8d4a2fbf56f89b74516d5fd005",
    "series --spec generic --order 12 --format json --param alpha1=3":
        "e8dfc6d2e417e2d6d87cf0e32d23a42cd5225d85bd45dbe804a9f33dc2901a13",
    "series --spec chebyshev_abcd --order 16 --format json":
        "541177bc8b79d6cdfc13e6fd7b81d370bbb993fd7871aa34fc05f85fab7f8aa4",
    "series --spec motzkin_ab --order 40 --format json":
        "532e8ce798e118b15fd09265a7a334f7465e9655356c058dff190066671ea0e5",
    "series --spec narayana_shift_t --order 40 --format json":
        "cd830a89fe94662b3df48d398f833ac5b441d154e0539edd54116f44698022a7",
    "series --spec motzkin_ab --order 60 --format json --param a=2 --param b=3":
        "2cebbfe9f7520be82018709861fb41d4ade6085207beea8bf2b3e78dfba3a8e6",
    "series --spec schroder_large_q --order 40 --format json --param q=-1":
        "b083a96de6426925bcddd38a278655f3c651e2d78924e17754cdec90509effda",
    "series --spec narayana_t --order 40 --format json --param t=0":
        "b083a96de6426925bcddd38a278655f3c651e2d78924e17754cdec90509effda",
    "series --spec narayana_shift_t --order 40 --format json --param t=1/3":
        "b346b5ad44d5cef0d936beddfca0a7026e0d31d7af8cad2593c17c289b6677c1",
    "series --spec schroder_small_q --order 40 --format json --param q=-2":
        "c1079218b5b6042c7acef9a32376ca401d62ad6c8379e471fd847d75bf59d755",
    "series --spec schroder_small_q --order 40 --format json --param q=-1":
        "b083a96de6426925bcddd38a278655f3c651e2d78924e17754cdec90509effda",
    "series --spec geom_3x --order 300 --format json":
        "9b828ee6ae9a2d3982fbc682e748ee8b5c4194b92f05f1333e8aec5aa2faa351",
    "series --spec geom_fib --order 300 --format json":
        "7cd9a602b64dc2cf74d29192b1a25fafeeae3c80044a898d4dcc6652c724ee41",
    "series --spec fuss_sym --order 300 --format json --param m=2 --param r=3":
        "1f18720f7c252b6a5565d62c4bd4d051d4171820ce5547f0e7c5d95fb14220a6",
    "series --spec fuss_cubic --order 300 --format json --param m=2 --param r=2":
        "425feede10377d24a9ce51d5f6a50c4dde8bef2cbc498c048387048fd30f1ea5",
    "series --spec delannoy_tuple --order 400 --format json --param a=4 --param b=3 "
    "--param c=7 --param d=2":
        "daad12f6e7c94f09edf80c0f677b2147170e2728e46d16e8f16bb3288c78f6c7",
    "series --spec chebyshev_second --order 71 --format json --param a=1/2 --param b=3 "
    "--param c=-2/3":
        "5ab3d7d826b462d7bcc707913e3df87773e77e92e117222987d2ad44aa69d8c0",
    # solved tables pinned to numbers, and geom_fib at its order cap
    "series --spec motzkin_ab --order 100 --format json --param a=3/2 --param b=-2":
        "9a105a8e4756a462d20d9fdc291b39a4e61df1d4b39b34e458325dc95ec9f4e8",
    "series --spec schroder_small_q --order 80 --format json --param q=5":
        "ea261393c66ebd0322c8a113dce3e1cab637d2349ed71f670e78aabe2ed3d72f",
    "series --spec narayana_shift_t --order 80 --format json --param t=2/3":
        "d21bdeed211061839451fcc53ec808e48bf42c984d3c86f3ba136e4c6c3cc824",
    "series --spec geom_fib --order 1277 --format json":
        "4135a66cf1afbcc7dd2848e2bbf6d2f0a4cb63f8c032e513ed8b83b1b064710f",
}


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(argv):
    assert _stdout_of(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


@pytest.mark.parametrize("command", DIGESTS)
def test_large_series_stdout_matches_digest(command):
    stdout = _stdout_of(command.split())
    assert hashlib.sha256(stdout.encode()).hexdigest() == DIGESTS[command]


if __name__ == "__main__":
    golden = {" ".join(argv): _stdout_of(argv) for argv in CASES}
    sys.stdout.write(json.dumps(golden, indent=2, sort_keys=True) + "\n")
