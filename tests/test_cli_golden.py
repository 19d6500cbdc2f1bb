"""Golden stdout of ``count`` for every weight table and of every round trip.

The fixture ``fixtures/cli_golden.json`` maps each command line to the exact
stdout it printed when the fixture was made, so a change that alters one
output byte fails here.  Print a fresh fixture with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/fixtures/cli_golden.json

but only from code whose output is known to be right.
"""

import contextlib
import io
import json
import sys
from pathlib import Path as FilePath

import pytest

from valleydyck import cli
from valleydyck.bijections import MAP_IDS
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


CASES = [_argv_of(table) for table in REGISTRY] + [
    ["biject", "--map", map_id, "--n", "5", "--roundtrip"] for map_id in MAP_IDS + ("tau",)
]


def _stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(argv):
    assert _stdout_of(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


if __name__ == "__main__":
    golden = {" ".join(argv): _stdout_of(argv) for argv in CASES}
    sys.stdout.write(json.dumps(golden, indent=2, sort_keys=True) + "\n")
