import ast
import concurrent.futures
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from conftest import message_pattern

import valleydyck
from valleydyck import cli, paths, series, verify
from valleydyck.oracles import ORACLES
from valleydyck.paths import FAMILY_STEPS
from valleydyck.weights import REGISTRY

FIXTURES = FilePath(__file__).parent / "fixtures"
SPEC = (FIXTURES / "motzkin_spec.json").read_text()  # motzkin_ab at order 6
DEEP = "[" * 100_000 + "]" * 100_000
TALL = "U" * 548 + "D" * 548  # 549 levels by 1096 columns, just over render's cap
TAU = '{"side":"src_4372","parts":[{"k0":%s,"letters":[],"blocks":[%s]}]}'
RHO = '{"map":"rho","parts":[{"kind":%s,"sub":"UD"}]}'
ALPHA = '{"alpha":[[{"coeff":%s,"monomial":{%s}}]],"beta":[[]],"gamma":[[]]}'
DIGITS = (f"oracle fuss at n = 2000 gives a number of more than {sys.get_int_max_str_digits()} "
          "digits, more than can be printed")
SHAPE = "JSON has the wrong shape: "
# the variables of generic's V_13
GENERIC_13 = tuple(f"{name}{i}" for name, top in (("alpha", 11), ("beta", 11), ("gamma", 13))
                   for i in range(1, top + 1))

# Every usage error of the CLI, as (argv, text) or (argv, text, body): argv is
# split on spaces, body is written to a file whose path replaces FILE in argv
# and text, and the command must exit 2 with stdout empty and stderr exactly
# "error: {text}"; a row with no body must leave no file at FILE. A refusal
# argparse makes ends in SystemExit(2) instead, and its text is the last line
# of stderr up to the list of choices, which argparse words differently
# across Python versions
REFUSALS = [
    ("", "valleydyck: error: a command is required"),
    ("enumerate --family nope --n 1",
     "valleydyck enumerate: error: argument --family: invalid choice: 'nope'"),
    ("series --spec geom_3x --format ascii",
     "valleydyck series: error: argument --format: invalid choice: 'ascii'"),
    ("count --spec geom_3x --n 3 --format ascii",
     "valleydyck count: error: argument --format: invalid choice: 'ascii'"),
    ("series --spec geom_3x --order abc",
     "valleydyck series: error: argument --order: invalid int value: 'abc'"),
    # sizes and bounds
    ("series --spec generic --order 20", "--order 20 is above its cap of 19"),
    ("series --spec motzkin_ab --order -1", "order must be nonnegative"),
    ("series --spec @FILE --order -1", "order must be nonnegative", SPEC),
    ("series --spec @FILE --order 9", "spec file holds order 6, but order 9 was requested", SPEC),
    ("count --spec @FILE --n 9", "spec file holds order 6, but order 9 was requested", SPEC),
    ("count --spec geom_3x --n -1", "order must be nonnegative"),
    ("verify --suite master --max-n -3", "the sweep bound must be nonnegative, got -3"),
    ("verify --suite master --max-n 2 --jobs 0", "the number of jobs must be at least 1, got 0"),
    ("verify --suite master --max-n 2 --jobs -3", "the number of jobs must be at least 1, got -3"),
    ("render --path " + TALL, "--path draws 601704 cells, above its cap of 600000"),
    ("render --path @FILE", "--path draws 601704 cells, above its cap of 600000",
     json.dumps({"family": "dyck", "steps": TALL})),
    ("biject --map tau --apply " + TAU % (1, 150000),
     "--apply holds a tau object of semilength 150001, above its cap of 150000"),
    ("biject --map tau --apply " + TAU % (1, 10**12),
     "--apply holds a tau object of semilength 1000000000001, above its cap of 150000"),
    ("biject --map tau --direction inverse --apply @FILE",
     "--apply holds a tau object of semilength 1000000000001, above its cap of 150000",
     TAU % (1, 10**12)),
    ("oracle --name fuss --n 2000 --param r=99", DIGITS),
    ("oracle --name fuss --n 2000 --param r=99 --format json", DIGITS),
    # names and parameters
    ("series --spec no_such_table",
     "unknown weight table 'no_such_table'; known: " + ", ".join(REGISTRY)),
    ("oracle --name nonsense --n 1", "unknown oracle 'nonsense'; known: " + ", ".join(ORACLES)),
    ("series --spec geom_3x --param a", "--param needs key=value, got 'a'"),
    ("series --spec geom_3x --param a=1/0",
     "geom_3x at order 12 has no parameter or variable a (variables: none)"),
    ("series --spec motzkin_ab --order 3 --param a=1/0",
     "motzkin_ab at order 3: parameter a must be a rational number or 'sym', got '1/0'"),
    ("series --spec @FILE --order 3 --param a=x",
     "@FILE at order 3: parameter a must be a rational number or 'sym', got 'x'", SPEC),
    ("oracle --name narayana --n 3 --param t=1/0",
     "narayana: parameter t must be a rational number or 'sym', got '1/0'"),
    ("count --spec generic --n 2 --param alpha5=sym", "generic at order 2 has no parameter or "
     "variable alpha5 (variables: alpha1, alpha2, beta1, beta2, gamma1, gamma2)"),
    ("count --spec generic --n 0 --param alpha1=3",
     "generic at order 0 has no parameter or variable alpha1 (variables: none)"),
    ("series --spec @FILE --order 3 --param zz=1 --param a=2",
     "@FILE at order 3 has no parameter or variable zz (variables: a, a_inv, b)", SPEC),
    ("series --spec motzkin_ab --format csv",
     "csv output needs every parameter bound; ('b',) remain symbolic"),
    # a csv refusal comes before --dump-spec writes FILE, and before count sums
    ("series --spec motzkin_ab --order 3 --format csv --dump-spec FILE",
     "csv output needs every parameter bound; ('b',) remain symbolic"),
    ("count --spec motzkin_ab --n 3 --format csv --dump-spec FILE",
     "csv output needs every parameter bound; ('a', 'b') remain symbolic"),
    ("count --spec generic --n 13 --format csv",
     f"csv output needs every parameter bound; {GENERIC_13} remain symbolic"),
    ("count --spec delannoy_tuple --n 3 --param a=4 --param b=3 --param c=7 --param d=2 "
     "--param a=5", "--param a is given more than once"),
    ("oracle --name catalan --n 5 --param zz=1", "catalan has no parameter zz (parameters: none)"),
    ("oracle --name fuss_sym --n 6 --param m=2 --param r=1.9",
     "fuss_sym: parameter r must be an integer >= 1, got '1.9'"),
    ("oracle --name fuss --n 3 --param r=2.5",
     "fuss: parameter r must be an integer >= 1, got '2.5'"),
    ("oracle --name fuss_sym --n 3 --param m=-1 --param r=1",
     "fuss_sym: parameter m must be an integer >= 1, got '-1'"),
    ("series --spec fuss_sym --param m=-1",
     "fuss_sym: parameter m must be an integer >= 1, got '-1'"),
    ("oracle --name fuss_asym --n 3 --param m=0 --param r=1",
     "fuss_asym: parameter m must be an integer >= 1, got '0'"),
    ("oracle --name abcd_power --n 0 --param a=2 --param b=1 --param c=3 --param d=1",
     "abcd_power needs ad = (a-b)c"),
    ("oracle --name fuss_asym_collapse --n 0 --param r=0",
     "fuss_asym_collapse: parameter r must be an integer >= 1, got '0'"),
    ("biject --map phi --roundtrip", "--roundtrip needs --n"),
    ("biject --map phi", "biject needs --roundtrip or --apply"),
    ("biject --map phi --roundtrip --n 3 --apply @FILE",
     "biject takes --roundtrip or --apply, not both"),
    # JSON inputs
    ("series --spec @FILE", "[Errno 2] No such file or directory: 'FILE'"),
    ("biject --map rho --apply {bad",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("biject --map rho --apply @FILE", "--apply JSON is nested too deeply", DEEP),
    ("series --spec @FILE --order 1", "--spec JSON is nested too deeply", DEEP),
    ("render --path @FILE", "--path JSON is nested too deeply", DEEP),
    ('biject --map rho --apply {"map":"rho"}', "--apply JSON lacks the key 'parts'"),
    ("biject --map rho --apply [1,2]", "--apply needs a JSON object, got list"),
    ("biject --map rho --direction inverse --apply [1,2]", "--apply needs a JSON object, got list"),
    ('biject --map rho --direction inverse --apply {"steps":"UD"}',
     "--apply JSON lacks the key 'family'"),
    ('biject --map rho --apply {"map":"rho","parts":[1]}',
     f"--apply {SHAPE}'int' object is not subscriptable"),
    ('biject --map tau --apply {"side":"src_4372"}', "--apply JSON lacks the key 'parts'"),
    ('biject --map tau --direction inverse --apply {"side":"src_4372","parts":[{"k0":1,"letters":5}]}',
     "--apply JSON lacks the key 'blocks'"),
    ('biject --map phi --direction inverse --apply {"family":"motzkin","steps":["U","D"]}',
     f"--apply {SHAPE}path steps must be a string, got list"),
    ('biject --map rho --apply {"map":"rho","parts":[{"kind":"pyramid","height":2,"sub":["U","D"]}]}',
     f"--apply {SHAPE}path steps must be a string, got list"),
    *[("biject --map tau --apply " + TAU % k0_block,
       f"--apply {SHAPE}a tau part needs an integer k0 and a list of integer blocks")
      for k0_block in ((1, 1.5), ("true", 1))],
    *[("biject --map rho --apply " + RHO % part,
       f"--apply {SHAPE}a part's height, ascent and heights must be integers")
      for part in ('"pyramid","height":1.5', '"pyramid","height":2.0', '"block","ascent":true,'
                   '"heights":[1,1]', '"block","ascent":1,"heights":[1,1.0]')],
    ("render --path @FILE", "--path JSON lacks the key 'steps'", '{"family": "dyck"}'),
    ("render --path @FILE", "--path needs a JSON object, got list", "[1]"),
    ("render --path @FILE", f"--path {SHAPE}path steps must be a string, got int",
     '{"family": "dyck", "steps": 5}'),
    ("series --spec @FILE", "--spec JSON lacks the key 'gamma'", '{"alpha": [[]], "beta": [[]]}'),
    ("series --spec @FILE", "--spec needs a JSON object, got list", "[]"),
    ("series --spec @FILE --order 0", "--spec JSON: weight sequences must share one length",
     '{"alpha": [[]], "beta": [], "gamma": [[]]}'),
    ("series --spec @FILE --order 1", "--spec JSON: exponent 99999 of a exceeds 32767",
     ALPHA % ('"1"', '"a": 99999')),
    *[("series --spec @FILE --order 1", f"--spec {SHAPE}the exponent of a must be an integer, "
       f"got {got}", ALPHA % ('"1"', f'"a": {exponent}'))
      for exponent, got in (('"x"', "'x'"), ("true", True), (1.0, 1.0))],
    ("series --spec @FILE --order 1",
     f"--spec {SHAPE}a coefficient must be an integer or a string, got 0.1", ALPHA % (0.1, "")),
    ("series --spec @FILE --order 1", "--spec JSON: Fraction(1, 0)", ALPHA % ('"1/0"', "")),
    ("count --spec @FILE --n 1", "--spec JSON: Invalid literal for Fraction: 'abc'",
     ALPHA % ('"abc"', "")),
]


@pytest.mark.parametrize("argv, text, body", [(*row, None)[:3] for row in REFUSALS],
                         ids=[row[0][:60] for row in REFUSALS])
def test_refusal(argv, text, body, tmp_path, capsys):
    source = tmp_path / "input.json"
    if body is not None:
        source.write_text(body)
    argv = [arg.replace("FILE", str(source)) for arg in argv.split()]
    text = text.replace("FILE", str(source))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        assert (exc.code, out, err.splitlines()[-1].split(" (choose from ")[0]) == (2, "", text)
    else:
        assert (code, *capsys.readouterr()) == (2, "", f"error: {text}\n")
    assert body is not None or not source.exists()


def test_every_refusal_of_cli_has_a_row():
    # each message cli.py raises, its fields read as wildcards, matches some row's text
    tree = ast.parse(FilePath(cli.__file__).read_text())
    raised = [node.exc.args[0] for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and getattr(getattr(node.exc, "func", None), "id", None) == "ValleyDyckError"]
    assert len(raised) >= 12
    for message in raised:
        pattern = message_pattern(message)
        assert any(re.fullmatch(pattern, row[1]) for row in REFUSALS), ast.unparse(message)


@pytest.fixture
def run(capsys):
    """``run(*argv)``: run ``cli.main`` in-process, assert exit 0 and return stdout."""
    def run(*argv):
        assert cli.main([str(arg) for arg in argv]) == 0
        return capsys.readouterr().out

    return run


def test_series_pretty_matches_example(run):
    out = run("series", "--spec", "geom_3x", "--order", "5")
    assert out.splitlines() == ["0: 1", "1: 0", "2: 1", "3: 4", "4: 13", "5: 40"]


def test_series_spec_file_round_trip(run, tmp_path):
    dump = tmp_path / "spec.json"
    first = run("series", "--spec", "motzkin_ab", "--order", "6", "--dump-spec", dump)
    assert run("series", "--spec", f"@{dump}", "--order", "6") == first
    assert dump.read_bytes() == (FIXTURES / "motzkin_spec.json").read_bytes()


def test_series_json_round_trips_through_library(run):
    from valleydyck.series import TruncatedSeries

    out = run("series", "--spec", "narayana_t", "--order", "4", "--format", "json")
    assert TruncatedSeries.from_json(json.loads(out)).order == 4


def test_series_csv_with_bound_params(run):
    out = run("series", "--spec", "motzkin_ab", "--order", "4", "--format", "csv",
              "--param", "a=1", "--param", "b=1")
    assert out.splitlines() == ["n,value", "0,1", "1,0", "2,1", "3,2", "4,5"]


# each table with a variable, at orders 1 and 5, with the variables csv names
# (those of the first coefficient the whole series leaves symbolic); at order 0
# every series is 1, and an order missing here is a series of numbers
_CSV_REFUSALS = {
    ("generic", 1): "('gamma1',)", ("generic", 5): "('gamma1',)",
    ("motzkin_ab", 5): "('b',)", ("schroder_large_q", 5): "('q',)",
    ("schroder_small_q", 5): "('q',)", ("narayana_t", 5): "('t',)",
    ("narayana_shift_t", 5): "('t',)", ("chebyshev_abcd", 5): "('a', 'b', 'c')",
    ("chebyshev_second", 5): "('a', 'b')",
}


@pytest.mark.parametrize("table", sorted({table for table, _ in _CSV_REFUSALS}))
def test_csv_refuses_a_symbolic_series_before_computing_it(table, monkeypatch, capsys, tmp_path):
    from valleydyck.series import valley_series
    from valleydyck.weights import registry_get

    for order in (0, 1, 5):
        whole = valley_series(*registry_get(table, order).to_series())
        symbolic = [c for c in whole.coeffs if not c.is_constant]
        names = _CSV_REFUSALS.get((table, order))
        assert names == (str(symbolic[0].variables()) if symbolic else None)
        code = cli.main(["series", "--spec", table, "--order", str(order), "--format", "csv"])
        if names is None:
            rows = [f"{n},{c.constant_value()}" for n, c in enumerate(whole.coeffs)]
            assert (code, capsys.readouterr()) == (0, ("\n".join(["n,value"] + rows) + "\n", ""))
        else:
            message = f"error: csv output needs every parameter bound; {names} remain symbolic\n"
            assert (code, capsys.readouterr()) == (2, ("", message))
    # the refusal comes from series at orders 1, 2, 4, ..., not at the order
    # asked, and before --dump-spec writes the table
    orders = []
    monkeypatch.setattr(
        series, "valley_series", lambda *s: orders.append(s[0].order) or valley_series(*s)
    )
    dump = tmp_path / "spec.json"
    argv = ["series", "--spec", table, "--order", "16", "--format", "csv", "--dump-spec", str(dump)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: csv output needs every parameter bound")
    assert orders and max(orders) < 16, orders
    assert not dump.exists()


def test_csv_refusal_without_a_dump_builds_no_table_at_the_order_asked(monkeypatch, capsys):
    from valleydyck import weights
    from valleydyck.polynomials import Polynomial

    calls = []
    original, data, kinds = REGISTRY["motzkin_ab"]

    def recording(order, *, pins=(), **data):
        calls.append((order, pins))
        return original(order, **data, pins=pins)

    monkeypatch.setitem(REGISTRY, "motzkin_ab", (recording, data, kinds))
    weights._registry_get_cached.cache_clear()
    try:
        argv = ["series", "--spec", "motzkin_ab", "--order", "204", "--format", "csv"]
        assert cli.main(argv + ["--param", "a=2"]) == 2
        message = "error: csv output needs every parameter bound; ('b',) remain symbolic\n"
        assert capsys.readouterr() == ("", message)
        # the names check reads the row, and the probes read tables built
        # from the checked pins, each below the order asked
        assert calls and all(
            order < 204 and pins == (("a", Polynomial.const(2)),) for order, pins in calls
        ), calls
        # the names check still speaks of the order asked
        assert cli.main(argv[:4] + ["16", "--format", "csv", "--param", "zz=1"]) == 2
        assert capsys.readouterr().err == (
            "error: motzkin_ab at order 16 has no parameter or variable zz "
            "(variables: a, a_inv, b)\n"
        )
    finally:
        weights._registry_get_cached.cache_clear()


def test_count_command(run, tmp_path):
    assert run("count", "--spec", "geom_3x", "--n", "4") == "13\n"
    pins = ["--param", "a=4", "--param", "b=3", "--param", "c=7", "--param", "d=2"]
    assert run("count", "--spec", "delannoy_tuple", "--n", "4", *pins) == "245\n"
    # count builds its table at order n: at n = 0 it writes and reads an order-0 file
    dump = tmp_path / "order0.json"
    assert run("count", "--spec", "motzkin_ab", "--n", "0", "--dump-spec", dump) == "1\n"
    assert json.loads(dump.read_text()) == {"alpha": [], "beta": [], "gamma": []}
    assert run("count", "--spec", f"@{dump}", "--n", "0") == "1\n"
    assert run("series", "--spec", f"@{dump}", "--order", "0") == "0: 1\n"


def test_enumerate_json_reingested_by_render(run, tmp_path):
    found = json.loads(run("enumerate", "--family", "dyck", "--n", "2", "--format", "json"))
    assert {"family": "dyck", "steps": "UUDD"} in found
    target = tmp_path / "path.json"
    target.write_text(json.dumps(found[0]))
    assert run("render", "--path", f"@{target}") == run("render", "--path", found[0]["steps"])


def test_oracle_command(run):
    out = run("oracle", "--name", "narayana", "--n", "5", "--param", "t=sym")
    assert out == "t^5 + 10*t^4 + 20*t^3 + 10*t^2 + t\n"
    data = json.loads(run("oracle", "--name", "delannoy", "--n", "2", "--format", "json"))
    assert data["value"] == [{"coeff": "13", "monomial": {}}]


def test_biject_roundtrip_exit_codes(run):
    for map_id in cli.MAP_NAMES:
        check = "tau_exchange" if map_id == "tau" else f"bijection_{map_id}"
        assert run("biject", "--map", map_id, "--n", "4", "--roundtrip") == f"PASS {check}\n"


def test_biject_apply_both_directions(run, tmp_path):
    source = FIXTURES / "exchange_source.json"
    out = run("biject", "--map", "tau", "--apply", f"@{source}")
    image = json.loads(out)
    assert (image["side"], image["parts"][0]["k0"], image["parts"][0]["blocks"]) == (
        "dst_2174", 6, [4, 1, 2, 1])
    back_file = tmp_path / "image.json"
    back_file.write_text(out)
    back = run("biject", "--map", "tau", "--apply", f"@{back_file}")
    assert back == source.read_text()


def test_biject_apply_phi(run, tmp_path):
    obj = {"map": "phi", "parts": [
        {"kind": "pyramid", "height": 5, "sub": "FFF"},
        {"kind": "block", "ascent": 3, "heights": [1, 1, 1, 1], "sub": "FF"},
        {"kind": "pyramid", "height": 2, "sub": ""},
    ]}
    source = tmp_path / "obj.json"
    source.write_text(json.dumps(obj))
    out = run("biject", "--map", "phi", "--apply", f"@{source}")
    assert json.loads(out) == {"family": "motzkin", "steps": "UFFFDUFFDFFFUD"}
    path_file = tmp_path / "img.json"
    path_file.write_text(out)
    back = run("biject", "--map", "phi", "--apply", f"@{path_file}", "--direction", "inverse")
    assert json.loads(back) == obj


def test_enumerate_ascii_and_csv_formats(run):
    assert "/\\" in run("enumerate", "--family", "dyck", "--n", "2", "--format", "ascii")
    out = run("enumerate", "--family", "dyck", "--n", "2", "--format", "csv")
    assert out.splitlines() == ["family,steps", "dyck,UUDD", "dyck,UDUD"]


def test_param_pins_a_variable_and_reads_a_declared_parameter(run):
    from valleydyck.polynomials import Polynomial
    from valleydyck.series import TruncatedSeries

    # a pinned variable of the table is substituted, a declared parameter is built in
    argv = ["series", "--spec", "motzkin_ab", "--order", "6", "--format", "json"]
    symbolic = TruncatedSeries.from_json(json.loads(run(*argv)))
    pinned = TruncatedSeries.from_json(json.loads(run(*argv, "--param", "a=1", "--param", "b=1")))
    one = Polynomial.const(1)
    assert pinned == TruncatedSeries([c.substitute({"a": one, "b": one}) for c in symbolic.coeffs])
    run("count", "--spec", "chebyshev_abcd", "--n", "3", "--param", "d=2")
    # a solved table's variables are its row's, at order 0 too
    assert run("series", "--spec", "motzkin_ab", "--order", "0", "--param", "a=2") == "0: 1\n"


def test_param_on_spec_file_matches_registry(run, tmp_path):
    dump = tmp_path / "m.json"
    run("series", "--spec", "motzkin_ab", "--order", "3", "--dump-spec", dump)
    from_file = run("series", "--spec", f"@{dump}", "--order", "3", "--param", "a=2")
    assert from_file == run("series", "--spec", "motzkin_ab", "--order", "3", "--param", "a=2")
    assert from_file.splitlines()[3] == "3: 4*b"


@pytest.mark.parametrize("table, inv, base", [
    ("motzkin_ab", "a_inv", "a"), ("narayana_shift_t", "t1_inv", "t"),
])
def test_a_formal_inverse_is_not_pinned_on_a_spec_file_either(table, inv, base, tmp_path, capsys):
    # its base variable's value fixes it; "sym" leaves it as it is
    dump = tmp_path / "spec.json"
    assert cli.main(["series", "--spec", table, "--order", "3", "--dump-spec", str(dump)]) == 0
    capsys.readouterr()
    for command, size in (("series", "--order"), ("count", "--n")):
        assert cli.main([command, "--spec", table, size, "3"]) == 0
        symbolic = capsys.readouterr().out
        for spec in (table, f"@{dump}"):
            argv = [command, "--spec", spec, size, "3", "--param"]
            assert cli.main([*argv, f"{inv}=sym"]) == 0
            assert capsys.readouterr().out == symbolic
            assert cli.main([*argv, f"{inv}=2"]) == 2
            message = f"{spec} at order 3: {inv} is the formal inverse of {base}; pin {base} instead"
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_oracle_pins_its_variables(run):
    assert run("oracle", "--name", "motzkin_diff", "--n", "3", "--param", "a=2") == "4*b\n"
    # 3t^3 + 5t^2 + t at t = 3
    assert run("oracle", "--name", "narayana_diff", "--n", "4", "--param", "t=3") == "129\n"


@pytest.mark.parametrize("value, accepted", [("3", True), ("3/1", True), ("1.9", False), ("sym", False)])
def test_fuss_params_read_alike_by_oracle_and_series(value, accepted, capsys):
    for name in ("m", "r"):
        other = "r=2" if name == "m" else "m=2"
        for argv in [["oracle", "--name", "fuss_sym", "--n", "4"]] + [
            ["series", "--spec", table, "--order", "4"] for table in ("fuss_sym", "fuss_asym", "fuss_cubic")
        ]:
            code = cli.main(argv + ["--param", f"{name}={value}", "--param", other])
            captured = capsys.readouterr()
            assert code == (0 if accepted else 2), (argv, name, captured.err)
            if not accepted:
                assert captured.err.startswith("error: ") and f"parameter {name} " in captured.err


def test_enumerate_writes_each_batch_as_it_comes(monkeypatch, capsys):
    real = paths.enumerate_family
    seen = []

    def watched(*args):
        for path in real(*args):
            seen.append(capsys.readouterr().out)  # what was written since the last path
            yield path

    monkeypatch.setattr(paths, "enumerate_family", watched)
    monkeypatch.setattr(cli, "ENUMERATE_BATCH", 2)
    for fmt in ("steps", "json", "ascii", "csv"):
        seen.clear()
        assert cli.main(["enumerate", "--family", "dyck", "--n", "3", "--format", fmt]) == 0
        assert capsys.readouterr().err == "5 paths\n"
        # a batch of two is written before the path after it is made
        assert [bool(out) for out in seen] == [False, False, True, False, True], fmt


@pytest.mark.parametrize("batch", [1, 2, 3, cli.SERIES_JSON_BATCH])
def test_series_json_is_written_as_the_whole_document(batch, monkeypatch, capsys):
    from fractions import Fraction

    from valleydyck.params import A, B
    from valleydyck.polynomials import Polynomial
    from valleydyck.series import TruncatedSeries

    monkeypatch.setattr(cli, "SERIES_JSON_BATCH", batch)
    # coefficients of 0 to 5 terms, so that batches of 1, 2 and 3 end inside them
    five = Polynomial.sum([A, B, A * B, A**2 * Fraction(-1, 2), 3])
    for coeffs in ([1], [1, 0, A * Fraction(-1, 2) + A**2 * B], [0, 0], [five, 0, five, A + B]):
        series = TruncatedSeries(coeffs)
        cli._write_series_json(series)
        assert capsys.readouterr().out == json.dumps(series.to_json(), indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["steps", "json", "ascii", "csv"])
def test_enumerate_output_does_not_depend_on_the_batch(fmt, monkeypatch, capsys):
    # the listing in one batch is held in tests/fixtures/cli_golden.json
    one_batch = cli.ENUMERATE_BATCH
    for family, n, filt in [("dyck", 0, "none"), ("dyck", 1, "first_two_not_ud"),
                            ("motzkin", 4, "none"), ("schroder_large", 3, "y_filter")]:
        argv = ["enumerate", "--family", family, "--n", str(n), "--filter", filt, "--format", fmt]
        outputs = []
        for size in (one_batch, 1, 2, 3):
            monkeypatch.setattr(cli, "ENUMERATE_BATCH", size)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1:] == outputs[:1] * 3, argv


_LAYERS = {m.name for m in pkgutil.iter_modules(valleydyck.__path__)} - {"__main__", "cli"}
_HEAVY = {"polynomials", "series", "weights", "bijections", "oracles", "verify"}


def _modules(*layers):
    return {f"valleydyck.{layer}" for layer in layers}


@pytest.mark.parametrize("argv, absent", [
    # verify imports concurrent.futures (and with it logging) only to start a
    # pool, the value types are slotted classes, and no module reads signatures
    ([], _modules(*_LAYERS - {"errors", "paths", "_value"})
     | {"concurrent.futures", "dataclasses", "inspect", "ast", "dis", "tokenize"}),
    (["render", "--path", "UUDD"], _modules(*_HEAVY)),
    (["enumerate", "--family", "dyck", "--n", "3"], _modules(*_HEAVY)),
    (["oracle", "--name", "catalan", "--n", "5"],
     _modules("series", "weights", "bijections", "verify")),
    (["series", "--spec", "geom_3x", "--order", "4"], _modules("bijections", "oracles", "verify")),
    (["count", "--spec", "geom_3x", "--n", "3"], _modules("bijections", "oracles", "verify")),
], ids=lambda value: " ".join(value) or "import" if isinstance(value, list) else None)
def test_each_command_loads_only_its_layers(argv, absent):
    # the parser is built from name tables alone, and each handler imports its layers
    code = f"""if True:
        import contextlib, io, json, sys
        from valleydyck import cli
        if {argv!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main({argv!r}) == 0
        print(json.dumps(list(sys.modules)))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "valleydyck.cli" in loaded and not loaded & absent, sorted(loaded & absent)


def test_parser_name_tables_match_the_layers():
    from valleydyck.bijections import MAPS

    assert cli.MAP_NAMES == (*MAPS, "tau")
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_package_namespace_loads_on_first_use():
    code = """if True:
        import sys, valleydyck
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("valleydyck."))
        print(loaded())
        from valleydyck import Path, tau_value
        print(loaded())
        from valleydyck.paths import Path as P
        print(Path is P, valleydyck.verify.__name__, "oracle" in dir(valleydyck))
        names = {}
        exec("from valleydyck import *", names)
        print(sorted(valleydyck.__all__) == sorted(k for k in names if k != "__builtins__"))
        try:
            valleydyck.nothing
        except AttributeError as exc:
            print(exc)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    # a name loads its own module and what that module imports, no more
    assert "valleydyck.bijections" in lines[1] and "valleydyck.verify" not in lines[1]
    assert lines[2:] == [
        "True valleydyck.verify True",
        "True",
        "module 'valleydyck' has no attribute 'nothing'",
    ]


def test_verify_jobs_clamped_to_checks_and_cpus(monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # the CPUs this process may run on count, not the CPUs of the machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    serial = verify.run_suite("bijections", 2)
    assert verify.run_suite("bijections", 2, jobs=1000) == serial
    assert verify.run_suite("closed_forms", 2, jobs=1000).passed
    assert pools == [3, 2]
    # a run pinned to one CPU builds no pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert verify.run_suite("bijections", 2, jobs=2) == serial
    assert pools == [3, 2]
    # without an affinity call the CPU count decides, and an unknown count means one
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify.run_suite("bijections", 2, jobs=1000) == serial
    assert pools == [3, 2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.run_suite("closed_forms", 2, jobs=1000).passed
    assert pools == [3, 2, 3]


def _perfbench_jobs():
    """``perfbench/jobs.py``, loaded by path; it imports nothing of the program."""
    path = FilePath(__file__).parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs():
    # perfbench/tracer.py wraps the program's operators and functions by name,
    # so a deleted or renamed one it looks up fails its install() here
    root = FilePath(__file__).parents[1]
    code = f"""if True:
        import importlib.util, sys
        sys.path.insert(0, {str(root / "src")!r})
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", {str(root / "perfbench" / "tracer.py")!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        tracer.install()
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_order_cap(assert_capped, capsys):
    # every weight table has its own cap, at least the orders the series
    # workload runs it at; a spec file is held to the lowest cap
    served = {table: hi for table, _, hi, *_ in _perfbench_jobs().SERIES_TABLES}
    caps = cli.SIZE_CAPS["series"][2]
    assert set(caps) == set(REGISTRY) == set(served)
    for table in REGISTRY:
        assert_capped("series", table, in_use=max(served[table], cli.DEFAULT_ORDER))
    lowest = min(caps.values())
    assert cli.main(["series", "--spec", "@unread.json", "--order", str(lowest + 1)]) == 2
    assert capsys.readouterr().err == f"error: --order {lowest + 1} is above its cap of {lowest}\n"


def test_n_cap(assert_capped):
    # count: the golden files and the quick CLI jobs go to n = 6, the
    # brute-force structure sums to generic 10 and delannoy_tuple 12
    assert set(cli.SIZE_CAPS["count"][2]) == set(REGISTRY)
    for table in REGISTRY:
        assert_capped("count", table, in_use={"generic": 10, "delannoy_tuple": 12}.get(table, 6))
    # enumerate: the quick CLI jobs go to dyck 7, the brute-force jobs
    # enumerate each target family up to its largest size
    in_use = dict.fromkeys(FAMILY_STEPS, 0) | {"dyck": 7}
    for family, *_, hi in _perfbench_jobs().TARGETS:
        in_use[family] = max(in_use[family], hi)
    assert set(cli.SIZE_CAPS["enumerate"][2]) == set(FAMILY_STEPS)
    for family in FAMILY_STEPS:
        assert_capped("enumerate", family, in_use=in_use[family])


def test_oracle_n_cap(assert_capped):
    # the quick CLI jobs ask catalan up to 15 and fuss up to 12
    assert set(cli.SIZE_CAPS["oracle"][2]) == set(ORACLES)
    for name in ORACLES:
        assert_capped("oracle", name, in_use=15)
