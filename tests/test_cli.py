import concurrent.futures
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from conftest import run_cli
import valleydyck
from valleydyck import cli, paths, series, verify
from valleydyck.oracles import ORACLES
from valleydyck.paths import FAMILY_STEPS
from valleydyck.weights import REGISTRY

FIXTURES = FilePath(__file__).parent / "fixtures"


def test_series_pretty_matches_example():
    proc = run_cli("series", "--spec", "geom_3x", "--order", "5")
    assert proc.stdout.splitlines() == ["0: 1", "1: 0", "2: 1", "3: 4", "4: 13", "5: 40"]


def test_series_spec_file_round_trip(tmp_path):
    dump = tmp_path / "spec.json"
    first = run_cli(
        "series", "--spec", "motzkin_ab", "--order", "5", "--dump-spec", str(dump)
    )
    again = run_cli("series", "--spec", f"@{dump}", "--order", "5")
    assert first.stdout == again.stdout
    data = json.loads(dump.read_text())
    assert set(data) == {"alpha", "beta", "gamma"}


def test_series_json_round_trips_through_library():
    from valleydyck.series import TruncatedSeries

    proc = run_cli("series", "--spec", "narayana_t", "--order", "4", "--format", "json")
    series = TruncatedSeries.from_json(json.loads(proc.stdout))
    assert series.order == 4


def test_series_csv_requires_bound_params():
    proc = run_cli(
        "series",
        "--spec",
        "motzkin_ab",
        "--order",
        "4",
        "--format",
        "csv",
        "--param",
        "a=1",
        "--param",
        "b=1",
    )
    rows = proc.stdout.splitlines()
    assert rows[0] == "n,value"
    assert rows[1:] == ["0,1", "1,0", "2,1", "3,2", "4,5"]
    run_cli("series", "--spec", "motzkin_ab", "--format", "csv", expect=2)


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
    # asked, and after --dump-spec has written the table
    orders = []
    monkeypatch.setattr(
        series, "valley_series", lambda *s: orders.append(s[0].order) or valley_series(*s)
    )
    dump = tmp_path / "spec.json"
    argv = ["series", "--spec", table, "--order", "16", "--format", "csv", "--dump-spec", str(dump)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: csv output needs every parameter bound")
    assert orders and max(orders) < 16, orders
    assert json.loads(dump.read_text()) == registry_get(table, 16).to_json()


def test_csv_refusal_without_a_dump_builds_no_table_at_the_order_asked(monkeypatch, capsys):
    from valleydyck import weights
    from valleydyck.polynomials import Polynomial

    calls = []
    original = REGISTRY["motzkin_ab"]

    def recording(order: int, *, pins=()):
        calls.append((order, pins))
        return original(order, pins=pins)

    monkeypatch.setitem(REGISTRY, "motzkin_ab", recording)
    weights._registry_get_cached.cache_clear()
    try:
        argv = ["series", "--spec", "motzkin_ab", "--order", "204", "--format", "csv"]
        assert cli.main(argv + ["--param", "a=2"]) == 2
        message = "error: csv output needs every parameter bound; ('b',) remain symbolic\n"
        assert capsys.readouterr() == ("", message)
        # the names check reads the symbolic table at order 2, and the probes
        # read tables built from the checked pins, each below the order asked
        assert calls[0] == (2, ())
        assert calls[1:] and all(
            order < 204 and pins == (("a", Polynomial.const(2)),) for order, pins in calls[1:]
        ), calls
        # the names check still speaks of the order asked
        assert cli.main(argv[:4] + ["16", "--format", "csv", "--param", "zz=1"]) == 2
        assert capsys.readouterr().err == (
            "error: motzkin_ab at order 16 has no parameter or variable zz "
            "(variables: a, a_inv, b)\n"
        )
    finally:
        weights._registry_get_cached.cache_clear()


def test_count_command():
    proc = run_cli("count", "--spec", "geom_3x", "--n", "4")
    assert proc.stdout.strip() == "13"
    proc = run_cli(
        "count",
        "--spec",
        "delannoy_tuple",
        "--n",
        "4",
        "--param", "a=4", "--param", "b=3", "--param", "c=7", "--param", "d=2",
    )
    assert proc.stdout.strip() == "245"


def test_enumerate_json_reingested_by_render(tmp_path):
    proc = run_cli("enumerate", "--family", "dyck", "--n", "2", "--format", "json")
    paths = json.loads(proc.stdout)
    assert {"family": "dyck", "steps": "UUDD"} in paths
    target = tmp_path / "path.json"
    target.write_text(json.dumps(paths[0]))
    rendered = run_cli("render", "--path", f"@{target}")
    direct = run_cli("render", "--path", paths[0]["steps"])
    assert rendered.stdout == direct.stdout


def test_render_matches_golden_fixtures():
    for name, steps in [
        ("schroder_source", "UUUDDDUUDUDUDD"),
        ("intro_example", "UUUUUUDDDUDUDDDDUUUDUDDDUUDD"),
    ]:
        proc = run_cli("render", "--path", steps)
        golden = (FIXTURES / f"{name}.txt").read_text()
        assert proc.stdout == golden


def test_oracle_command():
    proc = run_cli("oracle", "--name", "narayana", "--n", "5", "--param", "t=sym")
    assert proc.stdout.strip() == "t^5 + 10*t^4 + 20*t^3 + 10*t^2 + t"
    proc = run_cli("oracle", "--name", "delannoy", "--n", "2", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["value"] == [{"coeff": "13", "monomial": {}}]
    run_cli("oracle", "--name", "nonsense", "--n", "1", expect=2)


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_oracle_value_past_the_digit_limit_is_a_usage_error(fmt):
    # n = 2000 is under the fuss cap, yet its value has more digits than
    # Python turns into text by default
    proc = run_cli("oracle", "--name", "fuss", "--n", "2000", "--param", "r=99",
                   "--format", fmt, expect=2)
    _one_error_line(proc)
    assert proc.stderr == (
        "error: oracle fuss at n = 2000 gives a number of more than "
        f"{sys.get_int_max_str_digits()} digits, more than can be printed\n"
    )


def test_biject_roundtrip_exit_codes():
    for map_id in ("phi", "theta", "sigma", "rho", "psi", "tau"):
        run_cli("biject", "--map", map_id, "--n", "4", "--roundtrip")


def test_biject_apply_both_directions(tmp_path):
    source = FIXTURES / "exchange_source.json"
    proc = run_cli("biject", "--map", "tau", "--apply", f"@{source}")
    image = json.loads(proc.stdout)
    assert image["side"] == "dst_2174"
    assert image["parts"][0]["k0"] == 6
    assert image["parts"][0]["blocks"] == [4, 1, 2, 1]
    back_file = tmp_path / "image.json"
    back_file.write_text(proc.stdout)
    back = run_cli("biject", "--map", "tau", "--apply", f"@{back_file}")
    assert json.loads(back.stdout) == json.loads(source.read_text())


def test_biject_apply_phi(tmp_path):
    obj = {
        "map": "phi",
        "parts": [
            {"kind": "pyramid", "height": 5, "sub": "FFF"},
            {"kind": "block", "ascent": 3, "heights": [1, 1, 1, 1], "sub": "FF"},
            {"kind": "pyramid", "height": 2, "sub": ""},
        ],
    }
    source = tmp_path / "obj.json"
    source.write_text(json.dumps(obj))
    proc = run_cli("biject", "--map", "phi", "--apply", f"@{source}")
    image = json.loads(proc.stdout)
    assert image == {"family": "motzkin", "steps": "UFFFDUFFDFFFUD"}
    path_file = tmp_path / "img.json"
    path_file.write_text(proc.stdout)
    back = run_cli(
        "biject", "--map", "phi", "--apply", f"@{path_file}", "--direction", "inverse"
    )
    assert json.loads(back.stdout) == obj


def test_verify_all_passes_and_jobs_invariance(verify_all_runs):
    assert verify_all_runs["text"] == verify_all_runs["text_jobs4"]
    assert "result: PASS" in verify_all_runs["text"]
    assert verify_all_runs["json"] == verify_all_runs["json_jobs3"]
    assert json.loads(verify_all_runs["json"])["passed"] is True


def test_enumerate_ascii_and_csv_formats():
    proc = run_cli("enumerate", "--family", "dyck", "--n", "2", "--format", "ascii")
    assert "/\\" in proc.stdout
    proc = run_cli("enumerate", "--family", "dyck", "--n", "2", "--format", "csv")
    assert proc.stdout.splitlines() == ["family,steps", "dyck,UUDD", "dyck,UDUD"]


def test_seed_fixtures_regenerates_goldens(tmp_path):
    run_cli("--seed-fixtures", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [
        "exchange_image.txt", "exchange_source.json", "exchange_source.txt",
        "intro_example.txt", "motzkin_source.txt", "motzkin_spec.json",
        "narayana_source.txt", "schroder_source.txt",
    ]
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_usage_errors_exit_two(capsys):
    run_cli("enumerate", "--family", "nope", "--n", "1", expect=2)
    run_cli("series", "--spec", "no_such_table", expect=2)
    run_cli(expect=2)
    # a negative order is refused alike for a registry name and a spec file
    for spec in ("motzkin_ab", f"@{FIXTURES / 'motzkin_spec.json'}"):
        assert cli.main(["series", "--spec", spec, "--order", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: order must be nonnegative\n")
    # fewer than one verify job is refused, not run serially
    for jobs in ("0", "-3"):
        assert cli.main(["verify", "--suite", "master", "--max-n", "2", "--jobs", jobs]) == 2
        message = f"error: the number of jobs must be at least 1, got {jobs}\n"
        assert capsys.readouterr() == ("", message)


def _one_error_line(proc):
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_unreadable_param_value_is_a_usage_error():
    proc = run_cli("series", "--spec", "geom_3x", "--param", "a=1/0", expect=2)
    _one_error_line(proc)
    assert "--param a" in proc.stderr


def test_param_naming_nothing_is_a_usage_error(capsys):
    from valleydyck.polynomials import Polynomial
    from valleydyck.series import TruncatedSeries

    proc = run_cli("series", "--spec", "geom_3x", "--param", "zz=1", expect=2)
    _one_error_line(proc)
    assert "zz" in proc.stderr and "variables: none" in proc.stderr
    assert cli.main(["count", "--spec", "generic", "--n", "2", "--param", "alpha5=sym"]) == 2
    err = capsys.readouterr().err
    assert "alpha5" in err and "alpha1, alpha2, beta1" in err
    # a pinned variable of the table is substituted, a declared parameter is built in
    assert cli.main(["series", "--spec", "motzkin_ab", "--order", "6", "--format", "json"]) == 0
    symbolic = TruncatedSeries.from_json(json.loads(capsys.readouterr().out))
    argv = ["series", "--spec", "motzkin_ab", "--order", "6", "--format", "json"]
    assert cli.main(argv + ["--param", "a=1", "--param", "b=1"]) == 0
    pinned = TruncatedSeries.from_json(json.loads(capsys.readouterr().out))
    one = Polynomial.const(1)
    assert pinned == TruncatedSeries([c.substitute({"a": one, "b": one}) for c in symbolic.coeffs])
    assert cli.main(["count", "--spec", "chebyshev_abcd", "--n", "3", "--param", "d=2"]) == 0


def test_param_on_spec_file_matches_registry(tmp_path):
    dump = tmp_path / "m.json"
    run_cli("series", "--spec", "motzkin_ab", "--order", "3", "--dump-spec", str(dump))
    from_file = run_cli("series", "--spec", f"@{dump}", "--order", "3", "--param", "a=2")
    from_registry = run_cli("series", "--spec", "motzkin_ab", "--order", "3", "--param", "a=2")
    assert from_file.stdout == from_registry.stdout
    assert from_file.stdout.splitlines()[3] == "3: 4*b"
    argv = ("series", "--spec", f"@{dump}", "--order", "3", "--param", "zz=1", "--param", "a=2")
    proc = run_cli(*argv, expect=2)
    _one_error_line(proc)
    assert "no parameter or variable zz" in proc.stderr and "variables: a, a_inv, b" in proc.stderr


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


@pytest.mark.parametrize("argv, names", [
    (("catalan", "--n", "5", "--param", "zz=1"), "catalan has no parameter zz"),
    (("fuss_sym", "--n", "6", "--param", "m=2", "--param", "r=1.9"), "parameter r"),
    (("fuss", "--n", "3", "--param", "r=2.5"), "parameter r"),
    (("abcd_power", "--n", "0", "--param", "a=2", "--param", "b=1", "--param", "c=3",
      "--param", "d=1"), "abcd_power needs ad = (a-b)c"),
    (("fuss_asym_collapse", "--n", "0", "--param", "r=0"), "parameter r"),
])
def test_oracle_param_errors_exit_two(argv, names):
    proc = run_cli("oracle", "--name", *argv, expect=2)
    _one_error_line(proc)
    assert names in proc.stderr


def test_oracle_pins_its_variables():
    assert run_cli("oracle", "--name", "motzkin_diff", "--n", "3", "--param", "a=2").stdout == "4*b\n"
    proc = run_cli("oracle", "--name", "narayana_diff", "--n", "4", "--param", "t=3")
    assert proc.stdout == "129\n"  # 3t^3 + 5t^2 + t at t = 3


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


@pytest.mark.parametrize("command", [("series", "--order"), ("count", "--n")])
def test_series_and_count_have_no_ascii_format(command):
    proc = run_cli(command[0], "--spec", "geom_3x", command[1], "3", "--format", "ascii", expect=2)
    assert proc.stdout == "" and "invalid choice: 'ascii'" in proc.stderr


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


def test_negative_verify_bound_is_a_usage_error():
    proc = run_cli("verify", "--suite", "master", "--max-n", "-3", expect=2)
    _one_error_line(proc)


def test_biject_apply_malformed_json_is_a_usage_error(capsys):
    for text in ('{"map":"rho"}', "[1,2]"):
        _one_error_line(run_cli("biject", "--map", "rho", "--apply", text, expect=2))
    for map_id, direction, text in [
        ("rho", "inverse", "[1,2]"),
        ("rho", "inverse", '{"steps": "UD"}'),
        ("rho", "forward", '{"map": "rho", "parts": [1]}'),
        ("tau", "forward", '{"side": "src_4372"}'),
        ("tau", "inverse", '{"side": "src_4372", "parts": [{"k0": 1, "letters": 5}]}'),
        ("phi", "inverse", '{"family": "motzkin", "steps": ["U", "D"]}'),
        ("rho", "forward", '{"map": "rho", "parts": [{"kind": "pyramid", "height": 2, '
                           '"sub": ["U", "D"]}]}'),
        ("tau", "forward", '{"side": "src_4372", "parts": [{"k0": 1, "letters": [], '
                           '"blocks": [1.5]}]}'),
        ("tau", "forward", '{"side": "src_4372", "parts": [{"k0": true, "letters": [], '
                           '"blocks": [1]}]}'),
        ("rho", "forward", '{"map": "rho", "parts": [{"kind": "pyramid", "height": 1.5, '
                           '"sub": "U"}]}'),
        ("rho", "forward", '{"map": "rho", "parts": [{"kind": "pyramid", "height": 2.0, '
                           '"sub": "UD"}]}'),
        ("rho", "forward", '{"map": "rho", "parts": [{"kind": "block", "ascent": true, '
                           '"heights": [1, 1], "sub": "UD"}]}'),
        ("rho", "forward", '{"map": "rho", "parts": [{"kind": "block", "ascent": 1, '
                           '"heights": [1, 1.0], "sub": "UD"}]}'),
    ]:
        argv = ["biject", "--map", map_id, "--direction", direction, "--apply", text]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: --apply ")


# per command line reading a @FILE, JSON files it must refuse with one usage error
MALFORMED_FILES = [
    (["render", "--path"], '{"family": "dyck"}'),
    (["render", "--path"], "[1]"),
    (["render", "--path"], '{"family": "dyck", "steps": 5}'),
    (["series", "--order", "1", "--spec"], '{"alpha": [[]], "beta": [[]]}'),
    (["series", "--order", "1", "--spec"], "[]"),
    (["series", "--order", "1", "--spec"],
     '{"alpha": [[{"coeff": "1", "monomial": {"a": 99999}}]], "beta": [[]], "gamma": [[]]}'),
    (["series", "--order", "1", "--spec"],
     '{"alpha": [[{"coeff": "1", "monomial": {"a": "x"}}]], "beta": [[]], "gamma": [[]]}'),
    (["series", "--order", "1", "--spec"],
     '{"alpha": [[{"coeff": 0.1, "monomial": {}}]], "beta": [[]], "gamma": [[]]}'),
    (["series", "--order", "1", "--spec"],
     '{"alpha": [[{"coeff": "1", "monomial": {"a": true}}]], "beta": [[]], "gamma": [[]]}'),
    (["series", "--order", "1", "--spec"],
     '{"alpha": [[{"coeff": "1", "monomial": {"a": 1.0}}]], "beta": [[]], "gamma": [[]]}'),
    (["series", "--order", "1", "--spec"],
     '{"alpha": [[{"coeff": "1/0", "monomial": {}}]], "beta": [[]], "gamma": [[]]}'),
    (["count", "--n", "1", "--spec"],
     '{"alpha": [[{"coeff": "abc", "monomial": {}}]], "beta": [[]], "gamma": [[]]}'),
]


@pytest.mark.parametrize("argv, text", MALFORMED_FILES)
def test_malformed_json_file_is_a_usage_error(tmp_path, capsys, argv, text):
    source = tmp_path / "input.json"
    source.write_text(text)
    assert cli.main(argv + [f"@{source}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {argv[-1]} ")


def test_cli_import_loads_no_process_pool():
    # verify imports concurrent.futures (and with it logging) only to start a pool
    code = "import sys, valleydyck.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the value types are slotted classes, and no module reads signatures
    modules = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, valleydyck.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "[]\n", proc.stderr


_LAYERS = {m.name for m in pkgutil.iter_modules(valleydyck.__path__)} - {"__main__", "cli"}
_HEAVY = {"polynomials", "series", "weights", "bijections", "oracles", "verify"}


@pytest.mark.parametrize("argv, absent", [
    ([], _LAYERS - {"errors", "paths", "_value"}),
    (["render", "--path", "UUDD"], _HEAVY),
    (["enumerate", "--family", "dyck", "--n", "3"], _HEAVY),
    (["oracle", "--name", "catalan", "--n", "5"], {"series", "weights", "bijections", "verify"}),
    (["series", "--spec", "geom_3x", "--order", "4"], {"bijections", "oracles", "verify"}),
    (["count", "--spec", "geom_3x", "--n", "3"], {"bijections", "oracles", "verify"}),
], ids=lambda value: " ".join(value) or "import" if isinstance(value, list) else None)
def test_each_command_loads_only_its_layers(argv, absent):
    # the parser is built from name tables alone, and each handler imports its layers
    code = f"""if True:
        import contextlib, io, json, sys
        from valleydyck import cli
        if {argv!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main({argv!r}) == 0
        print(json.dumps([m.split(".", 1)[1] for m in sys.modules if m.startswith("valleydyck.")]))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "cli" in loaded and not loaded & absent, sorted(loaded & absent)


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
