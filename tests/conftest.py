import ast
import inspect
import re
import subprocess
import sys
import tracemalloc

import pytest

from valleydyck.bijections import MapSpec

VERIFY_ALL = ("verify", "--suite", "all", "--max-n", "6")


def run_cli(*args, expect=0):
    """Run ``python -m valleydyck`` with ``args``; assert its exit code and return the process."""
    proc = subprocess.run(
        [sys.executable, "-m", "valleydyck", *args], capture_output=True, text=True
    )
    assert proc.returncode == expect, proc.stderr + proc.stdout
    return proc


def message_pattern(message: ast.expr) -> str:
    """The regular expression a raised message's text must match: a string
    literal is itself, and each field of an f-string matches any text."""
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    assert {type(p) for p in parts} <= {ast.Constant, ast.FormattedValue}, ast.unparse(message)
    return "".join(re.escape(p.value) if type(p) is ast.Constant else ".+" for p in parts)


def traced_peak(call):
    """``call()``'s result and the peak memory, in bytes, tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rebuilt(spec, **change):
    """``spec`` rebuilt through the ``MapSpec`` constructor with one field changed."""
    fields = {name: getattr(spec, name) for name in inspect.signature(MapSpec).parameters}
    return MapSpec(**{**fields, **change})


@pytest.fixture(scope="session")
def verify_all_runs():
    """Stdout of ``verify --suite all --max-n 6`` in four variants, run once a session.

    Keys: ``text`` and ``text_jobs4`` (pretty output, serial and ``--jobs 4``),
    ``json`` and ``json_jobs3`` (``--format json``, serial and ``--jobs 3``).
    Each subprocess must exit 0.
    """
    variants = {
        "text": (),
        "text_jobs4": ("--jobs", "4"),
        "json": ("--format", "json"),
        "json_jobs3": ("--format", "json", "--jobs", "3"),
    }
    return {key: run_cli(*VERIFY_ALL, *extra).stdout for key, extra in variants.items()}


@pytest.fixture
def assert_capped(monkeypatch, capsys):
    """Check one size cap: ``check(command, name, in_use)``.

    ``name`` is the input the cap belongs to (a weight table, a family, an
    oracle name or a suite) and ``in_use`` the largest size the tests, the
    golden files or ``perfbench/jobs.py`` ask of it; the cap must admit it.
    At the cap the command runs; one more, or a huge value, exits 2 with
    exactly one ``error:`` line before the command starts.
    """
    from valleydyck import cli

    def check(command, name, in_use):
        flag, key, caps = cli.SIZE_CAPS[command]
        cap = caps[name]
        assert cap >= in_use, (command, name)
        option = "--" + flag.replace("_", "-")
        ran = []
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: ran.append(getattr(args, flag)) or 0)
        argv = [command, f"--{key}", name, option]
        assert cli.main([*argv, str(cap)]) == 0
        capsys.readouterr()
        for value in (cap + 1, 10**9):
            assert cli.main([*argv, str(value)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {option} {value} is above its cap of {cap}\n"
        assert ran == [cap]

    return check
