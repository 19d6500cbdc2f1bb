import subprocess
import sys

import pytest

VERIFY_ALL = ("verify", "--suite", "all", "--max-n", "6")


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
    out = {}
    for key, extra in variants.items():
        proc = subprocess.run(
            [sys.executable, "-m", "valleydyck", *VERIFY_ALL, *extra],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        out[key] = proc.stdout
    return out
