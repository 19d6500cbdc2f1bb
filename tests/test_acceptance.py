"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is exact equality at the
stated sweep bound.  Where a verify check states a criterion, the test runs
that check at the criterion's bound, so the suite tests what ``verify``
runs.  The criteria are numbered A1..A12 in the order the project tracks
them; each test prints its verdict so a plain ``pytest -s`` run doubles as
a checklist.
"""

import json
from pathlib import Path as FilePath

from conftest import run_cli
from valleydyck.bijections import MAPS
from valleydyck.verify import CHECKS

FIXTURES = FilePath(__file__).parent / "fixtures"


def report(criterion: str, passed: bool) -> None:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def passes(check: str, bound: int) -> bool:
    """Run one verify check at the criterion's bound, printing why it did not pass.

    A check that skipped compared nothing, so it does not count as passed.
    """
    result = CHECKS[check](bound)
    if result.status != "pass":
        print(f"{check}: {result.status} {result.detail}")
    return result.status == "pass"


def test_a1_master_triple_agreement():
    """Structure sums, series coefficients and raw path sums agree, n <= 7."""
    ok = passes("master_triple_agreement", 7)
    report("A1 master formula triple agreement (n<=7, fully symbolic)", ok)


def test_a2_geometric_examples():
    ok = passes("geom_3x_values", 12) and passes("geom_fib_values", 12)
    report("A2 geometric specializations match closed forms (n=1..12)", ok)


def test_a3_difference_identities():
    checks = [c for c in CHECKS if c.startswith("diff_")]
    assert len(checks) == len(MAPS)
    ok = all(passes(check, 10) for check in checks)
    report("A3 five difference identities, symbolic, n=0..10", ok)


def test_a4_bijection_suites():
    ok = all(passes(f"bijection_{map_id}", 6) for map_id in MAPS)
    report("A4 bijections phi/theta/sigma/rho/psi, n=0..6", ok)


def test_a5_worked_examples():
    ok = passes("worked_examples", 6)
    report("A5 worked examples (weights, images, letter strings)", ok)


def test_a6_chebyshev_identities():
    # the symbolic identity, the five numeric instances and the second family
    ok = passes("chebyshev_rational_identity", 10)
    report("A6 rational form, three numeric cases, second family (n<=10)", ok)


def test_a7_delannoy_table():
    ok = passes("delannoy_table", 10)
    report("A7 seven weight tuples against the tabulated kernel (n<=10)", ok)


def test_a8_tau_exchange():
    ok = passes("tau_exchange", 8)
    report("A8 integer-weight exchange round trips and sums (n=2..8)", ok)


def test_a9_scaled_weight_sums():
    ok = passes("delannoy_scaled_sums", 9)
    report("A9 scaled weight sums agree across all seven tuples (n=2..9)", ok)


def test_a10_fuss_formulas():
    ok = passes("fuss_formulas", 9)
    report("A10 tree-family formulas incl. collapses, r<=3, m in {r,r+1,r+2}, n<=9", ok)


def test_a11_oracle_cross_checks():
    # oracle_bridges compares the two binomial forms of the Delannoy numbers up to n = 20
    ok = passes("oracle_bridges", 12) and passes("delannoy_axis_hsteps", 5)
    report("A11 oracle bridges and both binomial forms (n<=20), axis H-steps", ok)


def test_a12_cli_smoke(tmp_path, verify_all_runs):
    ok = True
    # JSON round trips: weight spec, path, decorated object
    dump = tmp_path / "spec.json"
    first = run_cli("series", "--spec", "narayana_t", "--order", "6", "--dump-spec", str(dump))
    again = run_cli("series", "--spec", f"@{dump}", "--order", "6")
    ok = ok and first.stdout == again.stdout

    paths = json.loads(
        run_cli("enumerate", "--family", "schroder_large", "--n", "2", "--format", "json").stdout
    )
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(paths[0]))
    ok = ok and run_cli("render", "--path", f"@{path_file}").stdout == run_cli(
        "render", "--path", paths[0]["steps"], "--family", "schroder_large"
    ).stdout

    obj = {
        "map": "rho",
        "parts": [{"kind": "pyramid", "height": 3, "sub": "UUDD"}],
    }
    obj_file = tmp_path / "obj.json"
    obj_file.write_text(json.dumps(obj))
    image = run_cli("biject", "--map", "rho", "--apply", f"@{obj_file}")
    image_file = tmp_path / "img.json"
    image_file.write_text(image.stdout)
    back = run_cli("biject", "--map", "rho", "--apply", f"@{image_file}", "--direction", "inverse")
    ok = ok and json.loads(back.stdout) == obj

    # full verification suite is green through the CLI (the four
    # ``verify --suite all --max-n 6`` runs are shared with test_cli)
    runs = verify_all_runs
    ok = ok and "result: PASS" in runs["text"]

    # byte-for-byte jobs invariance, and the JSON report byte-identical to the golden one
    ok = ok and runs["text"] == runs["text_jobs4"]
    ok = ok and runs["json"] == runs["json_jobs3"]
    ok = ok and json.loads(runs["json"])["passed"] is True
    ok = ok and runs["json"] == (FIXTURES / "verify_all_max6.json").read_text()
    report("A12 CLI smoke: JSON round trips, verify all green, jobs invariance", ok)
