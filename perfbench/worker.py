"""The workload process: one closed-loop client running seeded jobs.

Usage (spawned by ``run.py``, never by hand)::

    python3 perfbench/worker.py RUN_DIR      # run RUN_DIR/plan.json
    python3 perfbench/worker.py --probe MOD  # import MOD, report ready, exit

The worker imports the program, prints ``ready`` (the parent times spawn plus
import up to that line), then runs the jobs one after another: the next job
starts only after the previous one returned.  Each job's latency covers the
whole user-level operation, including its JSON output; writing that output to
``RUN_DIR/outputs.jsonl`` for the correctness gate happens between jobs and
outside the timed region.  Right before each job, and once after the last,
it times ``speed.reference()``, so the parent can report every latency at
nominal speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import speed  # beside this file, so on sys.path

PROBE_IMPORTS = {"lib": "valleydyck", "cli": "valleydyck.cli"}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- in-process jobs ---------------------------------------------------------------


def run_series(job) -> str:
    """Mirror of ``valleydyck series --format json`` for one weight table."""
    from valleydyck.series import valley_series, valley_series_ab
    from valleydyck.weights import registry_get

    spec = registry_get(job["table"], job["order"], **job["params"])
    alpha, beta, gamma = spec.to_series()
    if gamma == alpha * beta:
        series = valley_series_ab(alpha, beta)
    else:
        series = valley_series(alpha, beta, gamma)
    return canonical(series.to_json())


def run_structure_sum(job) -> str:
    from valleydyck.weights import registry_get, valley_weight_sum

    spec = registry_get(job["table"], max(job["n"], 1), **job["params"])
    return canonical(valley_weight_sum(job["n"], spec).to_json())


def run_path_sum(job) -> str:
    """The raw-path route: path_weight over every valley-uniform Dyck path."""
    from valleydyck.paths import enumerate_family, is_valley_uniform
    from valleydyck.polynomials import Polynomial
    from valleydyck.weights import path_weight, registry_get

    spec = registry_get(job["table"], max(job["n"], 1))
    total = Polynomial.zero()
    for path in enumerate_family("dyck", job["n"]):
        if is_valley_uniform(path):
            total = total + path_weight(path, spec)
    return canonical(total.to_json())


def run_target_sum(job) -> str:
    from valleydyck.weights import target_weight_sum

    value = target_weight_sum(job["n"], job["family"], job["filter"], job["weighting"])
    return canonical(value.to_json())


def run_bijection(job) -> str:
    from valleydyck.bijections import decorated_weight, enumerate_decorated, forward, inverse
    from valleydyck.polynomials import Polynomial

    map_id = job["map"]
    images, failures, weight = [], 0, Polynomial.zero()
    for obj in enumerate_decorated(job["n"], map_id):
        image = forward(map_id, obj)
        if inverse(map_id, image) != obj:
            failures += 1
        weight = weight + decorated_weight(obj)
        images.append(image.steps)
    return canonical(
        {"objects": len(images), "roundtrip_failures": failures,
         "weight": weight.to_json(), "images": images}
    )


def run_tau(job) -> str:
    from valleydyck.bijections import enumerate_tau, tau_apply, tau_value

    images, failures, value_sum = [], 0, 0
    for obj in enumerate_tau(job["n"], "src_4372"):
        image = tau_apply(obj)
        value = tau_value(obj)
        if tau_apply(image) != obj or tau_value(image) != value:
            failures += 1
        value_sum += value
        images.append(canonical(image.to_json()))
    return canonical(
        {"objects": len(images), "roundtrip_failures": failures,
         "value_sum": value_sum, "images": images}
    )


# -- command-line jobs --------------------------------------------------------------


def run_cli_subprocess(job) -> str:
    """One ``python -m valleydyck ...`` process, as a user runs it."""
    proc = subprocess.run(
        [sys.executable, "-m", "valleydyck", *job["argv"]],
        capture_output=True,
        text=True,
        timeout=150,
    )
    return canonical({"rc": proc.returncode, "stdout": proc.stdout})


def run_cli_inprocess(job) -> str:
    """The same invocation through ``valleydyck.cli.main`` with ``--jobs 1``.

    Used by traced runs, because spans inside pool workers cannot be seen.
    """
    from valleydyck import cli

    argv = list(job["argv"])
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return canonical({"rc": code, "stdout": out.getvalue()})


RUNNERS = {
    "series": run_series,
    "structure_sum": run_structure_sum,
    "path_sum": run_path_sum,
    "target_sum": run_target_sum,
    "bijection": run_bijection,
    "tau": run_tau,
}


def _caches() -> dict:
    """The program's two caches, taken before any tracing wraps them."""
    from valleydyck.series import named_series
    from valleydyck.weights import _registry_get_cached

    return {"named_series": named_series, "registry": _registry_get_cached}


def main(run_dir: str) -> int:
    with open(os.path.join(run_dir, "plan.json")) as handle:
        plan = json.load(handle)
    import valleydyck  # noqa: F401  (the set-up the parent times)

    if plan["cli_inprocess"] or plan["trace"]:
        import valleydyck.cli  # noqa: F401
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    caches = _caches()

    def cache_hits() -> int:
        return sum(cached.cache_info().hits for cached in caches.values())

    cache_totals = {label: {"hits": 0, "misses": 0} for label in caches}

    def tally_caches() -> None:
        for label, cached in caches.items():
            info = cached.cache_info()
            cache_totals[label]["hits"] += info.hits
            cache_totals[label]["misses"] += info.misses

    tracer = None
    if plan["trace"]:
        import tracer as tracing  # beside this file, so on sys.path

        tracer = tracing.install()

    def runner(job):
        if job["kind"] == "cli":
            return run_cli_inprocess if plan["cli_inprocess"] else run_cli_subprocess
        return RUNNERS[job["kind"]]

    records = []
    refs = []  # speed.reference() before each job and after the last
    busy = 0.0  # wall time inside jobs; bookkeeping between jobs is left out
    sharing = 0
    in_process = plan["cli_inprocess"] or all(job["kind"] != "cli" for job in plan["jobs"])
    clock = time.perf_counter
    with open(os.path.join(run_dir, "outputs.jsonl"), "w") as outputs:
        for index, job in enumerate(plan["jobs"]):
            if in_process and index and index % plan["round_size"] == 0:
                # a fresh session per round: without this, later rounds would
                # find earlier rounds' solves cached and the mix would drift
                tally_caches()
                for cached in caches.values():
                    cached.cache_clear()
            fn = runner(job)
            hits = cache_hits() if in_process else 0
            error = output = None
            frame = tracer.job_frame(job["id"]) if tracer else contextlib.nullcontext()
            refs.append(speed.reference())
            start = clock()
            try:
                with frame:
                    output = fn(job)
            except Exception as exc:  # a failed job is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = clock() - start
            busy += elapsed
            if in_process and cache_hits() > hits:
                sharing += 1
            records.append([job["id"], elapsed, error])
            outputs.write(canonical({"id": job["id"], "output": output}) + "\n")
    refs.append(speed.reference())

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    result = {
        "records": records,
        "refs": refs,
        "busy_s": busy,
        "peak_rss_kb": usage.ru_maxrss,
        "sharing_jobs": sharing if in_process else None,
    }
    if in_process:
        tally_caches()
        result["caches"] = cache_totals
    if tracer is not None:
        from valleydyck.verify import CHECKS

        result["layers"] = tracing.layer_metrics(tracer, sorted(CHECKS))
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(run_dir, "spans.jsonl"))
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        __import__(PROBE_IMPORTS[sys.argv[2]])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
