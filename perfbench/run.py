"""valleydyck benchmark: three seeded workloads, end-to-end and per-layer.

Run from the root of a checkout (it needs ``src/valleydyck``)::

    python3 perfbench/run.py --workload series_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload brute_force --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B
    python3 perfbench/run.py --self-test

Load model: one closed-loop client (the workload process) sends the next job
only when the previous one returned; at most two processes ever compute at
once (``verify --jobs`` is never above 2).  Workloads, their rationale and
the layer-to-metric map are in ``BENCHMARK.json`` and
``perfbench/baseline.json``.

Timed work runs on one CPU (``one_cpu``), so ``verify --jobs 2`` shares it
between its two workers: the pool's cost is measured, its parallel gain is
not (that is ``verify.pool_speedup`` of the traced run, measured unpinned).
Every time is reported at nominal speed: scaled by ``speed.NOMINAL_S`` over
the reference computation's time measured right before and after it (see
``speed.py``), because this host's speed drifts far more between runs than
the program's share of it does.  Raw times are printed and recorded beside.

``--trace 0`` runs ``round(seconds / ROUND_SECONDS)`` whole rounds of the
job list (see ``jobs.py``: about ``--seconds`` of work at nominal speed, and
the same jobs for a seed on every run and every commit) and reports the
end-to-end metrics:

* ``jobs_per_s``: completed jobs per second of the client's busy time;
* ``job_p50_ms``: median job latency;
* ``job_tail_ms``: the highest percentile with at least ten samples beyond
  it (the percentile and sample count are printed);
  both percentiles are Harrell-Davis estimates (see ``hd_quantile``);
* ``setup_s``: median time to spawn the workload process and import
  ``valleydyck`` (``valleydyck.cli`` for cli_verify), over 13 spawns;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process, or of its largest
  child for cli_verify.

``fail_ratio`` (failed / attempted jobs) is printed with them and carried by
the result's ``attempted`` and ``failed`` fields; it is 0 on a correct
program, so it is not a bounded metric.  ``output_sha256`` digests the
canonical JSON output of the first round's jobs, which every run completes,
so it is the same for one seed on every run and across commits that keep the
output byte-for-byte.

``--trace 1`` runs the first round of the job list twice in fresh processes,
untraced and then traced (``perfbench/tracer.py``), and reports the
per-layer metrics; spans go to ``.perfbench/traces/`` as JSON lines, never to
stdout.  Every count repeats exactly for a seed.  cli_verify's traced
invocations run in-process through ``valleydyck.cli.main`` with ``--jobs 1``.

Every run writes its job list, per-job latencies and metrics to
``.perfbench/results/``; ``--compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import jobs as joblists  # noqa: E402
import speed  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
PROBES = 12  # set-up probes per run, besides the workload process itself


class BenchError(Exception):
    """The benchmark could not run; reported on stderr with a non-zero exit."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # identical operation counts from run to run
    return env


def _await_ready(proc: subprocess.Popen, started: float, what: str) -> float:
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{what} did not start")
    return ready - started


def probe(module: str) -> float:
    """Seconds from spawning a Python process to its having imported the program."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--probe", module],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        return _await_ready(proc, started, "set-up probe")
    finally:
        proc.wait(timeout=60)
        proc.stdout.close()


def timed_probe(module: str) -> tuple[float, float]:
    """A set-up probe's time, raw and at nominal speed."""
    before = speed.reference()
    raw = probe(module)
    return raw, raw * speed.scale(before, speed.reference())


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and every process it starts meanwhile, on one CPU.

    The CPUs of a shared host run at different speeds from minute to minute,
    and a job or probe that lands on another CPU than the reference timed
    around it would be scaled by the wrong speed.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def scaled_latencies(result: dict) -> list[float]:
    """Each job's latency at nominal speed, from the reference times around it."""
    refs = result["refs"]
    return [rec[1] * speed.scale(refs[i], refs[i + 1]) for i, rec in enumerate(result["records"])]


def spawn_worker(run_dir: str, plan: dict, timeout: float) -> tuple[float, dict]:
    """Run one workload process on a plan; return its set-up time and result."""
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "plan.json"), "w") as handle:
        json.dump(plan, handle)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), run_dir],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        setup = _await_ready(proc, started, "workload process")
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process ran past {timeout:.0f} s") from None
    except BaseException:  # interrupted or terminated: leave no process behind
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"workload process exited {code}")
    with open(os.path.join(run_dir, "result.json")) as handle:
        return setup, json.load(handle)


def read_outputs(run_dir: str) -> dict[int, str | None]:
    outputs = {}
    with open(os.path.join(run_dir, "outputs.jsonl")) as handle:
        for line in handle:
            entry = json.loads(line)
            outputs[entry["id"]] = entry["output"]
    return outputs


def score(jobs: list[dict], records: list, outputs: dict, fault_id=None) -> list[str]:
    """Gate every attempted job; return one reason per failed job."""
    import gate  # imports valleydyck, so only after the timed processes ended

    by_id = {job["id"]: job for job in jobs}
    failures = []
    for job_id, _, error in records:
        problem = error or gate.check(by_id[job_id], outputs.get(job_id), fault=job_id == fault_id)
        if problem:
            failures.append(f"job {job_id}: {problem}")
    return failures


def gate_run(jobs: list[dict], records: list, outputs: dict, pool: dict | None) -> list[str]:
    """The gate's failures, plus the --jobs 1 / --jobs 2 report comparison if made."""
    failures = score(jobs, records, outputs)
    if pool is not None and not pool["identical"]:
        failures.append(f"--jobs 1 and --jobs 2 reports differ for {' '.join(pool['argv'])}")
    return failures


def summarize_run(metrics: dict, jobs: list, result: dict, failures: list, pool, **extra) -> dict:
    """What a run reports and records, whichever kind it was.

    A cli_verify run's --jobs 1 / --jobs 2 comparison counts as one more
    attempted check.
    """
    records = result["records"]
    attempted = len(records) + (pool is not None)
    return dict(
        metrics=metrics,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        fail_ratio=len(failures) / attempted,
        caches=result.get("caches"),
        refs=result.get("refs"),
        pool=pool,
        jobs=jobs,
        records=records,
        **extra,
    )


def first_round_digest(records: list, outputs: dict, size: int) -> str:
    digest = hashlib.sha256()
    for job_id, _, _ in records[:size]:
        digest.update(json.dumps(outputs.get(job_id)).encode() + b"\n")
    return digest.hexdigest()


def hd_quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted average of the order statistics.  Job
    costs fall in clusters (one per weight table, suite or size), so a single
    order statistic jumps between clusters from run to run; this estimator
    moves smoothly and so repeats more closely.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule inside each of the n intervals [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            total += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(total)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, its value and count."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, 0
    p = (n - 10) / n
    return hd_quantile(latencies, p), 100.0 * p, 10


def pool_pair(seed: int) -> dict:
    """One suite's JSON report with --jobs 1 and --jobs 2: bytes and wall times."""
    argv = joblists.pool_check(seed)
    walls, reports = {}, {}
    for jobs in (1, 2):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "valleydyck", *argv, "--jobs", str(jobs)],
            capture_output=True, env=child_env(), cwd=ROOT, timeout=150,
        )
        walls[jobs] = time.perf_counter() - started
        reports[jobs] = (proc.returncode, proc.stdout)
    return {
        "argv": argv,
        "identical": reports[1] == reports[2] and reports[1][0] == 0,
        "jobs1_s": walls[1],
        "jobs2_s": walls[2],
        "speedup": walls[1] / walls[2],
    }


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- the two kinds of run -------------------------------------------------------------


def run_measured(workload: str, seed: int, seconds: float, run_dir: str) -> dict:
    size = joblists.round_size(workload)
    joblist = joblists.make_jobs(workload, seed)[: size * joblists.rounds_for(workload, seconds)]
    cli = workload == "cli_verify"
    plan = {"jobs": joblist, "round_size": size, "trace": False, "cli_inprocess": False}
    with one_cpu():
        setups = [timed_probe("cli" if cli else "lib") for _ in range(PROBES)]
        before = speed.reference()
        setup, result = spawn_worker(run_dir, plan, timeout=170)
    setups.append((setup, setup * speed.scale(before, result["refs"][0])))
    records = result["records"]
    outputs = read_outputs(run_dir)
    pool = pool_pair(seed) if cli else None

    failures = gate_run(joblist, records, outputs, pool)
    completed = len(records) - sum(1 for rec in records if rec[2] is not None)

    def timings(latencies: list[float], setup_s: float) -> dict:
        tail_value, _, _ = tail(latencies)
        return {
            "jobs_per_s": completed / sum(latencies),
            "job_p50_ms": 1000 * hd_quantile(latencies, 0.5),
            "job_tail_ms": 1000 * tail_value,
            "setup_s": setup_s,
        }

    scaled = scaled_latencies(result)
    metrics = timings(scaled, statistics.median(s for _, s in setups))
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    raw = timings([rec[1] for rec in records], statistics.median(r for r, _ in setups))
    _, tail_pct, beyond = tail(scaled)
    sharing = result.get("sharing_jobs")
    return summarize_run(
        metrics, joblist, result, failures, pool,
        raw_metrics=raw,
        reference_s=statistics.median(result["refs"]),
        tail_percentile=tail_pct,
        tail_beyond=beyond,
        setup_samples=setups,
        busy_s=result["busy_s"],
        output_sha256=first_round_digest(records, outputs, size),
        output_jobs=min(size, len(records)),
        sharing_share=None if sharing is None else sharing / len(records),
    )


def run_traced(workload: str, seed: int, run_dir: str) -> dict:
    size = joblists.round_size(workload)
    joblist = joblists.make_jobs(workload, seed)[:size]
    cli = workload == "cli_verify"
    plan = {"jobs": joblist, "round_size": size, "trace": False, "cli_inprocess": cli}
    traced_dir = os.path.join(run_dir, "traced")
    with one_cpu():
        _, plain = spawn_worker(os.path.join(run_dir, "plain"), plan, timeout=170)
        _, traced = spawn_worker(traced_dir, dict(plan, trace=True), timeout=170)
        startup = statistics.median(timed_probe("cli")[1] for _ in range(PROBES))
    pool = pool_pair(seed) if cli else None

    failures = gate_run(joblist, traced["records"], read_outputs(traced_dir), pool)
    metrics = dict(traced["layers"])
    metrics["verify.pool_speedup"] = pool["speedup"] if pool else 0.0
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain))

    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    spans = os.path.join(STATE, "traces", f"{workload}-seed{seed}.jsonl")
    shutil.move(os.path.join(traced_dir, "spans.jsonl"), spans)
    return summarize_run(
        metrics, joblist, traced, failures, pool,
        spans_file=os.path.relpath(spans, ROOT),
        span_count=traced["spans"],
        untraced_s=plain["busy_s"],
        traced_s=traced["busy_s"],
    )


# -- reporting ------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


def report(workload: str, seed: int, trace: int, outcome: dict, units: dict) -> None:
    print(f"workload {workload} seed {seed} trace {trace}: {len(outcome['records'])} jobs, "
          f"{outcome['attempted']} checks attempted, {outcome['failed']} failed "
          f"(fail_ratio {outcome['fail_ratio']:.4g})")
    if trace:
        for name, value in sorted(outcome["metrics"].items()):
            print(f"  {name:48s} {value:.6g}")
        print(f"  spans: {outcome['span_count']} in {outcome['spans_file']}")
    else:
        m = outcome["metrics"]
        for name, unit in units.items():
            extra = ""
            if name == "job_tail_ms":
                extra = (f"  (p{outcome['tail_percentile']:.1f}: {outcome['tail_beyond']} of "
                         f"{len(outcome['records'])} samples beyond)")
            raw = outcome["raw_metrics"].get(name)
            if raw is not None:
                extra = f"  (raw {raw:.6g}){extra}"
            print(f"  {name:12s} {m[name]:.6g} {unit}{extra}")
        print(f"  reference    {1000 * outcome['reference_s']:.4g} ms median "
              f"(nominal {1000 * speed.NOMINAL_S:.4g} ms)")
        print(f"  fail_ratio   {outcome['fail_ratio']:.6g} ratio")
        print(f"  output_sha256 {outcome['output_sha256']} (first {outcome['output_jobs']} jobs)")
        if outcome["sharing_share"] is not None:
            print(f"  cache-sharing jobs: {outcome['sharing_share']:.3f} of attempted")
    if outcome.get("caches"):
        for label, info in outcome["caches"].items():
            calls = info["hits"] + info["misses"]
            ratio = info["hits"] / calls if calls else 0.0
            print(f"  {label} cache: {info['hits']} hits / {calls} calls ({ratio:.3f})")
    if outcome.get("pool"):
        pool = outcome["pool"]
        print(f"  pool: {' '.join(pool['argv'])} --jobs 1 {pool['jobs1_s']:.3f} s, "
              f"--jobs 2 {pool['jobs2_s']:.3f} s, identical={pool['identical']}")
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")


def save(workload: str, seed: int, seconds: float, trace: int, outcome: dict) -> str:
    directory = os.path.join(STATE, "results")
    os.makedirs(directory, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(dict(outcome, workload=workload, seed=seed, seconds=seconds, trace=trace,
                       host=machine()), handle)
    return path


def measure(workload: str, seed: int, seconds: float, trace: int) -> int:
    if not os.path.isfile(os.path.join(SRC, "valleydyck", "__init__.py")):
        raise BenchError("run from the root of a valleydyck checkout: src/valleydyck is missing")
    sys.path.insert(0, SRC)  # for the gate, imported only after the timed processes
    metrics = load_benchmark()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    run_dir = os.path.join(STATE, "runs", f"{workload}-{seed}-{trace}-{os.getpid()}")
    try:
        if trace:
            outcome = run_traced(workload, seed, run_dir)
        else:
            outcome = run_measured(workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report(workload, seed, trace, outcome, units)
    print(f"  results: {os.path.relpath(save(workload, seed, seconds, trace, outcome), ROOT)}")
    line = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {n: {"value": outcome["metrics"][n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(line))
    return 0


# -- compare --------------------------------------------------------------------------


def _load_results(directory: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                result = json.load(handle)
            if result.get("trace") == 0:
                by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(dir_a: str, dir_b: str) -> int:
    """Per metric, one row per workload: medians, quartiles, ratio and bound verdict.

    Exits 1 when some metric on some workload is worse than its bound.
    """
    bench = load_benchmark()
    a, b = _load_results(dir_a), _load_results(dir_b)
    worse_any = False
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {bound})")
        print(f"  {'workload':14s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} "
              f"{'B/A':>7s}  verdict")
        for workload in sorted(set(a) | set(b)):
            va = [r["metrics"][name] for r in a.get(workload, [])]
            vb = [r["metrics"][name] for r in b.get(workload, [])]
            if not va or not vb:
                print(f"  {workload:14s} no results in {'A' if not va else 'B'}")
                continue
            (ma, qa1, qa3), (mb, qb1, qb3) = _summary(va), _summary(vb)
            ratio = mb / ma
            worsening = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            worse = worsening > bound
            worse_any |= worse
            print(f"  {workload:14s} {ma:12.5g} [{qa1:8.5g}, {qa3:8.5g}] "
                  f"{mb:12.5g} [{qb1:8.5g}, {qb3:8.5g}] {ratio:7.4f}  "
                  f"{'WORSE than bound' if worse else 'within bound'} (runs {len(va)}/{len(vb)})")
    return 1 if worse_any else 0


# -- self-test ------------------------------------------------------------------------


def self_test() -> int:
    """Gate a few real jobs per workload, then inject one wrong expected value."""
    if not os.path.isdir(os.path.join(SRC, "valleydyck")):
        raise BenchError("run from the root of a valleydyck checkout: src/valleydyck is missing")
    sys.path.insert(0, SRC)
    import worker

    picks = {
        "series_sweep": lambda j: j["table"] in ("geom_3x", "fuss_sym", "delannoy_tuple"),
        "brute_force": lambda j: j["kind"] in ("tau", "path_sum") and j["n"] <= 8,
        "cli_verify": lambda j: j.get("check") in ("render", "enumerate", "oracle"),
    }
    for workload, pick in picks.items():
        chosen = [j for j in joblists.make_jobs(workload, 1) if pick(j)][:3]
        records, outputs = [], {}
        for job in chosen:
            run = worker.run_cli_inprocess if job["kind"] == "cli" else worker.RUNNERS[job["kind"]]
            outputs[job["id"]] = run(job)
            records.append([job["id"], 0.0, None])
        clean = score(chosen, records, outputs)
        faulty = score(chosen, records, outputs, fault_id=chosen[1]["id"])
        if clean or len(faulty) != 1:
            print(f"self-test FAILED on {workload}: clean {clean}, injected {faulty}")
            return 1
        print(f"self-test {workload}: {len(chosen)} jobs pass; "
              f"injected fault counted: {faulty[0]}")
    print("self-test passed")
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so cleanup runs and children are stopped
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        seconds = args.seconds or load_benchmark()["run_seconds"]
        return measure(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
