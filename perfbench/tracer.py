"""In-memory span tracer installed from outside the program.

``install()`` wraps, in a running process, the public functions of the eight
``valleydyck`` modules, the ``Polynomial`` and ``TruncatedSeries`` operators
and every verify check, and rebinds each module-level name that refers to a
wrapped function, so calls made through ``from .x import y`` bindings are
seen too.  Nothing under ``src/`` changes.

Every wrapped call counts as a frame; a layer's self time is the time of its
frames minus the time their child frames cover.  Public-function calls are
also kept as spans (name, start, end, parent span, job id) and written out as
JSON lines when the run ends.  Operator calls and generator steps happen
hundreds of thousands of times per job, so they feed counts and self time
only and are not stored one span each.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# hot public helpers called as sort keys, like the operators: counted and
# self-timed, not stored one span each
_UNRECORDED = {"polynomials.var_key"}

LAYERS = ("polynomials", "series", "paths", "weights", "bijections", "oracles", "verify", "cli")

_POLY_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__pow__", "exact_div", "substitute", "evaluate",
)
_SERIES_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__pow__", "__truediv__", "inverse", "scale", "shift_div_x", "div_poly",
)


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.stack: list[float] = []  # child time accumulated by each open frame
        self.current = None  # index of the innermost open span
        self.job = None
        self._caches: dict = {}
        self._cache_start: dict = {}

    # -- frames ----------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, record: bool, before=None):
        """A wrapper that times ``fn`` as one frame of ``layer``."""
        counts, self_s, stack, spans = self.counts, self.self_s, self.stack, self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args)
            parent = tracer.current
            if record:
                index = len(spans)
                spans.append(None)
                tracer.current = index
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if record:
                    spans[index] = (name, start, end, parent, tracer.job)
                    tracer.current = parent

        return functools.wraps(fn)(traced)

    def wrap_generator(self, layer: str, name: str, fn):
        """Time each step of a generator as a frame and count what it yields."""
        counts, self_s, stack = self.counts, self.self_s, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[name] += 1
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    start = clock()
                    stack.append(0.0)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        self_s[layer] += elapsed - stack.pop()
                        if stack:
                            stack[-1] += elapsed
                    counts[name + ".yielded"] += 1
                    yield item

            return steps()

        return functools.wraps(fn)(traced)

    def job_frame(self, job_id):
        """Context for one benchmark job: a root span outside every layer."""
        return _JobFrame(self, job_id)

    # -- results ---------------------------------------------------------------

    def track_cache(self, label: str, cached_fn) -> None:
        self._caches[label] = cached_fn
        self._cache_start[label] = cached_fn.cache_info()

    def hit_ratio(self, label: str) -> float:
        now, then = self._caches[label].cache_info(), self._cache_start[label]
        hits, misses = now.hits - then.hits, now.misses - then.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


class _JobFrame:
    def __init__(self, tracer: Tracer, job_id):
        self.tracer, self.job_id = tracer, job_id

    def __enter__(self):
        tr = self.tracer
        tr.job = self.job_id
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.current = self.index
        tr.stack.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        end = time.perf_counter()
        tr.stack.pop()
        tr.spans[self.index] = ("job", self.start, end, None, self.job_id)
        tr.current = None
        return False


def _is_public_function(module, name: str, obj) -> bool:
    if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == module.__name__


def install() -> Tracer:
    """Instrument the imported ``valleydyck`` package and return the tracer."""
    import valleydyck.cli  # noqa: F401  (imports every layer)
    from valleydyck import series, verify, weights
    from valleydyck.polynomials import Polynomial
    from valleydyck.series import TruncatedSeries

    tracer = Tracer()
    tracer.track_cache("named_series", series.named_series)
    tracer.track_cache("registry", weights._registry_get_cached)
    counts = tracer.counts
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    for layer in LAYERS:
        module = sys.modules[f"valleydyck.{layer}"]
        for name, obj in list(vars(module).items()):
            if not _is_public_function(module, name, obj):
                continue
            qualified = f"{layer}.{name}"
            if inspect.isgeneratorfunction(obj):
                wrapped = tracer.wrap_generator(layer, qualified, obj)
            elif qualified == "series.solve_fixed_point":
                wrapped = tracer.wrap(layer, qualified, _counting_phi(obj, counts), True)
            elif qualified == "cli.main":
                wrapped = tracer.wrap(layer, qualified, _counting_exits(obj, counts), True)
            else:
                wrapped = tracer.wrap(layer, qualified, obj, qualified not in _UNRECORDED)
            replaced[id(obj)] = (obj, wrapped)

    # rebind every name, in every valleydyck module, that refers to a wrapped function
    for modname, module in list(sys.modules.items()):
        if modname != "valleydyck" and not modname.startswith("valleydyck."):
            continue
        for name, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])

    for name, check in list(verify.CHECKS.items()):
        verify.CHECKS[name] = tracer.wrap("verify", f"verify.check.{name}", check, True)

    def poly_terms(value) -> int:
        if isinstance(value, Polynomial):
            return len(value._terms)
        return 1 if value else 0

    def on_poly_mul(args):
        counts["polynomials.mul_term_pairs"] += poly_terms(args[0]) * poly_terms(args[1])

    def on_poly_add(args):
        counts["polynomials.add_terms_in"] += poly_terms(args[0]) + poly_terms(args[1])

    hooks = {"__mul__": on_poly_mul, "__rmul__": on_poly_mul, "__add__": on_poly_add,
             "__radd__": on_poly_add}
    for op in _POLY_OPS:
        original = Polynomial.__dict__[op]
        setattr(Polynomial, op, tracer.wrap(
            "polynomials", f"polynomials.Polynomial.{op}", original, False, hooks.get(op)))
    for op in _SERIES_OPS:
        original = TruncatedSeries.__dict__[op]
        setattr(TruncatedSeries, op, tracer.wrap(
            "series", f"series.TruncatedSeries.{op}", original, False))
    return tracer


def _counting_phi(solve, counts):
    """solve_fixed_point with the map it is given wrapped to count evaluations."""

    @functools.wraps(solve)
    def solve_counted(phi, order):
        def phi_counted(f):
            counts["series.phi_evals"] += 1
            return phi(f)

        return solve(phi_counted, order)

    return solve_counted


def _counting_exits(main, counts):
    @functools.wraps(main)
    def main_counted(argv=None):
        code = main(argv)
        if code:
            counts["cli.nonzero_exits"] += 1
        return code

    return main_counted


def layer_metrics(tracer: Tracer, check_names) -> dict[str, float]:
    """The per-layer metrics of a traced run, by their benchmark names."""
    c = tracer.counts

    def calls(*names):
        return sum(c[n] for n in names)

    poly = "polynomials.Polynomial."
    ts = "series.TruncatedSeries."
    metrics = {
        "polynomials.mul_calls": calls(poly + "__mul__", poly + "__rmul__"),
        "polynomials.mul_term_pairs": c["polynomials.mul_term_pairs"],
        "polynomials.exact_div_calls": calls(poly + "exact_div"),
        "polynomials.substitute_calls": calls(poly + "substitute"),
        "polynomials.add_calls": calls(poly + "__add__", poly + "__radd__"),
        "polynomials.add_terms_in": c["polynomials.add_terms_in"],
        "series.fixed_point_solves": calls("series.solve_fixed_point"),
        "series.phi_evals": c["series.phi_evals"],
        "series.mul_calls": calls(ts + "__mul__", ts + "__rmul__"),
        "series.inverse_calls": calls(ts + "inverse"),
        "series.named_series_calls": calls("series.named_series"),
        "series.named_series_hit_ratio": tracer.hit_ratio("named_series"),
        "paths.structures_yielded": c["paths.valley_structures.yielded"],
        "paths.family_paths_yielded": c["paths.enumerate_family.yielded"],
        "paths.analyze_calls": calls("paths.analyze"),
        "weights.registry_get_calls": calls("weights.registry_get"),
        "weights.registry_hit_ratio": tracer.hit_ratio("registry"),
        "weights.structure_weight_calls": calls("weights.structure_weight"),
        "weights.path_weight_calls": calls("weights.path_weight"),
        "bijections.decorated_yielded": c["bijections.enumerate_decorated.yielded"],
        "bijections.tau_yielded": c["bijections.enumerate_tau.yielded"],
        "bijections.forward_calls": calls("bijections.forward"),
        "bijections.inverse_calls": calls("bijections.inverse"),
        "oracles.formula_vn_calls": calls("oracles.formula_vn"),
        "verify.checks_run": sum(v for k, v in c.items() if k.startswith("verify.check.")),
        "cli.invocations": calls("cli.main"),
        "cli.nonzero_exits": c["cli.nonzero_exits"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    check_s = dict.fromkeys(check_names, 0.0)
    for name, start, end, _, _ in tracer.spans:
        if name.startswith("verify.check."):
            check_s[name[len("verify.check."):]] += end - start
    for name, seconds in check_s.items():
        metrics[f"verify.check_s.{name}"] = seconds
    return metrics
