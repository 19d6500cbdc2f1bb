"""Command line front end.

Subcommands: series, count, enumerate, biject, oracle, verify, render.
All results go to standard output; diagnostics and timing go to standard
error.  Exit codes: 0 success, 1 verification failure, 2 usage error.
JSON artifacts written by one invocation can be re-ingested where a flag
accepts ``@file`` (weight specs for series/count, paths for render,
decorated objects for biject --apply).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable

from .errors import ValleyDyckError
from .paths import FAMILY_STEPS, FILTERS

if TYPE_CHECKING:
    from .polynomials import Polynomial, Scalar
    from .weights import WeightSpec

# the parser is built from these names, not from the layers, so that a
# subcommand loads only what it runs (each handler imports its own layers);
# tests hold them equal to ``bijections.MAPS`` and ``verify.SUITES``
MAP_NAMES = ("phi", "theta", "sigma", "rho", "psi", "tau")
SUITE_NAMES = ("all", "bijections", "chebyshev", "closed_forms", "delannoy", "fuss", "master",
               "motzkin", "narayana", "oracles", "schroder", "weights")

DEFAULT_ORDER = 12
ENUMERATE_BATCH = 2048  # paths held at once by enumerate
SERIES_JSON_BATCH = 1024  # terms of one coefficient dumped at once by series --format json

# each command's size flag, the option naming its input, and per input the
# largest size that ran within an 8 s budget when measured (CHANGES.md), but
# for the five solved tables: symbolic, series at motzkin_ab 204,
# schroder_large_q 142, schroder_small_q 146, narayana_t 141 and
# narayana_shift_t 143 takes 8.8-10.5 s in one process on a shared 2-vCPU VM
# (median of 3; another set read 10.2-12.6 s, as the VM's load moves them;
# pinned, 0.08-0.12 s). A spec file, which has no cap of its own, is held
# to the lowest cap of its command. The series caps name every weight table (a
# test holds them equal to ``weights.REGISTRY``), so count takes its keys from them
_SERIES_CAPS = {
    "generic": 19, "geom_3x": 1405, "geom_fib": 1277, "motzkin_ab": 204,
    "schroder_large_q": 142, "schroder_small_q": 146, "narayana_t": 141,
    "narayana_shift_t": 143, "chebyshev_abcd": 45, "chebyshev_second": 71,
    "delannoy_tuple": 829, "fuss_sym": 859, "fuss_asym": 789, "fuss_cubic": 775,
}
SIZE_CAPS = {
    "series": ("order", "spec", _SERIES_CAPS),
    "count": ("n", "spec", dict.fromkeys(_SERIES_CAPS, 14)
              | dict.fromkeys(("generic", "chebyshev_abcd", "chebyshev_second"), 13)),
    "enumerate": ("n", "family", {
        "dyck": 11, "motzkin": 14, "schroder_large": 9, "schroder_small": 9, "delannoy": 7,
    }),
    "oracle": ("n", "name", {
        "catalan": 7057, "fibonacci": 19965, "motzkin_ab": 5179, "schroder_large": 2481,
        "schroder_small": 2005, "narayana": 3047, "chebyshev_u": 4570, "delannoy": 2509,
        "fuss": 4302, "geom_3x": 8873, "geom_fib": 10285, "motzkin_diff": 3336,
        "schroder_large_diff": 1803, "schroder_small_diff": 1530, "narayana_diff": 2330,
        "narayana_shift_diff": 2091, "chebyshev_closed": 107, "abcd_power": 8873,
        "abcd_chebyshev": 5511, "abcd_fibonacci": 10285, "chebyshev_second": 378,
        "delannoy_convolution": 460, "fuss_sym": 3405, "fuss_asym": 602,
        "fuss_asym_collapse": 4302, "fuss_cubic": 637, "fuss_cubic_collapse": 4302,
    }),
    "verify": ("max_n", "suite", dict.fromkeys(SUITE_NAMES, 33)),
}
# two inputs have a size but no size flag, and JSON nested too deeply is
# refused too: a tau object's semilength for biject --apply (at 150,000 its
# worst shape, one factor per 2 units, took 1.1 s and 110 MB) and a render
# picture's (highest level + 1) x width cells (at 600,000 one flat row, drawn
# into one buffer per level, took 0.4 s and 24 MB, U^547 D^547 0.06 s and 16 MB);
# one fresh process, median of 3, within 8 s and the 125 MB CI holds generic JSON to
TAU_SEMILENGTH_CAP = 150_000
RENDER_CELL_CAP = 600_000


def _parse_params(pairs: list[str] | None) -> dict[str, str]:
    # each value is read where it is used, by ``params._read``, which names its table
    params: dict[str, str] = {}
    for pair in pairs or []:
        key, eq, value = pair.partition("=")
        if not eq:
            raise ValleyDyckError(f"--param needs key=value, got {pair!r}")
        if key in params:
            raise ValleyDyckError(f"--param {key} is given more than once")
        params[key] = value
    return params


def _load_json(reference: str) -> dict:
    import json

    if reference.lstrip().startswith("{") or reference.lstrip().startswith("["):
        return json.loads(reference)
    with open(reference[1:] if reference.startswith("@") else reference) as handle:
        return json.load(handle)


def _tables(name: str, order: int, params: dict[str, str]) -> Callable[[int], WeightSpec]:
    """Check the request for the table ``name`` at ``order``, and return the
    function that gives its table at any order up to that one."""
    from .weights import WeightSpec, _pin_params, registry_builder

    if not name.startswith("@"):
        return registry_builder(name, order, **params)
    if order < 0:  # refused as registry_get refuses it for a name
        raise ValleyDyckError("order must be nonnegative")
    spec = _read_object(WeightSpec.from_json, name, "--spec")
    if spec.order < order:
        raise ValleyDyckError(
            f"spec file holds order {spec.order}, but order {order} was requested"
        )
    return _pin_params(spec.truncated(order), params, f"{name} at order {order}").truncated


def _flatten(value: Polynomial | Scalar) -> str:
    """A number, or a polynomial that must be a constant, as csv writes it."""
    from .polynomials import Polynomial

    if type(value) is not Polynomial:
        return str(value)
    # the table is pinned to every numeric --param already, so a variable left is symbolic
    if not value.is_constant:
        raise ValleyDyckError(
            f"csv output needs every parameter bound; {value.variables()} remain symbolic"
        )
    return str(value.scalar)


def _refuse_symbolic_early(tables: Callable[[int], WeightSpec], order: int) -> None:
    """Refuse a symbolic series coefficient, as ``_flatten`` would, before the
    table at ``order`` is read: tables and series are truncation-consistent,
    so the series of the tables at orders 1, 2, 4, ... below it meet the first
    one, and a table of numbers has a series of numbers."""
    from .series import valley_series

    low = 1
    while low < order:
        spec = tables(low)
        if not spec.is_numeric():
            for coeff in valley_series(*spec.to_series()).stored:
                _flatten(coeff)
        low *= 2


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_series(args) -> int:
    import json
    from pathlib import Path as FilePath

    from .series import valley_series

    params = _parse_params(args.param)
    tables = _tables(args.spec, args.order, params)
    if args.dump_spec:  # the whole table is built and written first
        spec = tables(args.order)
        FilePath(args.dump_spec).write_text(json.dumps(spec.to_json(), indent=2) + "\n")
        tables = spec.truncated
    if args.format == "csv":
        _refuse_symbolic_early(tables, args.order)
    series = valley_series(*tables(args.order).to_series())
    if args.format == "json":
        _write_series_json(series)
    elif args.format == "csv":
        _emit("\n".join(["n,value"] + [f"{n},{_flatten(c)}" for n, c in enumerate(series.stored)]))
    else:
        _emit(series.pretty())
    return 0


def _write_series_json(series) -> None:
    """Write json.dumps(series.to_json(), indent=2) one coefficient at a time and
    each coefficient's terms ``SERIES_JSON_BATCH`` at a time, so that no whole
    document or coefficient text is held: a batch's dump without its brackets
    sits two levels deep, so its lines are indented by four more spaces."""
    import json

    from .polynomials import _coeff_json

    write = sys.stdout.write
    write(f'{{\n  "order": {series.order},\n  "coeffs": [\n')
    for n, coeff in enumerate(series.stored):
        terms = _coeff_json(coeff)
        write((",\n    " if n else "    ") + ("[\n" if terms else "[]"))
        for i in range(0, len(terms), SERIES_JSON_BATCH):
            batch = terms[i : i + SERIES_JSON_BATCH]
            text = json.dumps(batch, indent=2)[2:-2].replace("\n", "\n    ")
            write((",\n    " if i else "    ") + text)
        if terms:
            write("\n    ]")
    write("\n  ]\n}\n")


def _cmd_count(args) -> int:
    import json
    from pathlib import Path as FilePath

    from .weights import valley_weight_sum

    params = _parse_params(args.param)
    spec = _tables(args.spec, args.n, params)(args.n)
    value = valley_weight_sum(args.n, spec)
    if args.dump_spec:
        FilePath(args.dump_spec).write_text(json.dumps(spec.to_json(), indent=2) + "\n")
    if args.format == "json":
        _emit(json.dumps({"n": args.n, "value": value.to_json()}, indent=2))
    elif args.format == "csv":
        _emit("n,value\n" + f"{args.n},{_flatten(value)}")
    else:
        _emit(str(value))
    return 0


def _cmd_enumerate(args) -> int:
    # the paths are written in batches as they are enumerated, so memory stays
    # flat; each batch is joined as the whole listing would be, and the layout
    # is (opening, separator, closing, the text when there is no path)
    import json
    from itertools import islice

    from .paths import enumerate_family, render_ascii

    paths = enumerate_family(args.family, args.n, args.filter)
    if args.format == "json":
        # json.dumps(items, indent=2) is "[\n", the items joined by ",\n", "\n]"
        join = lambda batch: json.dumps([p.to_json() for p in batch], indent=2)[2:-2]
        layout = ("[\n", ",\n", "\n]", "[]")
    elif args.format == "ascii":
        join, layout = lambda batch: "\n\n".join(map(render_ascii, batch)), ("", "\n\n", "", "")
    elif args.format == "csv":
        join = lambda batch: "\n".join(f"{p.family},{p.steps}" for p in batch)
        layout = ("family,steps\n", "\n", "", "family,steps")
    else:  # steps
        join, layout = lambda batch: "\n".join(p.steps for p in batch), ("", "\n", "", "")
    opening, separator, closing, empty = layout
    count = 0
    while batch := list(islice(paths, ENUMERATE_BATCH)):
        sys.stdout.write((separator if count else opening) + join(batch))
        count += len(batch)
    # no listing ends in a newline (render_ascii strips its rows), so one follows
    sys.stdout.write((closing if count else empty) + "\n")
    sys.stderr.write(f"{count} paths\n")
    return 0


def _cmd_oracle(args) -> int:
    import json

    from .oracles import oracle

    value = oracle(args.name, args.n, **_parse_params(args.param))
    try:
        if args.format == "json":
            text = json.dumps({"name": args.name, "n": args.n, "value": value.to_json()}, indent=2)
        else:
            text = str(value)
    except ValueError:  # past the interpreter's cap on turning an int into text
        raise ValleyDyckError(
            f"oracle {args.name} at n = {args.n} gives a number of more than "
            f"{sys.get_int_max_str_digits()} digits, more than can be printed"
        ) from None
    _emit(text)
    return 0


def _read_object(parse, reference: str, flag: str):
    """Build the object a ``@FILE`` or ``--apply`` input holds; malformed JSON is a usage error."""
    try:
        data = _load_json(reference)
    except RecursionError:
        raise ValleyDyckError(f"{flag} JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValleyDyckError(f"{flag} needs a JSON object, got {type(data).__name__}")
    try:
        return parse(data)
    except KeyError as exc:
        raise ValleyDyckError(f"{flag} JSON lacks the key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValleyDyckError(f"{flag} JSON has the wrong shape: {exc}") from None
    except ValleyDyckError:
        raise
    except (ValueError, ArithmeticError) as exc:  # a bad number: "abc", "1/0", an overflow
        raise ValleyDyckError(f"{flag} JSON: {exc}") from None


def _decorated_from_json(data: dict):
    from .bijections import DecoratedStructure, TauDecorated

    return (TauDecorated if "side" in data else DecoratedStructure).from_json(data)


def _note_clamps(report) -> None:
    """Say on stderr which checks stopped below the requested bound."""
    for r in report.results:
        if r.bound < report.max_n:
            sys.stderr.write(f"note: {r.name} checked n <= {r.bound}, not {report.max_n}\n")


def _cmd_biject(args) -> int:
    if args.roundtrip:
        if args.apply:
            raise ValleyDyckError("biject takes --roundtrip or --apply, not both")
        if args.n is None:
            raise ValleyDyckError("--roundtrip needs --n")
        from .verify import run_check

        check = "tau_exchange" if args.map == "tau" else f"bijection_{args.map}"
        report = run_check(check, args.n)
        _emit(f"{report.results[0].status.upper()} {check}")
        _note_clamps(report)
        return 0 if report.passed else 1
    if not args.apply:
        raise ValleyDyckError("biject needs --roundtrip or --apply")
    import json

    from .bijections import TauDecorated, forward, inverse
    from .paths import Path

    if args.direction == "inverse":
        parse = TauDecorated.from_json if args.map == "tau" else Path.from_json
    else:
        parse = _decorated_from_json
    obj = _read_object(parse, args.apply, "--apply")
    if isinstance(obj, TauDecorated):  # its blocks are bare numbers, which tau spells out
        size = sum(f.ascent + sum(f.heights) for f in obj.factors)
        if size > TAU_SEMILENGTH_CAP:
            raise ValleyDyckError(f"--apply holds a tau object of semilength {size}, "
                                  f"above its cap of {TAU_SEMILENGTH_CAP}")
    result = (inverse if args.direction == "inverse" else forward)(args.map, obj)
    _emit(json.dumps(result.to_json(), indent=2))
    return 0


def _cmd_verify(args) -> int:
    import json
    import time

    from .verify import run_suite

    started = time.monotonic()
    report = run_suite(args.suite, args.max_n, jobs=args.jobs)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2))
    else:
        width = max(len(r.name) for r in report.results)
        lines = [f"suite {report.suite} (max n {report.max_n})"]
        for r in report.results:
            line = f"  {r.status.upper()}  {r.name.ljust(width)}"
            if r.detail:
                line += f"  {r.detail}"
            lines.append(line.rstrip())
        lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
        _emit("\n".join(lines))
    _note_clamps(report)
    sys.stderr.write(f"wall time {time.monotonic() - started:.2f}s\n")
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    from .paths import Path, render_ascii

    if args.path.startswith("@"):
        path = _read_object(Path.from_json, args.path, "--path")
    else:
        path = Path(args.family, args.path)
    cells = (max(path.levels()) + 1) * path.width
    if cells > RENDER_CELL_CAP:
        raise ValleyDyckError(f"--path draws {cells} cells, above its cap of {RENDER_CELL_CAP}")
    _emit(render_ascii(path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valleydyck",
        description="Exact valley-uniform weighted Dyck path toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    fmt = dict(choices=("pretty", "json", "csv"), default="pretty")

    p = sub.add_parser("series", help="generating function of a weight table")
    p.add_argument("--spec", required=True, help="registry name or @spec.json")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--format", **fmt)
    p.add_argument("--dump-spec", metavar="FILE", help="also write the weight table JSON")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("count", help="weight sum over all valley structures of size n")
    p.add_argument("--spec", required=True)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", **fmt)
    p.add_argument("--dump-spec", metavar="FILE")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("enumerate", help="list a path family exhaustively")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_STEPS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", default="none", choices=FILTERS)
    p.add_argument("--format", choices=("steps", "json", "ascii", "csv"), default="steps")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("biject", help="run or apply one of the six bijections")
    p.add_argument("--map", required=True, choices=MAP_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--apply", metavar="@FILE")
    p.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p.set_defaults(fn=_cmd_biject)

    p = sub.add_parser("oracle", help="closed-form sequence and formula values")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="ascii picture of a path")
    p.add_argument("--path", required=True, help="step string or @path.json")
    p.add_argument("--family", default="dyck", choices=sorted(FAMILY_STEPS))
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")
    try:
        if args.command in SIZE_CAPS:
            dest, key, caps = SIZE_CAPS[args.command]
            value, cap = getattr(args, dest), caps.get(getattr(args, key), min(caps.values()))
            if value > cap:
                raise ValleyDyckError(f"--{dest.replace('_', '-')} {value} is above its cap of {cap}")
        return args.fn(args)
    except (ValleyDyckError, OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
