"""Command-line front end.

Subcommands mirror the pipeline stages so each is independently
scriptable:

    korncert kernel  --op sym_grad --n 3 --K 2        exact kernel basis
    korncert probe   --op dev_sym_grad --n 2          ellipticity probe
    korncert check   --config run.json [--expect A2]  full certification run
    korncert points  --config run.json                point-measure run
    korncert plot    --config run.json --out dir      run + CSV emission

Exit codes: 0 success, 1 verdict differs from the expected one, 2 config
or schema violation (the message names the offending field), 3 geometry
degeneracy.  Reports are deterministic for a fixed config and seed; the
digest field identifies the payload with timings excluded, so repeated
runs can be compared byte for byte after dropping "timings".

One reader takes every JSON file in and refuses NaN, Infinity and
numbers beyond the float range.  A config is validated once per run,
against the packaged config-schema.json, by a small interpreter of the
keywords it uses, so no JSON Schema library is imported.  Unlike JSON
Schema, it does not count a whole-number float such as 2.0 as an integer.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from .diffop import DiffOperator, builtin_operator, ellipticity_probe, operator_from_json
from .geometry import (
    GeometryError,
    SampleGrid,
    SpecError,
    StarDomain,
    grid_frame,
    interior_points,
    line_points,
    sample_grid,
)
from .kernel import kernel_basis, kernel_dim_profile, kernel_to_json
from .normtest import TraceKind, Verdict, classify, point_measure_test, trace_magnitudes
from .polyalg import format_poly

_DENSE_FACTOR_DEFAULT = 8
_SEED_ENV = "KORNCERT_SEED"
_FLOAT_FMT = "%.17g"

CONFIG_SCHEMA = json.loads(
    resources.files(__package__).joinpath("config-schema.json").read_text(encoding="utf-8")
)
_BUILTIN_NAMES = CONFIG_SCHEMA["$defs"]["builtinOperator"]["properties"]["builtin"]["enum"]

# JSON types.  An "integer" is an int only: unlike JSON Schema, 2.0 is
# not an integer.
_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}
_ANNOTATIONS = ("$schema", "$id", "title", "$defs", "then")


class ConfigError(Exception):
    """Invalid run configuration; maps to exit code 2."""


@contextmanager
def _field(name: str):
    """Turn a ValueError or OverflowError raised in the block into a
    ConfigError naming the config field it came from; a SpecError's key
    extends the name."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        where = f"{name}.{exc.key}" if isinstance(exc, SpecError) else name
        raise ConfigError(f"config field {where}: {exc}") from exc


def _load_json(path: str | Path):
    """The JSON value in a file; NaN, Infinity and numbers beyond the
    float range raise ConfigError.  Finite numbers parse as json does."""

    def finite(text: str) -> float:
        if abs(value := float(text)) < math.inf:
            return value
        raise ConfigError(f"{path}: {text} is not a finite JSON number")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=finite, parse_float=finite)


def _is_type(value, name: str) -> bool:
    # A bool is a Python int, but neither a JSON integer nor a number.
    return isinstance(value, _JSON_TYPES[name]) and (name == "boolean") == isinstance(value, bool)


def _violation(value, schema: dict, path: tuple = ()) -> tuple[tuple, str] | None:
    """The first violation of a part of CONFIG_SCHEMA by a JSON value, as
    (path to the offending value, message), or None.

    Interprets only the keywords config-schema.json uses, with
    jsonschema's messages; $ref points into CONFIG_SCHEMA's $defs.  enum
    and const compare with ==, which cannot tell true from 1; the schema
    enumerates no 0 or 1.  NaN and infinities pass number checks, as in
    jsonschema; _load_json keeps them out of files.  An anyOf gives
    jsonschema's bare message.
    """
    for key, arg in schema.items():
        children = ()  # (value, schema, path) to check next
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, t) for t in types):
                return path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if value not in arg:
                return path, f"{value!r} is not one of {arg!r}"
        elif key == "const":
            if value != arg:
                return path, f"{arg!r} was expected"
        elif key == "minimum":
            if _is_type(value, "number") and value < arg:
                return path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum":
            if _is_type(value, "number") and value <= arg:
                return path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                return path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                return path, f"{value!r} is too long"
        elif key == "required":
            missing = [k for k in arg if k not in value] if isinstance(value, dict) else []
            if missing:
                return path, f"{missing[0]!r} is a required property"
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = [k for k in value if k not in known] if isinstance(value, dict) else []
            if extras and arg is False:
                listed = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                return path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif key == "anyOf":
            if all(_violation(value, sub, path) for sub in arg):
                return path, f"{value!r} is not valid under any of the given schemas"
        elif key == "items":
            if isinstance(value, list):
                children = [(v, arg, (*path, i)) for i, v in enumerate(value)]
        elif key == "properties":
            if isinstance(value, dict):
                children = [(value[k], sub, (*path, k)) for k, sub in arg.items() if k in value]
        elif key == "allOf":
            children = [(value, sub, path) for sub in arg]
        elif key == "if":
            if _violation(value, arg) is None:
                children = [(value, schema["then"], path)]
        elif key == "$ref":
            children = [(value, CONFIG_SCHEMA["$defs"][arg.removeprefix("#/$defs/")], path)]
        elif key not in _ANNOTATIONS:
            raise ValueError(f"schema keyword {key!r} is not supported")
        for child_value, child_schema, child_path in children:
            found = _violation(child_value, child_schema, child_path)
            if found:
                return found
    return None


def _check(value, schema: dict, path: tuple = ()) -> None:
    """Raise a ConfigError for the first violation of schema, a part of
    CONFIG_SCHEMA, by the value found at path."""
    violation = _violation(value, schema, path)
    if violation:
        where, message = violation
        raise ConfigError(f"config field {'.'.join(map(str, where)) or '<root>'}: {message}")


def validate_config(cfg: dict) -> None:
    """Structural and semantic validation; raises ConfigError naming the
    offending field."""
    _check(cfg, CONFIG_SCHEMA)
    test = cfg["test"]
    if test["kind"] == "points":
        if not (test.get("points") or test.get("lines") or "interior" in test):
            raise ConfigError(
                "config field test: points test needs at least one of points, lines, interior"
            )
        if "interior" in test and "domain" not in test:
            raise ConfigError("config field test.domain: interior sampling needs a domain")


def build_operator(spec: dict) -> DiffOperator:
    if spec.get("builtin") == "grad_k" and spec.get("order") is None:
        raise ConfigError("config field operator.order: grad_k needs an order")
    with _field("operator"):
        if "builtin" in spec:
            return builtin_operator(spec["builtin"], spec["n"], order=spec.get("order"))
        return operator_from_json(spec)


def _build_domain(spec: dict, n: int) -> StarDomain:
    with _field("test.domain"):  # OverflowError: an exact value beyond the float range
        dom = StarDomain.from_json(spec)
    if dom.n != n:
        raise ConfigError(f"config field test.domain.n: domain is in R^{dom.n}, operator in R^{n}")
    return dom


def _build_grids(test: dict, dom: StarDomain) -> tuple[SampleGrid, SampleGrid]:
    coarse_spec = test["coarse"]
    with _field("test.coarse"):
        coarse = sample_grid(dom, coarse_spec["counts"], coarse_spec.get("range"))
    dense_spec = test.get("dense", {"counts": [_DENSE_FACTOR_DEFAULT * c for c in coarse.counts]})
    with _field("test.dense"):
        dense = sample_grid(dom, dense_spec["counts"], dense_spec.get("range", coarse_spec.get("range")))
    if dense.ranges != coarse.ranges:
        raise ConfigError("config field test.dense.range: must match the coarse range")
    if not all(dc > cc for cc, dc in zip(coarse.counts, dense.counts)):
        raise ConfigError(
            "config field test.dense.counts: dense grid must be strictly finer than coarse"
        )
    return coarse, dense


def _gather_points(test: dict, n: int, dom: StarDomain | None, default_seed: int) -> list:
    points: list = []
    for p in test.get("points", ()):
        if len(p) != n:
            raise ConfigError(f"config field test.points: point {p} is not in R^{n}")
        with _field("test.points"):  # OverflowError: an integer beyond the float range
            point = np.array(p, dtype=float)
            if not np.isfinite(point).all():
                raise ValueError(f"point {point.tolist()} is not finite")
            points.append(point)
    for line in test.get("lines", ()):
        if len(line["p0"]) != n or len(line["dir"]) != n:
            raise ConfigError(f"config field test.lines: p0 and dir must be in R^{n}")
        with _field("test.lines"):
            points.extend(line_points(line["p0"], line["dir"], line["count"], line["extent"]))
    interior = test.get("interior")
    if interior is not None:
        assert dom is not None  # enforced by validate_config
        points.extend(interior_points(dom, interior["count"], interior.get("seed", default_seed)))
    return points


def _canonical_digest(report: dict) -> str:
    payload = {k: v for k, v in report.items() if k not in ("timings", "digest")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_config(
    cfg: dict | str | Path,
    expect: str | None = None,
    emit_plots: str | None = None,
) -> tuple[dict, int]:
    """Execute a full certification run from a configuration.

    Returns the report dict and the process exit code.  The report is a
    pure function of the config and the effective seed; wall-clock
    timings live under "timings" and are excluded from "digest".
    """
    if isinstance(cfg, (str, Path)):
        cfg = _load_json(cfg)
    validate_config(cfg)
    return _run(cfg, expect, emit_plots)


def _run(cfg: dict, expect: str | None, emit_plots: str | None) -> tuple[dict, int]:
    """run_config on a validated config."""
    seed = cfg.get("seed", 0)
    env_seed = os.environ.get(_SEED_ENV)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"environment {_SEED_ENV}: not an integer") from exc

    op = build_operator(cfg["operator"])
    K = cfg["K"]
    if K < op.order and not cfg.get("allow_low_degree", False):
        raise ConfigError(
            f"config field K: K={K} is below the operator order {op.order}; "
            "the kernel is the whole space (set allow_low_degree to proceed)"
        )
    # The tolerance and probe defaults are the library's.
    tolerances = cfg.get("tolerances", {})

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    probe = ellipticity_probe(op, **cfg.get("probe", {}), seed=seed)
    timings["probe_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kb = kernel_basis(op, K)
    timings["kernel_s"] = time.perf_counter() - t0

    test = cfg["test"]
    t0 = time.perf_counter()
    # The test stage rejects non-finite values itself, so numpy's
    # overflow warnings would only print ahead of that error.
    with np.errstate(over="ignore", invalid="ignore"):
        if test["kind"] == "boundary":
            dom = _build_domain(test["domain"], op.n)
            kind = TraceKind.of(test["trace"])
            if kind is not TraceKind.FULL and op.dimV != dom.n:
                raise ConfigError(
                    f"config field test.trace: {kind.value} trace needs dimV == n, "
                    f"operator has dimV={op.dimV}"
                )
            coarse, dense = _build_grids(test, dom)
            with _field("test"):
                verdict = classify(kb, dom, kind, coarse, dense, **tolerances)
            test_info = {
                "kind": "boundary",
                "trace": kind.value,
                "domain": dom.to_json(),
                "coarse_points": len(coarse),
                "dense_points": len(dense),
            }
        else:
            dom = _build_domain(test["domain"], op.n) if "domain" in test else None
            points = _gather_points(test, op.n, dom, seed)
            with _field("test"):
                verdict = point_measure_test(kb, points, **tolerances)
            test_info = {
                "kind": "points",
                "point_count": len(points),
                "points": [[float(c) for c in p] for p in points],
            }
    timings["test_s"] = time.perf_counter() - t0

    expected = expect if expect is not None else cfg.get("expected")
    report = {
        "schema": "korncert-report/1",
        "config": cfg,
        "operator": op.describe(),
        "ellipticity": {**probe.to_json(), "seed": seed},
        "kernel": {
            "K": K,
            "dim": kb.dim,
            "ambient_dim": kb.m,
            "rank": kb.rank,
            "basis": [format_poly(p) for p in kb.basis],
        },
        "test": test_info,
        "verdict": verdict.to_json(),
        "expected": expected,
        "expected_match": (verdict.tag == expected) if expected else None,
    }

    if test["kind"] == "boundary":
        plots_dir = emit_plots if emit_plots is not None else cfg.get("output", {}).get("plots")
        if plots_dir:
            report["plots"] = emit_plot_data(dom, coarse, dense, kind, verdict, plots_dir)
    report["digest"] = _canonical_digest(report)
    report["timings"] = timings

    report_path = cfg.get("output", {}).get("report")
    if report_path:
        _write_json(report_path, report)

    exit_code = 0
    if expected is not None and verdict.tag != expected:
        exit_code = 1
    return report, exit_code


def _write_json(path: str | Path, obj) -> None:
    """Write obj as indented JSON with a final newline, creating the
    parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def emit_plot_data(
    dom: StarDomain,
    coarse: SampleGrid,
    dense: SampleGrid,
    kind: TraceKind,
    verdict: Verdict,
    outdir: str | Path,
) -> dict:
    """Write boundary.csv (coarse grid geometry) and, when certificates
    exist, residual.csv (per-certificate trace magnitude on the dense
    grid).  Floats carry 17 significant digits."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = dom.n
    theta_cols = ["theta1"] if n == 2 else ["theta1", "theta2"]

    boundary_path = outdir / "boundary.csv"
    _write_csv(
        boundary_path,
        theta_cols + [f"x{i+1}" for i in range(n)] + [f"nu{i+1}" for i in range(n)],
        [coarse.thetas, *grid_frame(dom, coarse)],
    )

    info: dict = {"boundary": str(boundary_path), "residual": None}
    if not verdict.certificates:
        info["note"] = "no certificates; residual.csv not written"
        return info

    residual_path = outdir / "residual.csv"
    mags = trace_magnitudes(verdict.certificates, kind, *grid_frame(dom, dense))
    _write_csv(
        residual_path,
        theta_cols + [f"res_{i+1}" for i in range(len(verdict.certificates))],
        [dense.thetas, mags],
    )
    info["residual"] = str(residual_path)
    return info


def _write_csv(path: Path, header: list[str], blocks: list) -> None:
    """One header row, then the column blocks side by side, every value
    as %.17g, with csv.writer's \r\n line ends.  The values need no
    quoting, so each row is one format string."""
    rows = np.column_stack([np.asarray(b, dtype=float) for b in blocks]).tolist()
    line = ",".join([_FLOAT_FMT] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % tuple(row) for row in rows)


def _print_run_summary(report: dict) -> None:
    op = report["operator"]
    ker = report["kernel"]
    ell = report["ellipticity"]
    ver = report["verdict"]
    print(f"operator    : {op['name']} on R^{op['n']} (order {op['order']}, "
          f"V=R^{op['dimV']} -> W=R^{op['dimW']})")
    print(f"ellipticity : elliptic evidence={ell['elliptic']} "
          f"C-elliptic evidence={ell['c_elliptic']} "
          f"({ell['elliptic_trials']} trials, seed {ell['seed']})")
    if ell["witness"]:
        print(f"witness     : xi={ell['witness']['xi']} v={ell['witness']['v']}")
    print(f"kernel      : dim {ker['dim']} at degree <= {ker['K']}")
    t = report["test"]
    if t["kind"] == "boundary":
        print(f"test        : {t['trace']} trace, {t['domain']['radial']['family']} domain, "
              f"{t['coarse_points']} coarse / {t['dense_points']} dense samples")
    else:
        print(f"test        : point measures at {t['point_count']} points")
    suffix = ""
    if report["expected"]:
        suffix = f"  [expected {report['expected']}: " + (
            "match]" if report["expected_match"] else "MISMATCH]"
        )
    print(f"verdict     : {ver['verdict']} ({len(ver['certificates'])} certificates){suffix}")
    for i, cert in enumerate(ver["certificates"]):
        res = ver["diagnostics"]["residuals"][i]
        text = cert["pretty"]
        if len(text) > 100:
            text = text[:97] + "..."
        print(f"  cert {i+1}    : {text}  (residual {res:.2e})")
    if ver["diagnostics"].get("note"):
        print(f"note        : {ver['diagnostics']['note']}")
    print(f"digest      : {report['digest']}")


def _int_at_least(low: int):
    """argparse type for an integer flag >= low; a bad value exits 2 with
    a message naming the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _add_operator_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--op", help=f"builtin operator name ({', '.join(_BUILTIN_NAMES)})")
    parser.add_argument("--op-file", help="JSON file with a custom operator spec")
    parser.add_argument("--n", type=int, help="ambient dimension for builtin operators")
    parser.add_argument("--order", type=int, help="gradient order for grad_k")


def _operator_from_args(args) -> DiffOperator:
    if bool(args.op) == bool(args.op_file):
        raise ConfigError("give exactly one of --op or --op-file")
    if args.op:
        if args.n is None:
            raise ConfigError("--op needs --n")
        return build_operator({"builtin": args.op, "n": args.n, "order": args.order})
    spec = _load_json(args.op_file)
    _check(spec, CONFIG_SCHEMA["properties"]["operator"], ("operator",))
    return build_operator(spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="korncert",
        description="Exact polynomial kernels of elliptic operators and "
        "norm certificates for sampled trace seminorms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="compute an exact polynomial kernel basis")
    _add_operator_args(p_kernel)
    p_kernel.add_argument("--K", type=_int_at_least(0), required=True, help="degree bound")
    p_kernel.add_argument("--profile", type=_int_at_least(0), metavar="K_MAX",
                          help="also print kernel dimensions for K=0..K_MAX")
    p_kernel.add_argument("--json", help="write the basis as JSON to this path")

    p_probe = sub.add_parser("probe", help="randomized exact ellipticity probe")
    _add_operator_args(p_probe)
    p_probe.add_argument("--trials", type=_int_at_least(1))
    p_probe.add_argument("--seed", type=int)
    p_probe.add_argument("--json", help="write the report as JSON to this path")

    for name, help_text in [
        ("check", "run a certification config (boundary or points)"),
        ("points", "run a point-measure certification config"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--expect", choices=["A1", "A2", "A3"],
                       help="override the config's expected verdict")
        p.add_argument("--emit-plots", metavar="DIR", help="write CSV plot data here")
        p.add_argument("--report", metavar="PATH", help="write the JSON report here")

    p_plot = sub.add_parser("plot", help="run a config and emit CSV plot data")
    p_plot.add_argument("--config", required=True)
    p_plot.add_argument("--out", required=True, metavar="DIR")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "kernel":
        op = _operator_from_args(args)
        kb = kernel_basis(op, args.K)
        print(f"kernel of {op.name} on R^{op.n} at degree <= {args.K}: dim {kb.dim} "
              f"(ambient {kb.m}, rank {kb.rank})")
        for p in kb.basis:
            print("  ", format_poly(p))
        if args.profile is not None:
            profile = kernel_dim_profile(op, args.profile)
            print(f"dim profile K=0..{args.profile}: {list(profile.dims)} "
                  f"(stabilized: {profile.stabilized})")
        if args.json:
            _write_json(args.json, kernel_to_json(kb))
        return 0

    if args.command == "probe":
        op = _operator_from_args(args)
        given = {"trials": args.trials, "seed": args.seed}  # unset flags keep the library's defaults
        report = ellipticity_probe(op, **{k: v for k, v in given.items() if v is not None})
        print(f"operator {op.name} on R^{op.n}:")
        print(f"  elliptic evidence   : {report.elliptic} ({report.elliptic_trials} trials)")
        print(f"  C-elliptic evidence : {report.c_elliptic} ({report.c_elliptic_trials} trials)")
        if report.witness:
            w = report.witness.to_json()
            print(f"  witness             : xi={w['xi']} v={w['v']}")
        if args.json:
            _write_json(args.json, report.to_json())
        return 0

    if args.command in ("check", "points", "plot"):
        cfg = _load_json(args.config)
        validate_config(cfg)
        kind = {"points": "points", "plot": "boundary"}.get(args.command)
        if kind not in (None, cfg["test"]["kind"]):
            raise ConfigError(
                f"config field test.kind: this subcommand needs kind {kind!r}, got {cfg['test']['kind']!r}"
            )
        if args.command == "plot":
            report, code = _run(cfg, None, args.out)
            plots = report.get("plots", {})
            print(f"boundary data : {plots.get('boundary')}")
            print(f"residual data : {plots.get('residual') or plots.get('note')}")
            return code
        report, code = _run(cfg, args.expect, args.emit_plots)
        if args.report:
            _write_json(args.report, report)
        _print_run_summary(report)
        return code

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
