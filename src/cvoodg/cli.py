"""Batch command-line interface.

Four subcommands: ``bound`` samples a coherent-state bound curve over a
mean-photon-number grid, ``extend`` evaluates a state-extension bound,
``verify`` runs the brute-force verification suites, and ``sweep`` crosses
an eps0 grid with a state grid. ``bound`` and ``sweep`` write CSV or JSON,
``extend`` and ``verify`` write JSON, all with 17-significant-digit numbers,
so identical configurations reproduce byte-identical files. Each subcommand
takes only the flags it reads.

Exit codes: 0 success, 1 verification violation, 2 invalid configuration,
a quadrature that did not converge or a numerical result out of range,
3 trivial bound under --fail-on-trivial.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from . import oracle, state_bounds
from .coherent_bounds import (
    CURVE_CONSTRUCTORS,
    BoundCurve,
    InDistributionGuarantee,
    combined_with_step,
    concave_hull,
    linspace,
    universal_point,
)
from .cvcore import QuadratureError
from .state_bounds import finite_float

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_TRIVIAL = 3

CSV_BOUND_SCHEMA = "cvoodg.bound.v1"
CSV_SWEEP_SCHEMA = "cvoodg.sweep.v1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _check_curve_tag(tag: str) -> None:
    # Checked before any guarantee is built, so an unknown class is reported
    # ahead of a bad eps0 or tau.
    if tag not in CURVE_CONSTRUCTORS:
        raise ValueError(f"unknown curve class {tag!r}; choose from {sorted(CURVE_CONSTRUCTORS)}")


def _build_curve(tag: str, g: InDistributionGuarantee, reach: float) -> BoundCurve:
    if tag == "cubic_phase":
        # The cubic-phase curve is hulled on an internal grid; size it to the
        # requested range so the extension segment is never exercised.
        return CURVE_CONSTRUCTORS[tag](g, nbar_max=max(reach, 20.0))
    return CURVE_CONSTRUCTORS[tag](g)


def _concavified_curve(tag: str, g: InDistributionGuarantee, hull_max: float,
                       hull_points: int) -> BoundCurve:
    curve = _build_curve(tag, g, hull_max)
    if not curve.concavified:
        curve = concave_hull(curve, hull_max, hull_points)
    return curve


def _report_json(report, state: str, curve: str, eps0: float, tau: float) -> dict:
    """A state-extension report as the JSON of extend and of a sweep row."""
    payload = report.as_json()
    payload.update(schema="cvoodg.bound_report.v1", state=state, curve=curve, eps0=eps0, tau=tau)
    return payload


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if args.nbar_max <= 0:
        raise ValueError("--nbar-max must be positive")
    _check_curve_tag(args.cls)
    g = InDistributionGuarantee(eps0=args.eps0, tau=args.tau)
    curve = _build_curve(args.cls, g, max(args.nbar_max, args.hull_max))
    if args.concavify and not curve.concavified:
        curve = concave_hull(curve, args.hull_max, args.hull_points)
    if args.combined:
        curve = combined_with_step(curve)
    grid = linspace(args.nbar_max, args.points)

    # The pointwise universal bound reports its s per point (null where the
    # ceiling certificate ran no s-search).
    pointwise_universal = args.cls == "universal" and not args.combined and not args.concavify
    if pointwise_universal:
        values, per_point_s = zip(*(universal_point(g, math.sqrt(nbar)) for nbar in grid))
    else:
        values = [curve(nbar) for nbar in grid]

    if args.format == "csv":
        out = io.StringIO()
        out.write(f"# schema={CSV_BOUND_SCHEMA}\n")
        out.write("nbar,epsilon,class,eps0,tau\n")
        for nbar, value in zip(grid, values):
            out.write(
                f"{_fmt(nbar)},{_fmt(value)},{curve.class_tag},"
                f"{_fmt(args.eps0)},{_fmt(args.tau)}\n"
            )
        _write_output(out.getvalue(), args.output)
    else:
        payload = {
            "schema": "cvoodg.curve.v1",
            "class_tag": curve.class_tag,
            "eps0": args.eps0,
            "tau": args.tau,
            "concavified": curve.concavified,
            "grid": [[n, v] for n, v in zip(grid, values)],
        }
        if pointwise_universal:
            payload["per_point_s"] = per_point_s
        _write_output(_json_dump(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def cmd_extend(args) -> int:
    spec = state_bounds.parse_state_spec(args.state)
    _check_curve_tag(args.curve)
    g = InDistributionGuarantee(eps0=args.eps0, tau=args.tau)
    curve = _concavified_curve(args.curve, g, args.hull_max, args.hull_points)
    report = state_bounds.extend(curve, spec)
    payload = _report_json(report, args.state, args.curve, args.eps0, args.tau)
    _write_output(_json_dump(payload), args.output)
    if args.fail_on_trivial and report.value >= 2.0:
        return EXIT_TRIVIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    # --class restricts the dominance suite, and --curve-scale and --seed
    # scale the curves and draw the random pairs of the dominance suite
    # (alone or within all); no other suite reads them, so they are rejected
    # rather than silently ignored.
    if args.cls is not None and args.suite != "dominance":
        raise ValueError("--class applies only to --suite dominance")
    if args.curve_scale != 1.0 and args.suite not in ("dominance", "all"):
        raise ValueError("--curve-scale applies only to --suite dominance or all")
    if args.seed is not None and args.suite not in ("dominance", "all"):
        raise ValueError("--seed applies only to --suite dominance or all")
    seed = 0 if args.seed is None else args.seed
    g = InDistributionGuarantee(eps0=args.eps0, tau=args.tau)
    classes = oracle.SUPPORTED_CLASSES if args.cls is None else (args.cls,)
    reports = oracle.run_suites(
        args.suite, g, seed=seed, curve_scale=args.curve_scale, classes=classes
    )
    all_pass = all(r.passed for r in reports)
    payload = {
        "schema": "cvoodg.verification_report.v1",
        "status": "pass" if all_pass else "fail",
        "seed": seed,
        "eps0": args.eps0,
        "tau": args.tau,
        "curve_scale": args.curve_scale,
        "suites": [r.as_json() for r in reports],
    }
    _write_output(_json_dump(payload), args.output)
    if not all_pass:
        worst = [
            a.as_json()
            for r in reports
            for a in r.assertions
            if a.status == "fail"
        ]
        sys.stderr.write(
            "verification FAILED; worst points: "
            + json.dumps([w["worst_point"] for w in worst])
            + "\n"
        )
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    eps0_values = [finite_float(v) for v in args.eps0_grid.split(",") if v.strip()]
    state_texts = [t.strip() for t in args.states.split(",") if t.strip()]
    specs = [state_bounds.parse_state_spec(t) for t in state_texts]
    if not eps0_values or not specs:
        raise ValueError("sweep requires non-empty --eps0-grid and --states")
    _check_curve_tag(args.curve)

    curves = {
        eps0: _concavified_curve(
            args.curve, InDistributionGuarantee(eps0=eps0, tau=args.tau),
            args.hull_max, args.hull_points,
        )
        for eps0 in eps0_values
    }
    results = [
        (text, spec, eps0, state_bounds.extend(curves[eps0], spec))
        for text, spec in zip(state_texts, specs)
        for eps0 in eps0_values
    ]

    if args.format == "csv":
        out = io.StringIO()
        out.write(f"# schema={CSV_SWEEP_SCHEMA}\n")
        out.write("state,nbar,epsilon,class,eps0,tau,s,M,kappa\n")
        for text, spec, eps0, report in results:
            params = report.chosen_params
            s = "" if params is None or params.s is None else _fmt(params.s)
            m = "" if params is None or params.M is None else str(params.M)
            kappa = "" if params is None or params.kappa is None else _fmt(params.kappa)
            out.write(
                f"{text},{_fmt(spec.nbar)},{_fmt(report.value)},"
                f"{args.curve},{_fmt(eps0)},{_fmt(args.tau)},{s},{m},{kappa}\n"
            )
        _write_output(out.getvalue(), args.output)
    else:
        rows = [_report_json(report, text, args.curve, eps0, args.tau)
                for text, spec, eps0, report in results]
        _write_output(_json_dump({"schema": "cvoodg.sweep.v1", "rows": rows}), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and config-file precedence
# ---------------------------------------------------------------------------

_STATE_SYNTAX = "one of " + ", ".join(
    f"{name}:{kind.syntax}" for name, kind in state_bounds.STATE_KINDS.items()
) + " (an underscore may stand for a hyphen)"


def _add_guarantee_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps0", type=finite_float, default=0.1, help="in-distribution error bound")
    p.add_argument("--tau", type=finite_float, default=1.0, help="amplitude radius of the guarantee")


def _add_hull_flags(p: argparse.ArgumentParser) -> None:
    where = ("used only where a hull is built (extend/sweep on a non-concave curve, "
             "bound --concavify)")
    p.add_argument("--hull-max", dest="hull_max", type=finite_float, default=40.0,
                   help=f"nbar ceiling of the concave-hull grid, {where}; also a "
                        "floor on the nbar reach of the cubic_phase curve")
    p.add_argument("--hull-points", dest="hull_points", type=int, default=241,
                   help=f"number of concave-hull grid points, {where}")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="key=value config file (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvoodg",
        description="Certified output-distance bounds for learned CV channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="sample a coherent-state bound curve")
    p_bound.add_argument("--class", dest="cls", required=True)
    _add_guarantee_flags(p_bound)
    p_bound.add_argument("--nbar-max", dest="nbar_max", type=finite_float, default=20.0)
    p_bound.add_argument("--points", type=int, default=200)
    p_bound.add_argument("--combined", action="store_true",
                         help="report min(curve, step) instead of the named formula")
    p_bound.add_argument("--concavify", action="store_true",
                         help="replace the curve by its upper concave hull")
    p_bound.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_hull_flags(p_bound)
    _add_common_flags(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_extend = sub.add_parser("extend", help="extend a curve to a general input state")
    p_extend.add_argument("--state", required=True, help=f"state spec, {_STATE_SYNTAX}")
    p_extend.add_argument("--curve", required=True)
    _add_guarantee_flags(p_extend)
    p_extend.add_argument("--fail-on-trivial", dest="fail_on_trivial", action="store_true")
    _add_hull_flags(p_extend)
    _add_common_flags(p_extend)
    p_extend.set_defaults(func=cmd_extend)

    p_verify = sub.add_parser("verify", help="run brute-force verification suites")
    p_verify.add_argument("--suite", required=True,
                          help="dominance | gamma-closed-form | mu-nu | delta-s | "
                               "concavity-limits | all")
    p_verify.add_argument("--class", dest="cls", default=None,
                          help="restrict the dominance suite to one channel class")
    _add_guarantee_flags(p_verify)
    p_verify.add_argument("--curve-scale", dest="curve_scale", type=finite_float, default=1.0,
                          help="scale factor applied to curves (negative-control fixture)")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the dominance suite's random pairs (default 0)")
    _add_common_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="cross an eps0 grid with a state grid")
    p_sweep.add_argument("--eps0-grid", dest="eps0_grid", required=True,
                         help="comma-separated eps0 values")
    p_sweep.add_argument("--states", required=True,
                         help=f"comma-separated state specs, each {_STATE_SYNTAX}")
    p_sweep.add_argument("--curve", required=True)
    p_sweep.add_argument("--tau", type=finite_float, default=1.0)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_hull_flags(p_sweep)
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _subcommand_options(parser: argparse.ArgumentParser, command: str) -> dict | None:
    """Option string -> argparse action, for one subcommand; None if there is
    no such subcommand."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sub = subparsers.choices.get(command)
    return None if sub is None else sub._option_string_actions


def _config_path(rest: list[str]) -> str | None:
    """The --config value among a subcommand's arguments, found before the
    full parse so that the file can supply required flags."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    return pre.parse_known_args(rest)[0].config


def _config_tokens(path: str, options: dict) -> list[str]:
    """The key=value lines of a config file as command-line flags: ``--key=value``,
    or a bare ``--key`` for a true store_true flag. Keys that are not flags of
    the subcommand are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)
        if action is None:
            continue
        if action.nargs == 0:
            if value.lower() not in _CONFIG_BOOLS:
                raise ValueError(
                    f"config line {lineno}: {key} must be true or false, got {value!r}"
                )
            if _CONFIG_BOOLS[value.lower()]:
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # Config precedence: explicit flags > config file > parser defaults.
        # The file's flags go first, so any explicit flag parsed after them wins.
        command, rest = argv[:1], argv[1:]
        options = _subcommand_options(parser, argv[0]) if argv else None
        path = None if options is None else _config_path(rest)
        tokens = _config_tokens(path, options) if path else []
        args = parser.parse_args([*command, *tokens, *rest])
        return args.func(args)
    except (ValueError, OSError, QuadratureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
