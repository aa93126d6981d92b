"""Command-line interface.

Subcommands:
  isjp     print one interpolation polynomial as JSON
  hw       print highest-weight data for a Borel or an ordering, or the
           closed-form table as CSV
  tau      print an affine eigenvalue map as JSON
  eig      print one eigenvalue, optionally through a Borel's affine map
  orbit    explore the equivalence orbit of a point
  verify   run an exhaustive sweep and write a JSON report
  example  regenerate a frozen worked example
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .borel import BorelDescriptor, format_symbol, parse_symbol, validate_sequence
from .equivalence import DEFAULT_BUDGET, orbit
from .exact_linalg import format_rational, parse_rational
from .isjp import eigenvalue, interpolation_polynomial
from .partitions import (
    format_partition,
    frobenius_coords,
    parse_int_list,
    parse_partition,
)
from .tau import MAP_FAMILIES, family_map, standard_map
from .verify import PAIR_CHOICES, SweepConfig, reproduce_example, run_sweep
from .weights import (
    diag_highest_weight,
    highest_weight,
    hw_standard_doubled,
    is_generic,
    truncated_root_sum,
)


def _parsed(flag: str, parse, text: str):
    """parse(text), with a ValueError re-raised naming the flag."""
    try:
        return parse(text)
    except ValueError as error:
        raise ValueError(f"{flag}: {error}") from None


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(p) for p in text.split(","))


def _borel(args) -> BorelDescriptor:
    ell = _parsed("--borel", parse_int_list, args.borel)
    return BorelDescriptor(args.m, args.n, ell)


def _emit(payload, out_path: str | None) -> None:
    """Write payload as JSON to out_path, or to stdout when no path is given."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise ValueError(f"--out: {error}") from None


def _cmd_isjp(args) -> int:
    theta = _parsed("--theta", parse_rational, args.theta)
    lam = _parsed("--lambda", parse_partition, args.lam)
    poly = interpolation_polynomial(args.m, args.n, theta, lam)
    payload = poly.to_json_dict()
    payload["lambda"] = format_partition(lam)
    payload["theta"] = format_rational(theta)
    _emit(payload, args.out)
    return 0


def _cmd_hw(args) -> int:
    if args.table:
        sys.stdout.write(_closed_form_csv(args.max))
        return 0
    lam = _parsed("--lambda", parse_partition, args.lam)
    if args.seq is not None:
        seq = validate_sequence(
            tuple(parse_symbol(p) for p in args.seq.split(",")), args.m, args.n
        )
        w, rho = diag_highest_weight(seq, lam, args.m, args.n, dual=args.dual)
        payload = {
            "lambda": format_partition(lam),
            "seq": [format_symbol(symbol) for symbol in seq],
            "dual": args.dual,
            "hw": w.to_json_dict(),
            "rho": rho.to_json_dict(),
        }
        _emit(payload, args.out)
        return 0
    if args.borel is None:
        sys.stderr.write("hw: provide --borel, --seq, or --table\n")
        return 2
    borel = _borel(args)
    payload = {
        "lambda": format_partition(lam),
        "ell": list(borel.ell),
        "hw_standard": hw_standard_doubled(lam, args.m, args.n).to_json_dict(),
        "truncated_root_sum": truncated_root_sum(lam, borel).to_json_dict(),
        "hw_borel": highest_weight(lam, borel).to_json_dict(),
        "generic": is_generic(lam, borel),
    }
    _emit(payload, args.out)
    return 0


def _closed_form_csv(max_entry: int) -> str:
    table = reproduce_example("gl22_table", max_entry)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["lambda", "hw_standard", "hw_borel", "matches"])
    for row in table["rows"]:
        writer.writerow(
            [
                row["lambda"],
                " ".join(row["hw_standard"]),
                " ".join(row["hw_borel"]),
                str(row["matches"]).lower(),
            ]
        )
    return buffer.getvalue()


def _cmd_tau(args) -> int:
    if args.family == "std":
        affine = standard_map(args.m, args.n)
        payload = affine.to_json_dict()
        payload["family"] = "std"
    else:
        if args.borel is None:
            sys.stderr.write("tau: --borel is required unless --family std\n")
            return 2
        borel = _borel(args)
        affine = family_map(borel, args.family)
        payload = affine.to_json_dict()
        payload["family"] = args.family
        payload["ell"] = list(borel.ell)
    _emit(payload, args.out)
    return 0


def _cmd_eig(args) -> int:
    theta = _parsed("--theta", parse_rational, args.theta)
    mu = _parsed("--mu", parse_partition, args.mu)
    lam = _parsed("--lambda", parse_partition, args.lam)
    if args.borel is not None:
        if theta != Fraction(1, 2):
            sys.stderr.write("eig: --borel requires theta 1/2\n")
            return 2
        borel = _borel(args)
        point = family_map(borel, args.map).apply(highest_weight(lam, borel))
        value = interpolation_polynomial(args.m, args.n, theta, mu).evaluate(point)
    else:
        value = eigenvalue(mu, lam, args.m, args.n, theta)
    payload = {
        "mu": format_partition(mu),
        "lambda": format_partition(lam),
        "theta": format_rational(theta),
        "eigenvalue": format_rational(value),
    }
    if args.borel is not None:
        payload["ell"] = list(borel.ell)
        payload["map"] = args.map
        payload["node"] = [
            format_rational(v) for v in frobenius_coords(lam, args.m, args.n, theta)
        ]
    _emit(payload, args.out)
    return 0


def _cmd_orbit(args) -> int:
    theta = _parsed("--theta", parse_rational, args.theta)
    point = _parsed("--point", _parse_point, args.point)
    result = orbit(point, args.m, args.n, theta, budget=args.budget)
    _emit(result.to_json_dict(), args.out)
    return 0


def _cmd_verify(args) -> int:
    config = SweepConfig(
        pair=args.pair,
        m=args.m,
        n=args.n,
        lambda_max=args.lambda_max,
        mu_max=args.mu_max,
        borels=args.borels,
        map_choice=args.map,
    )
    report = run_sweep(config)
    if args.out:
        _emit(report.to_json_dict(), args.out)
    sys.stdout.write(report.summary() + "\n")
    return 0 if report.ok else 1


def _cmd_example(args) -> int:
    payload = reproduce_example(args.name, args.max)
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description=(
            "Exact computations with interpolation polynomials, Borel highest "
            "weights, and affine eigenvalue maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mn(p, default_m=2, default_n=1):
        p.add_argument("--m", type=int, default=default_m, help="even rank")
        p.add_argument("--n", type=int, default=default_n, help="pair rank")

    def add_out(p):
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("isjp", help="print one interpolation polynomial")
    add_mn(p)
    p.add_argument("--theta", required=True, help="parameter, e.g. 1 or 1/2")
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,1")
    add_out(p)
    p.set_defaults(func=_cmd_isjp)

    p = sub.add_parser("hw", help="highest-weight data")
    add_mn(p)
    p.add_argument("--lambda", dest="lam", default="", help="partition")
    p.add_argument("--borel", default=None, help="levels, e.g. 1,1")
    p.add_argument("--seq", default=None, help="ordering, e.g. d2,e2,e1,d1")
    p.add_argument("--dual", action="store_true", help="use the dual module")
    p.add_argument(
        "--table", action="store_true", help="print the closed-form table as CSV"
    )
    p.add_argument("--max", type=int, default=5, help="table parameter bound")
    add_out(p)
    p.set_defaults(func=_cmd_hw)

    p = sub.add_parser("tau", help="print an affine eigenvalue map")
    add_mn(p)
    p.add_argument("--borel", default=None, help="levels, e.g. 1,1")
    p.add_argument(
        "--family",
        default="full",
        choices=[*MAP_FAMILIES, "std"],
        help="which map family (std ignores --borel)",
    )
    add_out(p)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("eig", help="print one eigenvalue")
    add_mn(p)
    p.add_argument("--theta", required=True, help="parameter, e.g. 1 or 1/2")
    p.add_argument("--mu", required=True, help="partition of the polynomial")
    p.add_argument("--lambda", dest="lam", required=True, help="partition of the node")
    p.add_argument("--borel", default=None, help="evaluate through this Borel's map")
    p.add_argument(
        "--map",
        default="full",
        choices=list(MAP_FAMILIES),
        help="map family used with --borel",
    )
    add_out(p)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("orbit", help="explore an equivalence orbit")
    add_mn(p)
    p.add_argument("--theta", required=True, help="parameter, e.g. 1 or 1/2")
    p.add_argument("--point", required=True, help="coordinates, e.g. 3/4,-3/4,1")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_out(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("verify", help="run an exhaustive sweep")
    p.add_argument("--pair", required=True, choices=list(PAIR_CHOICES))
    add_mn(p)
    p.add_argument("--lambda-max", type=int, required=True)
    p.add_argument("--mu-max", type=int, required=True)
    p.add_argument("--borels", default="all", help='"all" or levels like 1,1')
    p.add_argument("--map", default="full", choices=list(MAP_FAMILIES))
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="regenerate a frozen worked example")
    p.add_argument(
        "--name", required=True, choices=["gl22_table", "gl22_uniqueness"]
    )
    p.add_argument("--max", type=int, default=5, help="table parameter bound")
    add_out(p)
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
