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
import contextlib
import csv
import io
import json
import sys
from fractions import Fraction

from .borel import (
    BorelDescriptor,
    format_symbol,
    parse_symbol,
    validate_sequence,
    weyl_vector,
)
from .equivalence import (
    DEFAULT_BUDGET,
    OrbitResult,
    closure_member,
    orbit,
    require_budget,
    require_point,
)
from .exact_linalg import format_rational, format_vector, parse_rational
from .isjp import evaluator, interpolation_polynomial
from .partitions import (
    format_partition,
    frobenius_coords,
    node_point,
    parse_int_list,
    parse_partition,
    require_hook,
    require_rank,
    require_theta,
)
from .tau import MAP_FAMILIES, eigenvalue_map, family_map, standard_offset
from .verify import PAIR_CHOICES, SweepConfig, run_sweep
from .weights import diag_highest_weight, highest_weight, is_generic


def _parsed(flag: str, parse, text: str):
    """parse(text), with a ValueError re-raised naming the flag."""
    try:
        return parse(text)
    except ValueError as error:
        raise ValueError(f"{flag}: {error}") from None


def _hook_partition(args, flag: str, text: str):
    """The partition given by flag, which must lie in the (m|n) hook. A bad
    rank is the rank's error, not the partition's."""
    require_rank(args.m, args.n)
    return _parsed(
        flag, lambda t: require_hook(parse_partition(t), args.m, args.n), text
    )


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(p) for p in text.split(",")) if text.strip() else ()


def _parse_sequence(text: str, num_eps: int, num_delta: int):
    seq = tuple(parse_symbol(p) for p in text.split(",")) if text.strip() else ()
    return validate_sequence(seq, num_eps, num_delta)


def _borel(args) -> BorelDescriptor:
    # A bad rank is the rank's error, not the Borel's.
    require_rank(args.m, args.n)
    return _parsed(
        "--borel",
        lambda text: BorelDescriptor(args.m, args.n, parse_int_list(text)),
        args.borel,
    )


@contextlib.contextmanager
def _out_file(out_path: str):
    """The --out file opened for writing; an OSError becomes a ValueError
    naming the flag."""
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as error:
        raise ValueError(f"--out: {error}") from None


def _weight_json(weight, m: int) -> dict:
    """A flat weight as its e-block and its d-block."""
    return {"eps": format_vector(weight[:m]), "delta": format_vector(weight[m:])}


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(payload, out_path: str | None) -> None:
    """Write payload as JSON to out_path, or to stdout when no path is given."""
    text = _json_text(payload)
    if not out_path:
        sys.stdout.write(text)
        return
    with _out_file(out_path) as handle:
        handle.write(text)


def _cmd_isjp(args) -> int:
    theta = _parsed("--theta", require_theta, args.theta)
    lam = _hook_partition(args, "--lambda", args.lam)
    poly = interpolation_polynomial(args.m, args.n, theta, lam)
    payload = poly.to_json_dict()
    payload["lambda"] = format_partition(lam)
    payload["theta"] = format_rational(theta)
    _emit(payload, args.out)
    return 0


def _cmd_hw(args) -> int:
    # Each mode reads its own flags; a flag the chosen mode would ignore is an error.
    given = {
        "--borel": args.borel is not None,
        "--seq": args.seq is not None,
        "--table": args.table,
    }
    modes = [flag for flag, on in given.items() if on]
    if len(modes) > 1:
        raise ValueError(f"hw: {' and '.join(modes)} select different modes; give one")
    if args.dual and args.seq is None:
        raise ValueError("hw: --dual applies only with --seq")
    if args.max is not None and not args.table:
        raise ValueError("hw: --max applies only with --table")
    if args.table:
        if args.lam or args.out:
            unread = "--lambda" if args.lam else "--out"
            raise ValueError(f"hw: --table does not read {unread}")
        sys.stdout.write(_closed_form_csv(_table(args)))
        return 0
    lam = _hook_partition(args, "--lambda", args.lam)
    if args.seq is not None:
        seq = _parsed(
            "--seq", lambda text: _parse_sequence(text, args.m, args.n), args.seq
        )
        w = diag_highest_weight(seq, lam, args.m, args.n, dual=args.dual)
        payload = {
            "lambda": format_partition(lam),
            "seq": [format_symbol(symbol) for symbol in seq],
            "dual": args.dual,
            "hw": _weight_json(w, args.m),
            "rho": _weight_json(weyl_vector(seq), args.m),
        }
        _emit(payload, args.out)
        return 0
    if args.borel is None:
        raise ValueError("hw: provide --borel, --seq, or --table")
    borel = _borel(args)
    hw_standard = highest_weight(lam, BorelDescriptor.opposite(args.m, args.n))
    hw_borel = highest_weight(lam, borel)
    payload = {
        "lambda": format_partition(lam),
        "ell": list(borel.ell),
        "hw_standard": _weight_json(hw_standard, args.m),
        "truncated_root_sum": _weight_json(
            [a - b for a, b in zip(hw_standard, hw_borel)], args.m
        ),
        "hw_borel": _weight_json(hw_borel, args.m),
        "generic": is_generic(lam, borel),
    }
    _emit(payload, args.out)
    return 0


def _closed_form_csv(table: dict) -> str:
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
        if args.borel is not None:
            raise ValueError("tau: --family std does not read --borel")
        # The standard map is the full map of the opposite Borel.
        affine = family_map(BorelDescriptor.opposite(args.m, args.n), "full")
        payload = affine.to_json_dict()
    elif args.borel is None:
        raise ValueError("tau: --borel is required unless --family std")
    else:
        borel = _borel(args)
        payload = family_map(borel, args.family).to_json_dict()
        payload["ell"] = list(borel.ell)
    payload["family"] = args.family
    _emit(payload, args.out)
    return 0


def _cmd_eig(args) -> int:
    if args.map is not None and args.borel is None:
        raise ValueError("eig: --map applies only with --borel")
    theta = _parsed("--theta", require_theta, args.theta)
    mu = _hook_partition(args, "--mu", args.mu)
    lam = _hook_partition(args, "--lambda", args.lam)
    point = node_point(lam, args.m, args.n, theta)
    if args.borel is not None:
        if theta != Fraction(1, 2):
            raise ValueError("eig: --borel requires theta 1/2")
        borel = _borel(args)
        family = args.map or "full"
        point = family_map(borel, family).integer_apply(1, highest_weight(lam, borel))
    den, (value,) = evaluator(args.m, args.n, theta, [mu])(*point)
    payload = {
        "mu": format_partition(mu),
        "lambda": format_partition(lam),
        "theta": format_rational(theta),
        "eigenvalue": format_rational(Fraction(value, den)),
    }
    if args.borel is not None:
        payload["ell"] = list(borel.ell)
        payload["map"] = family
        payload["node"] = format_vector(frobenius_coords(lam, args.m, args.n, theta))
    _emit(payload, args.out)
    return 0


def _cmd_orbit(args) -> int:
    theta = _parsed("--theta", require_theta, args.theta)
    # A bad rank is the rank's error, not the point's.
    require_rank(args.m, args.n)
    point = _parsed(
        "--point",
        lambda text: require_point(_parse_point(text), args.m, args.n),
        args.point,
    )
    budget = _parsed("--budget", require_budget, args.budget)
    result = orbit(point, args.m, args.n, theta, budget=budget)
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
    # The report file is opened first, so a bad path fails before the sweep.
    with _out_file(args.out) if args.out else contextlib.nullcontext() as handle:
        report = run_sweep(config)
        if handle:
            handle.write(_json_text(report.to_json_dict()))
    sys.stdout.write(report.summary() + "\n")
    return 0 if report.ok else 1


def _cmd_example(args) -> int:
    if args.max is not None and args.name != "gl22_table":
        raise ValueError("example: --max applies only to gl22_table")
    table = args.name == "gl22_table"
    _emit(_table(args) if table else gl22_uniqueness(), args.out)
    return 0


def _table(args) -> dict:
    """The closed-form table up to --max (default 5), its only input."""
    bound = 5 if args.max is None else args.max
    return _parsed("--max", gl22_table, bound)


# -- the frozen worked examples --------------------------------------------------

# The table has (M + 1)(M(M + 1)/2 + 1) rows for the bound M = max_entry:
# 33,661 at this bound, built in seconds.
MAX_TABLE_ENTRY = 40


def _table_shapes(max_entry: int):
    """The empty shape, one-row shapes, and two-column-height hooks with all
    parameters bounded by max_entry, in a stable order."""
    shapes = [()]
    shapes.extend((r,) for r in range(1, max_entry + 1))
    for r in range(1, max_entry + 1):
        for s in range(1, r + 1):
            for t in range(0, max_entry + 1):
                shapes.append((r, s) + (1,) * t)
    return shapes


def _closed_form_table_row(lam) -> tuple[tuple, tuple]:
    """Frozen closed forms for the gl(2|2) table, library rank (m, n) = (2, 1),
    ell = (1, 1): the doubled standard weight, and the Borel weight: one unit
    added to each body row and two subtracted from the first tail entry (one
    unit and one entry for one-row shapes)."""
    if not lam:
        return (0, 0, 0, 0), (0, 0, 0, 0)
    r = lam[0]
    s = lam[1] if len(lam) > 1 else 0
    t = max(len(lam) - 2, 0)
    if s == 0:
        return (-2 * r, 0, 0, 0), (-(2 * r - 1), 0, -1, 0)
    return (
        (-2 * r, -2 * s, -t, -t),
        (-(2 * r - 1), -(2 * s - 1), -(t + 2), -t),
    )


def gl22_table(max_entry: int) -> dict:
    """Highest-weight table of gl(2|2), library rank (m, n) = (2, 1), theta
    1/2 and both levels one, checked against its frozen closed forms."""
    if max_entry < 0:
        raise ValueError(f"table bound must be nonnegative, got {max_entry}")
    if max_entry > MAX_TABLE_ENTRY:
        raise ValueError(
            f"table bound must be at most {MAX_TABLE_ENTRY}, got {max_entry}"
        )
    m, n = 2, 1
    borel = BorelDescriptor(m, n, (1, 1))
    opposite = BorelDescriptor.opposite(m, n)
    rows = []
    all_match = True
    for lam in _table_shapes(max_entry):
        hw0 = highest_weight(lam, opposite)
        hw = highest_weight(lam, borel)
        closed0, closedb = _closed_form_table_row(lam)
        matches = hw0 == closed0 and hw == closedb
        all_match = all_match and matches
        rows.append(
            {
                "lambda": format_partition(lam),
                "hw_standard": format_vector(hw0),
                "hw_borel": format_vector(hw),
                "closed_standard": format_vector(closed0),
                "closed_borel": format_vector(closedb),
                "matches": matches,
            }
        )
    return {
        "m": m,
        "n": n,
        "ell": [1, 1],
        "max_entry": max_entry,
        "all_match": all_match,
        "rows": rows,
    }


def gl22_uniqueness() -> dict:
    """Replay the chain that pins down the unique correct affine map for the
    gl(2|2) Borel, library rank (m, n) = (2, 1), with both levels one: orbit
    matching over one-row shapes forces two offset candidates, the closure
    criterion eliminates one, and the survivor is the canonical full map."""
    m, n = 2, 1
    theta = Fraction(1, 2)
    borel = BorelDescriptor(m, n, (1, 1))
    r_b = borel.root_sum()
    x0 = standard_offset(m, n)

    def candidate(a: Fraction, b: Fraction, c: Fraction):
        return eigenvalue_map(borel, [(a, b, c)])

    # Orbit matching: for a one-row shape the mapped highest weight must land
    # in the shape's equivalence orbit. For each orbit point the three image
    # coordinates pin (a, b, c) exactly, because each parameter multiplies the
    # same nonzero difference of the last two input coordinates; intersect the
    # solution sets over r = 1, 2, 3.
    fittings = []
    steps = []
    for r in (1, 2, 3):
        shape_orbit = orbit(frobenius_coords((r,), m, n, theta), m, n, theta)
        if shape_orbit.status != OrbitResult.FINITE:
            raise AssertionError(f"one-row shape r={r}: orbit is {shape_orbit.status}")
        hw = highest_weight((r,), borel)
        u = tuple(a + b for a, b in zip(hw, r_b))
        gap = u[2] - u[3]
        if gap == 0:
            raise AssertionError(f"one-row shape r={r}: zero parameter gap")
        half = Fraction(1, 2)
        fitting = set()
        for target in shape_orbit.points:
            a = (target[0] + half * u[0] - x0[0]) / gap
            b = (target[1] + half * u[1] - x0[1]) / gap
            c = (target[2] + half * (u[2] + u[3]) - x0[2]) / gap
            if candidate(a, b, c).apply(hw) != target:
                raise AssertionError(f"fitted map misses orbit point {target}")
            fitting.add((a, b, c))
        fittings.append(fitting)
        steps.append(
            {
                "r": r,
                "fitting": sorted(format_vector(abc) for abc in sorted(fitting)),
            }
        )
    survivors = sorted(set.intersection(*fittings))
    offset_candidates = [candidate(*abc) for abc in survivors]

    # Closure elimination: the offset must lie in the closure class of the
    # standard offset.
    kept = [
        f for f in offset_candidates if closure_member(x0, f.offset, m, n, theta)
    ]
    final = None
    if len(kept) == 1:
        final = kept[0].to_json_dict()
        final["equals_canonical"] = kept[0] == family_map(borel, "full")
    return {
        "m": m,
        "n": n,
        "ell": [1, 1],
        "standard_offset": format_vector(x0),
        "orbit_matching": steps,
        "surviving_parameters": [format_vector(abc) for abc in survivors],
        "offset_candidates": [format_vector(f.offset) for f in offset_candidates],
        "after_closure": [format_vector(f.offset) for f in kept],
        "final": final,
    }


def _usage_error(message: str):
    """Stands in for each parser's `error`, so that a usage error reaches
    `main`'s one-line writer instead of printing the usage block."""
    raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description=(
            "Exact computations with interpolation polynomials, Borel highest "
            "weights, and affine eigenvalue maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mn(p):
        p.add_argument("--m", type=int, default=2, help="even rank")
        p.add_argument("--n", type=int, default=1, help="pair rank")

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
    p.add_argument("--max", type=int, default=None, help="table parameter bound")
    add_out(p)
    p.set_defaults(func=_cmd_hw)

    p = sub.add_parser("tau", help="print an affine eigenvalue map")
    add_mn(p)
    p.add_argument("--borel", default=None, help="levels, e.g. 1,1")
    p.add_argument(
        "--family",
        default="full",
        choices=[*MAP_FAMILIES, "std"],
        help="which map family (std takes no --borel)",
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
        default=None,
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
    p.add_argument("--borels", default="all", help='glm2n: "all" or levels like 1,1')
    p.add_argument("--map", default="full", choices=list(MAP_FAMILIES), help="glm2n")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="regenerate a frozen worked example")
    p.add_argument(
        "--name", required=True, choices=["gl22_table", "gl22_uniqueness"]
    )
    p.add_argument("--max", type=int, default=None, help="table parameter bound")
    add_out(p)
    p.set_defaults(func=_cmd_example)

    for each in (parser, *sub.choices.values()):
        each.error = _usage_error
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
