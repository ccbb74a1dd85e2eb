"""Command-line entry point: run the verification suites and emit reports.

Subcommands: series, expmap, cosurface {markov-check, cut-paste, series},
nonregular.  Reports are JSON (default) or CSV with the fields command,
params, cases[], max_residual, pass; exit status is 0 exactly when there
are cases and every one passes.  Each subcommand accepts only the options
it reads (an out-of-range value, an unknown group or groupoid spec, or a
missing or invalid Cayley file is a usage error), plus ``--out`` and
``--format``; ``series`` draws its random series from a generator seeded
by ``--seed`` (default 0), recorded in the report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction

from . import nonregular
from .cells import CellComplex, domain_box, point_cell, edge_cell
from .groupoids import from_spec
from .groups import builtin_group, load_cayley_file
from .matrices import RationalMatrix
from .measures import (
    CobordismBox, ComplexMeasure, SemigroupDensity, cut, factorization_check,
    markov_check, measure_series, measure_series_multiplicativity, paste,
)
from .paths import convergence_suite_paths, convergence_table, error_ratios
from .series import FormalSeries

REPORT_SCHEMA = 1


def random_series(groupoid, order, rng):
    """A 2x2 rational-matrix series on at most 5 random positive-grade elements."""
    elems = [e for e in groupoid.elements_up_to(order)
             if groupoid.ord(e) >= 1]
    support = rng.sample(elems, min(5, len(elems)))
    coeffs = {}
    for elem in support:
        coeffs[elem] = RationalMatrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2)]
             for _ in range(2)])
    return FormalSeries(groupoid, order, coeffs, RationalMatrix.identity(2))


def run_series(args):
    groupoid = args.groupoid
    rng = random.Random(args.seed)
    cases = []
    for idx in range(args.count):
        a = random_series(groupoid, args.trunc, rng)
        u = a.exp()
        round_trip = u.log() == a
        one = FormalSeries.one(groupoid, args.trunc, a.unit)
        exp_log = (one + a).log().exp() == one + a
        inv_ok = u * u.inverse() == one
        ok = round_trip and exp_log and inv_ok
        cases.append({"name": f"series-{idx}", "residual": 0.0 if ok else 1.0,
                      "pass": ok})
    return {"groupoid": groupoid.name, "trunc": args.trunc, "seed": args.seed}, cases


def run_expmap(args):
    ns = args.n
    rows = []
    ratio_rows = []
    for name, path in convergence_suite_paths(args.grade).items():
        table = convergence_table(path, ns)
        for row in table:
            rows.append({"n": row["n"], "grade": row["grade"],
                         "error": row["error"]})
        for row in error_ratios(table):
            ratio_rows.append({"path": name, **row})
    lo, hi = args.ratio_band
    cases = [{"name": f"{r['path']}-grade{r['grade']}-n{r['n']}",
              "residual": abs(r["ratio"] - 2.0),
              "ratio": r["ratio"],
              "pass": lo <= r["ratio"] <= hi}
             for r in ratio_rows]
    params = {"grade": args.grade, "n": ns, "ratio_band": [lo, hi],
              "paths": list(convergence_suite_paths(args.grade))}
    return params, cases, rows


def _load_group(args):
    return args.group if args.table_file is None else args.table_file


def chain_instance(length):
    """Points 0..length-1 with the unit intervals between them as domains."""
    cells = [point_cell((i,)) for i in range(length)]
    domains = [domain_box(((i, i + 1),)) for i in range(length - 1)]
    return CellComplex(cells), domains


def strip_instance():
    """Two unit squares side by side; the shared edge splits the strip."""
    cells = [
        edge_cell((0, 0), 1),   # left side
        edge_cell((0, 0), 0),   # bottom left
        edge_cell((0, 1), 0),   # top left
        edge_cell((1, 0), 1),   # shared middle edge
        edge_cell((1, 0), 0),   # bottom right
        edge_cell((1, 1), 0),   # top right
        edge_cell((2, 0), 1),   # right side
    ]
    domains = [domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))]
    return CellComplex(cells), domains


def run_markov(args):
    group = _load_group(args)
    density = SemigroupDensity(group)
    f_plus = lambda vals: 1.0 if vals[max(vals)] == 0 else 0.0
    f_minus = lambda vals: 1.0 if vals[min(vals)] == 0 else 0.0
    instances = [(f"chain-{n}", chain_instance(n), n // 2) for n in (3, 4)]
    instances.append(("two-plaquette-strip", strip_instance(), 3))
    cases = []
    for name, (complex_, domains), mid in instances:
        measure = ComplexMeasure(complex_, domains, density)
        _, residual = markov_check(measure, mid, mid, f_plus, f_minus)
        cases.append({"name": name, "residual": residual,
                      "pass": residual <= args.tol})
    return {"group": group.name, "tol": args.tol}, cases


def run_cut_paste(args):
    """Cut the 3-point chain and the strip at time 1: factorization of the
    measure and the cut -> paste -> cut round trip."""
    group = _load_group(args)
    density = SemigroupDensity(group)
    instances = [("interval", CobordismBox(((0, 2),)), chain_instance(3)),
                 ("plaquette", CobordismBox(((0, 2), (0, 1))), strip_instance())]
    cases = []
    for name, cob, (complex_, (earlier, later)) in instances:
        result = cut(cob, complex_, 1)
        ok, residual = factorization_check(result.k, result.k_prime, complex_,
                                           [later], [earlier], density,
                                           tol=args.tol)
        again = cut(cob, paste(result.k, result.k_prime), 1)
        round_trip = again.k == result.k and again.k_prime == result.k_prime
        cases.append({"name": name, "residual": residual,
                      "pass": ok and round_trip})
    return {"group": group.name, "tol": args.tol}, cases


def run_cosurface_series(args):
    group = _load_group(args)
    groupoid = args.groupoid
    density = SemigroupDensity(group)
    series = measure_series(groupoid, density, args.trunc)
    ok, worst = measure_series_multiplicativity(series, tol=args.tol)
    cases = [{"name": "multiplicativity", "residual": worst, "pass": ok}]
    return {"group": group.name, "groupoid": groupoid.name,
            "trunc": args.trunc}, cases


def usage_value(parse):
    """argparse type reading the option through ``parse``; its ValueError or
    OSError (a bad name or spec, a missing or invalid file) is a usage error."""
    def convert(text):
        try:
            return parse(text)
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def positive_int(text):
    """argparse type of ``--count``, ``--grade``, ``--trunc`` and ``--grid``:
    an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def doubling_ns(text):
    """argparse type of ``--n``: comma-separated positive step counts, at
    least one n with 2n also listed (each error ratio needs such a pair)."""
    ns = [positive_int(x) for x in text.split(",")]
    if not any(2 * n in ns for n in ns):
        raise argparse.ArgumentTypeError(f"no n has 2n in the list, got {text!r}")
    return ns


def tolerance(text):
    """argparse type of ``--tol``: a finite float of at least 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


class RatioBand(argparse.Action):
    """``--ratio-band LO HI``: two finite floats with LO <= HI."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            parser.error(f"argument {option_string}: must be finite with LO <= HI, "
                         f"got {lo} {hi}")
        setattr(namespace, self.dest, (lo, hi))


def open_unit_times(text):
    """argparse type of ``--t``: comma-separated times, each in (-1, 1)."""
    ts = [float(x) for x in text.split(",")]
    if not all(-1 < t < 1 for t in ts):
        raise argparse.ArgumentTypeError(f"each time must lie in (-1, 1), got {text!r}")
    return ts


def run_nonregular(args):
    rows = nonregular.full_report(ts=args.t, grid_size=args.grid)
    cases = []
    for row in rows:
        cases.append({
            "name": f"t={row['t']}",
            "residual": max(row["fd_cross_check"], row["dt_closed_residual"],
                            -min(0.0, row["lower_slack"]),
                            -min(0.0, row["upper_slack"])),
            "min_bound_slack": min(row["lower_slack"], row["upper_slack"]),
            "derivative_residual": row["dt_fd_residual"],
            "escape": row["escape_for_positive_t"],
            "pass": row["pass"],
        })
    return {"t": args.t, "grid": args.grid}, cases


def write_report(report, args, csv_rows=None):
    if args.format == "csv":
        buf = io.StringIO()
        rows = csv_rows if csv_rows is not None else report["cases"]
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=1, default=float) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


SHARED_OPTIONS = {
    "group": dict(type=usage_value(builtin_group), default="Z3",
                  help="built-in group name"),
    "table-file": dict(type=usage_value(load_cayley_file), default=None,
                       help="Cayley table JSON file overriding --group"),
    "groupoid": dict(type=usage_value(from_spec), default="nat",
                     help="nat | interval:a..b | box:d:spans"),
    "trunc": dict(type=positive_int, default=4, help="truncation order"),
    "tol": dict(type=tolerance, default=1e-12),
    "seed": dict(type=int, default=0),
    "out": dict(default=None, help="report file (default stdout)"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def add_options(parser, *names):
    """The named shared options, then --out and --format."""
    for name in names + ("out", "format"):
        parser.add_argument(f"--{name}", **SHARED_OPTIONS[name])


def build_parser():
    parser = argparse.ArgumentParser(prog="cobordseries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="exp/log round trips on random series")
    add_options(p, "groupoid", "trunc", "seed")
    p.add_argument("--count", type=positive_int, default=20)

    p = sub.add_parser("expmap", help="product-integral convergence table")
    add_options(p)
    p.add_argument("--grade", type=positive_int, default=3)
    p.add_argument("--n", type=doubling_ns, default="8,16,32,64")
    p.add_argument("--ratio-band", type=float, nargs=2, default=(1.7, 2.3),
                   action=RatioBand)

    p = sub.add_parser("cosurface", help="measure suites")
    cos_sub = p.add_subparsers(dest="cosurface_command", required=True)
    for name in ("markov-check", "cut-paste"):
        add_options(cos_sub.add_parser(name), "group", "table-file", "tol")
    q = cos_sub.add_parser("series")
    add_options(q, "group", "table-file", "groupoid", "trunc", "tol")
    q.set_defaults(groupoid="interval:0..5", trunc=5)

    p = sub.add_parser("nonregular", help="interval diffeomorphism checks")
    add_options(p)
    p.add_argument("--t", type=open_unit_times, default="0.1,-0.1,0.5,-0.5,0.9,-0.9")
    p.add_argument("--grid", type=positive_int, default=1_000_000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    csv_rows = None
    if args.command == "series":
        params, cases = run_series(args)
    elif args.command == "expmap":
        params, cases, csv_rows = run_expmap(args)
    elif args.command == "cosurface":
        if args.cosurface_command == "markov-check":
            params, cases = run_markov(args)
        elif args.cosurface_command == "cut-paste":
            params, cases = run_cut_paste(args)
        else:
            params, cases = run_cosurface_series(args)
    elif args.command == "nonregular":
        params, cases = run_nonregular(args)
    else:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
    command = args.command
    if getattr(args, "cosurface_command", None):
        command = f"{args.command} {args.cosurface_command}"
    report = {
        "schema_version": REPORT_SCHEMA,
        "command": command,
        "params": params,
        "cases": cases,
        "max_residual": max((c.get("residual", 0.0) for c in cases), default=0.0),
        "pass": bool(cases) and all(c["pass"] for c in cases),
    }
    write_report(report, args, csv_rows)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
