"""Command-line surface: extremal sets, bounds, allocation, table checks, MC validation.

Exit codes: 0 success, 2 tolerance failure (reproduce/validate), 3 usage error
(including inputs whose grids exceed the memory budget).
Rationals on the command line and in files are 'num/den' strings; reports
print floats with 10 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import reference
from .aggregation import aggregate, aggregate_discrete_general
from .allocation import allocation_report
from .bernoulli import as_fraction, format_fraction, json_field, json_rational
from .bounds import bounds_common_p, bounds_general_p, convex_bounds_fast
from .copula import GfgmSpec, sample_u, sample_x
from .distributions import EmpiricalDistribution
from .drivers import ExchangeableDriver, driver_from_json
from .margins import DiscreteMargin, ExponentialMargin, UniformMargin, margin_from_json
from .measures import Measure, es, parse_measure, var
from .sums import extremal_points, min_convex
from .vertices import enumerate_vertices

USAGE_ERROR = 3
TOLERANCE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_p(text: str):
    parts = [s.strip() for s in text.split(",")]
    if not any(parts):
        raise ValueError("empty margin parameter")
    if not all(parts):
        raise ValueError(f"empty entry in margin parameter {text!r}")
    values = [as_fraction(s) for s in parts]
    return values[0] if len(values) == 1 else values


def _load_object(path: str) -> dict:
    """A JSON file whose top level must be an object."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _parse_margin(text: str):
    if text == "uniform":
        return UniformMargin()
    if text == "bernoulli":
        return "bernoulli"
    if text.startswith("exp:"):
        return ExponentialMargin(float(text.split(":", 1)[1]))
    if text.startswith("discrete:"):
        return margin_from_json(_load_object(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse margin {text!r} (exp:RATE | discrete:FILE | uniform | bernoulli)")


def _write_output(payload, out: str | None, fmt: str):
    """JSON, or CSV from a (header, rows) payload, to the file ``out`` or to stdout."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fh.write(json.dumps(payload, indent=2) + "\n")
        else:
            header, rows = payload
            csv.writer(fh).writerows([header, *rows])


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_extremal(args) -> int:
    p = _parse_p(args.p)
    if isinstance(p, list):
        if args.format != "json":
            raise ValueError("vertex enumeration (vector --p) writes JSON only; drop --format")
        return cmd_vertices(args)
    if args.d is None:
        raise ValueError("--d is required with a scalar --p")
    points = extremal_points(args.d, p)
    if args.format == "csv":
        rows = [
            [pt.label, pt.k1, pt.k2, format_fraction(pt.w1), format_fraction(pt.w2)]
            for pt in points
        ]
        _write_output((["label", "k1", "k2", "w1", "w2"], rows), args.out, "csv")
    else:
        payload = [
            {"label": pt.label, "k1": pt.k1, "k2": pt.k2,
             "w1": format_fraction(pt.w1), "w2": format_fraction(pt.w2),
             "pmf": pt.pmf.to_json()}
            for pt in points
        ]
        _write_output(payload, args.out, "json")
    return 0


def cmd_vertices(args) -> int:
    p = _parse_p(args.p)
    if not isinstance(p, list):
        raise ValueError("--p must be a comma-separated margin vector for vertex enumeration")
    vertices = enumerate_vertices(p)
    payload = [v.to_json() for v in vertices]
    _write_output(payload, args.out, "json")
    print(f"{len(vertices)} vertices", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    p = _parse_p(args.p)
    measures = [parse_measure(s) for s in args.measures.split(",")] if args.measures else []
    if args.alpha is not None:
        # the fast path handles convex measures only, so --alpha drops var there
        if not args.fast:
            measures.append(parse_measure(f"var:{args.alpha}"))
        measures.append(parse_measure(f"es:{args.alpha}"))
    if args.gamma is not None:
        measures.append(parse_measure(f"entropic:{args.gamma}"))
    if not measures:
        raise ValueError("no measures requested: pass --measures, --alpha or --gamma")
    if isinstance(p, list):
        margins = [_parse_margin(s) for s in args.margin.split(",")]
        if len(margins) == 1:
            margins = margins * len(p)
        report = bounds_general_p(margins, p, measures, mc_n=args.n, seed=args.seed)
    else:
        margin = _parse_margin(args.margin)
        if args.d is None:
            raise ValueError("--d is required with a scalar --p")
        if args.fast:
            report = convex_bounds_fast(margin, args.d, p, measures, grid_h=args.grid)
        else:
            report = bounds_common_p(margin, args.d, p, measures, grid_h=args.grid)
    _write_output(report.to_json(), args.out, "json")
    return 0


def _margins(obj: dict, default=None) -> list:
    """The margins a spec or portfolio document lists, or ``default`` if given and it lists none."""
    if default is not None and "margins" not in obj:
        return default
    return [margin_from_json(m) for m in json_field(obj, "margins", list, "a list")]


def _load_portfolio(path: str):
    """Margins and driver of a portfolio file; a scalar "p" stands for the convex minimum."""
    obj = _load_object(path)
    margins = _margins(obj)
    p = obj.get("p")
    driver = None
    if "driver" in obj:
        driver = driver_from_json(obj["driver"])
    elif p is not None and not isinstance(p, list):
        driver = ExchangeableDriver(min_convex(len(margins), json_rational(obj, "p")))
    return margins, driver


def cmd_allocate(args) -> int:
    margins, driver = _load_portfolio(args.portfolio)
    if driver is None:
        raise ValueError("portfolio file must name a driver (or a scalar p) for allocation")
    report = allocation_report(driver, margins, args.alpha)
    rows = [
        [r["risk"], _fmt(r["var_contribution"]), _fmt(r["ces"]), _fmt(r["cstd"])]
        for r in report.to_rows()
    ]
    _write_output((["risk", "var_contribution", "ces", "cstd"], rows), args.out, "csv")
    print(
        f"ES_{args.alpha}(S) = {_fmt(report.es_s)}  Std(S) = {_fmt(report.std_s)}  "
        f"beta_S = {_fmt(report.beta_s)}",
        file=sys.stderr,
    )
    return 0


def cmd_reproduce(args) -> int:
    ids = reference.table_ids() if args.table == "all" else [args.table]
    overall_ok = True
    for table_id in ids:
        t0 = time.perf_counter()
        diff = reference.diff_table(table_id)
        runtime = time.perf_counter() - t0
        rows = [
            [c.key, _fmt(c.expected), _fmt(c.computed), c.tol, "ok" if c.ok else "FAIL"]
            for c in diff.cells
        ]
        out = None
        if args.out:
            out = str(Path(args.out) / f"{table_id}.csv") if len(ids) > 1 else args.out
            Path(out).parent.mkdir(parents=True, exist_ok=True)
        _write_output((["cell", "expected", "computed", "tolerance", "status"], rows), out, "csv")
        n_fail = len(diff.failures())
        print(f"{table_id}: {len(diff.cells) - n_fail}/{len(diff.cells)} cells ok "
              f"in {runtime:.2f} s", file=sys.stderr)
        for cell in diff.failures():
            print(
                f"  FAIL {cell.key}: expected {_fmt(cell.expected)}, "
                f"computed {_fmt(cell.computed)}, tol {cell.tol}",
                file=sys.stderr,
            )
        overall_ok = overall_ok and diff.passed
    return 0 if overall_ok else TOLERANCE_ERROR


def cmd_sample(args) -> int:
    obj = _load_object(args.spec)
    spec = GfgmSpec.from_json(obj)
    if "margins" in obj:
        draws = sample_x(spec, _margins(obj), args.n, seed=args.seed)
    else:
        draws = sample_u(spec, args.n, seed=args.seed)
    header = [f"x{j + 1}" for j in range(spec.d)]
    rows = [[_fmt(v) for v in row] for row in draws]
    _write_output((header, rows), args.out, "csv")
    return 0


def cmd_validate(args) -> int:
    """Monte Carlo cross-check of the analytic aggregation paths."""
    obj = _load_object(args.spec)
    spec = GfgmSpec.from_json(obj)
    margins = _margins(obj, [UniformMargin()] * spec.d)
    n = args.n
    if n < 1000:
        raise ValueError("validation needs n >= 1000")
    alpha = args.alpha
    if not 0 < alpha < 1:
        raise ValueError(f"level must be inside (0,1), got {alpha}")

    draws = sample_x(spec, margins, n, seed=args.seed)
    sample = EmpiricalDistribution(draws.sum(axis=1))

    p_common = spec.p[0] if all(q == spec.p[0] for q in spec.p) else None
    first = margins[0]  # the common-p path aggregates d copies of it
    if p_common is not None and not isinstance(first, DiscreteMargin) and all(
            type(m) is type(first) and vars(m) == vars(first) for m in margins):
        analytic = aggregate(first, spec.d, spec.driver.sum_pmf(), p_common)
    elif all(isinstance(m, DiscreteMargin) for m in margins):
        analytic = aggregate_discrete_general(margins, spec.driver)
    else:
        raise ValueError("no analytic aggregation path for this spec; nothing to validate")

    checks = []
    mean_an = analytic.mean()
    se = np.sqrt(analytic.variance() / n)
    checks.append(("mean", mean_an, sample.mean(), abs(sample.mean() - mean_an) / se))
    q_emp = sample.quantile(alpha)
    # q_emp is an alpha-quantile of the analytic law iff F(q_emp-) <= alpha <= F(q_emp), so
    # the score is alpha's distance from that interval: on an integer lattice F jumps at
    # the nodes by their atoms, and other laws are continuous
    at = float(analytic.cdf(q_emp))
    below = float(analytic.cdf(np.ceil(q_emp) - 1)) if analytic.kind == "lattice" else at
    # alpha (1 - alpha) / n would underflow to 0 at a subnormal alpha; its root does not
    z_var = max(below - alpha, alpha - at, 0.0) / (np.sqrt(alpha * (1 - alpha)) / np.sqrt(n))
    checks.append((Measure("var", alpha).label, var(analytic, alpha), q_emp, z_var))
    es_an = es(analytic, alpha)
    tail = np.clip(sample.samples - var(analytic, alpha), 0.0, None)
    se_es = np.std(tail, ddof=1) / ((1 - alpha) * np.sqrt(n))
    es_emp = es(sample, alpha)
    checks.append((Measure("es", alpha).label, es_an, es_emp,
                   abs(es_emp - es_an) / max(se_es, 1e-300)))

    grid = np.linspace(0.0, float(np.max(sample.samples)), 512)
    ks = float(np.max(np.abs(np.asarray(analytic.cdf(grid)) - np.asarray(sample.cdf(grid)))))
    ks_band = 1.628 / np.sqrt(n)  # 99% Kolmogorov band

    z_crit = 2.576
    ok = bool(all(z <= z_crit for _, _, _, z in checks) and ks <= ks_band)
    payload = {
        "n": n,
        "seed": args.seed,
        "checks": [
            {"name": name, "analytic": float(a), "empirical": float(e_), "z": float(z)}
            for name, a, e_, z in checks
        ],
        "ks_distance": ks,
        "ks_band_99": float(ks_band),
        "pass": ok,
    }
    _write_output(payload, args.out, "json")
    return 0 if ok else TOLERANCE_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="gfgm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("extremal", help="extremal sum pmfs (scalar p) or vertices (vector p)")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--p", required=True, help="rational like 1/2, or comma list 1/2,1/3,2/3")
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_extremal)

    sp = sub.add_parser("vertices", help="exact vertex enumeration for a margin vector (JSON)")
    sp.add_argument("--p", required=True)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.set_defaults(func=cmd_vertices)

    sp = sub.add_parser("bounds", help="sharp bounds over the dependence class")
    sp.add_argument("--margin", required=True, help="exp:RATE | discrete:FILE | uniform | bernoulli")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--p", required=True)
    sp.add_argument("--measures", default=None, help="e.g. es:0.95,entropic:0.001,var:0.95")
    sp.add_argument("--alpha", type=float, default=None, help="adds var and es at this level")
    sp.add_argument("--gamma", type=float, default=None, help="adds the entropic measure")
    sp.add_argument("--grid", type=float, default=None, help="grid step for uniform margins")
    sp.add_argument("--fast", action="store_true", help="convex measures via the two extreme points")
    sp.add_argument("--n", type=int, default=10**6, help="MC sample size (continuous, vector p)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("allocate", help="Euler capital decomposition for a discrete portfolio")
    sp.add_argument("--portfolio", required=True)
    sp.add_argument("--alpha", type=float, default=0.95)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_allocate)

    sp = sub.add_parser("reproduce", help="recompute a reference table and diff it")
    sp.add_argument("table", choices=reference.table_ids() + ["all"])
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("sample", help="draw from a spec file (CSV, one column per coordinate)")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--n", type=int, default=10**4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("validate", help="Monte Carlo validation against the analytic law")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--n", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alpha", type=float, default=0.95)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"gfgm: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
