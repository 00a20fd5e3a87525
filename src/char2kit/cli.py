"""Command-line harness: every verification as a subcommand.

Each subcommand emits a run report: (name, expected, observed, verdict)
rows, the per-stage timings it fills in, and wall time.  Verdicts are
pass/fail when an expectation exists and "recorded" otherwise.  Output is a
human table, or --json / --csv.  Exit 0 when every row passes, 1 when a row
fails, 2 when the arguments are refused: by the parser, which states each
option's domain, by a subcommand, which checks only the rules that relate
two options, or by the library (a ValueError or OSError).  Any other raise
is one failed row named after the subcommand (after the criterion, in
verify-all), with the traceback on stderr.  Every checked row is built in
acceptance; a subcommand computes its input, records what no rule checks and
formats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import __version__, acceptance, crosscorr, curves, expsums, gf2m, zeta


@dataclass
class Row:
    name: str
    observed: object
    expected: object = None
    has_expectation: bool = False

    @property
    def verdict(self) -> str:
        if not self.has_expectation:
            return "recorded"
        return "pass" if self.observed == self.expected else "fail"


def recorded(name, observed) -> Row:
    return Row(name, observed)


def checked(name, observed, expected) -> Row:
    return Row(name, observed, expected, True)


@dataclass
class RunReport:
    command: str
    params: dict
    results: list[Row] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    wall_time_ms: float = 0.0

    @property
    def failed(self) -> bool:
        return any(r.verdict == "fail" for r in self.results)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "results": [
                    {
                        "name": r.name,
                        "expected": r.expected if r.has_expectation else None,
                        "observed": r.observed,
                        "verdict": r.verdict,
                    }
                    for r in self.results
                ],
                "timings": self.timings,
                "wall_time_ms": self.wall_time_ms,
            },
            default=str,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "expected", "observed", "verdict"])
        for r in self.results:
            w.writerow([r.name, r.expected if r.has_expectation else "", r.observed, r.verdict])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"# {self.command} {self.params}"]
        width = max((len(r.name) for r in self.results), default=4)
        for r in self.results:
            exp = f" expected={r.expected}" if r.has_expectation else ""
            lines.append(f"{r.name:<{width}}  {r.verdict:<8} observed={r.observed}{exp}")
        if self.timings:
            lines.append("# timings: " + ", ".join(f"{k} {v:.2f}s" for k, v in self.timings.items()))
        n_fail = sum(r.verdict == "fail" for r in self.results)
        lines.append(f"# {len(self.results)} results, {n_fail} failed, {self.wall_time_ms:.0f} ms")
        return "\n".join(lines)


def _outside(lo: int, hi: float) -> str:
    """A refusal's domain: "outside lo..hi", or "below lo" when there is no upper end."""
    return f"outside {lo}..{hi}" if hi < math.inf else f"below {lo}"


def _int_in(lo: int, hi: float = math.inf):
    """An argparse type: an int within lo..hi."""
    def parse(text: str) -> int:
        if not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(f"{text} {_outside(lo, hi)}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    parse.lo = lo  # the domain's lower end, readable off the parser
    return parse


class _Span(str):
    """'lo:hi' (inclusive) or a single integer, as typed; .values is its range."""


def _span_in(lo: int, hi: float = math.inf):
    """An argparse type: a nonempty _Span within lo..hi."""
    def parse(text: str) -> _Span:
        a, b = text.split(":", 1) if ":" in text else (text, text)
        span = _Span(text)
        span.values = range(int(a), int(b) + 1)
        if not span.values or span.values[0] < lo or span.values[-1] > hi:
            raise argparse.ArgumentTypeError(f"range {text!r} is empty or {_outside(lo, hi)}")
        return span
    parse.__name__ = "range"
    parse.lo = lo  # the domain's lower end, readable off the parser
    return parse


# -- subcommands -------------------------------------------------------------


def _sum_rows(name, m, k) -> list[Row]:
    """acceptance.sum_rows, after the sum's identity row, recorded, where no criterion checks it."""
    rows = [checked(*row) for row in acceptance.sum_rows(name, m, k)]
    identity = acceptance.IDENTITY_ROWS[name](m, k) if name in acceptance.IDENTITY_ROWS else None
    if identity is not None and identity[0] not in [r.name for r in rows]:
        rows.insert(0, recorded(identity[0], f"{identity[1]} vs {identity[2]}"))
    return rows


def cmd_expsum(args, timings) -> list[Row]:
    m, k = args.m, args.k
    rep = expsums.sum_report(args.sum, m, k)
    label = {"K": f"K_{m}", "C": f"C_{m}(k={k})", "G": f"G_{m}^({k})", "Kp": f"K'_{m}(k={k})"}[args.sum]
    return [recorded(label, rep.value), *_sum_rows(args.sum, m, k),
            recorded("trace_zero_count", rep.trace_zero_count)]


def cmd_conjectures(args, timings) -> list[Row]:
    return [row for m in args.m_range.values for k in args.k_range.values for name in ("G", "Kp")
            for row in _sum_rows(name, m, k)]


def cmd_corrdist(args, timings) -> list[Row]:
    m = args.m
    d = gf2m.decimation_exponent(m, args.k) if args.d is None else args.d
    dist = crosscorr.correlation_distribution(m, d)
    rows = [recorded(f"C_d(tau)={v}", n) for v, n in dist.entries.items()]
    return rows + [checked(*row) for row in acceptance.spectrum_rows("", dist, args.k)]


def cmd_a1(args, timings) -> list[Row]:
    return [checked(*acceptance.a1_row(args.m, args.k))]


def cmd_weights(args, timings) -> list[Row]:
    dist = crosscorr.weight_distribution(args.m, args.k)
    rows = [] if args.m in acceptance.KNOWN_WEIGHTS else [recorded(f"A_{w}", n) for w, n in dist.entries.items()]
    return rows + [checked(*row) for row in acceptance.weight_rows("", dist)]


def cmd_curvecount(args, timings) -> list[Row]:
    entry = curves.catalog_curve(args.curve) if args.curve in curves.catalog_curve_names() else None
    poly = entry.polynomial if entry else curves.load_curve(args.curve)
    fast = poly.y_degree() <= 2  # the fast counter solves a quadratic in y; the generic one walks every y
    if not fast and args.s > curves.COUNT_CAP:
        raise ValueError(f"--s {args.s} outside 1..{curves.COUNT_CAP} for a curve of degree {poly.y_degree()} in y")
    if entry and entry.l_polynomial_name:  # every catalog curve is quadratic in y
        return [checked(*row) for row in acceptance.count_rows("", entry, args.s)]
    counter = curves.count_projective_points_fast if fast else curves.count_projective_points
    return [recorded(f"N_{s}", counter(poly, s)) for s in range(1, args.s + 1)]


def cmd_zeta(args, timings) -> list[Row]:
    if (args.genus is None) != (args.reconstruct is None) or (args.reconstruct and args.s_max is not None):
        raise ValueError("--reconstruct takes --genus and not --s-max; --l-poly takes no --genus")
    if args.reconstruct:
        L = zeta.reconstruct_from_counts(args.reconstruct, q=2, g=args.genus)
        return [recorded("reconstructed coefficients", list(L.coefficients))] + [
            checked(*row) for row in acceptance.prediction_rows(args.reconstruct, args.genus)]
    s_max = 10 if args.s_max is None else args.s_max
    name = args.l_poly
    catalog = name in zeta.catalog_lpoly_names()
    L = zeta.catalog_lpoly(name) if catalog else zeta.load_lpoly(name)
    P = zeta.power_sums(L, s_max)
    rows = [recorded(f"P_{s}", P[s - 1]) for s in range(1, s_max + 1)]
    if name in zeta.CORRECTION_FACTORS:  # no curve's numerator: no count, no functional equation
        return rows
    rows += [recorded(f"N_{s} predicted", 2**s + 1 - P[s - 1]) for s in range(1, s_max + 1)]
    if catalog:  # catalog_lpoly has checked its functional equation
        return rows
    return rows + [checked(*row) for row in acceptance.functional_equation_rows(L)]


def cmd_dm_check(args, timings) -> list[Row]:
    return [checked(*row) for row in acceptance.dm_rows(args.bound)]


# -- verify-all ---------------------------------------------------------------


def _raised(name: str, exc: Exception) -> Row:
    """A raise as one failed row named after what raised; the traceback goes to stderr."""
    traceback.print_exc()
    return checked(name, f"raised {type(exc).__name__}: {exc}", "no exception")


def _verify_all(args, timings) -> list[Row]:
    rows = []
    for key, criterion in acceptance.CRITERIA.items():
        t0 = time.perf_counter()
        try:
            for name, observed, expected in criterion(args.max_m, args.max_s):
                rows.append(checked(f"{key} {name}", observed, expected))
        except Exception as exc:  # the other criteria still run
            rows.append(_raised(key, exc))
        timings[key] = round(time.perf_counter() - t0, 3)
    return rows


# -- driver -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="char2kit", description="Characteristic-2 computational algebra toolkit")
    p.add_argument("--version", action="version", version=f"char2kit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        out = sp.add_mutually_exclusive_group()
        out.add_argument("--json", action="store_true", help="machine-readable JSON output")
        out.add_argument("--csv", action="store_true", help="CSV output")
        return sp

    m_type, s_type, k_type = _int_in(1, gf2m.MAX_M), _int_in(1, curves.FAST_COUNT_CAP), _int_in(1)

    sp = command("expsum", cmd_expsum, "evaluate one exponential sum")
    sp.add_argument("--m", type=m_type, required=True)
    sp.add_argument("--k", type=k_type, default=1)
    sp.add_argument("--sum", choices=("K", "C", "G", "Kp"), required=True)

    sp = command("conjectures", cmd_conjectures, "sweep both conjecture checks")
    sp.add_argument("--m-range", type=_span_in(1, gf2m.MAX_M), default="1:16", help="lo:hi inclusive")
    sp.add_argument("--k-range", type=_span_in(1), default="1:5", help="lo:hi inclusive")

    sp = command("corrdist", cmd_corrdist, "cross-correlation distribution sweep")
    sp.add_argument("--m", type=m_type, required=True)
    kd = sp.add_mutually_exclusive_group(required=True)
    kd.add_argument("--k", type=k_type)
    kd.add_argument("--d", type=int)

    sp = command("a1", cmd_a1, "A_1 formula vs derivative count (odd m, gcd(k, m) = 1)")
    sp.add_argument("--m", type=m_type, required=True)
    sp.add_argument("--k", type=k_type, required=True)

    sp = command("weights", cmd_weights, "cyclic-code weight distribution")
    sp.add_argument("--m", type=m_type, required=True)
    sp.add_argument("--k", type=k_type, required=True)

    sp = command("curvecount", cmd_curvecount, "projective point counts vs zeta prediction")
    sp.add_argument("--curve", required=True,
                    help=f"catalog name {curves.catalog_curve_names()} or a .curve file path")
    sp.add_argument("--s", type=s_type, required=True, help="count over F_2^1 .. F_2^s")

    sp = command("zeta", cmd_zeta, "power sums / predicted counts / reconstruction")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--l-poly", help=f"catalog name {zeta.catalog_lpoly_names()} or file path")
    mode.add_argument("--reconstruct", type=_int_in(0), nargs="+", metavar="N",
                      help="point counts N_1..N_g to invert; each later N_s is checked against L")
    sp.add_argument("--s-max", type=k_type, help="P_s and N_s for s = 1..S with --l-poly (default 10)")
    sp.add_argument("--genus", type=k_type, help="genus for --reconstruct")

    sp = command("dm-check", cmd_dm_check, "vanishing power-sum recurrence for l1prime")
    sp.add_argument("--bound", type=k_type, default=200)

    sp = command("verify-all", _verify_all, "run the full acceptance suite")
    sp.add_argument("--max-m", type=m_type, default=18, help="bound enumeration degree")
    sp.add_argument("--max-s", type=s_type, default=10, help="bound curve-count extensions")

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage and an error: line
        if exc.code == 0:  # --help, --version
            raise
        return 2
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("fn", "command", "json", "csv") and v is not None
    }
    report = RunReport(args.command, params)
    t0 = time.perf_counter()
    try:
        report.results = args.fn(args, report.timings)
    except (ValueError, OSError) as exc:  # FieldError and ZetaError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other raise is a failed run, not a refused argument
        report.results = [_raised(args.command, exc)]
    report.wall_time_ms = (time.perf_counter() - t0) * 1e3
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.to_csv(), end="")
    else:
        print(report.to_table())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
