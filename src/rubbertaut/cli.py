"""Command-line interface.

Subcommands expose the main computations: ``hurwitz`` for branched-cover
counts, ``series`` for the exact expansions, ``localize`` for the
fixed-point graph tables and their pole relations, ``pclass`` for the
genus-one weight polynomial, ``hain`` for the theta-divisor expansion,
``interp`` for the exact interpolation round-trip, and ``verify-all`` for
the full consistency battery.

Exit codes: ``0`` success, ``1`` usage or resource errors, ``2`` violated
identities.  All output is deterministic: exact rationals, stable
orderings, no timing.
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
from typing import Callable, Sequence

from . import goldentables, locgraphs
from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
    RubberTautError,
    TheoremViolationError,
)
from .hodge import verify_scaling, evaluate_form, hodge_linear_form, n_target, solve_hodge
from .hurwitz import hurwitz_one_part, hurwitz_oracle, rubber_psi_integral
from .partitions import enumerate_partitions
from .polyclasses import (
    MAX_INTERP_POINTS,
    MultiPoly,
    check_equivariance,
    check_homogeneity,
    check_pullback_stability,
    genus1_polynomial,
    hain_expand,
    interpolate,
)
from .series import series_log_sine, series, series_exp, series_mul, series_to_json, series_tau
from .tautring import RingContext, TautClass
from .util import combine, fraction_str, parse_fraction

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(chunk) for chunk in text.split(",") if chunk.strip())
    except ValueError as exc:
        raise InvalidArgumentError(f"bad {what} {text!r}") from exc
    if not parts:
        raise InvalidArgumentError(f"bad {what} {text!r}")
    return parts


def _render_classes(classes: Sequence[TautClass]) -> list[str]:
    """Stable text forms of boundary/psi combinations, e.g. ``psi_1 - D(2|13)``.

    Each side's ``D(side|rest)`` label is built once per mark set, not once
    per term of every class.
    """
    labels_by_ctx: dict[RingContext, dict[tuple[int, ...], str]] = {}
    rendered: list[str] = []
    for cls in classes:
        labels = labels_by_ctx.setdefault(cls.ctx, {})
        terms: list[tuple[str, Fraction]] = []
        psi = cls.coefficient_psi1()
        if psi:
            terms.append(("psi_1", psi))
        for side, coeff in cls.boundary_terms():
            label = labels.get(side)
            if label is None:
                rest = "".join(str(m) for m in cls.ctx.marks if m not in side)
                label = labels[side] = "D({}|{})".format("".join(map(str, side)), rest)
            terms.append((label, coeff))
        chunks: list[str] = []
        for label, coeff in terms:
            num, den = coeff.numerator, coeff.denominator
            magnitude = -num if num < 0 else num
            if den != 1:
                body = f"{magnitude}/{den}*{label}"
            else:
                body = label if magnitude == 1 else f"{magnitude}*{label}"
            if chunks:
                chunks.append(("- " if num < 0 else "+ ") + body)
            else:
                chunks.append(f"-{body}" if num < 0 else body)
        rendered.append(" ".join(chunks) if chunks else "0")
    return rendered


def _render_locus(locus: tuple[tuple, ...]) -> str:
    pieces = []
    for item in locus:
        if item[0] == "M03":
            pieces.append("M_{0,3}")
        elif item[0] == "M":
            pieces.append(f"M_{{{item[1]},{item[2]}}}")
        else:
            _, h, nu, d = item
            pieces.append("rub_{}({};{})".format(h, "+".join(map(str, nu)), d))
    return " x ".join(pieces)


def _emit_table(rows: list[list[str]], header: list[str]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit_csv(rows: list[list[str]], header: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_rows(rows: list[list[str]], header: list[str], fmt: str) -> None:
    """Write ``rows`` as CSV when ``fmt`` is ``csv``, else as an aligned table."""
    emit = _emit_csv if fmt == "csv" else _emit_table
    sys.stdout.write(emit(rows, header))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_hurwitz(args: argparse.Namespace) -> int:
    alpha = _parse_ints(args.alpha, "profile")
    beta = _parse_ints(args.beta, "profile")
    if args.psi:
        value = rubber_psi_integral(alpha, beta)
        method = "rubber_psi"
    elif 1 in (len(alpha), len(beta)):
        nu, total = (beta, alpha[0]) if len(alpha) == 1 else (alpha, beta[0])
        value = hurwitz_one_part(nu, total)
        method = "one_part"
    else:
        value = hurwitz_oracle(alpha, beta)
        method = "oracle"
    if args.format == "json":
        payload = {
            "alpha": list(alpha),
            "beta": list(beta),
            "method": method,
            "value": fraction_str(value),
        }
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        header = ["alpha", "beta", "method", "value"]
        row = [args.alpha, args.beta, method, fraction_str(value)]
        sys.stdout.write(_emit_csv([row], header))
    else:
        print(fraction_str(value))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.tau:
        series_obj = series_tau(args.order)
        name = "tau"
    else:
        series_obj = series_log_sine(args.d, args.order)
        name = f"log-sine-{args.d}"
    if args.format == "json":
        print(json.dumps({"name": name, **series_to_json(series_obj)}, sort_keys=True))
        return 0
    rows = [
        [str(power), fraction_str(series_obj.coefficient(power))]
        for power in range(series_obj.order + 1)
    ]
    _write_rows(rows, ["power", "coefficient"], args.format)
    return 0


def _localize_rows(d: int) -> list[dict]:
    lift = locgraphs.LIFT_DIVISOR
    rows = locgraphs.enumerate_rows(d, lift)
    relation = locgraphs.relation_extract(d, lift)
    by_row = locgraphs.relation_by_row(relation, rows)
    out = []
    for row in rows:
        out.append(
            {
                "row": row.index,
                "graph": locgraphs.render_graph(row.representative),
                "side": "genus-over-zero"
                if row.representative.side == "zero"
                else "genus-over-infinity",
                "prefactor": fraction_str(locgraphs.graph_prefactor(row.representative)),
                "multiplicity": row.multiplicity,
                "locus": _render_locus(locgraphs.locus_descriptor(row.representative, lift)),
                "pole": {
                    f"{a},{b}": fraction_str(c) for (a, b), c in sorted(by_row.get(row.index, {}).items())
                },
            }
        )
    return out


def _golden_diff(d: int) -> list[str]:
    """Compare the engine tables and relations against the frozen rows."""
    lift = locgraphs.LIFT_DIVISOR
    rows = locgraphs.enumerate_rows(d, lift)
    table = goldentables.TABLE_D2 if d == 2 else goldentables.TABLE_D3
    expected_relation = dict(goldentables.R2_RELATION if d == 2 else goldentables.L3_RELATION_DISPLAYED)
    if d == 3:
        row_index, key, total = goldentables.L3_OMITTED_TERM
        expected_relation[row_index] = combine(
            ((1, expected_relation.get(row_index, {})), (1, {key: total}))
        )
    problems: list[str] = []
    if len(rows) != len(table):
        problems.append(f"row count {len(rows)} != {len(table)}")
        return problems
    for row, golden in zip(rows, table):
        contribution = locgraphs.assemble_contribution(row.representative, lift)
        if contribution.prefactor != golden.prefactor:
            problems.append(
                f"row {golden.index}: prefactor {contribution.prefactor} != {golden.prefactor}"
            )
        if row.multiplicity != golden.multiplicity:
            problems.append(
                f"row {golden.index}: multiplicity {row.multiplicity} != {golden.multiplicity}"
            )
        if locgraphs.locus_descriptor(row.representative, lift) != golden.locus:
            problems.append(f"row {golden.index}: locus differs")
        if contribution.total() != golden.expand():
            problems.append(f"row {golden.index}: factor product differs")
    relation = locgraphs.relation_extract(d, lift)
    by_row = locgraphs.relation_by_row(relation, rows)
    if by_row != expected_relation:
        for index in sorted(set(by_row) | set(expected_relation)):
            if by_row.get(index) != expected_relation.get(index):
                problems.append(
                    f"relation row {index}: {by_row.get(index)} != {expected_relation.get(index)}"
                )
    return problems


def _cmd_localize(args: argparse.Namespace) -> int:
    if args.golden:
        problems = _golden_diff(args.d)
        if problems:
            for line in problems:
                print(f"DIFF {line}")
            return 2
        print(f"degree-{args.d} table matches the frozen rows")
        return 0
    data = _localize_rows(args.d)
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
        return 0
    header = ["row", "graph", "side", "prefactor", "mult", "locus", "pole"]
    rows = [
        [
            str(item["row"]),
            item["graph"],
            item["side"],
            item["prefactor"],
            str(item["multiplicity"]),
            item["locus"],
            "; ".join(f"t^-1[{k}]={v}" for k, v in item["pole"].items()) or "0",
        ]
        for item in data
    ]
    _write_rows(rows, header, args.format)
    return 0


def _cmd_pclass(args: argparse.Namespace) -> int:
    entries = sorted(genus1_polynomial(args.marks).coeffs.items())
    rendered = _render_classes([cls for _, cls in entries])
    if args.format == "json":
        data = [
            {"exponents": list(expo), "class": text}
            for (expo, _), text in zip(entries, rendered)
        ]
        print(json.dumps(data, sort_keys=True))
        return 0
    if args.format == "latex":
        lines = []
        for (expo, _), text in zip(entries, rendered):
            monomial = " ".join(
                f"x_{{{i + 2}}}^{{{e}}}" if e > 1 else f"x_{{{i + 2}}}"
                for i, e in enumerate(expo)
                if e
            )
            body = text.replace("psi_1", r"\psi_1")
            lines.append(rf"\left({body}\right)\, {monomial}")
        print(" + ".join(lines))
        return 0
    rows = []
    for (expo, _), text in zip(entries, rendered):
        monomial = "*".join(
            f"x{i + 2}^{e}" if e > 1 else f"x{i + 2}" for i, e in enumerate(expo) if e
        )
        rows.append([monomial, text])
    _write_rows(rows, ["monomial", "class"], args.format)
    return 0


def _render_hain_symbol(symbol: tuple) -> str:
    if symbol[0] == "psi+":
        return f"psi+({symbol[1]})"
    _, h, subset = symbol
    return "delta_{}({})".format(h, "".join(map(str, subset)))


def _cmd_hain(args: argparse.Namespace) -> int:
    weights = tuple(parse_fraction(chunk) for chunk in args.weights.split(","))
    expansion = hain_expand(args.genus, len(weights), weights)
    names = {sym: _render_hain_symbol(sym) for sym in set().union(*expansion)}
    rows = [
        ["*".join([names[sym] for sym in monomial]), fraction_str(expansion[monomial])]
        for monomial in sorted(expansion)
    ]
    if args.format == "json":
        print(json.dumps([{"monomial": r[0], "coefficient": r[1]} for r in rows], sort_keys=True))
    else:
        _write_rows(rows, ["monomial", "coefficient"], args.format)
    return 0


def _interp_round_trip(nvars: int, degrees: tuple[int, ...], seed: int, trials: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        coeffs = {}
        for exponents in _all_exponents(degrees):
            coeffs[exponents] = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        original = MultiPoly(nvars, coeffs)
        rebuilt = interpolate(original.evaluate, nvars, degrees)
        if rebuilt != original:
            failures += 1
    return failures


def _all_exponents(degrees: tuple[int, ...]):
    if not degrees:
        yield ()
        return
    for head in range(degrees[0] + 1):
        for tail in _all_exponents(degrees[1:]):
            yield (head,) + tail


def _cmd_interp(args: argparse.Namespace) -> int:
    degrees = _parse_ints(args.degrees, "degrees")
    if len(degrees) != args.nvars:
        raise InvalidArgumentError("need one degree bound per variable")
    grid = math.prod(d + 1 for d in degrees)
    if args.trials * grid > MAX_INTERP_POINTS:
        raise ResourceLimitError(
            f"{args.trials} round trips of {grid} grid points exceed the cap {MAX_INTERP_POINTS}"
        )
    failures = _interp_round_trip(args.nvars, degrees, args.seed, args.trials)
    if failures:
        print(f"FAIL interp: {failures} of {args.trials} round-trips differ")
        return 2
    print(f"PASS interp: {args.trials} round-trips exact")
    return 0


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def _check_series() -> None:
    tau = series_tau(12)
    x = series([Fraction(0), Fraction(1)], order=12)
    if series_mul(x, series_exp(tau)) != tau:
        raise TheoremViolationError("tau functional equation fails at order 12")


def _check_scaling(g_max: int, d_max: int) -> None:
    for g in range(1, g_max + 1):
        if not verify_scaling(g, d_max):
            raise TheoremViolationError(f"log-sine targets do not scale as d^(2g) at g={g}")


def _check_hurwitz(d_max: int) -> None:
    for d in range(1, d_max + 1):
        for nu in enumerate_partitions(d):
            if hurwitz_oracle((d,), nu) != hurwitz_one_part(nu, d):
                raise TheoremViolationError(f"one-part count fails at {nu}")
    for d in range(1, min(d_max, 4) + 1):
        profiles = [tuple(p) for p in enumerate_partitions(d)]
        for alpha in profiles:
            for beta in profiles:
                if hurwitz_oracle(alpha, beta) != hurwitz_oracle(beta, alpha):
                    raise TheoremViolationError(f"symmetry fails at {alpha}/{beta}")


def _check_hodge(g_max: int, d_max: int) -> None:
    for g in range(1, g_max + 1):
        solution = solve_hodge(g, d_max)
        if not solution.unique:
            raise InconsistencyError(f"genus-{g} system is underdetermined")
        for d in range(1, d_max + 1):
            lhs = evaluate_form(hodge_linear_form(g, d, "partitions"), solution.values)
            if lhs != n_target(g, d):
                raise TheoremViolationError(f"genus-{g} degree-{d} value differs")


def _check_hodge_engine(g_max: int, d_max: int) -> None:
    for g in range(1, g_max + 1):
        for d in range(1, d_max + 1):
            if locgraphs.hodge_form_from_graphs(g, d) != hodge_linear_form(g, d):
                raise TheoremViolationError(f"graph sum differs from the closed form at g={g}, d={d}")


def _check_tables() -> None:
    for d in (2, 3):
        problems = _golden_diff(d)
        if problems:
            raise TheoremViolationError(f"degree-{d} table: " + "; ".join(problems))


def _check_pair_totals(d_max: int) -> None:
    for d in range(1, d_max + 1):
        expected = goldentables.PAIR_RUBBER_TOTALS.get(d)
        if expected is None:
            continue
        relation = locgraphs.relation_extract(d, locgraphs.lift_pair(1))
        total = Fraction(0)
        for graph, monos in relation.terms.items():
            if graph.side == "infinity":
                total += sum(monos.values(), Fraction(0))
        if total != expected:
            raise TheoremViolationError(f"pair-lift rubber total differs at d={d}")


def _check_divisor_solve() -> None:
    solution = locgraphs.evaluate_and_solve(2)
    poly = genus1_polynomial(3)
    pairs = [
        ((2, 0), solution.a2),
        ((0, 2), solution.a3),
        ((1, 1), solution.b),
    ]
    for exponents, value in pairs:
        target = poly.coefficient(exponents)
        if target is None or target.reduce() != value.reduce():
            raise TheoremViolationError(f"degree-2 solve differs at {exponents}")
    report = locgraphs.evaluate_and_solve(3)
    if not report.residual.is_zero():
        raise TheoremViolationError("degree-3 residual is not zero")
    if report.b_again.reduce() != solution.b.reduce():
        raise TheoremViolationError("degree-3 mixed coefficient differs")


def _check_pclass() -> None:
    for t in (4, 5):
        if not check_pullback_stability(t):
            raise TheoremViolationError(f"pullback stability fails at t={t}")
    for t in (3, 4, 5):
        if not check_equivariance(t):
            raise TheoremViolationError(f"equivariance fails at t={t}")
    rng = random.Random(11)
    for t in (3, 4):
        point = tuple(Fraction(rng.randint(-5, 5)) for _ in range(t - 1))
        scale = Fraction(rng.randint(2, 5))
        if not check_homogeneity(t, scale, point):
            coords = ", ".join(map(fraction_str, point))
            raise TheoremViolationError(f"homogeneity fails at t={t}, scale {scale}, point ({coords})")


def _check_hain() -> None:
    expansion = hain_expand(2, 2, (Fraction(1), Fraction(-1)))
    anchor = tuple(sorted([("psi+", 1), ("psi+", 1)]))
    if expansion.get(anchor) != Fraction(1, 8):
        raise TheoremViolationError("two-mark anchor coefficient differs")
    for g in (2, 3):
        base = hain_expand(g, 2, (Fraction(1), Fraction(-1)))
        scaled = hain_expand(g, 2, (Fraction(2), Fraction(-2)))
        factor = Fraction(2) ** (2 * g)
        if scaled != {mono: factor * coeff for mono, coeff in base.items()}:
            raise TheoremViolationError(f"weight scaling fails at genus {g}")


def _check_interp() -> None:
    if _interp_round_trip(2, (2, 2), seed=7, trials=10):
        raise TheoremViolationError("interpolation round-trip differs")


def _cmd_verify_all(args: argparse.Namespace) -> int:
    g_max, d_max = args.g_max, args.d_max
    if g_max < 1 or d_max < 1:
        raise InvalidArgumentError(f"--g-max and --d-max must be at least 1, got {g_max} and {d_max}")
    checks: list[tuple[str, str, Callable[[], None]]] = [
        ("series", "tau-functional-equation", _check_series),
        ("series", f"log-sine-scaling-g<={g_max}-d<={d_max}", lambda: _check_scaling(g_max, d_max)),
        ("hurwitz", f"one-part-and-symmetry-d<={d_max}", lambda: _check_hurwitz(d_max)),
        ("hodge", f"linear-system-g<={g_max}-d<={d_max}", lambda: _check_hodge(g_max, d_max)),
        ("hodge", f"graph-sum-cross-check-g<={g_max}-d<={d_max}", lambda: _check_hodge_engine(g_max, d_max)),
        ("localize", "degree-2-and-3-tables", _check_tables),
        ("localize", f"pair-lift-rubber-totals-d<={d_max}", lambda: _check_pair_totals(d_max)),
        ("divisors", "degree-2-solve-and-degree-3-residual", _check_divisor_solve),
        ("pclass", "stability-equivariance-homogeneity", _check_pclass),
        ("hain", "anchor-and-weight-scaling", _check_hain),
        ("interp", "lagrange-round-trip", _check_interp),
    ]
    status = 0
    for section, name, fn in checks:
        try:
            fn()
        except ResourceLimitError as exc:
            print(f"LIMIT {section}: {name} — {exc}")
            status = max(status, 1)
        except RubberTautError as exc:
            print(f"FAIL {section}: {name} — {exc}")
            status = 2
        else:
            print(f"PASS {section}: {name}")
    return status


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="rubbertaut", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", help="count covers of the line with two fixed profiles")
    p.add_argument("--alpha", required=True, help="comma-separated profile over zero")
    p.add_argument("--beta", required=True, help="comma-separated profile over infinity")
    p.add_argument("--psi", action="store_true", help="divide by the branch factorial")
    p.add_argument("--format", default="table", choices=("table", "json", "csv"))
    p.set_defaults(fn=_cmd_hurwitz)

    p = sub.add_parser("series", help="print an exact series expansion")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", action="store_true", help="the tree-weight exponential inverse")
    group.add_argument("--log-sine", action="store_true", help="the logarithmic sine ratio")
    p.add_argument("--d", type=int, default=1, help="scaling degree for --log-sine")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", default="table", choices=("table", "json", "csv"))
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("localize", help="fixed-point graph tables and pole relations")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    p.add_argument("--format", default="table", choices=("table", "json", "csv"))
    p.add_argument("--golden", action="store_true", help="diff against the frozen rows")
    p.set_defaults(fn=_cmd_localize)

    p = sub.add_parser("pclass", help="genus-one weight polynomial coefficients")
    p.add_argument("--marks", type=int, required=True)
    p.add_argument("--format", default="table", choices=("table", "json", "csv", "latex"))
    p.set_defaults(fn=_cmd_pclass)

    p = sub.add_parser("hain", help="theta-divisor power expansion for compact type")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated rational weights, summing to zero")
    p.add_argument("--format", default="table", choices=("table", "json", "csv"))
    p.set_defaults(fn=_cmd_hain)

    p = sub.add_parser("interp", help="exact multivariate interpolation round-trip")
    p.add_argument("--nvars", type=int, default=2)
    p.add_argument("--degrees", default="2,2", help="comma-separated degree bounds")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=_cmd_interp)

    p = sub.add_parser("verify-all", help="run the full consistency battery")
    p.add_argument("--g-max", type=int, default=3)
    p.add_argument("--d-max", type=int, default=5)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TheoremViolationError, InconsistencyError) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except RubberTautError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
