"""Command-line interface.

Subcommands expose the main computations: ``hurwitz`` for branched-cover
counts, ``series`` for the exact expansions, ``localize`` for the
fixed-point graph tables and their pole relations, ``pclass`` for the
genus-one weight polynomial, ``hain`` for the theta-divisor expansion,
``interp`` for the exact interpolation round-trip, and ``verify-all`` for
the full consistency battery.

Each tabular subcommand builds its rows and its JSON payload once, and
:func:`_emit` prints them as JSON, CSV or an aligned table.  ``localize
--golden`` and the ``verify-all`` table check read the rows ``localize``
prints and diff them, field by field, against the frozen rows rendered by
the same renderers.

Exit codes: ``0`` success, ``1`` usage or resource errors, ``2`` violated
identities.  All output is deterministic: exact rationals, stable
orderings, no timing.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
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
from .hodge import _check_genus, evaluate_form, hodge_linear_form, n_target, solve_hodge, verify_scaling
from .hurwitz import hurwitz_one_part, hurwitz_oracle, hurwitz_row, rubber_psi_integral
from .partitions import _check_partition_degree, enumerate_partitions
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
from .series import MAX_SERIES_ORDER, series_log_sine, series, series_exp, series_mul, series_to_json, series_tau
from .util import check_integer, combine, fraction_str, parse_fraction, too_long_to_print

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty chunk (``2,,1``, ``2,1,``) is an error."""
    try:
        return tuple(int(chunk) for chunk in text.split(","))
    except ValueError as exc:
        raise InvalidArgumentError(f"bad {what} {text!r}") from exc


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


def _render_pole(terms: dict[tuple[int, int], Fraction]) -> dict[str, str]:
    """A row's ``1/t`` relation terms as ``localize`` prints them."""
    return {f"{a},{b}": fraction_str(c) for (a, b), c in sorted(terms.items())}


def _emit(fmt: str, header: list[str], rows: list[list[str]], payload: object) -> int:
    """Print ``payload`` as JSON, or ``rows`` under ``header`` as CSV or as a
    left-aligned table.  Every cell is a string and every rational in the
    payload is a ``p/q`` string, so no output format carries a float."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        sys.stdout.write(buffer.getvalue())
    else:
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        line = "  ".join(f"{{:<{width}}}" for width in widths).format
        sys.stdout.write("".join(line(*cells).rstrip() + "\n" for cells in (header, *rows)))
    return 0


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
    text = fraction_str(value)
    if args.format == "table":
        print(text)
        return 0
    payload = {"alpha": list(alpha), "beta": list(beta), "method": method, "value": text}
    return _emit(args.format, list(payload), [[args.alpha, args.beta, method, text]], payload)


def _log_sine_is_unprintable(d: int, order: int) -> bool:
    """Whether a coefficient of ``series_log_sine(d, order)`` is sure to be
    too long to print, decided before any coefficient is built.

    The ``y^(2k)`` coefficient is ``zeta(2k) (d / (2 pi))^(2k) / k``, at
    least ``(d / 7)^(2k) / k``, and its numerator in lowest terms is at least
    its value.  In powers of two, ``d^(2k) >= 2^(2k (bits(d) - 1))``,
    ``10^limit < 2^(10 limit // 3 + 1)``, ``k < 2^bits(k)`` and
    ``7^(2k) < 2^(6k)``, so the numerator at ``k = order // 2`` has more than
    ``limit`` digits when the test below holds.
    """
    limit = sys.get_int_max_str_digits()
    k = order // 2
    if limit == 0 or k < 1 or d < 2 or order > MAX_SERIES_ORDER:
        return False
    return 2 * k * (d.bit_length() - 1) >= 10 * limit // 3 + 1 + k.bit_length() + 6 * k


def _cmd_series(args: argparse.Namespace) -> int:
    if args.tau:
        if args.d is not None:
            raise InvalidArgumentError("--d scales --log-sine only, not --tau")
        series_obj, name = series_tau(args.order), "tau"
    else:
        d = 1 if args.d is None else args.d
        if _log_sine_is_unprintable(d, args.order):
            raise too_long_to_print()
        series_obj, name = series_log_sine(d, args.order), f"log-sine-{d}"
    payload = {"name": name, **series_to_json(series_obj)}
    rows = [[str(power), text] for power, text in enumerate(payload["coeffs"])]
    return _emit(args.format, ["power", "coefficient"], rows, payload)


def _localize_rows(d: int) -> list[dict]:
    """The rows ``localize`` prints, each field rendered as a string but the
    multiplicity, and ``pole`` keyed by the cotangent powers ``"a,b"``."""
    lift = locgraphs.LIFT_DIVISOR
    by_row = locgraphs.relation_by_row(locgraphs.relation_extract(d, lift))
    return [
        {
            "row": row.index,
            "graph": locgraphs.render_graph(row.representative),
            "side": "genus-over-zero" if row.representative.side == "zero" else "genus-over-infinity",
            "prefactor": fraction_str(locgraphs.graph_prefactor(row.representative)),
            "multiplicity": row.multiplicity,
            "locus": _render_locus(locgraphs.locus_descriptor(row.representative, lift)),
            "pole": _render_pole(by_row.get(row.index, {})),
        }
        for row in locgraphs.enumerate_rows(d, lift)
    ]


def _golden_diff(d: int) -> list[str]:
    """Compare the rows ``localize`` prints against the frozen rows, both
    rendered by the same field renderers, field by field: graph, prefactor,
    multiplicity, locus and pole terms."""
    printed = _localize_rows(d)
    table = goldentables.TABLE_D2 if d == 2 else goldentables.TABLE_D3
    relation = dict(goldentables.R2_RELATION if d == 2 else goldentables.L3_RELATION_DISPLAYED)
    if d == 3:
        row_index, key, total = goldentables.L3_OMITTED_TERM
        relation[row_index] = combine(((1, relation.get(row_index, {})), (1, {key: total})))
    if len(printed) != len(table):
        return [f"row count {len(printed)} != {len(table)}"]
    problems: list[str] = []
    for row, golden in zip(printed, table):
        frozen = {
            "graph": golden.label,
            "prefactor": fraction_str(golden.prefactor),
            "multiplicity": golden.multiplicity,
            "locus": _render_locus(golden.locus),
            "pole": _render_pole(relation.get(golden.index, {})),
        }
        problems += [
            f"row {golden.index}: {field} {row[field]} != {value}"
            for field, value in frozen.items()
            if row[field] != value
        ]
    stray = sorted(set(relation) - {golden.index for golden in table})
    problems += [f"row {index}: pole {{}} != {_render_pole(relation[index])}" for index in stray]
    return problems


def _cmd_localize(args: argparse.Namespace) -> int:
    if args.golden:
        if args.format != "table":
            raise InvalidArgumentError(f"--golden prints a plain diff, not --format {args.format}")
        problems = _golden_diff(args.d)
        print("\n".join(f"DIFF {line}" for line in problems) or f"degree-{args.d} table matches the frozen rows")
        return 2 if problems else 0
    data = _localize_rows(args.d)
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
    return _emit(args.format, header, rows, data)


def _cmd_pclass(args: argparse.Namespace) -> int:
    entries = [(expo, str(cls)) for expo, cls in sorted(genus1_polynomial(args.marks).coeffs.items())]
    if args.format == "latex":
        lines = []
        for expo, text in entries:
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
    for expo, text in entries:
        monomial = "*".join(
            f"x{i + 2}^{e}" if e > 1 else f"x{i + 2}" for i, e in enumerate(expo) if e
        )
        rows.append([monomial, text])
    payload = [{"exponents": list(expo), "class": text} for expo, text in entries]
    return _emit(args.format, ["monomial", "class"], rows, payload)


def _render_hain_symbol(symbol: tuple) -> str:
    if symbol[0] == "psi+":
        return f"psi+({symbol[1]})"
    _, h, subset = symbol
    return "delta_{}({})".format(h, "".join(map(str, subset)))


def _cmd_hain(args: argparse.Namespace) -> int:
    weights = tuple(parse_fraction(chunk) for chunk in args.weights.split(","))
    expansion = hain_expand(args.genus, len(weights), weights)
    names = {sym: _render_hain_symbol(sym) for sym in set().union(*expansion)}
    # hain_expand shares one Fraction per distinct coefficient: format each once
    texts = {key: fraction_str(value) for key, value in {id(v): v for v in expansion.values()}.items()}
    rows = [["*".join(map(names.get, monomial)), texts[id(value)]] for monomial, value in expansion.items()]
    payload = [{"monomial": monomial, "coefficient": text} for monomial, text in rows]
    return _emit(args.format, ["monomial", "coefficient"], rows, payload)


def _interp_round_trip(degrees: tuple[int, ...], seed: int, trials: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        coeffs = {}
        for exponents in itertools.product(*(range(d + 1) for d in degrees)):
            coeffs[exponents] = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        original = MultiPoly(len(degrees), coeffs)
        rebuilt = interpolate(original.evaluate, degrees)
        if rebuilt != original:
            failures += 1
    return failures


def _cmd_interp(args: argparse.Namespace) -> int:
    degrees = _parse_ints(args.degrees, "degrees")
    check_integer("--trials", args.trials, least=1)
    grid = math.prod(d + 1 for d in degrees)
    if args.trials * grid > MAX_INTERP_POINTS:
        raise ResourceLimitError(
            f"{args.trials} round trips of {grid} grid points exceed the cap {MAX_INTERP_POINTS}"
        )
    failures = _interp_round_trip(degrees, args.seed, args.trials)
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


def _genera(g_max: int) -> range:
    """Genera ``1..g_max``, refused before any work past the genus cap."""
    _check_genus(g_max)
    return range(1, g_max + 1)


def _degrees(d_max: int) -> range:
    """Degrees ``1..d_max``, refused before any work past the partition-sum cap."""
    _check_partition_degree(d_max)
    return range(1, d_max + 1)


def _check_scaling(g_max: int, d_max: int) -> None:
    genera, _ = _genera(g_max), _degrees(d_max)
    for g in genera:
        verify_scaling(g, d_max)


def _check_hurwitz(d_max: int) -> None:
    for d in _degrees(d_max):
        rows = {alpha: hurwitz_row(alpha) for alpha in enumerate_partitions(d)}
        for nu in rows:
            # (d,) is one component and never merges; nu starts one per part
            closed = hurwitz_one_part(nu, d)
            if rows[(d,)][nu] != closed or rows[nu][(d,)] != closed:
                raise TheoremViolationError(f"one-part count fails at {nu}")
        for alpha, beta in itertools.combinations(rows, 2):
            if rows[alpha][beta] != rows[beta][alpha]:
                raise TheoremViolationError(f"symmetry fails at {alpha}/{beta}")


def _check_hodge(g_max: int, d_max: int) -> None:
    genera, degrees = _genera(g_max), _degrees(d_max)
    for g in genera:
        solution = solve_hodge(g, d_max)
        for d in degrees:
            lhs = evaluate_form(hodge_linear_form(g, d, "partitions"), solution.values)
            if lhs != n_target(g, d):
                raise TheoremViolationError(f"genus-{g} degree-{d} value differs")


def _check_hodge_engine(g_max: int, d_max: int) -> None:
    genera, degrees = _genera(g_max), _degrees(d_max)
    for g in genera:
        for d in degrees:
            if locgraphs.hodge_form_from_graphs(g, d) != hodge_linear_form(g, d):
                raise TheoremViolationError(f"graph sum differs from the closed form at g={g}, d={d}")


def _check_tables() -> None:
    for d in (2, 3):
        problems = _golden_diff(d)
        if problems:
            raise TheoremViolationError(f"degree-{d} table: " + "; ".join(problems))


def _check_pair_totals(d_max: int) -> None:
    """Every degree's rubber total against the closed form ``-d^(d-2)``."""
    for d in _degrees(d_max):
        terms = locgraphs.relation_extract(d, locgraphs.lift_pair(1)).terms.items()
        rubber = [c for graph, monos in terms if graph.side == "infinity" for c in monos.values()]
        if sum(rubber, Fraction(0)) != -Fraction(d) ** (d - 2):
            raise TheoremViolationError(f"pair-lift rubber total differs at d={d}")


def _check_divisor_solve() -> None:
    solution = locgraphs.evaluate_and_solve(2)
    poly = genus1_polynomial(3)
    for exponents, value in (((2, 0), solution.a2), ((0, 2), solution.a3), ((1, 1), solution.b)):
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
        check_pullback_stability(t)
    for t in (3, 4, 5):
        check_equivariance(t)
    rng = random.Random(11)
    for t in (3, 4):
        point = tuple(Fraction(rng.randint(-5, 5)) for _ in range(t - 1))
        check_homogeneity(Fraction(rng.randint(2, 5)), point)


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
    if _interp_round_trip((2, 2), seed=7, trials=10):
        raise TheoremViolationError("interpolation round-trip differs")


def _cmd_verify_all(args: argparse.Namespace) -> int:
    g_max, d_max = check_integer("--g-max", args.g_max, least=1), check_integer("--d-max", args.d_max, least=1)
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
        ("interp", "newton-round-trip", _check_interp),
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

    def add_format(p: argparse.ArgumentParser, *extra: str) -> None:
        p.add_argument("--format", default="table", choices=("table", "json", "csv", *extra))

    p = sub.add_parser("hurwitz", help="count covers of the line with two fixed profiles")
    p.add_argument("--alpha", required=True, help="comma-separated profile over zero")
    p.add_argument("--beta", required=True, help="comma-separated profile over infinity")
    p.add_argument("--psi", action="store_true", help="divide by the branch factorial")
    add_format(p)
    p.set_defaults(fn=_cmd_hurwitz)

    p = sub.add_parser("series", help="print an exact series expansion")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", action="store_true", help="the tree-weight exponential inverse")
    group.add_argument("--log-sine", action="store_true", help="the logarithmic sine ratio")
    p.add_argument("--d", type=int, help="scaling degree for --log-sine (default 1)")
    p.add_argument("--order", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("localize", help="fixed-point graph tables and pole relations")
    p.add_argument("--d", type=int, required=True, choices=(2, 3))
    add_format(p)
    p.add_argument("--golden", action="store_true", help="diff against the frozen rows")
    p.set_defaults(fn=_cmd_localize)

    p = sub.add_parser("pclass", help="genus-one weight polynomial coefficients")
    p.add_argument("--marks", type=int, required=True)
    add_format(p, "latex")
    p.set_defaults(fn=_cmd_pclass)

    p = sub.add_parser("hain", help="theta-divisor power expansion for compact type")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated rational weights, summing to zero")
    add_format(p)
    p.set_defaults(fn=_cmd_hain)

    p = sub.add_parser("interp", help="exact multivariate interpolation round-trip")
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
