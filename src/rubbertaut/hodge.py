"""Top Hodge-pair integrals pinned down by an exact family of identities.

For each genus ``g >= 1`` the unknowns are the ``g`` integrals

    I(g, j) = integral of psi^(g-1-j) * lambda_j * lambda_g * lambda_(g-1)

over the moduli of one-pointed genus-``g`` curves, ``j = 0..g-1``.  For every
degree ``d >= 1`` a localization identity expresses the same rubber integral
both as a rational linear form in the ``I(g, j)`` and as the coefficient of
``y^(2g)`` in ``log((d y / 2) / sin(d y / 2))``, which is ``d^(2g)`` times
the degree-1 coefficient ``|B_2g| / (2g (2g)!)``.  :func:`solve_hodge` takes
that coefficient from the integer tangent numbers; the per-degree series,
built by :func:`n_target`, is the oracle that :func:`verify_scaling`,
``verify-all`` and the tests check it against, raising at the first failure.
Each form is an integer combination of the edge moments
``q_e = sum_j (-1)^j e^(g-1-j) I(g, j)`` with ``e <= d``, so the identities
are lower-triangular in the moments: :func:`solve_hodge` substitutes forward
for the moments, reads the integrals off the polynomial in ``e`` through the
first ``g`` of them, and checks every degree past ``g`` against it.

The integer weights of the edge moments over ``D = d^(d-1) d!`` have two
independent derivations, and one spread, :func:`_form`, turns either into
the linear form.  The resummed route, a sum over the size of the
distinguished part, is the production route: its weights feed both
:func:`hodge_linear_form` and :func:`solve_hodge`, which stays in integers
up to the solved values.  Only its branch weights depend on the genus; the
tree and edge factors are read off a table built once per process, one row
per tree size, at most ``MAX_DEGREE + 1`` rows.  The partition route, a sum
over every ramification partition of ``d``, is kept as the oracle: the tests
compare the two routes' weights edge by edge, and ``verify-all`` evaluates
the partition-route form at the solved values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvalidArgumentError, InconsistencyError, ResourceLimitError, TheoremViolationError
from .linalg import newton_fit, solve_lower_triangular
from .partitions import aut, enumerate_partitions
from .series import series_log_sine
from .util import Table, check_integer

__all__ = [
    "MAX_GENUS",
    "MAX_DEGREE",
    "hodge_linear_form",
    "evaluate_form",
    "n_target",
    "HodgeSolution",
    "solve_hodge",
    "verify_scaling",
]

#: A rational linear form in the unknowns ``I(g, j)``, keyed by ``j``.
LinearForm = dict[int, Fraction]

#: Highest genus the Hodge entry points and the graph lifts accept, checked
#: before any series or graph is built: ``solve_hodge(24, 48)`` takes about
#: 0.007 s and ``verify-all --g-max 24 --d-max 10`` about 0.55 s (2-vCPU VM).
MAX_GENUS = 24

#: Highest degree ``hodge_linear_form`` accepts and highest degree bound of
#: ``solve_hodge`` and ``verify_scaling``, checked before any work, so every
#: genus can be solved over twice its own degrees: ``solve_hodge(24, 48)``
#: takes about 0.007 s, ``verify_scaling(24, 48)`` about 0.16 s and
#: ``hodge_linear_form(24, 48)`` about 0.7 ms (2-vCPU VM).
MAX_DEGREE = 2 * MAX_GENUS


def _check_genus(g: int) -> int:
    """Refuse a genus outside ``1..MAX_GENUS``; the graph lifts and
    ``verify-all`` check through here too."""
    if (g := check_integer("genus", g, least=1)) > MAX_GENUS:
        raise ResourceLimitError(f"genus {g} exceeds the genus cap {MAX_GENUS}")
    return g


def _check_degree_bound(d_max: int) -> int:
    """Refuse a degree (bound) outside ``1..MAX_DEGREE``: a sweep over no
    degree checks nothing."""
    if (d_max := check_integer("degree", d_max, least=1)) > MAX_DEGREE:
        raise ResourceLimitError(f"degree {d_max} exceeds the Hodge degree cap {MAX_DEGREE}")
    return d_max


def _partition_weights(g: int, d: int) -> list[int]:
    """The edge weights of the degree-``d`` identity, summed over every
    ramification partition ``nu`` of ``d`` (one term per part).

    Partitions with more than ``2g + 1`` parts carry no term, since their
    branch binomial vanishes, so only the shorter ones are listed; the listing
    refuses a degree past the partition-sum cap.  Over ``D = d^(d-1) d!`` the
    term of ``nu``, with ``l`` parts, is the integer
    ``(-1)^(l-1) C(2g+d-l, d-1) S(nu) (d-1)! d^(l-1) prod_p p^(p-1)``, where
    ``S(nu) = d! / (aut(nu) prod_p p!)`` counts the set partitions of type
    ``nu``; each part ``e`` adds the term times ``e^2`` to the weight of edge
    size ``e``.  Summed, the weights equal :func:`_edge_weights` edge by edge.
    """
    weights = [0] * d
    for nu in enumerate_partitions(d, 2 * g + 1):
        l = len(nu)
        term = (-1) ** (l - 1) * math.comb(2 * g + d - l, d - 1) * math.factorial(d - 1) * d ** (l - 1)
        term *= math.factorial(d) // (aut(nu) * math.prod(map(math.factorial, nu)))
        term *= math.prod(part ** (part - 1) for part in nu)
        for part in nu:
            weights[part - 1] += term * part * part
    return weights


def _tree_row(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    trees = tuple(1 if l == n else l * math.comb(n, l) * n ** (n - l - 1) for l in range(n + 1))
    return trees, tuple(math.comb(n, e) * e ** (e + 1) for e in range(1, n + 1))


#: The genus-free factors of :func:`_edge_weights`, shared by every call:
#: per tree size ``n`` the row ``l C(n, l) n^(n-l-1)``, ``l = 0..n`` (1 at
#: ``l = n``, 0 at ``l = 0 < n``), and the edge factors ``C(n, e) e^(e+1)``,
#: ``e = 1..n``.  Callers check the degree cap first, so at most
#: ``MAX_DEGREE + 1`` rows.
_TREES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = Table(_tree_row)


def _edge_weights(g: int, d: int) -> list[int]:
    """The integer weights ``c(d, e)``, ``e = 1..d``, of the degree-``d`` identity.

    The form is ``sum_e c(d, e) q_e / D`` with ``D = d^(d-1) d!`` and the edge
    moment ``q_e = sum_j (-1)^j e^(g-1-j) I(g, j)``.  These weights resum over
    the size ``e`` of the distinguished part: with ``n = d - e`` the
    tree-series power is ``[x^n] tau^l = l n^(n-l-1) / (n-l)!`` (1 at
    ``l = n``).  Writing ``1/(l! (n-l)!) = C(n, l)/n!`` makes each inner sum
    an integer over ``n!``, and ``1/(e! n!) = C(d, e)/d!`` leaves ``D``, so
    ``c(d, e) = C(d, e) inner(d, e) e^(e+1)``.  Only the branch weights
    ``perm(2g+d-l-1, d-1) (-d)^l``, ``l <= 2g``, depend on the genus; the
    tree factors and ``C(d, e) e^(e+1)`` are read off the ``_TREES`` rows,
    built once per process, and each inner sum is the branch weights times
    row ``n``, up to ``l = min(n, 2g)``.  The diagonal
    ``c(d, d) = perm(2g+d-1, d-1) d^(d+1)`` is never 0.
    :func:`_partition_weights` derives the same weights independently.
    """
    branches = [math.perm(2 * g + d - l - 1, d - 1) * (-d) ** l for l in range(min(d, 2 * g + 1))]
    return [
        edge * sum(map(operator.mul, branches, _TREES[d - e][0]))
        for e, edge in enumerate(_TREES[d][1], start=1)
    ]


def _form(g: int, weights: Sequence[int], denominator: int) -> LinearForm:
    """The form ``sum_e weights[e-1] q_e / denominator`` in the unknowns: each
    weight spreads over ``I(g, j)`` as its edge moment ``q_e``."""
    sums = [0] * g
    for e, weight in enumerate(weights, start=1):
        term = weight
        for j in range(g - 1, -1, -1):
            sums[j] += term
            term *= e
    return {j: Fraction(-s if j % 2 else s, denominator) for j, s in enumerate(sums) if s}


def hodge_linear_form(g: int, d: int, method: str = "resummed") -> LinearForm:
    """Linear form in ``I(g, *)`` whose value is the degree-``d`` rubber integral.

    ``"resummed"`` (the default) takes the edge weights from the sum over the
    size of the distinguished part (:func:`_edge_weights`); ``"partitions"``
    from the sum over ramification partitions of ``d``
    (:func:`_partition_weights`), which serves as the oracle.  Both spread
    through :func:`_form`; the test suite checks that the weights agree.  ``d`` must lie in
    ``1..MAX_DEGREE``; no form the caps admit is empty, as its value (the
    log-sine target) is nonzero.
    """
    g, d = _check_genus(g), _check_degree_bound(d)
    routes = {"resummed": _edge_weights, "partitions": _partition_weights}
    if not isinstance(method, str) or method not in routes:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return _form(g, routes[method](g, d), d ** (d - 1) * math.factorial(d))


def evaluate_form(form: Mapping[int, Fraction], values: Sequence[Fraction]) -> Fraction:
    """Evaluate a linear form at concrete values of the unknowns."""
    total = Fraction(0)
    for j, coeff in form.items():
        if (j := check_integer("unknown index", j, least=0)) >= len(values):
            raise InvalidArgumentError(f"form mentions unknown index {j}")
        total += coeff * values[j]
    return total


def n_target(g: int, d: int) -> Fraction:
    """Target value: coefficient of ``y^(2g)`` in the even log-sine series."""
    g = _check_genus(g)
    return series_log_sine(d, 2 * g).coefficient(2 * g)


def _log_sine_coefficient(g: int) -> Fraction:
    """``n_target(g, 1) = |B_2g| / (2g (2g)!) = T_g / (4^g (4^g - 1) (2g)!)``.

    ``T_g`` is the ``g``-th tangent number (1, 2, 16, 272, ...), the
    coefficient of ``x^(2g-1) / (2g-1)!`` in ``tan x``, from the integer
    recurrence of Knuth and Buckholtz (Math. Comp. 21, 1967), so no series
    is built.
    """
    tangent = [0, 1] + [0] * (g - 1)
    for k in range(2, g + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, g + 1):
        for j in range(k, g + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return Fraction(tangent[g], 4**g * (4**g - 1) * math.factorial(2 * g))


@dataclass(frozen=True)
class HodgeSolution:
    """Solved integrals for one genus, with the degrees that confirmed them.

    The solution is unique: degrees ``1..g`` fix the edge moments
    ``q_1..q_g``, and the Vandermonde matrix on ``e = 1..g`` mapping the
    unknowns to them is invertible.  The constant ``unique`` is kept for the
    benchmark's hodge-solve check and the CI step "Hodge solve at the genus cap".
    """

    g: int
    values: tuple[Fraction, ...]
    verified_degrees: tuple[int, ...]

    unique = True

    def value(self, j: int) -> Fraction:
        if (j := check_integer("unknown index", j, least=0)) >= len(self.values):
            raise InvalidArgumentError(f"no unknown I({self.g}, {j})")
        return self.values[j]


def solve_hodge(g: int, d_max: int | None = None) -> HodgeSolution:
    """Solve for the integrals ``I(g, 0..g-1)`` from the degree identities.

    Uses all degrees ``1..max(g, d_max)``; ``d_max`` defaults to ``g`` and
    must lie in ``1..MAX_DEGREE``.  Degree ``d`` reads
    ``sum_(e <= d) c(d, e) q_e = d^(2g) D n_target(g, 1)`` with the edge
    weights ``c(d, e)`` of :func:`_edge_weights` and ``D = d^(d-1) d!``, so
    the system is lower-triangular in the edge moments ``q_e``.  The solve
    forward-substitutes ``q_e / n_target(g, 1)`` in integers, fits the
    degree-``(g-1)`` polynomial in ``e`` through ``q_1..q_g`` whose
    coefficients are ``+-I(g, j)``, and checks that it gives back every
    ``q_e`` with ``e > g``: the degrees past ``g`` are the consistency check.
    The base ``n_target(g, 1)`` comes from the tangent numbers
    (:func:`_log_sine_coefficient`), not from a series; the targets
    ``d^(2g) n_target(g, 1)`` are checked against each degree's own log-sine
    series by :func:`verify_scaling`, ``verify-all`` and the tests.  An
    inconsistent system raises ``TheoremViolationError``.
    """
    g = _check_genus(g)
    d_max = _check_degree_bound(g if d_max is None else d_max)
    degrees = tuple(range(1, max(g, d_max) + 1))
    rows = [_edge_weights(g, d) for d in degrees]
    rhs = [d ** (2 * g) * d ** (d - 1) * math.factorial(d) for d in degrees]
    moments, denominator = solve_lower_triangular(rows, rhs)
    try:
        coefficients, scale = newton_fit(moments, g)
    except InconsistencyError as exc:
        raise TheoremViolationError(
            f"degree identities for genus {g} are inconsistent over degrees {degrees}"
        ) from exc
    # q_e = sum_j (-1)^j e^(g-1-j) I(g, j): I(g, j) is (-1)^j [e^(g-1-j)].
    base = _log_sine_coefficient(g) / (denominator * scale)
    values = tuple(
        base * (-coefficients[g - 1 - j] if j % 2 else coefficients[g - 1 - j])
        for j in range(g)
    )
    return HodgeSolution(g=g, values=values, verified_degrees=degrees)


def verify_scaling(g: int, d_max: int) -> None:
    """Check ``target(g, d) = d^(2g) * target(g, 1)`` for all ``d <= d_max``,
    each target from its own log-sine series; ``d_max`` must lie in
    ``1..MAX_DEGREE``.  Raises ``TheoremViolationError`` at the first ``d`` that fails."""
    g, d_max = _check_genus(g), _check_degree_bound(d_max)
    base = n_target(g, 1)
    for d in range(1, d_max + 1):
        if n_target(g, d) != Fraction(d) ** (2 * g) * base:
            raise TheoremViolationError(f"log-sine target does not scale as d^(2g) at g={g}, d={d}")
