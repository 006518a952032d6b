"""Top Hodge-pair integrals pinned down by an exact family of identities.

For each genus ``g >= 1`` the unknowns are the ``g`` integrals

    I(g, j) = integral of psi^(g-1-j) * lambda_j * lambda_g * lambda_(g-1)

over the moduli of one-pointed genus-``g`` curves, ``j = 0..g-1``.  For every
degree ``d >= 1`` a localization identity expresses the same rubber integral
both as a rational linear form in the ``I(g, j)`` and as the coefficient of
``y^(2g)`` in ``log((d y / 2) / sin(d y / 2))``, which is ``d^(2g)
n_target(g, 1)``: :func:`solve_hodge` scales the one series, and
:func:`verify_scaling` and ``verify-all`` check each degree's own series.
Solving the resulting (deliberately overdetermined) exact linear system
yields the integrals and a strong internal consistency check.

The linear form has two independent derivations.  The resummed route, a sum
over the size of the distinguished part, is the production route that
:func:`solve_hodge` runs.  The partition route, a sum over every
ramification partition of ``d``, is slower and is kept as the oracle: the
tests compare the two forms, and ``verify-all`` evaluates the partition-route
form at the solved values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvalidArgumentError, InconsistencyError, TheoremViolationError
from .linalg import solve_linear_system
from .partitions import aut, enumerate_partitions
from .series import series_log_sine
from .util import combine

__all__ = [
    "q_form",
    "hodge_linear_form",
    "evaluate_form",
    "n_target",
    "HodgeSolution",
    "solve_hodge",
    "verify_scaling",
]

#: A rational linear form in the unknowns ``I(g, j)``, keyed by ``j``.
LinearForm = dict[int, Fraction]


def q_form(g: int, e: int) -> LinearForm:
    """The alternating edge-weight form ``sum_j (-1)^j e^(g-1-j) I(g, j)``."""
    if g < 1:
        raise InvalidArgumentError(f"need genus >= 1, got {g}")
    if e < 1:
        raise InvalidArgumentError(f"need edge size >= 1, got {e}")
    return {j: Fraction((-1) ** j * e ** (g - 1 - j)) for j in range(g)}


def _partition_route(g: int, d: int) -> LinearForm:
    """Sum over ramification partitions of the degree (one term per part)."""
    pairs: list[tuple[Fraction, LinearForm]] = []
    prefactor = Fraction(math.factorial(d), d ** (d - 1))
    for nu in enumerate_partitions(d):
        l = len(nu)
        if l > 2 * g + 1:
            continue
        sign = Fraction((-1) ** (l - 1))
        branch = math.comb(2 * g + d - l, d - 1)
        weight = Fraction(1)
        for part in nu:
            weight *= Fraction(part ** (part - 1), math.factorial(part))
        common = (
            sign
            * prefactor
            * branch
            * Fraction(d) ** (l - 2)
            / aut(nu)
            * weight
        )
        pairs += [(common * part * part, q_form(g, part)) for part in nu]
    return combine(pairs) or {0: Fraction(0)}


def _resummed_route(g: int, d: int) -> LinearForm:
    """Resummation over the size ``e`` of the distinguished part, in integers.

    With ``n = d - e`` the tree-series power is ``[x^n] tau^l =
    l n^(n-l-1) / (n-l)!`` (1 at ``l = n``).  Writing ``1/(l! (n-l)!) =
    C(n, l)/n!`` makes each inner sum an integer over ``n!``, and
    ``1/(e! n!) = C(d, e)/d!`` leaves one denominator ``d^(d-1) d!`` for the
    whole form.
    """
    sums = [0] * g
    for e in range(1, d + 1):
        n = d - e
        inner = 0
        for l in range(min(n, 2 * g) + 1):
            tree = 1 if l == n else l * math.comb(n, l) * n ** (n - l - 1)
            inner += math.perm(2 * g + d - l - 1, d - 1) * (-d) ** l * tree
        if inner == 0:
            continue
        term = math.comb(d, e) * inner * e ** (e + 1)
        for j in range(g - 1, -1, -1):
            sums[j] += term
            term *= e
    denominator = d ** (d - 1) * math.factorial(d)
    total = {
        j: Fraction((-1) ** j * value, denominator)
        for j, value in enumerate(sums)
        if value != 0
    }
    return total or {0: Fraction(0)}


def hodge_linear_form(g: int, d: int, method: str = "resummed") -> LinearForm:
    """Linear form in ``I(g, *)`` whose value is the degree-``d`` rubber integral.

    ``"resummed"`` (the default) sums over the size of the distinguished part
    using tree-series power coefficients; ``"partitions"`` sums over
    ramification partitions of ``d`` and serves as the oracle.  They agree
    identically and the test suite checks that.
    """
    if g < 1:
        raise InvalidArgumentError(f"need genus >= 1, got {g}")
    if d < 1:
        raise InvalidArgumentError(f"need degree >= 1, got {d}")
    if method == "partitions":
        return _partition_route(g, d)
    if method == "resummed":
        return _resummed_route(g, d)
    raise InvalidArgumentError(f"unknown method {method!r}")


def evaluate_form(form: Mapping[int, Fraction], values: Sequence[Fraction]) -> Fraction:
    """Evaluate a linear form at concrete values of the unknowns."""
    total = Fraction(0)
    for j, coeff in form.items():
        if not 0 <= j < len(values):
            raise InvalidArgumentError(f"form mentions unknown index {j}")
        total += coeff * values[j]
    return total


def n_target(g: int, d: int) -> Fraction:
    """Target value: coefficient of ``y^(2g)`` in the even log-sine series."""
    if g < 1:
        raise InvalidArgumentError(f"need genus >= 1, got {g}")
    return series_log_sine(d, 2 * g).coefficient(2 * g)


@dataclass(frozen=True)
class HodgeSolution:
    """Solved integrals for one genus, with the degrees that confirmed them."""

    g: int
    values: tuple[Fraction, ...]
    verified_degrees: tuple[int, ...]
    nullspace: tuple[tuple[Fraction, ...], ...] = ()

    @property
    def unique(self) -> bool:
        return not self.nullspace

    def value(self, j: int) -> Fraction:
        if not 0 <= j < len(self.values):
            raise InvalidArgumentError(f"no unknown I({self.g}, {j})")
        return self.values[j]


def solve_hodge(g: int, d_max: int | None = None) -> HodgeSolution:
    """Solve for the integrals ``I(g, 0..g-1)`` from the degree identities.

    Uses all degrees ``1..max(g, d_max)`` — at least ``g`` equations for the
    ``g`` unknowns, and deliberately more when ``d_max`` exceeds ``g`` so the
    system is overdetermined.  Targets are ``d^(2g) n_target(g, 1)``, which
    :func:`verify_scaling` and ``verify-all`` check per degree.  An
    inconsistent system raises ``TheoremViolationError``; a consistent but
    rank-deficient one is reported through a nonempty ``nullspace``.
    """
    if g < 1:
        raise InvalidArgumentError(f"need genus >= 1, got {g}")
    top = max(g, d_max if d_max is not None else g)
    degrees = tuple(range(1, top + 1))
    base = n_target(g, 1)
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for d in degrees:
        form = hodge_linear_form(g, d)
        matrix.append([form.get(j, Fraction(0)) for j in range(g)])
        rhs.append(d ** (2 * g) * base)
    try:
        solution = solve_linear_system(matrix, rhs)
    except InconsistencyError as exc:
        raise TheoremViolationError(
            f"degree identities for genus {g} are inconsistent over degrees {degrees}"
        ) from exc
    return HodgeSolution(
        g=g,
        values=solution.particular,
        verified_degrees=degrees,
        nullspace=solution.nullspace,
    )


def verify_scaling(g: int, d_max: int) -> bool:
    """Check ``target(g, d) = d^(2g) * target(g, 1)`` for all ``d <= d_max``."""
    base = n_target(g, 1)
    return all(
        n_target(g, d) == Fraction(d) ** (2 * g) * base for d in range(1, d_max + 1)
    )
