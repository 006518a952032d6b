"""Exact linear algebra over the rationals, kept in integers.

Two integer kernels serve the Hodge solve: :func:`solve_lower_triangular`
forward-substitutes a lower-triangular system over one running denominator,
and :func:`newton_fit` fits a polynomial to values at ``x = 1, 2, ...``
through forward differences and proves that the values past the fit lie on
it.  The general tools, reduced row echelon form and a solver for (possibly
overdetermined or rank-deficient) systems that either proves inconsistency
or returns a particular solution plus a nullspace basis, scale ``int`` or
``Fraction`` rows to integers and eliminate them fraction-free
(Bareiss-style; see :func:`_eliminate`); the tests use them as the
reference for the kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InconsistencyError, InvalidArgumentError

__all__ = ["LinearSolution", "solve_linear_system", "rref", "solve_lower_triangular", "newton_fit"]


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of an exact linear system ``A x = b``.

    ``particular`` is one solution; ``nullspace`` is a basis of homogeneous
    solutions (empty exactly when the solution is unique).
    """

    particular: tuple[Fraction, ...]
    nullspace: tuple[tuple[Fraction, ...], ...] = field(default_factory=tuple)

    @property
    def unique(self) -> bool:
        return not self.nullspace


def _eliminate(matrix: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan form of ``matrix`` and its pivot columns.

    Rows are scaled to integers; against pivot ``p`` in column ``c`` a row
    becomes ``p * row - row[c] * pivot_row``, divided by its gcd.  Row ``i``
    divided by its entry in column ``pivots[i]`` is row ``i`` of the reduced
    form, and the rows past ``len(pivots)`` are zero.
    """
    rows: list[list[int]] = []
    width = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != width:
            raise InvalidArgumentError("ragged matrix")
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    pivots: list[int] = []
    r = 0
    for col in range(width):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                p, factor = pivot[col], row[col]
                row = [p * a - factor * b for a, b in zip(row, pivot)]
                divisor = math.gcd(*row)
                rows[i] = [v // divisor for v in row] if divisor > 1 else row
        pivots.append(col)
        r += 1
    return rows, pivots


def rref(matrix: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form, a ``Fraction`` per entry, and the pivot columns."""
    rows, pivots = _eliminate(matrix)
    reduced = [[Fraction(v, row[col]) for v in row] for row, col in zip(rows, pivots)]
    return reduced + [[Fraction(0)] * len(row) for row in rows[len(pivots):]], pivots


def solve_linear_system(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> LinearSolution:
    """Solve ``A x = b`` exactly.

    Raises ``InconsistencyError`` when the augmented column holds a pivot.
    Otherwise returns a particular solution (free variables set to zero) and a
    nullspace basis, one vector per free variable: the only ``Fraction``s.
    """
    if len(matrix) != len(rhs):
        raise InvalidArgumentError(
            f"matrix has {len(matrix)} rows but rhs has {len(rhs)} entries"
        )
    if not matrix:
        raise InvalidArgumentError("empty system")
    width = len(matrix[0])
    rows, pivots = _eliminate([[*row, b] for row, b in zip(matrix, rhs)])
    if width in pivots:
        raise InconsistencyError("linear system has no exact solution")
    particular = [Fraction(0)] * width
    for row, col in zip(rows, pivots):
        particular[col] = Fraction(row[width], row[col])
    nullspace: list[tuple[Fraction, ...]] = []
    for free in (c for c in range(width) if c not in pivots):
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            vector[col] = Fraction(-row[free], row[col])
        nullspace.append(tuple(vector))
    return LinearSolution(tuple(particular), tuple(nullspace))


def solve_lower_triangular(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[list[int], int]:
    """Solve ``sum_(k <= i) rows[i][k] x_k = rhs[i]`` exactly, in integers.

    Row ``i`` holds at least ``i + 1`` entries; entries past the diagonal are
    not read, and each diagonal entry must be nonzero.  Returns numerators
    ``n_k`` and one positive denominator ``D`` with ``x_k = n_k / D`` and
    ``gcd(D, n_0, n_1, ...) = 1``.
    """
    if len(rows) != len(rhs):
        raise InvalidArgumentError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    numerators: list[int] = []
    denominator = 1
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(row) <= i or row[i] == 0:
            raise InvalidArgumentError(f"row {i} has no nonzero diagonal entry")
        # x_i = residual / (pivot D).  The new numerator residual / divisor
        # is prime to scale, so the gcd of D and the numerators stays 1.
        residual = b * denominator - sum(c * n for c, n in zip(row, numerators))
        pivot = row[i]
        divisor = math.gcd(residual, pivot)
        scale = pivot // divisor
        if scale < 0:
            scale, divisor = -scale, -divisor
        if scale != 1:
            numerators = [n * scale for n in numerators]
            denominator *= scale
        numerators.append(residual // divisor)
    return numerators, denominator


def newton_fit(values: Sequence[int], count: int) -> tuple[list[int], int]:
    """The polynomial of degree below ``count`` through ``(x, values[x - 1])``.

    Newton forward differences on the first ``count`` values give the fit;
    returns integer coefficients ``a_k`` of ``x^k`` and the positive
    denominator ``(count - 1)!``, so the fit is ``sum_k a_k x^k / (count - 1)!``.
    Every value past the first ``count`` is checked against the fit, through
    its ``count``-th differences: ``InconsistencyError`` if one is off it.
    """
    if not 1 <= count <= len(values):
        raise InvalidArgumentError(f"cannot fit {count} coefficients to {len(values)} values")
    differences = list(values)
    leading: list[int] = []
    for _ in range(count):
        leading.append(differences[0])
        differences = [b - a for a, b in zip(differences, differences[1:])]
    if any(differences):
        raise InconsistencyError("values do not lie on one polynomial of the fitted degree")
    # sum_k leading[k] C(x - 1, k), times (count - 1)!, in the monomial basis.
    scale = math.factorial(count - 1)
    coefficients = [0] * count
    basis = [1]
    for k, delta in enumerate(leading):
        weight = delta * (scale // math.factorial(k))
        for power, c in enumerate(basis):
            coefficients[power] += weight * c
        basis = [a - (k + 1) * b for a, b in zip([0, *basis], [*basis, 0])]
    return coefficients, scale
