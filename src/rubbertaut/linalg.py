"""Exact dense linear algebra over the rationals.

Only what the solvers in this package need: reduced row echelon form and a
solver for (possibly overdetermined or rank-deficient) systems that either
proves inconsistency or returns a particular solution plus a nullspace basis.
Elimination is fraction-free on integer rows (Bareiss-style; see :func:`rref`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InconsistencyError, InvalidArgumentError

__all__ = ["LinearSolution", "solve_linear_system", "rref"]


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


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices (exact).

    Rows are scaled to integers and eliminated fraction-free: against pivot
    ``p`` in column ``c`` a row becomes ``p * row - row[c] * pivot_row``,
    divided by its gcd.  Only the reduced rows are turned into ``Fraction``s.
    """
    if not matrix:
        return [], []
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise InvalidArgumentError("ragged matrix")
    rows: list[list[int]] = []
    for row in matrix:
        values = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in values))
        rows.append([v.numerator * (scale // v.denominator) for v in values])
    pivots: list[int] = []
    r = 0
    for col in range(width):
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
        if r == len(rows):
            break
    reduced = [[Fraction(v, row[col]) for v in row] for row, col in zip(rows, pivots)]
    return reduced + [[Fraction(0)] * width for _ in rows[r:]], pivots


def solve_linear_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> LinearSolution:
    """Solve ``A x = b`` exactly.

    Raises ``InconsistencyError`` when the system has no solution.  For
    consistent systems returns a particular solution (free variables set to
    zero) and a nullspace basis, one vector per free variable.
    """
    if len(matrix) != len(rhs):
        raise InvalidArgumentError(
            f"matrix has {len(matrix)} rows but rhs has {len(rhs)} entries"
        )
    if not matrix:
        raise InvalidArgumentError("empty system")
    width = len(matrix[0])
    augmented = [list(row) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(augmented)
    if width in pivots:
        raise InconsistencyError("linear system has no exact solution")
    particular = [Fraction(0)] * width
    for row_index, col in enumerate(pivots):
        particular[col] = reduced[row_index][width]
    free_columns = [c for c in range(width) if c not in pivots]
    nullspace: list[tuple[Fraction, ...]] = []
    for free in free_columns:
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for row_index, col in enumerate(pivots):
            vector[col] = -reduced[row_index][free]
        nullspace.append(tuple(vector))
    return LinearSolution(tuple(particular), tuple(nullspace))
