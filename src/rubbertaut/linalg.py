"""Exact dense linear algebra over the rationals.

Only what the solvers in this package need: reduced row echelon form and a
solver for (possibly overdetermined or rank-deficient) systems that either
proves inconsistency or returns a particular solution plus a nullspace basis.
Both scale ``int`` or ``Fraction`` rows to integers and eliminate them
fraction-free (Bareiss-style; see :func:`_eliminate`).
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
