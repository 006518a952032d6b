"""Exact linear algebra: the integer elimination against the Fraction route."""

from __future__ import annotations

import math
import random
import types
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest

from rubbertaut import linalg
from rubbertaut.errors import InconsistencyError, InvalidArgumentError
from rubbertaut.linalg import (
    LinearSolution,
    newton_fit,
    rref,
    solve_linear_system,
    solve_lower_triangular,
)

Matrix = list[list[Fraction]]


def fraction_rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """The retired Gauss-Jordan elimination over ``Fraction`` (oracle)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_solve(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> LinearSolution:
    """The retired solve: the augmented system through :func:`fraction_rref`."""
    width = len(matrix[0])
    reduced, pivots = fraction_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if width in pivots:
        raise InconsistencyError("linear system has no exact solution")
    particular = [Fraction(0)] * width
    for row, col in zip(reduced, pivots):
        particular[col] = row[width]
    nullspace = []
    for free in (c for c in range(width) if c not in pivots):
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vector[col] = -row[free]
        nullspace.append(tuple(vector))
    return LinearSolution(tuple(particular), tuple(nullspace))


def _entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _mixed_entry(rng: random.Random) -> int | Fraction:
    if rng.random() < 0.5:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def _random_matrix(rng: random.Random, height: int, width: int) -> Matrix:
    return [[_entry(rng) for _ in range(width)] for _ in range(height)]


def _combination(rng: random.Random, rows: Matrix) -> list[Fraction]:
    """A random rational combination of the given rows."""
    out = [Fraction(0)] * len(rows[0])
    for row in rows:
        scale = _entry(rng)
        out = [a + scale * b for a, b in zip(out, row)]
    return out


def _doctor(rng: random.Random, matrix: Matrix, kind: str) -> Matrix:
    """Give a random matrix the structure named by ``kind``."""
    height, width = len(matrix), len(matrix[0])
    if kind == "zero-rows":
        for i in rng.sample(range(height), k=max(1, height // 2)):
            matrix[i] = [Fraction(0)] * width
    elif kind == "zero-columns":
        for c in rng.sample(range(width), k=max(1, width // 2)):
            for row in matrix:
                row[c] = Fraction(0)
    elif kind == "duplicate-rows":
        for i in range(1, height, 2):
            matrix[i] = list(matrix[rng.randrange(i)])
    elif kind == "rank-deficient":
        basis = matrix[: max(1, height // 3)]
        matrix = basis + [_combination(rng, basis) for _ in range(height - len(basis))]
        rng.shuffle(matrix)
    return matrix


SHAPES = {
    "square": (5, 5),
    "tall": (9, 4),
    "wide": (3, 8),
    "single-row": (1, 6),
    "single-column": (6, 1),
}
KINDS = ("plain", "zero-rows", "zero-columns", "duplicate-rows", "rank-deficient")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_integer_rref_matches_the_fraction_rref(shape: str, kind: str) -> None:
    rng = random.Random(f"{shape}/{kind}")
    height, width = SHAPES[shape]
    for _ in range(100):
        h, w = rng.randint(1, height), rng.randint(1, width)
        matrix = _doctor(rng, _random_matrix(rng, h, w), kind)
        assert rref(matrix) == fraction_rref(matrix), matrix


def test_integer_rref_matches_on_integer_and_mixed_entries() -> None:
    rng = random.Random(7)
    for _ in range(100):
        matrix = [[_mixed_entry(rng) for _ in range(4)] for _ in range(rng.randint(1, 6))]
        reduced, pivots = rref(matrix)
        assert (reduced, pivots) == fraction_rref(matrix)
        assert all(type(v) is Fraction for row in reduced for v in row)


def test_integer_rref_matches_on_an_inconsistent_augmented_column() -> None:
    rng = random.Random(11)
    inconsistent = 0
    for _ in range(100):
        matrix = _doctor(rng, _random_matrix(rng, 6, 3), "rank-deficient")
        augmented = [row + [_entry(rng)] for row in matrix]
        augmented[rng.randrange(len(augmented))][-1] += 1
        reduced, pivots = rref(augmented)
        assert (reduced, pivots) == fraction_rref(augmented)
        inconsistent += 3 in pivots
    assert inconsistent > 50


def test_integer_rref_keeps_its_rows_primitive(monkeypatch: pytest.MonkeyPatch) -> None:
    # Divided by its gcd, each row of a partial Gauss-Jordan form is the
    # primitive multiple of a vector of minors, so its entries are at most the
    # Hadamard bound H (a product of row norms).  An eliminated row
    # ``p * a - f * b`` is then at most 2 * H**2.  Without the gcd division
    # the sizes double at each step.
    rng = random.Random(16)
    matrix = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    hadamard = math.prod(math.isqrt(sum(v * v for v in row)) + 1 for row in matrix)
    bound = (2 * hadamard**2).bit_length()
    operands: list[int] = []

    def gcd(*values: int) -> int:
        operands.extend(values)
        return math.gcd(*values)

    monkeypatch.setattr(linalg, "math", types.SimpleNamespace(gcd=gcd, lcm=math.lcm))
    _, pivots = rref(matrix)
    assert pivots == list(range(16))
    assert operands, "the eliminated rows were never divided by their gcd"
    assert max(abs(v) for v in operands).bit_length() <= bound


def test_rref_edge_shapes() -> None:
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])
    assert rref([[Fraction(0), Fraction(0)]]) == ([[Fraction(0), Fraction(0)]], [])
    assert rref([[Fraction(-3, 4)]]) == ([[Fraction(1)]], [0])
    with pytest.raises(InvalidArgumentError):
        rref([[Fraction(1)], [Fraction(1), Fraction(2)]])


# ---------------------------------------------------------------------------
# solve_linear_system by properties
# ---------------------------------------------------------------------------


def _apply(matrix: Matrix, vector: Sequence[Fraction]) -> list[Fraction]:
    return [sum((a * x for a, x in zip(row, vector)), Fraction(0)) for row in matrix]


@pytest.mark.parametrize("kind", KINDS)
def test_solutions_satisfy_the_system(kind: str) -> None:
    rng = random.Random(f"solve/{kind}")
    for _ in range(60):
        h, w = rng.randint(1, 7), rng.randint(1, 6)
        matrix = _doctor(rng, _random_matrix(rng, h, w), kind)
        rhs = _apply(matrix, [_entry(rng) for _ in range(w)])
        solution = solve_linear_system(matrix, rhs)
        assert _apply(matrix, solution.particular) == rhs
        for vector in solution.nullspace:
            assert not any(_apply(matrix, vector))
        rank = len(fraction_rref(matrix)[1])
        assert len(solution.nullspace) == w - rank
        assert solution.unique == (rank == w)


def test_systems_without_a_solution_raise() -> None:
    rng = random.Random(13)
    raised = 0
    for _ in range(60):
        shape = rng.randint(2, 7), rng.randint(1, 4)
        matrix = _doctor(rng, _random_matrix(rng, *shape), "rank-deficient")
        if len(fraction_rref(matrix)[1]) == len(matrix):
            continue
        # A vector outside the column space: the augmented rref gains a pivot.
        rhs = _apply(matrix, [_entry(rng) for _ in range(len(matrix[0]))])
        for k in range(len(matrix)):
            shifted = [b + (1 if i == k else 0) for i, b in enumerate(rhs)]
            augmented = [row + [b] for row, b in zip(matrix, shifted)]
            if len(matrix[0]) in fraction_rref(augmented)[1]:
                with pytest.raises(InconsistencyError):
                    solve_linear_system(matrix, shifted)
                raised += 1
                break
    assert raised > 30


def _outcome(solve, matrix: Sequence[Sequence], rhs: Sequence) -> LinearSolution | str:
    try:
        return solve(matrix, rhs)
    except InconsistencyError:
        return "inconsistent"


def test_solve_is_the_same_for_every_entry_type() -> None:
    # One system three ways: its rows scaled to ``int``s, the same integers
    # as ``Fraction``s, and the unscaled rows with every integral entry an
    # ``int``.  Scaling a row keeps the reduced form, so all must agree.
    rng = random.Random(17)
    outcomes: Counter[str] = Counter()
    for shape in sorted(SHAPES):
        height, width = SHAPES[shape]
        for kind in KINDS:
            for _ in range(20):
                h, w = rng.randint(1, height), rng.randint(1, width)
                matrix = _doctor(rng, _random_matrix(rng, h, w), kind)
                rhs = _apply(matrix, [_entry(rng) for _ in range(w)])
                if rng.random() < 0.5:
                    rhs[rng.randrange(h)] += 1
                scaled = []
                for row in (row + [b] for row, b in zip(matrix, rhs)):
                    scale = math.lcm(*(v.denominator for v in row))
                    scaled.append([int(v * scale) for v in row])
                systems = [
                    ([row[:-1] for row in scaled], [row[-1] for row in scaled]),
                    (
                        [[Fraction(v) for v in row[:-1]] for row in scaled],
                        [Fraction(row[-1]) for row in scaled],
                    ),
                    (
                        [[int(v) if v.denominator == 1 else v for v in row] for row in matrix],
                        [int(b) if b.denominator == 1 else b for b in rhs],
                    ),
                ]
                expected = _outcome(fraction_solve, matrix, rhs)
                results = [_outcome(solve_linear_system, *system) for system in systems]
                assert results == [expected] * 3, systems
                if isinstance(expected, str):
                    outcomes[expected] += 1
                else:
                    outcomes["unique" if expected.unique else "nullspace"] += 1
                    # ``int`` rows still give ``Fraction``s (``3 == Fraction(3)``).
                    entries = [*results[0].particular, *sum(results[0].nullspace, ())]
                    assert all(type(v) is Fraction for v in entries)
    assert min(outcomes[k] for k in ("unique", "nullspace", "inconsistent")) >= 50, outcomes


def test_solver_rejects_malformed_systems() -> None:
    with pytest.raises(InvalidArgumentError):
        solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])
    with pytest.raises(InvalidArgumentError):
        solve_linear_system([], [])


# ---------------------------------------------------------------------------
# The integer kernels of the Hodge solve against the elimination
# ---------------------------------------------------------------------------


def test_lower_triangular_solve_matches_the_elimination() -> None:
    rng = random.Random(19)
    for _ in range(60):
        size = rng.randint(1, 7)
        rows = [
            [rng.randint(-30, 30) for _ in range(i)] + [rng.choice([-1, 1]) * rng.randint(1, 40)]
            for i in range(size)
        ]
        rhs = [rng.randint(-50, 50) for _ in range(size)]
        numerators, denominator = solve_lower_triangular(rows, rhs)
        square = [row + [0] * (size - len(row)) for row in rows]
        expected = solve_linear_system(square, rhs).particular
        assert [Fraction(n, denominator) for n in numerators] == list(expected)
        assert denominator > 0 and math.gcd(denominator, *numerators) == 1


def test_lower_triangular_solve_rejects_a_zero_diagonal() -> None:
    with pytest.raises(InvalidArgumentError):
        solve_lower_triangular([[1], [2, 0]], [1, 1])
    with pytest.raises(InvalidArgumentError):
        solve_lower_triangular([[1]], [1, 2])


def test_newton_fit_recovers_polynomials_and_refuses_points_off_them() -> None:
    rng = random.Random(23)
    for _ in range(60):
        count = rng.randint(1, 7)
        poly = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(count)]
        # Scale so every value is an integer, as the kernel requires.
        scale = math.lcm(*(c.denominator for c in poly))
        points = count + rng.randint(0, 5)
        values = [int(scale * sum(c * x**k for k, c in enumerate(poly))) for x in range(1, points + 1)]
        coefficients, denominator = newton_fit(values, count)
        assert denominator == math.factorial(count - 1)
        assert [Fraction(a, denominator) for a in coefficients] == [scale * c for c in poly]
        if points > count:
            values[rng.randrange(count, points)] += 1
            with pytest.raises(InconsistencyError):
                newton_fit(values, count)
    with pytest.raises(InvalidArgumentError):
        newton_fit([1, 2], 3)
    with pytest.raises(InvalidArgumentError):
        newton_fit([1, 2], 0)
