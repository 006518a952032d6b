"""Acceptance gate: the seven release criteria, all exact, each reported.

Every check here is an equality between exact rationals or exact symbolic
classes — no tolerances anywhere.  Each criterion runs inside the
``acceptance`` fixture so the terminal summary ends with one PASS/FAIL line
per criterion; the runtime ceilings guard against quadratic regressions in
the enumeration code.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from rubbertaut import cli
from rubbertaut.hodge import evaluate_form, hodge_linear_form, solve_hodge
from rubbertaut.hurwitz import hurwitz_oracle
from rubbertaut.locgraphs import (
    LIFT_DIVISOR,
    assemble_contribution,
    enumerate_rows,
    evaluate_and_solve,
    relation_by_row,
    relation_extract,
)
from rubbertaut.partitions import enumerate_partitions, tau_power_coefficient
from rubbertaut.polyclasses import (
    MultiPoly,
    check_equivariance,
    check_homogeneity,
    check_pullback_stability,
    genus1_polynomial,
    hain_expand,
    interpolate,
)
from rubbertaut.series import series_log_sine, series_mul, series_pow, series_tau
from rubbertaut.tautring import RingContext, boundary, psi1


def test_criterion_1_one_part_cover_counts(acceptance) -> None:
    with acceptance("1. one-part cover counts equal (l-1)! d^(l-2) for d <= 6"):
        start = time.monotonic()
        for d in range(1, 7):
            for nu in enumerate_partitions(d):
                l = len(nu)
                closed_form = Fraction(math.factorial(l - 1)) * Fraction(d) ** (l - 2)
                assert hurwitz_oracle((d,), nu) == closed_form, (d, nu)
        assert hurwitz_oracle((2,), (1, 1)) == 1
        assert time.monotonic() - start < 60


def test_criterion_2_hodge_linear_systems(acceptance) -> None:
    with acceptance("2. hodge systems solve and scale as d^(2g) for g <= 4, d <= 6"):
        start = time.monotonic()
        for g in range(1, 5):
            solution = solve_hodge(g)
            overdetermined = solve_hodge(g, 6)
            assert solution.unique and overdetermined.unique
            assert solution.values == overdetermined.values
            target_coefficient = series_log_sine(1, 2 * g).coefficient(2 * g)
            for d in range(1, 7):
                value = evaluate_form(hodge_linear_form(g, d, "partitions"), solution.values)
                assert value == Fraction(d) ** (2 * g) * target_coefficient, (g, d)
        assert solve_hodge(1).value(0) == Fraction(1, 24)
        assert time.monotonic() - start < 120


def test_criterion_3_graph_tables_and_pole_relations(acceptance) -> None:
    with acceptance("3. every frozen graph row reproduced; pole relations exact"):
        for d in (2, 3):
            assert cli._golden_diff(d) == []
        rows2 = enumerate_rows(2, LIFT_DIVISOR)
        by_row2 = relation_by_row(relation_extract(2, LIFT_DIVISOR), rows2)
        ordered = sorted(by_row2.items())
        assert [row for row, _ in ordered] == [1, 3, 4, 6, 7]
        assert [next(iter(term.values())) for _, term in ordered] == [4, -1, -2, -1, -1]
        rows3 = enumerate_rows(3, LIFT_DIVISOR)
        by_row3 = relation_by_row(relation_extract(3, LIFT_DIVISOR), rows3)
        assert by_row3[1] == {(1, 0): Fraction(54)}
        silent = {2: {2, 5}, 3: {2, 5, 6}}
        for d, rows in ((2, rows2), (3, rows3)):
            for row in rows:
                if row.index in silent[d]:
                    for graph in row.graphs:
                        assert not assemble_contribution(graph, LIFT_DIVISOR).coefficient_at(-1)


def test_criterion_4_boundary_solve_both_degrees(acceptance) -> None:
    with acceptance("4. degree-2 solve hits the three boundary classes; degree-3 residual is zero"):
        start = time.monotonic()
        ctx = RingContext((1, 2, 3))
        solution = evaluate_and_solve(2)
        assert solution.a2 == (psi1(ctx) - boundary(ctx, (2,))).reduce()
        assert solution.a3 == (psi1(ctx) - boundary(ctx, (3,))).reduce()
        assert solution.b == (psi1(ctx) - boundary(ctx, (1,))).reduce()
        assert solution.bp.is_zero()
        report = evaluate_and_solve(3)
        assert report.residual.is_zero()
        assert report.b_again == solution.b
        assert time.monotonic() - start < 30


def test_criterion_5_weight_polynomial_properties(acceptance) -> None:
    with acceptance("5. three-mark polynomial matches; stability/equivariance/homogeneity hold"):
        ctx = RingContext((1, 2, 3))
        poly = genus1_polynomial(3)
        assert poly.coefficient((2, 0)) == psi1(ctx) - boundary(ctx, (2,))
        assert poly.coefficient((0, 2)) == psi1(ctx) - boundary(ctx, (3,))
        assert poly.coefficient((1, 1)) == psi1(ctx) - boundary(ctx, (1,))
        assert check_pullback_stability(4)
        assert check_pullback_stability(5)
        for t in (3, 4, 5):
            assert check_equivariance(t)
        rng = random.Random(20260816)
        for t in (3, 4):
            point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(t - 1)]
            for _ in range(3):
                scale = Fraction(rng.choice([-9, -5, -2, 1, 4, 7]), rng.randint(1, 8))
                assert check_homogeneity(t, scale, point)


def test_criterion_6_property_suites(acceptance) -> None:
    with acceptance("6. convolution/partition-sum/interpolation/expansion property suites"):
        tau = series_tau(12)
        sine = series_log_sine(2, 12)
        for f, g in ((tau, tau), (tau, sine), (sine, sine)):
            product = series_mul(f, g)
            for k in range(13):
                convolution = sum(
                    f.coefficient(i) * g.coefficient(k - i) for i in range(k + 1)
                )
                assert product.coefficient(k) == convolution
        tau8 = series_tau(8)
        for n in range(9):
            for l in range(n + 1):
                assert tau_power_coefficient(n, l) == series_pow(tau8, l).coefficient(n)
        rng = random.Random(20260816)
        for _ in range(50):
            nvars = rng.randint(1, 3)
            degrees = tuple(rng.randint(0, 4) for _ in range(nvars))
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                key = tuple(rng.randint(0, degrees[v]) for v in range(nvars))
                coeffs[key] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            original = MultiPoly(nvars, coeffs)
            assert interpolate(original.evaluate, nvars, degrees) == original
        for g in (2, 3):
            base = hain_expand(g, 3, (2, -1, -1))
            scaled = hain_expand(g, 3, (6, -3, -3))
            assert scaled == {key: Fraction(3) ** (2 * g) * value for key, value in base.items()}


def test_criterion_7_verify_all_is_deterministic(acceptance) -> None:
    with acceptance("7. verify-all passes and is byte-identical across runs"):
        command = [sys.executable, "-m", "rubbertaut.cli", "verify-all"]
        # Run from the directory holding the imported package, so the child
        # interpreter finds it without PYTHONPATH or an install.
        package_root = Path(cli.__file__).parents[1]
        first = subprocess.run(command, capture_output=True, cwd=package_root)
        second = subprocess.run(command, capture_output=True, cwd=package_root)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.count(b"PASS") == len(first.stdout.splitlines())
