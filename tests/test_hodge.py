from __future__ import annotations

from fractions import Fraction

import pytest

from rubbertaut import hodge
from rubbertaut.errors import (
    InconsistencyError,
    InvalidArgumentError,
    TheoremViolationError,
)
from rubbertaut.hodge import (
    verify_scaling,
    evaluate_form,
    hodge_linear_form,
    n_target,
    q_form,
    solve_hodge,
)
from rubbertaut.linalg import solve_linear_system


# ---------------------------------------------------------------------------
# The two derivations of the degree identities must agree exactly
# ---------------------------------------------------------------------------


def test_partition_and_resummed_routes_agree() -> None:
    for g in range(1, 5):
        for d in range(1, 7):
            assert hodge_linear_form(g, d, method="partitions") == hodge_linear_form(
                g, d, method="resummed"
            )


def test_unknown_method_rejected() -> None:
    with pytest.raises(InvalidArgumentError):
        hodge_linear_form(1, 1, method="guesswork")


def test_q_form_alternates() -> None:
    assert q_form(3, 2) == {0: Fraction(4), 1: Fraction(-2), 2: Fraction(1)}
    assert q_form(1, 5) == {0: Fraction(1)}


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


def test_targets_scale_with_the_degree() -> None:
    for g in range(1, 5):
        assert verify_scaling(g, 6)


def test_target_frozen_values() -> None:
    assert n_target(1, 1) == Fraction(1, 24)
    assert n_target(2, 1) == Fraction(1, 2880)
    assert n_target(3, 1) == Fraction(1, 181440)
    assert n_target(1, 2) == Fraction(1, 6)


# ---------------------------------------------------------------------------
# Solving the linear systems
# ---------------------------------------------------------------------------


def test_solved_integrals_match_frozen_values() -> None:
    one = solve_hodge(1)
    assert one.unique
    assert one.value(0) == Fraction(1, 24)
    two = solve_hodge(2)
    assert two.unique
    assert two.value(0) == Fraction(1, 2880)
    assert two.value(1) == 0


def test_overdetermined_systems_stay_consistent() -> None:
    for g in range(1, 5):
        solution = solve_hodge(g, d_max=6)
        assert solution.unique
        assert solution.verified_degrees == tuple(range(1, 7))
        assert solution.values == solve_hodge(g).values


def test_solution_reproduces_every_degree_identity() -> None:
    for g in range(1, 4):
        solution = solve_hodge(g, d_max=6)
        for d in range(1, 7):
            form = hodge_linear_form(g, d, method="partitions")
            assert evaluate_form(form, solution.values) == n_target(g, d)


def test_value_index_is_validated() -> None:
    solution = solve_hodge(2)
    with pytest.raises(InvalidArgumentError):
        solution.value(2)


def test_genus_zero_is_rejected() -> None:
    with pytest.raises(InvalidArgumentError):
        solve_hodge(0)
    with pytest.raises(InvalidArgumentError):
        n_target(0, 1)
    with pytest.raises(InvalidArgumentError):
        hodge_linear_form(1, 0)


def test_doctored_targets_raise_theorem_violation(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def fake_target(g: int, d: int) -> Fraction:
        return Fraction(d)

    monkeypatch.setattr(hodge, "n_target", fake_target)
    with pytest.raises(TheoremViolationError):
        solve_hodge(1, d_max=3)


def test_inconsistent_linear_system_is_detected() -> None:
    with pytest.raises(InconsistencyError):
        solve_linear_system(
            [[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]
        )


def test_rank_deficient_system_reports_nullspace() -> None:
    solution = solve_linear_system(
        [[Fraction(1), Fraction(1)]], [Fraction(2)]
    )
    assert not solution.unique
    assert len(solution.nullspace) == 1
