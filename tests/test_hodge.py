from __future__ import annotations

import math
import random
import re
import sys
import threading
from collections.abc import Iterator
from fractions import Fraction

import pytest

from rubbertaut import cli, hodge
from rubbertaut.errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)
from rubbertaut.hodge import (
    MAX_DEGREE,
    MAX_GENUS,
    HodgeSolution,
    verify_scaling,
    evaluate_form,
    hodge_linear_form,
    n_target,
    solve_hodge,
)
from rubbertaut.linalg import solve_linear_system
from rubbertaut.partitions import MAX_PARTITION_DEGREE, aut, enumerate_partitions, tau_power_coefficient
from test_linalg import fraction_solve


# ---------------------------------------------------------------------------
# The two derivations of the degree identities must agree exactly
# ---------------------------------------------------------------------------


def _q_row(g: int, e: int) -> dict[int, Fraction]:
    """The edge moment ``q_e = sum_j (-1)^j e^(g-1-j) I(g, j)`` as a form."""
    return {j: Fraction((-1) ** j * e ** (g - 1 - j)) for j in range(g)}


def _resummed_route_in_fractions(g: int, d: int) -> dict[int, Fraction]:
    """The retired resummed route: one ``Fraction`` form per part size ``e``."""
    form: dict[int, Fraction] = {}
    for e in range(1, d + 1):
        inner = Fraction(0)
        for l in range(0, 2 * g + 1):
            inner += (
                Fraction(math.factorial(2 * g + d - l - 1), math.factorial(2 * g - l))
                * Fraction((-d) ** l, math.factorial(l))
                * tau_power_coefficient(d - e, l)
            )
        scale = Fraction(e ** (e + 1), math.factorial(e)) * inner
        for j, value in _q_row(g, e).items():
            form[j] = form.get(j, Fraction(0)) + scale * value
    return {j: v / d ** (d - 1) for j, v in form.items() if v != 0}


def test_partition_and_resummed_routes_agree() -> None:
    pairs = [(g, d) for g in range(1, 5) for d in range(1, 7)] + [(5, 10), (8, 16)]
    for g, d in pairs:
        assert hodge_linear_form(g, d, method="partitions") == hodge_linear_form(
            g, d, method="resummed"
        ), (g, d)


def _partition_route_in_fractions(g: int, d: int) -> dict[int, Fraction]:
    """The retired partition route: one ``Fraction`` form per part of each
    ramification partition of ``d`` with at most ``2g + 1`` parts."""
    form: dict[int, Fraction] = {}
    prefactor = Fraction(math.factorial(d), d ** (d - 1))
    for nu in enumerate_partitions(d, 2 * g + 1):
        l = len(nu)
        common = (
            (-1) ** (l - 1)
            * prefactor
            * math.comb(2 * g + d - l, d - 1)
            * Fraction(d) ** (l - 2)
            / aut(nu)
            * math.prod(Fraction(p ** (p - 1), math.factorial(p)) for p in nu)
        )
        for part in nu:
            for j, value in _q_row(g, part).items():
                form[j] = form.get(j, Fraction(0)) + common * part * part * value
    return {j: v for j, v in form.items() if v != 0}


def test_partition_route_matches_the_fraction_route() -> None:
    pairs = [(g, d) for g in range(1, 5) for d in range(1, 7)] + [(5, 10), (8, 16)]
    for g, d in pairs:
        assert hodge_linear_form(g, d, "partitions") == _partition_route_in_fractions(g, d), (g, d)


def test_partition_weights_equal_the_resummed_weights_edge_by_edge() -> None:
    for g in range(1, MAX_GENUS + 1):
        for d in range(1, MAX_PARTITION_DEGREE + 1):
            assert hodge._partition_weights(g, d) == hodge._edge_weights(g, d), (g, d)


def test_a_doctored_partition_term_fails_the_linear_system_check(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # +1 on the degree-4 term of the partition (3, 1): each part e adds e^2
    # to the weight of edge size e.
    honest = hodge._partition_weights

    def doctored(g: int, d: int) -> list[int]:
        weights = honest(g, d)
        if d == 4:
            for part in (3, 1):
                weights[part - 1] += part * part
        return weights

    monkeypatch.setattr(hodge, "_partition_weights", doctored)
    assert cli.main(["verify-all", "--g-max", "2", "--d-max", "5"]) == 2
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert [line.split(" —")[0] for line in failures] == [
        "FAIL hodge: linear-system-g<=2-d<=5",
    ]
    assert failures[0].endswith("genus-1 degree-4 value differs")


def test_integer_resummed_route_matches_the_fraction_route() -> None:
    for g in range(1, 12):
        for d in sorted({1, g, (3 * g + 1) // 2, 2 * g}):
            assert hodge_linear_form(g, d) == _resummed_route_in_fractions(g, d), (g, d)


def test_unknown_method_rejected() -> None:
    with pytest.raises(InvalidArgumentError):
        hodge_linear_form(1, 1, method="guesswork")


@pytest.mark.parametrize("method", [None, [], {}, b"resummed", 1, ("partitions",)])
def test_a_method_that_is_not_a_route_name_is_refused(method: object) -> None:
    # An unhashable method must not escape as a bare TypeError.
    with pytest.raises(InvalidArgumentError, match="unknown method"):
        hodge_linear_form(2, 3, method)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# The tree table behind the resummed edge weights
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_tree_table() -> Iterator[None]:
    """Empty the tree table before and after the test, so that the test
    builds every row it reads and no doctored row is left for a later test."""
    hodge._TREES.clear()
    yield
    hodge._TREES.clear()


def _retired_edge_weights(g: int, d: int) -> list[int]:
    """The retired per-term loop: every tree and edge factor recomputed for
    each genus and degree."""
    branches = [math.perm(2 * g + d - l - 1, d - 1) * (-d) ** l for l in range(min(d, 2 * g + 1))]
    weights = []
    for e in range(1, d + 1):
        n = d - e
        inner = branches[n] if n <= 2 * g else 0
        for l in range(1, min(n - 1, 2 * g) + 1):
            inner += branches[l] * l * math.comb(n, l) * n ** (n - l - 1)
        weights.append(math.comb(d, e) * inner * e ** (e + 1))
    return weights


def test_tabled_edge_weights_match_the_retired_per_term_loop(fresh_tree_table: None) -> None:
    for g in range(1, MAX_GENUS + 1):
        for d in range(1, MAX_DEGREE + 1):
            assert hodge._edge_weights(g, d) == _retired_edge_weights(g, d), (g, d)
    # one row per tree size, never per genus
    assert set(hodge._TREES) == set(range(MAX_DEGREE + 1))


def test_a_doctored_tree_table_entry_fails_the_solve_and_verify_all(
    capsys: pytest.CaptureFixture[str], fresh_tree_table: None
) -> None:
    """One tree factor off by one (``n = 3``, ``l = 1``, read by degree 4 on)
    moves the degree-4 weights off the identities: the solve finds its
    degrees inconsistent and verify-all fails its Hodge checks."""
    solve_hodge(2, 6)
    trees, edges = hodge._TREES[3]
    assert trees == (0, 9, 6, 1)
    hodge._TREES[3] = ((0, 10, 6, 1), edges)
    assert hodge._edge_weights(2, 4) != _retired_edge_weights(2, 4)
    with pytest.raises(
        TheoremViolationError,
        match=re.escape("degree identities for genus 2 are inconsistent over degrees (1, 2, 3, 4, 5, 6)"),
    ):
        solve_hodge(2, 6)
    code = cli.main(["verify-all", "--g-max", "3", "--d-max", "6"])
    failures = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("PASS ")]
    assert code == 2
    assert [line.split(" —")[0] for line in failures] == [
        "FAIL hodge: linear-system-g<=3-d<=6",
        "FAIL hodge: graph-sum-cross-check-g<=3-d<=6",
    ]


def test_threads_build_one_consistent_tree_table(fresh_tree_table: None) -> None:
    """Threads filling the rows in shuffled orders compute equal weights, and
    every row equals a single-threaded rebuild."""
    cases = [(g, d) for g in (1, 2, 7, MAX_GENUS) for d in range(1, MAX_DEGREE + 1)]
    results: list[dict] = [{} for _ in range(4)]  # more threads than cores

    def weigh_all(k: int) -> None:
        order = cases[:]
        random.Random(k).shuffle(order)
        for g, d in order:
            results[k][g, d] = hodge._edge_weights(g, d)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=weigh_all, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == results[0] for result in results)
    assert all(results[0][g, d] == _retired_edge_weights(g, d) for g, d in cases)
    # Every row equals the one a single thread builds over the same cases.
    threaded = dict(hodge._TREES)
    assert set(threaded) == set(range(MAX_DEGREE + 1))
    hodge._TREES.clear()
    weigh_all(0)
    assert hodge._TREES == threaded


def test_q_form_alternates() -> None:
    assert _q_row(3, 2) == {0: Fraction(4), 1: Fraction(-2), 2: Fraction(1)}
    assert _q_row(1, 5) == {0: Fraction(1)}


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


def test_targets_scale_with_the_degree() -> None:
    for g in range(1, 5):
        verify_scaling(g, 6)


def test_scaling_check_fails_on_a_doctored_target(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    honest = hodge.n_target

    def doctored(g: int, d: int) -> Fraction:
        return honest(g, d) + (1 if d == 3 else 0)

    for module in (hodge, cli):
        monkeypatch.setattr(module, "n_target", doctored)
    verify_scaling(2, 2)
    with pytest.raises(TheoremViolationError, match=re.escape("as d^(2g) at g=2, d=3")):
        verify_scaling(2, 3)
    assert cli.main(["verify-all", "--g-max", "1", "--d-max", "3"]) == 2
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert [line.split(" —")[0] for line in failures] == [
        "FAIL series: log-sine-scaling-g<=1-d<=3",
        "FAIL hodge: linear-system-g<=1-d<=3",
    ]
    assert failures[0].endswith("at g=1, d=3")


def test_scaling_check_refuses_an_empty_or_unbounded_degree_range(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def no_series(*args: object) -> None:
        raise AssertionError("a series was built for a refused degree bound")

    monkeypatch.setattr(hodge, "series_log_sine", no_series)
    for d_max in (0, -5):
        with pytest.raises(InvalidArgumentError, match=f"degree must be >= 1, got {d_max}"):
            verify_scaling(2, d_max)
    with pytest.raises(
        ResourceLimitError,
        match=f"degree {MAX_DEGREE + 1} exceeds the Hodge degree cap {MAX_DEGREE}",
    ):
        verify_scaling(2, MAX_DEGREE + 1)


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


def _bernoulli(m_max: int) -> list[Fraction]:
    """Bernoulli numbers from the defining recurrence (independent route)."""
    numbers = [Fraction(1)]
    for m in range(1, m_max + 1):
        total = sum(Fraction(math.comb(m + 1, j)) * numbers[j] for j in range(m))
        numbers.append(-total / (m + 1))
    return numbers


def test_log_sine_coefficient_matches_the_series_and_the_bernoulli_recurrence() -> None:
    bernoulli = _bernoulli(2 * MAX_GENUS)
    for g in range(1, MAX_GENUS + 1):
        coefficient = hodge._log_sine_coefficient(g)
        assert coefficient == n_target(g, 1), g
        assert coefficient == abs(bernoulli[2 * g]) / (2 * g * math.factorial(2 * g)), g


def test_solve_builds_no_series(monkeypatch: pytest.MonkeyPatch) -> None:
    def no_series(*args: object) -> None:
        raise AssertionError("the solve built a log-sine series")

    monkeypatch.setattr(hodge, "series_log_sine", no_series)
    for g in range(1, MAX_GENUS + 1):
        assert solve_hodge(g, 2 * g).unique, g


def test_doctored_log_sine_coefficient_fails_the_linear_system_check(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # verify-all checks the solved values against each degree's own series,
    # so a wrong closed-form base at one genus fails that check alone.
    honest = hodge._log_sine_coefficient

    def doctored(g: int) -> Fraction:
        return honest(g) + (1 if g == 2 else 0)

    monkeypatch.setattr(hodge, "_log_sine_coefficient", doctored)
    assert cli.main(["verify-all", "--g-max", "2", "--d-max", "3"]) == 2
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert [line.split(" —")[0] for line in failures] == [
        "FAIL hodge: linear-system-g<=2-d<=3",
    ]


def test_lambda_g_lambda_g_minus_1_closed_form() -> None:
    # I(g, 0) = |B_2g| / (2^(2g-1) (2g-1)!! 2g)  (Getzler-Pandharipande; Faber).
    bernoulli = _bernoulli(22)
    for g in range(1, 12):
        double_factorial = math.prod(range(1, 2 * g, 2))
        expected = abs(bernoulli[2 * g]) / (2 ** (2 * g - 1) * double_factorial * 2 * g)
        assert solve_hodge(g).value(0) == expected, g


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


def test_a_non_integer_genus_is_refused() -> None:
    for genus in (2.0, Fraction(2), "2"):
        for call in (solve_hodge, lambda g: n_target(g, 1), lambda g: hodge_linear_form(g, 1)):
            with pytest.raises(InvalidArgumentError, match="genus must be an integer"):
                call(genus)


def test_a_non_integer_degree_is_refused() -> None:
    calls = (
        lambda d: solve_hodge(2, d),
        lambda d: hodge_linear_form(2, d),
        lambda d: hodge_linear_form(2, d, "partitions"),
        lambda d: verify_scaling(2, d),
    )
    for degree in (3.0, Fraction(3), "3"):
        for call in calls:
            with pytest.raises(InvalidArgumentError, match="degree must be an integer"):
                call(degree)


def test_genus_past_the_cap_is_refused_before_any_series(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    assert solve_hodge(MAX_GENUS).unique

    def no_series(*args: object) -> None:
        raise AssertionError("a series was built past the genus cap")

    monkeypatch.setattr(hodge, "series_log_sine", no_series)
    g = MAX_GENUS + 1
    entry_points = [
        lambda: hodge_linear_form(g, 1),
        lambda: hodge_linear_form(g, 1, "partitions"),
        lambda: n_target(g, 1),
        lambda: solve_hodge(g, 2 * g),
        lambda: verify_scaling(g, 10),
    ]
    for call in entry_points:
        with pytest.raises(ResourceLimitError, match=f"genus {g} exceeds the genus cap {MAX_GENUS}"):
            call()


def test_degree_bound_outside_range_is_refused_before_any_work(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    assert solve_hodge(MAX_GENUS, MAX_DEGREE).unique

    def no_weights(*args: object) -> None:
        raise AssertionError("edge weights were built for a refused degree bound")

    monkeypatch.setattr(hodge, "_edge_weights", no_weights)
    for d_max in (0, -4):
        with pytest.raises(InvalidArgumentError, match=f"degree must be >= 1, got {d_max}"):
            solve_hodge(3, d_max)
    with pytest.raises(
        ResourceLimitError,
        match=f"degree {MAX_DEGREE + 1} exceeds the Hodge degree cap {MAX_DEGREE}",
    ):
        solve_hodge(2, MAX_DEGREE + 1)


def test_partition_route_is_refused_past_its_cap_before_any_partition() -> None:
    assert hodge_linear_form(1, MAX_PARTITION_DEGREE, "partitions")
    # The route lists the partitions of d with at most 2g + 1 parts, and the
    # listing refuses past the cap at once, before it lists any of them.
    message = f"exceeds the partition-sum cap {MAX_PARTITION_DEGREE}"
    for d in (MAX_PARTITION_DEGREE + 1, 10**6):
        with pytest.raises(ResourceLimitError, match=f"degree {d} {message}"):
            enumerate_partitions(d, 2 * MAX_GENUS + 1)
    d = MAX_PARTITION_DEGREE + 1
    with pytest.raises(ResourceLimitError, match=f"degree {d} {message}"):
        hodge_linear_form(MAX_GENUS, d, "partitions")
    # Past the Hodge degree cap the route is refused before the listing.
    with pytest.raises(ResourceLimitError, match=f"degree {10**6} exceeds the Hodge degree cap"):
        hodge_linear_form(MAX_GENUS, 10**6, "partitions")
    # The resummed route lists no partition, so this cap does not bound it.
    assert hodge_linear_form(MAX_GENUS, MAX_PARTITION_DEGREE + 1)


def test_linear_form_is_refused_past_the_degree_cap_before_any_work(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    assert hodge_linear_form(MAX_GENUS, MAX_DEGREE)

    def no_work(*args: object) -> None:
        raise AssertionError("a form was built for a refused degree")

    monkeypatch.setattr(hodge, "_edge_weights", no_work)
    monkeypatch.setattr(hodge, "enumerate_partitions", no_work)
    for method in ("resummed", "partitions"):
        for d in (MAX_DEGREE + 1, 10**6):
            with pytest.raises(
                ResourceLimitError, match=f"degree {d} exceeds the Hodge degree cap {MAX_DEGREE}"
            ):
                hodge_linear_form(MAX_GENUS, d, method)
        with pytest.raises(InvalidArgumentError, match="degree must be >= 1, got 0"):
            hodge_linear_form(1, 0, method)


def test_every_resummed_form_inside_the_caps_is_nonempty() -> None:
    """Each form's value is its nonzero log-sine target, so none is empty and
    ``hodge_linear_form`` needs no stand-in for an empty form."""
    for g in range(1, MAX_GENUS + 1):
        for d in range(1, MAX_DEGREE + 1):
            assert hodge_linear_form(g, d), (g, d)


def test_doctored_forms_raise_theorem_violation(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The targets are d^(2g) times one base taken from the tangent numbers,
    # so doctoring the base only rescales a consistent system (verify-all's
    # check against each degree's series catches that); the solve reads each
    # degree's edge weights c(d, e), so adding 1 to c(d, 1) at one degree
    # d > g moves q_d off the polynomial that degrees 1..g fix.  The same
    # weights feed the linear form, so the doctored degree's form moves too.
    honest = hodge._edge_weights
    for g, d_max, bad in [(1, 3, 2), (3, 6, 5)]:
        solve_hodge(g, d_max)
        form = hodge_linear_form(g, bad)

        def doctored(genus: int, d: int, bad: int = bad) -> list[int]:
            weights = honest(genus, d)
            return [weights[0] + 1, *weights[1:]] if d == bad else weights

        with monkeypatch.context() as patch:
            patch.setattr(hodge, "_edge_weights", doctored)
            assert hodge_linear_form(g, bad) != form
            degrees = tuple(range(1, d_max + 1))
            with pytest.raises(
                TheoremViolationError,
                match=re.escape(
                    f"degree identities for genus {g} are inconsistent over degrees {degrees}"
                ),
            ):
                solve_hodge(g, d_max)


def test_doctored_form_fails_the_graph_sum_cross_check(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # verify-all compares the graph sums with the resummed form itself.
    honest = hodge.hodge_linear_form

    def doctored(g: int, d: int, method: str = "resummed") -> dict[int, Fraction]:
        form = honest(g, d, method)
        return {0: form[0] + 1} if d == 2 and method == "resummed" else form

    for module in (hodge, cli):
        monkeypatch.setattr(module, "hodge_linear_form", doctored)
    assert cli.main(["verify-all", "--g-max", "1", "--d-max", "3"]) == 2
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert [line.split(" —")[0] for line in failures] == [
        "FAIL hodge: graph-sum-cross-check-g<=1-d<=3",
    ]


def _retired_solve_hodge(g: int, d_max: int) -> HodgeSolution:
    """The retired solve: per-degree log-sine targets and the Fraction rref."""
    degrees = tuple(range(1, max(g, d_max) + 1))
    matrix = [[hodge_linear_form(g, d).get(j, Fraction(0)) for j in range(g)] for d in degrees]
    rhs = [n_target(g, d) for d in degrees]
    solution = fraction_solve(matrix, rhs)
    assert not solution.nullspace
    return HodgeSolution(g, solution.particular, degrees)


def test_solve_matches_the_retired_route() -> None:
    pairs = [(g, d) for g in range(3, 11) for d in sorted({g, (3 * g + 1) // 2, 2 * g})]
    pairs += [(11, 11), (12, 24), (16, 32)]
    for g, d in pairs:
        assert solve_hodge(g, d) == _retired_solve_hodge(g, d), (g, d)


def _integer_row_solve_hodge(g: int, d_max: int) -> HodgeSolution:
    """The integer-row solve the edge-moment route replaced: one row per
    degree, the form's numerators over ``D = d^(d-1) d!`` times the target's
    denominator against ``d^(2g)`` times the target's numerator and ``D``,
    eliminated by :func:`solve_linear_system`."""
    degrees = tuple(range(1, max(g, d_max) + 1))
    base = n_target(g, 1)
    matrix: list[list[int]] = []
    rhs: list[int] = []
    for d in degrees:
        denominator = d ** (d - 1) * math.factorial(d)
        form = hodge_linear_form(g, d)
        numerators = [form.get(j, Fraction(0)) * denominator for j in range(g)]
        assert all(s.denominator == 1 for s in numerators)
        matrix.append([s.numerator * base.denominator for s in numerators])
        rhs.append(d ** (2 * g) * base.numerator * denominator)
    solution = solve_linear_system(matrix, rhs)
    assert not solution.nullspace
    return HodgeSolution(g, solution.particular, degrees)


def test_solve_matches_the_integer_row_elimination_up_to_the_genus_cap() -> None:
    for g in range(1, MAX_GENUS + 1):
        assert solve_hodge(g, 2 * g) == _integer_row_solve_hodge(g, 2 * g), g


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
