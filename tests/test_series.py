from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Callable

import pytest

from rubbertaut.errors import InvalidArgumentError, ResourceLimitError, TruncationExceededError
from rubbertaut.locgraphs import SYM_OPS, Monomial
from rubbertaut.series import (
    MAX_SERIES_ORDER,
    LaurentPoly,
    PowerSeries,
    series,
    series_exp,
    series_log,
    series_log_sine,
    series_mul,
    series_tau,
    series_to_json,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _bernoulli(m_max: int) -> list[Fraction]:
    """Bernoulli numbers from the defining recurrence (independent route)."""
    numbers = [Fraction(1)]
    for m in range(1, m_max + 1):
        total = sum(Fraction(math.comb(m + 1, j)) * numbers[j] for j in range(m))
        numbers.append(-total / (m + 1))
    return numbers


def _log_sine_coefficient_oracle(g: int, d: int) -> Fraction:
    """Coefficient of ``y**(2g)`` in ``log((d y / 2) / sin(d y / 2))``.

    Uses the classical expansion ``log(u / sin u) = sum |B_2g| (2u)^(2g) /
    (2g (2g)!)`` with Bernoulli numbers computed by their recurrence.
    """
    b = _bernoulli(2 * g)
    return abs(b[2 * g]) * Fraction(d) ** (2 * g) / (2 * g * math.factorial(2 * g))


def _tau_from_functional_equation(order: int) -> list[Fraction]:
    """Tree-series coefficients forced by ``f = x * exp(f)`` alone."""
    f = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        exp_partial = [Fraction(0)] * n
        exp_partial[0] = Fraction(1)
        for k in range(1, n):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += j * f[j] * exp_partial[k - j]
            exp_partial[k] = acc / k
        f[n] = exp_partial[n - 1]
    return f


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


def test_series_tau_matches_functional_equation_oracle() -> None:
    expected = _tau_from_functional_equation(12)
    tau = series_tau(12)
    assert [tau.coefficient(n) for n in range(13)] == expected


def test_series_tau_low_order_values() -> None:
    tau = series_tau(6)
    assert [tau.coefficient(n) for n in range(7)] == [
        Fraction(0),
        Fraction(1),
        Fraction(1),
        Fraction(3, 2),
        Fraction(8, 3),
        Fraction(125, 24),
        Fraction(54, 5),
    ]
    assert tau.coefficient(2) == Fraction(1)
    assert tau.coefficient(4) == Fraction(8, 3)


def test_series_tau_satisfies_functional_equation() -> None:
    tau = series_tau(12)
    x = series([0, 1], order=12)
    assert series_mul(x, series_exp(tau)) == tau


def test_series_log_sine_matches_bernoulli_oracle() -> None:
    for d in (1, 2, 3, 5):
        f = series_log_sine(d, 8)
        for g in (1, 2, 3, 4):
            assert f.coefficient(2 * g) == _log_sine_coefficient_oracle(g, d)


def _log_sine_full_order(d: int, order: int) -> PowerSeries:
    """The retired route: ``-log`` of ``sin(z)/z`` expanded in ``y`` itself,
    odd zeros and all."""
    half = Fraction(d, 2)
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for k in range(1, order // 2 + 1):
        coeffs[2 * k] = (-1) ** k * half ** (2 * k) / math.factorial(2 * k + 1)
    return PowerSeries(tuple(-c for c in series_log(PowerSeries(tuple(coeffs))).coeffs))


def test_series_log_sine_matches_the_full_order_route() -> None:
    for d in range(1, 13):
        for order in range(0, 25):
            assert series_log_sine(d, order) == _log_sine_full_order(d, order), (d, order)


def test_series_log_sine_frozen_values() -> None:
    f = series_log_sine(1, 8)
    assert f.coefficient(2) == Fraction(1, 24)
    assert f.coefficient(4) == Fraction(1, 2880)
    assert f.coefficient(6) == Fraction(1, 181440)
    assert f.coefficient(8) == Fraction(1, 9676800)
    assert series_log_sine(2, 2).coefficient(2) == Fraction(1, 6)
    assert series_log_sine(3, 2).coefficient(2) == Fraction(3, 8)


def test_series_log_sine_even_and_zero_constant() -> None:
    f = series_log_sine(2, 7)
    assert all(f.coefficient(k) == 0 for k in (0, 1, 3, 5, 7))


def test_series_log_of_one_plus_x_alternates() -> None:
    f = series([1, 1], order=8)
    g = series_log(f)
    assert [g.coefficient(n) for n in range(9)] == [Fraction(0)] + [
        Fraction((-1) ** (n - 1), n) for n in range(1, 9)
    ]


def test_series_exp_log_round_trip() -> None:
    f = series([1, 2, Fraction(-1, 3), 0, 5], order=6)
    assert series_exp(series_log(f)) == f
    g = series([0, Fraction(1, 2), 7, Fraction(-2, 5)], order=6)
    assert series_log(series_exp(g)) == g


def test_series_arithmetic_orders_and_scaling() -> None:
    f = series([1, 2, 3], order=4)
    g = series([5, 0, 1], order=2)
    assert series_mul(f, g).order == 2


def test_series_coefficient_domain_errors() -> None:
    f = series([1, 2], order=3)
    with pytest.raises(TruncationExceededError):
        f.coefficient(4)
    with pytest.raises(InvalidArgumentError):
        f.coefficient(-1)
    with pytest.raises(InvalidArgumentError):
        series_tau(0)


def test_series_refuses_a_non_integer_order_or_index() -> None:
    with pytest.raises(InvalidArgumentError, match="order must be an integer, got 2.5"):
        series([1, 2], order=2.5)
    with pytest.raises(InvalidArgumentError, match="coefficient index must be an integer, got 1.5"):
        series([1, 2], order=3).coefficient(1.5)


def test_series_order_cap_is_checked_before_any_coefficient() -> None:
    assert series_tau(MAX_SERIES_ORDER).order == MAX_SERIES_ORDER
    assert series_log_sine(1, MAX_SERIES_ORDER).order == MAX_SERIES_ORDER
    cap = f"exceeds the series-order cap {MAX_SERIES_ORDER}"
    for build in (series_tau, lambda order: series_log_sine(2, order)):
        for order in (MAX_SERIES_ORDER + 1, 10**9):
            with pytest.raises(ResourceLimitError, match=f"order {order} {cap}"):
                build(order)


def test_series_log_requires_unit_constant_term() -> None:
    with pytest.raises(InvalidArgumentError):
        series_log(series([0, 1], order=3))


def test_series_exp_requires_zero_constant_term() -> None:
    with pytest.raises(InvalidArgumentError):
        series_exp(series([1, 1], order=3))


def test_series_json_round_trip_is_exact_and_serializable() -> None:
    f = series([Fraction(1, 3), 0, Fraction(-7, 2), 4], order=5)
    data = series_to_json(f)
    assert json.loads(json.dumps(data)) == {
        "order": 5,
        "coeffs": ["1/3", "0", "-7/2", "4", "0", "0"],
    }


# ---------------------------------------------------------------------------
# Laurent polynomials over the graph layer's symbol algebra
# ---------------------------------------------------------------------------


def _random_laurent(rng: random.Random, hodge: bool = False) -> LaurentPoly:
    """Random symbol-valued Laurent polynomial; only ``hodge`` ones carry a
    Hodge index, so no product ever meets two Hodge factors."""
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        expr = {}
        for _ in range(rng.randint(1, 3)):
            mono = Monomial(
                rng.randint(0, 2),
                rng.randint(0, 2),
                rng.choice((None, 0, 1)) if hodge else None,
            )
            expr[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        coeffs[rng.randint(-3, 3)] = {m: c for m, c in expr.items() if c}
    return LaurentPoly(SYM_OPS, coeffs)


def test_laurent_ring_laws_on_random_samples() -> None:
    rng = random.Random(20260816)
    for _ in range(60):
        a = _random_laurent(rng, hodge=True)
        b, c = _random_laurent(rng), _random_laurent(rng)
        assert a.add(b) == b.add(a)
        assert a.mul(b) == b.mul(a)
        assert a.add(b).add(c) == a.add(b.add(c))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.sub(a).is_zero()
        assert a.scale(Fraction(-3, 2)).add(a.scale(Fraction(3, 2))).is_zero()


def test_laurent_scale_and_coefficient() -> None:
    x, y = Monomial(psi_genus=1), Monomial(hodge_j=1)
    p = LaurentPoly(SYM_OPS, {-2: {x: Fraction(3)}, 1: {x: Fraction(-1, 2), y: Fraction(1)}})
    assert p.scale(Fraction(-2)).coefficient(-2) == {x: Fraction(-6)}
    assert p.scale(Fraction(-2)).coefficient(1) == {x: Fraction(1), y: Fraction(-2)}
    assert p.scale(0).is_zero()


def test_laurent_zero_handling() -> None:
    zero = LaurentPoly(SYM_OPS, {2: {}})
    assert zero.is_zero()
    assert zero.coefficient(2) == {}
    one = LaurentPoly(SYM_OPS, {0: {Monomial(): Fraction(1)}})
    assert one.sub(one).is_zero()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: series_tau(3.0), "order must be an integer, got 3.0"),
        (lambda: series_tau(Fraction(3)), "order must be an integer"),
        (lambda: series_log_sine(1.5, 4), "scale d must be an integer, got 1.5"),
        (lambda: series_log_sine(2, 4.0), "order must be an integer, got 4.0"),
    ],
    ids=["tau-float", "tau-fraction", "log-sine-scale", "log-sine-order"],
)
def test_non_integer_arguments_are_refused(call: Callable[[], object], message: str) -> None:
    with pytest.raises(InvalidArgumentError, match=message):
        call()
