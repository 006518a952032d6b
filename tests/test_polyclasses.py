from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from rubbertaut import polyclasses
from rubbertaut.errors import InvalidArgumentError, ResourceLimitError
from rubbertaut.locgraphs import evaluate_and_solve
from rubbertaut.polyclasses import (
    MAX_HAIN_MONOMIALS,
    MAX_INTERP_POINTS,
    MAX_MARKS,
    MultiPoly,
    check_equivariance,
    check_homogeneity,
    check_pullback_stability,
    genus1_polynomial,
    hain_expand,
    interpolate,
)
from rubbertaut.tautring import (
    RingContext,
    TautClass,
    boundary,
    psi1,
    pullback_forget,
    relabel,
)


# ---------------------------------------------------------------------------
# The genus-one divisor quadric
# ---------------------------------------------------------------------------


def test_three_mark_polynomial_coefficients() -> None:
    poly = genus1_polynomial(3)
    ctx = RingContext.standard(3)
    assert poly.nvars == 2
    assert poly.degree() == 2
    assert poly.coefficient((2, 0)) == psi1(ctx) - boundary(ctx, (2,))
    assert poly.coefficient((0, 2)) == psi1(ctx) - boundary(ctx, (3,))
    assert poly.coefficient((1, 1)) == psi1(ctx) - boundary(ctx, (1,))
    assert poly.coefficient((1, 0)) is None


def test_three_mark_polynomial_matches_the_localization_solve() -> None:
    poly = genus1_polynomial(3)
    solution = evaluate_and_solve(2)
    assert poly.coefficient((2, 0)).reduce() == solution.a2
    assert poly.coefficient((0, 2)).reduce() == solution.a3
    assert poly.coefficient((1, 1)).reduce() == solution.b


def test_four_mark_square_coefficient_literal() -> None:
    poly = genus1_polynomial(4)
    ctx = RingContext.standard(4)
    expected = (
        psi1(ctx)
        - boundary(ctx, (2, 4))
        - boundary(ctx, (2, 3))
        - boundary(ctx, (2,))
    )
    assert poly.coefficient((2, 0, 0)) == expected


def test_four_mark_mixed_coefficient_literal() -> None:
    poly = genus1_polynomial(4)
    ctx = RingContext.standard(4)
    expected = (
        psi1(ctx)
        - boundary(ctx, (2, 3))
        - boundary(ctx, (1, 4))
        - boundary(ctx, (1,))
    )
    assert poly.coefficient((1, 1, 0)) == expected


def _subtracted_polynomial(t: int) -> dict[tuple[int, ...], TautClass]:
    """The quadric built one divisor at a time from public arithmetic.

    ``alpha_i**2`` gets psi1 minus every divisor whose genus-zero side holds
    1 but not i; ``alpha_i alpha_j`` gets psi1 minus every divisor whose
    genus-zero side holds 1 but neither i nor j, or both i and j but not 1.
    """
    ctx = RingContext.standard(t)
    free = list(range(2, t + 1))
    genus0_sides = [g0 for size in range(2, t) for g0 in combinations(ctx.marks, size)]

    def build(removed) -> TautClass:
        cls = psi1(ctx)
        for genus0 in genus0_sides:
            if removed(genus0):
                cls = cls - boundary(ctx, [m for m in ctx.marks if m not in genus0])
        return cls

    coeffs = {}
    for i in free:
        exponents = tuple(2 if m == i else 0 for m in free)
        coeffs[exponents] = build(lambda g0: 1 in g0 and i not in g0)
    for i, j in combinations(free, 2):
        exponents = tuple(1 if m in (i, j) else 0 for m in free)
        coeffs[exponents] = build(
            lambda g0: (1 in g0 and i not in g0 and j not in g0)
            or (1 not in g0 and i in g0 and j in g0)
        )
    return coeffs


@pytest.mark.parametrize("t", range(3, 10))
def test_polynomial_matches_the_divisor_by_divisor_construction(t: int) -> None:
    assert genus1_polynomial(t).coeffs == _subtracted_polynomial(t)


def _evaluate_term_by_term(poly: MultiPoly, point) -> object:
    """The retired evaluation: one ``Fraction`` product and sum per term."""
    total = None
    for exponents, value in poly.coeffs.items():
        scale = Fraction(1)
        for base, exp in zip(point, exponents):
            scale *= Fraction(base) ** exp
        total = scale * value if total is None else total + scale * value
    return total


def _stores_no_zero(cls: TautClass) -> bool:
    return all(type(v) is Fraction and v != 0 for v in cls._coeffs.values())


def test_evaluate_leaves_the_coefficients_untouched() -> None:
    poly = genus1_polynomial(5)
    point = (Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(5, 7))
    first = poly.evaluate(point)
    assert poly == genus1_polynomial(5)
    assert poly.evaluate(point) == first
    assert first == _evaluate_term_by_term(poly, point)


def _seeded_point(rng: random.Random, nvars: int) -> list[Fraction]:
    """Signed rationals with at least one zero entry."""
    point = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(nvars)]
    point[rng.randrange(nvars)] = Fraction(0)
    return point


@pytest.mark.parametrize("t", range(3, MAX_MARKS + 1))
def test_evaluate_matches_the_term_by_term_sum(t: int) -> None:
    rng = random.Random(f"evaluate/{t}")
    poly = genus1_polynomial(t)
    for _ in range(2):
        point = _seeded_point(rng, t - 1)
        value = poly.evaluate(point)
        assert value == _evaluate_term_by_term(poly, point)
        assert _stores_no_zero(value)
    zero = poly.evaluate([0] * (t - 1))
    assert zero.is_zero() and zero.ctx == RingContext.standard(t)


def test_evaluate_matches_on_non_integer_class_coefficients() -> None:
    # Distinct denominators on the coefficients and on the point exercise
    # both lcms of the integer kernel.
    rng = random.Random(3)
    scales = [Fraction(2, 3), Fraction(-5, 7), Fraction(1, 4), Fraction(9, 10)]
    for t in (3, 5, 7):
        quadric = genus1_polynomial(t)
        ctx = RingContext.standard(t)
        two_thirds = MultiPoly(
            t - 1, {e: Fraction(2, 3) * value for e, value in quadric.coeffs.items()}
        )
        mixed = {
            exponents: scales[index % len(scales)] * value
            for index, (exponents, value) in enumerate(quadric.coeffs.items())
        }
        mixed[(0,) * (t - 1)] = Fraction(1, 6) * psi1(ctx) - Fraction(3, 5) * boundary(ctx, ())
        for poly in (two_thirds, MultiPoly(t - 1, mixed)):
            for _ in range(3):
                point = _seeded_point(rng, t - 1)
                value = poly.evaluate(point)
                assert value == _evaluate_term_by_term(poly, point)
                assert _stores_no_zero(value)
        point = _seeded_point(rng, t - 1)
        assert two_thirds.evaluate(point) == Fraction(2, 3) * quadric.evaluate(point)


def test_evaluate_matches_on_rational_values() -> None:
    rng = random.Random(4)
    for nvars in (2, 3, 4):
        coeffs = {}
        for _ in range(6):
            exponents = tuple(rng.randint(0, 3) for _ in range(nvars))
            coeffs[exponents] = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        poly = MultiPoly(nvars, coeffs)
        for _ in range(5):
            point = _seeded_point(rng, nvars)
            value = poly.evaluate(point)
            assert type(value) is Fraction
            assert value == _evaluate_term_by_term(poly, point)


def test_class_operations_store_no_zero_coefficient() -> None:
    rng = random.Random(5)
    for t in (3, 5, 8):
        poly = genus1_polynomial(t)
        mapping = {1: 1, **dict(zip(range(2, t + 1), rng.sample(range(2, t + 1), t - 1)))}
        for value in poly.coeffs.values():
            assert _stores_no_zero(value)
            assert _stores_no_zero(value.reduce())
            assert _stores_no_zero(pullback_forget(value, t + 1))
            assert _stores_no_zero(relabel(value, mapping))
        assert _stores_no_zero(poly.evaluate(_seeded_point(rng, t - 1)))


def test_pullback_stability() -> None:
    assert check_pullback_stability(4)
    assert check_pullback_stability(5)


def test_equivariance_under_mark_permutations() -> None:
    for t in (3, 4, 5):
        assert check_equivariance(t)


def _equivariant_under_every_relabeling(poly: MultiPoly, t: int) -> bool:
    """The retired check: walk all ``(t-1)!`` relabelings of marks 2..t."""
    free_marks = list(range(2, t + 1))
    for image in permutations(free_marks):
        mapping = {1: 1, **dict(zip(free_marks, image))}
        for exponents, value in poly.coeffs.items():
            moved = [0] * (t - 1)
            for mark, power in zip(free_marks, exponents):
                moved[mapping[mark] - 2] = power
            if relabel(value, mapping) != poly.coefficient(moved):
                return False
    return True


def test_equivariance_catches_two_swapped_coefficients(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    honest = genus1_polynomial
    for t in (3, 4, 5):
        poly = honest(t)
        assert _equivariant_under_every_relabeling(poly, t)
        for a, b in combinations(sorted(poly.coeffs), 2):
            coeffs = dict(poly.coeffs)
            coeffs[a], coeffs[b] = coeffs[b], coeffs[a]
            swapped = MultiPoly(t - 1, coeffs)
            monkeypatch.setattr(polyclasses, "genus1_polynomial", lambda _t: swapped)
            verdict = check_equivariance(t)
            assert verdict == _equivariant_under_every_relabeling(swapped, t), (t, a, b)
            # At three marks, swapping a_2^2 and a_3^2 is itself equivariant.
            assert verdict == (t == 3 and {a, b} == {(2, 0), (0, 2)}), (t, a, b)


def test_degree_two_homogeneity() -> None:
    rng = random.Random(11)
    for t in (3, 4):
        point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(t - 1)]
        assert check_homogeneity(t, Fraction(3, 2), point)
        assert check_homogeneity(t, -2, point)


def test_mark_cap_bounds_the_polynomial_and_its_checks() -> None:
    assert len(genus1_polynomial(MAX_MARKS).coeffs) == (MAX_MARKS - 1) * MAX_MARKS // 2
    with pytest.raises(ResourceLimitError, match=f"cap {MAX_MARKS}"):
        genus1_polynomial(MAX_MARKS + 1)
    with pytest.raises(ResourceLimitError):
        check_pullback_stability(MAX_MARKS + 1)
    with pytest.raises(ResourceLimitError):
        check_equivariance(MAX_MARKS + 1)
    with pytest.raises(ResourceLimitError):
        check_homogeneity(MAX_MARKS + 1, 2, [1] * MAX_MARKS)


def test_polynomial_rejects_too_few_marks() -> None:
    for t in (1, 2):
        with pytest.raises(InvalidArgumentError):
            genus1_polynomial(t)
    with pytest.raises(InvalidArgumentError):
        check_pullback_stability(3)


# ---------------------------------------------------------------------------
# MultiPoly container
# ---------------------------------------------------------------------------


def test_multipoly_drops_zero_values_and_validates() -> None:
    poly = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert poly.coefficient((1, 0)) is None
    assert poly.coefficient((0, 1)) == 2
    with pytest.raises(InvalidArgumentError):
        MultiPoly(2, {(1,): Fraction(1)})
    with pytest.raises(InvalidArgumentError):
        MultiPoly(1, {(-1,): Fraction(1)})


def test_multipoly_evaluation() -> None:
    poly = MultiPoly(2, {(2, 1): Fraction(3), (0, 0): Fraction(-1)})
    assert poly.evaluate((2, 5)) == 3 * 4 * 5 - 1
    assert MultiPoly(2).evaluate((1, 1)) is None
    with pytest.raises(InvalidArgumentError):
        poly.evaluate((1,))


# ---------------------------------------------------------------------------
# Exact interpolation
# ---------------------------------------------------------------------------


def test_interpolation_recovers_a_known_polynomial() -> None:
    def fn(point: tuple[Fraction, ...]) -> Fraction:
        x, y = point
        return x**2 * y - Fraction(7, 3) * y**3 + 4

    rebuilt = interpolate(fn, 2, (2, 3))
    assert rebuilt == MultiPoly(
        2,
        {
            (2, 1): Fraction(1),
            (0, 3): Fraction(-7, 3),
            (0, 0): Fraction(4),
        },
    )


def test_interpolation_round_trips_random_polynomials() -> None:
    rng = random.Random(20260816)
    for _ in range(25):
        nvars = rng.randint(1, 3)
        degrees = tuple(rng.randint(0, 4) for _ in range(nvars))
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            key = tuple(rng.randint(0, degrees[v]) for v in range(nvars))
            coeffs[key] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        original = MultiPoly(nvars, coeffs)
        assert interpolate(original.evaluate, nvars, degrees) == original


def test_interpolation_handles_class_values() -> None:
    poly = genus1_polynomial(3)
    rebuilt = interpolate(poly.evaluate, 2, (2, 2))
    assert rebuilt == poly


def test_interpolation_cap_is_checked_before_any_evaluation() -> None:
    calls: list[tuple] = []

    def fn(point: tuple) -> Fraction:
        calls.append(point)
        return Fraction(1)

    for degrees in ((MAX_INTERP_POINTS,), (30, 30, 30), (10**30,)):
        with pytest.raises(ResourceLimitError, match=f"more than {MAX_INTERP_POINTS} grid points"):
            interpolate(fn, len(degrees), degrees)
    assert calls == []
    assert interpolate(fn, 3, (4, 4, 4)) == MultiPoly(3, {(0, 0, 0): Fraction(1)})
    assert len(calls) == 125 == MAX_INTERP_POINTS


def test_interpolation_validates_arguments() -> None:
    with pytest.raises(InvalidArgumentError):
        interpolate(lambda p: Fraction(1), 0, ())
    with pytest.raises(InvalidArgumentError):
        interpolate(lambda p: Fraction(1), 2, (1,))
    with pytest.raises(InvalidArgumentError):
        interpolate(lambda p: Fraction(1), 1, (-1,))


# ---------------------------------------------------------------------------
# Formal square expansion
# ---------------------------------------------------------------------------


def test_hain_expansion_genus_two_two_marks_frozen() -> None:
    result = hain_expand(2, 2, (1, -1))
    psi_1 = ("psi+", 1)
    psi_2 = ("psi+", 2)
    delta_1 = ("delta", 1, (1,))
    delta_2 = ("delta", 1, (2,))
    assert result == {
        (delta_1, delta_1): Fraction(1, 128),
        (delta_1, delta_2): Fraction(1, 64),
        (delta_1, psi_1): Fraction(-1, 16),
        (delta_1, psi_2): Fraction(-1, 16),
        (delta_2, delta_2): Fraction(1, 128),
        (delta_2, psi_1): Fraction(-1, 16),
        (delta_2, psi_2): Fraction(-1, 16),
        (psi_1, psi_1): Fraction(1, 8),
        (psi_1, psi_2): Fraction(1, 4),
        (psi_2, psi_2): Fraction(1, 8),
    }


def test_hain_expansion_collapses_to_a_scalar_power() -> None:
    # Setting every formal symbol to 1 must give (sum of base values)^g / g!,
    # with the base values rebuilt here by an independent direct sum.
    import math
    from itertools import combinations

    weights = (Fraction(2), Fraction(-1), Fraction(-1))
    for g in (2, 3):
        collapsed = sum(hain_expand(g, 3, weights).values())
        base_total = sum(value**2 / 2 for value in weights)
        for size in (1, 2, 3):
            for subset in combinations(range(3), size):
                k_sum = sum((weights[i] for i in subset), Fraction(0))
                if k_sum == 0:
                    continue
                if size >= 2:
                    base_total -= k_sum**2
                for h in range(1, g):
                    scaled = Fraction(2 * h - 1, 2 * g - 2) * k_sum
                    base_total -= scaled**2 / 2
        assert collapsed == base_total**g / math.factorial(g)


def test_hain_weight_scaling_is_degree_two_g() -> None:
    for g in (2, 3):
        base = hain_expand(g, 2, (1, -1))
        scaled = hain_expand(g, 2, (2, -2))
        assert scaled == {
            key: Fraction(2) ** (2 * g) * value for key, value in base.items()
        }


def test_hain_zero_weight_symbols_are_dropped() -> None:
    result = hain_expand(2, 3, (1, 0, -1))
    for monomial in result:
        for symbol in monomial:
            if symbol[0] == "psi+":
                assert symbol[1] != 2
            else:
                assert symbol[2] != (2,)


def _hain_by_multiset_count(g: int, t: int, weights) -> dict:
    """The expansion with every monomial's product and multiplicities redone."""
    k = [Fraction(w) for w in weights]
    base = {}
    for mark in range(1, t + 1):
        if k[mark - 1]:
            base[("psi+", mark)] = k[mark - 1] ** 2 / 2
    for size in range(1, t + 1):
        for subset in combinations(range(1, t + 1), size):
            k_sum = sum(k[m - 1] for m in subset)
            if k_sum == 0:
                continue
            if size >= 2:
                base[("delta", 0, subset)] = -(k_sum**2)
            for h in range(1, g):
                base[("delta", h, subset)] = -((Fraction(2 * h - 1, 2 * g - 2) * k_sum) ** 2) / 2
    result = {}
    for monomial in combinations_with_replacement(sorted(base), g):
        coeff = math.prod((base[symbol] for symbol in monomial), start=Fraction(1))
        denom = math.prod(math.factorial(c) for c in Counter(monomial).values())
        result[monomial] = coeff / denom
    return result


@pytest.mark.parametrize(
    "g, weights",
    [
        (2, (1, -1)),
        (3, (1, -1)),
        (5, (3, -3)),
        (2, (1, 2, -3)),
        (3, (1, 0, -1)),
        (4, (Fraction(1, 2), Fraction(-3, 4), Fraction(1, 4))),
        (2, (1, 1, -1, -1)),
        (3, (2, -1, 5, -6)),
        (2, (1, 2, 4, 8, -15)),
    ],
)
def test_hain_matches_the_multiset_count(g: int, weights) -> None:
    result = hain_expand(g, len(weights), weights)
    expected = _hain_by_multiset_count(g, len(weights), weights)
    assert result == expected
    assert list(result) == list(expected)


def test_hain_monomial_cap() -> None:
    # (1, 2, -3) has 6 * g symbols for g >= 2: comb(7g - 1, g) monomials.
    assert math.comb(6 * 4 + 3, 4) <= MAX_HAIN_MONOMIALS < math.comb(6 * 5 + 4, 5)
    assert len(hain_expand(4, 3, (1, 2, -3))) == math.comb(6 * 4 + 3, 4)
    for g in (5, 8, 10**9):
        with pytest.raises(ResourceLimitError, match=str(MAX_HAIN_MONOMIALS)):
            hain_expand(g, 3, (1, 2, -3))
    with pytest.raises(ResourceLimitError):
        hain_expand(2, 41, (1,) * 40 + (-40,))
    assert hain_expand(10**9, 30, (0,) * 30) == {}


def test_hain_validates_arguments() -> None:
    with pytest.raises(InvalidArgumentError):
        hain_expand(1, 2, (1, -1))
    with pytest.raises(InvalidArgumentError):
        hain_expand(2, 1, (0,))
    with pytest.raises(InvalidArgumentError):
        hain_expand(2, 2, (1, 1))
    with pytest.raises(InvalidArgumentError):
        hain_expand(2, 2, (1, -1, 0))
