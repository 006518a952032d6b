from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from rubbertaut.errors import InvalidArgumentError
from rubbertaut.tautring import (
    RingContext,
    TautClass,
    boundary,
    linear_combination,
    psi1,
    pullback_forget,
    pushforward_forget,
    relabel,
    section_pushforward,
    zero_class,
)


def _all_genus_sides(ctx: RingContext) -> list[tuple[int, ...]]:
    """Every valid flagged side: the complement must keep two marks."""
    sides: list[tuple[int, ...]] = []
    for size in range(0, ctx.t - 1):
        sides.extend(combinations(ctx.marks, size))
    return sides


def _random_class(ctx: RingContext, rng: random.Random) -> TautClass:
    cls = Fraction(rng.randint(-5, 5)) * psi1(ctx)
    for side in _all_genus_sides(ctx):
        cls = cls + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * boundary(
            ctx, side
        )
    return cls


# ---------------------------------------------------------------------------
# Contexts and constructors
# ---------------------------------------------------------------------------


def test_context_constructors_and_validation() -> None:
    ctx = RingContext.standard(4)
    assert ctx.marks == (1, 2, 3, 4)
    assert ctx.t == 4
    assert RingContext((1, 3, 7)).marks == (1, 3, 7)
    with pytest.raises(InvalidArgumentError):
        RingContext((3, 1, 7))
    with pytest.raises(InvalidArgumentError):
        RingContext((2, 3))  # the reference mark is required
    with pytest.raises(InvalidArgumentError):
        RingContext((1,))
    with pytest.raises(InvalidArgumentError):
        RingContext((1, 2, 2))


def test_boundary_needs_two_marks_on_the_rational_side() -> None:
    ctx = RingContext.standard(3)
    with pytest.raises(InvalidArgumentError):
        boundary(ctx, (2, 3))
    with pytest.raises(InvalidArgumentError):
        boundary(ctx, (5,))


def test_class_arithmetic_and_zero() -> None:
    ctx = RingContext.standard(3)
    a = psi1(ctx) - boundary(ctx, (2,))
    b = boundary(ctx, (2,)) - psi1(ctx)
    assert (a + b).is_zero()
    assert a + zero_class(ctx) == a
    assert Fraction(2) * a == a + a
    assert a.coefficient_psi1() == 1
    assert a.coefficient_boundary((2,)) == -1
    assert a.coefficient_boundary(()) == 0


def test_cancelled_sums_store_no_zero_key() -> None:
    rng = random.Random(7)
    for t in (3, 4, 5):
        ctx = RingContext.standard(t)
        x = _random_class(ctx, rng)
        assert not x.is_zero()
        total = x + (-x)
        assert total == zero_class(ctx)
        assert total.is_zero()
        assert repr(total) == "TautClass(0)"
        partial = x + (-x + psi1(ctx))
        assert partial == psi1(ctx)
        assert partial.boundary_terms() == []


def test_in_place_sum_matches_the_sum_and_leaves_the_operand() -> None:
    rng = random.Random(8)
    ctx = RingContext.standard(4)
    a, b = _random_class(ctx, rng), _random_class(ctx, rng)
    b_before = Fraction(1) * b
    expected = a + b
    total = Fraction(1) * a
    total += b
    assert total == expected
    assert b == b_before
    total += -expected
    assert total.is_zero()
    with pytest.raises(InvalidArgumentError):
        total += psi1(RingContext.standard(3))


def _stores_no_zero(cls: TautClass) -> bool:
    return all(type(v) is Fraction and v != 0 for v in cls._coeffs.values())


def test_linear_combination_matches_the_term_by_term_sum() -> None:
    rng = random.Random(9)
    for t in (3, 4, 5):
        ctx = RingContext.standard(t)
        for _ in range(10):
            pairs = [
                (Fraction(rng.randint(-6, 6), rng.randint(1, 9)), _random_class(ctx, rng))
                for _ in range(rng.randint(1, 5))
            ]
            pairs.append((rng.randint(-3, 3), _random_class(ctx, rng)))
            expected = zero_class(ctx)
            for scale, cls in pairs:
                expected = expected + Fraction(scale) * cls
            total = linear_combination(pairs)
            assert total == expected
            assert total.ctx == ctx
            assert _stores_no_zero(total)


def test_linear_combination_drops_cancelled_keys() -> None:
    ctx = RingContext.standard(4)
    x = _random_class(ctx, random.Random(10))
    assert linear_combination([(Fraction(2, 3), x), (Fraction(-4, 6), x)]) == zero_class(ctx)
    assert linear_combination([(0, x)]).is_zero()
    a = Fraction(1, 2) * psi1(ctx) + Fraction(1, 3) * boundary(ctx, (2,))
    b = Fraction(3, 4) * boundary(ctx, (2,)) - boundary(ctx, (3,))
    total = linear_combination([(Fraction(9, 4), a), (-1, b)])
    assert total == Fraction(9, 8) * psi1(ctx) + boundary(ctx, (3,))
    assert _stores_no_zero(total) and total.coefficient_boundary((2,)) == 0


def test_linear_combination_validates_its_classes() -> None:
    with pytest.raises(InvalidArgumentError):
        linear_combination([])
    small, big = psi1(RingContext.standard(3)), psi1(RingContext.standard(4))
    with pytest.raises(InvalidArgumentError):
        linear_combination([(1, small), (1, big)])


# ---------------------------------------------------------------------------
# Linear reduction to the boundary basis
# ---------------------------------------------------------------------------


def test_reduce_of_psi_on_three_marks() -> None:
    ctx = RingContext.standard(3)
    expected = boundary(ctx, ()) + boundary(ctx, (2,)) + boundary(ctx, (3,))
    assert psi1(ctx).reduce() == expected


def test_reduce_of_psi_on_four_marks() -> None:
    ctx = RingContext.standard(4)
    expected = zero_class(ctx)
    for size in (0, 1, 2):
        for side in combinations((2, 3, 4), size):
            expected = expected + boundary(ctx, side)
    assert psi1(ctx).reduce() == expected


def test_reduce_is_idempotent_and_linear_on_random_classes() -> None:
    rng = random.Random(20260816)
    for t in (3, 4, 5):
        ctx = RingContext.standard(t)
        for _ in range(8):
            a = _random_class(ctx, rng)
            b = _random_class(ctx, rng)
            assert a.reduce().reduce() == a.reduce()
            assert (a + b).reduce() == a.reduce() + b.reduce()
            scaled = Fraction(-3, 2) * a
            assert scaled.reduce() == Fraction(-3, 2) * a.reduce()


def test_reduce_drops_a_boundary_key_that_psi_cancels() -> None:
    ctx = RingContext.standard(4)
    cls = Fraction(3, 2) * psi1(ctx) - Fraction(3, 2) * boundary(ctx, (2, 3)) + boundary(ctx, (1,))
    reduced = cls.reduce()
    expected = boundary(ctx, (1,))
    for side in ((), (2,), (3,), (4,), (2, 4), (3, 4)):
        expected = expected + Fraction(3, 2) * boundary(ctx, side)
    assert reduced == expected
    assert reduced.coefficient_boundary((2, 3)) == 0
    assert _stores_no_zero(reduced)
    assert (boundary(ctx, ()) - psi1(ctx)).reduce().boundary_terms() == [
        (side, Fraction(-1)) for side in ((2,), (3,), (4,), (2, 3), (2, 4), (3, 4))
    ]


def test_reduce_eliminates_psi_entirely() -> None:
    ctx = RingContext.standard(4)
    reduced = (Fraction(7) * psi1(ctx) - boundary(ctx, (2, 3))).reduce()
    assert reduced.coefficient_psi1() == 0


def test_divisor_coefficients_regression() -> None:
    # The three degree-2 solution classes sum to a single reduced class; both
    # routes must give the same normal form.
    ctx = RingContext.standard(3)
    a2 = psi1(ctx) - boundary(ctx, (2,))
    a3 = psi1(ctx) - boundary(ctx, (3,))
    b = psi1(ctx) - boundary(ctx, (1,))
    combined = (a2 + a3 + b).reduce()
    direct = (
        Fraction(3) * psi1(ctx)
        - boundary(ctx, (2,))
        - boundary(ctx, (3,))
        - boundary(ctx, (1,))
    ).reduce()
    assert combined == direct


# ---------------------------------------------------------------------------
# Forgetful maps and sections
# ---------------------------------------------------------------------------


def test_pullback_of_psi_adds_a_correction_divisor() -> None:
    small = RingContext.standard(2)
    pulled = pullback_forget(psi1(small), 3)
    big = RingContext.standard(3)
    assert pulled == psi1(big) - boundary(big, (2,))


def test_pullback_of_boundary_splits_over_the_new_mark() -> None:
    ctx3 = RingContext.standard(3)
    pulled = pullback_forget(boundary(ctx3, (2,)), 4)
    ctx4 = RingContext.standard(4)
    assert pulled == boundary(ctx4, (2,)) + boundary(ctx4, (2, 4))


def test_pullback_then_reduce_matches_reduce_then_pullback() -> None:
    ctx3 = RingContext.standard(3)
    cls = Fraction(2) * psi1(ctx3) - boundary(ctx3, (3,))
    route_a = pullback_forget(cls, 4).reduce()
    route_b = pullback_forget(cls.reduce(), 4).reduce()
    assert route_a == route_b


def test_pullback_matches_the_term_wise_formula_on_random_classes() -> None:
    # Oracle: psi * (psi1 - D(others)) + sum of value * (D(S + new) + D(S)),
    # assembled one term at a time with public arithmetic.
    rng = random.Random(20261018)
    cases = [((1, 2, 3), 4), ((1, 2, 4), 3), ((1, 3, 5, 6), 2), ((1, 2, 3, 4), 5), ((1, 4, 7), 9)]
    for marks, new_mark in cases:
        ctx = RingContext(marks)
        big = RingContext(tuple(sorted(marks + (new_mark,))))
        others = [m for m in big.marks if m not in (1, new_mark)]
        for _ in range(5):
            cls = _random_class(ctx, rng)
            expected = cls.coefficient_psi1() * (psi1(big) - boundary(big, others))
            for side, value in cls.boundary_terms():
                expected = expected + value * (
                    boundary(big, side + (new_mark,)) + boundary(big, side)
                )
            assert pullback_forget(cls, new_mark) == expected


def test_pushforward_integrates_over_the_fiber() -> None:
    ctx = RingContext.standard(3)
    assert pushforward_forget(psi1(ctx), 3) == 1
    assert pushforward_forget(boundary(ctx, (1,)), 3) == 1
    assert pushforward_forget(boundary(ctx, (2,)), 3) == 1
    assert pushforward_forget(boundary(ctx, (3,)), 3) == 0
    assert pushforward_forget(boundary(ctx, ()), 3) == 0
    with pytest.raises(InvalidArgumentError):
        pushforward_forget(psi1(ctx), 1)


def test_pushforward_after_pullback_is_zero() -> None:
    # A pulled-back divisor meets the generic fiber in zero points.
    ctx3 = RingContext.standard(3)
    for side in ((), (2,), (3,)):
        pulled = pullback_forget(boundary(ctx3, side), 4)
        assert pushforward_forget(pulled, 4) == 0
    pulled_psi = pullback_forget(psi1(ctx3), 4)
    assert pushforward_forget(pulled_psi, 4) == 0


def test_section_pushforward_lands_on_the_diagonal_divisor() -> None:
    ctx = RingContext.standard(3)
    cls = section_pushforward(Fraction(5, 2), 2, 3, ctx)
    assert cls == Fraction(5, 2) * boundary(ctx, (1,))
    ctx4 = RingContext.standard(4)
    cls4 = section_pushforward(Fraction(1), 3, 4, ctx4)
    assert cls4 == boundary(ctx4, (1, 2))


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------


def test_relabel_permutes_boundary_sides() -> None:
    ctx = RingContext.standard(3)
    swap = {1: 1, 2: 3, 3: 2}
    assert relabel(boundary(ctx, (2,)), swap) == boundary(ctx, (3,))
    assert relabel(psi1(ctx), swap) == psi1(ctx)
    cls = psi1(ctx) - boundary(ctx, (2,))
    assert relabel(relabel(cls, swap), swap) == cls


def test_relabel_matches_the_term_wise_image_on_random_classes() -> None:
    rng = random.Random(5)
    for marks, images in (((1, 2, 3, 4), (1, 2, 3, 4)), ((1, 2, 3, 4, 5), (1, 3, 6, 8, 9))):
        ctx = RingContext(marks)
        target = RingContext(images)
        for _ in range(5):
            mapping = dict(zip(marks, (1,) + tuple(rng.sample(images[1:], len(images) - 1))))
            cls = _random_class(ctx, rng)
            expected = cls.coefficient_psi1() * psi1(target)
            for side, value in cls.boundary_terms():
                expected = expected + value * boundary(target, [mapping[m] for m in side])
            assert relabel(cls, mapping) == expected


def test_relabel_validates_the_mapping() -> None:
    ctx = RingContext.standard(3)
    with pytest.raises(InvalidArgumentError):
        relabel(psi1(ctx), {1: 1, 2: 3})
    with pytest.raises(InvalidArgumentError):
        relabel(psi1(ctx), {1: 1, 2: 3, 3: 3})
    with pytest.raises(InvalidArgumentError):
        relabel(psi1(ctx), {1: 2, 2: 1, 3: 3})
