from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import fraction_class_oracle as oracle
import pytest
from fraction_class_oracle import assert_canonical

from rubbertaut import tautring, util
from rubbertaut.errors import InvalidArgumentError, ResourceLimitError
from rubbertaut.tautring import (
    RingContext,
    TautClass,
    boundary,
    linear_combination,
    psi1,
    psi1_minus,
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


@pytest.mark.parametrize("t", [2.5, 3.0, "3", None])
def test_standard_context_refuses_a_non_integer_mark_count(t: object) -> None:
    with pytest.raises(InvalidArgumentError, match="number of marks must be an integer"):
        RingContext.standard(t)


def test_marks_must_be_integers() -> None:
    for marks in ((1, 2.0, 3), (1, "2", 3), (1, Fraction(2), 3)):
        with pytest.raises(InvalidArgumentError, match="mark must be an integer"):
            RingContext(marks)
    ctx = RingContext.standard(3)
    for side in ((2.0,), ("2",), (Fraction(3),)):
        with pytest.raises(InvalidArgumentError, match="mark must be an integer"):
            boundary(ctx, side)
        with pytest.raises(InvalidArgumentError, match="mark must be an integer"):
            TautClass(ctx, {("D", side): 1})
        # 2.0 == 2 passes a membership test, so only the type check stops it
        # (section_pushforward(1, 1, 2.0, ctx) would return D(3|12)).
        with pytest.raises(InvalidArgumentError, match="mark must be an integer"):
            psi1_minus(ctx, [(side, ())])
        with pytest.raises(InvalidArgumentError, match="mark must be an integer"):
            pushforward_forget(psi1(ctx), *side)
        with pytest.raises(InvalidArgumentError, match="mark must be an integer"):
            section_pushforward(1, 1, *side, ctx)


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
            assert_canonical(total)


def test_linear_combination_drops_cancelled_keys() -> None:
    ctx = RingContext.standard(4)
    x = _random_class(ctx, random.Random(10))
    assert linear_combination([(Fraction(2, 3), x), (Fraction(-4, 6), x)]) == zero_class(ctx)
    assert linear_combination([(0, x)]).is_zero()
    a = Fraction(1, 2) * psi1(ctx) + Fraction(1, 3) * boundary(ctx, (2,))
    b = Fraction(3, 4) * boundary(ctx, (2,)) - boundary(ctx, (3,))
    total = linear_combination([(Fraction(9, 4), a), (-1, b)])
    assert total == Fraction(9, 8) * psi1(ctx) + boundary(ctx, (3,))
    assert_canonical(total)
    assert total.coefficient_boundary((2,)) == 0


def test_linear_combination_validates_its_classes() -> None:
    with pytest.raises(InvalidArgumentError):
        linear_combination([])
    small, big = psi1(RingContext.standard(3)), psi1(RingContext.standard(4))
    with pytest.raises(InvalidArgumentError):
        linear_combination([(1, small), (1, big)])


@pytest.mark.parametrize("other", [1, -1, Fraction(1, 2), 0])
def test_adding_a_number_to_a_class_is_a_type_error(other) -> None:
    cls = psi1(RingContext.standard(3))
    with pytest.raises(TypeError):
        cls + other
    with pytest.raises(TypeError):
        cls - other
    with pytest.raises(TypeError):
        other + cls
    with pytest.raises(TypeError):
        other - cls


# ---------------------------------------------------------------------------
# The text form
# ---------------------------------------------------------------------------


def _render_classes(classes: list[TautClass]) -> list[str]:
    """The retired command-line renderer, kept as the oracle of ``str``:
    ``psi_1`` first, then the divisors in ``boundary_terms`` order, with
    commas between a side's marks once the space has a two-digit mark."""
    rendered: list[str] = []
    for cls in classes:
        terms: list[tuple[str, Fraction]] = []
        psi = cls.coefficient_psi1()
        if psi:
            terms.append(("psi_1", psi))
        sep = "," if max(cls.ctx.marks) > 9 else ""
        for side, coeff in cls.boundary_terms():
            rest = sep.join(str(m) for m in cls.ctx.marks if m not in side)
            terms.append(("D({}|{})".format(sep.join(map(str, side)), rest), coeff))
        chunks: list[str] = []
        for label, coeff in terms:
            num, den = coeff.numerator, coeff.denominator
            magnitude = -num if num < 0 else num
            if den != 1:
                body = f"{magnitude}/{den}*{label}"
            else:
                body = label if magnitude == 1 else f"{magnitude}*{label}"
            if chunks:
                chunks.append(("- " if num < 0 else "+ ") + body)
            else:
                chunks.append(f"-{body}" if num < 0 else body)
        rendered.append(" ".join(chunks) if chunks else "0")
    return rendered


def test_text_form_literals() -> None:
    ctx = RingContext.standard(3)
    assert str(psi1(ctx) - Fraction(1, 2) * boundary(ctx, (2,))) == "psi_1 - 1/2*D(2|13)"
    assert str(-3 * boundary(ctx, ()) + boundary(ctx, (1,))) == "-3*D(|123) + D(1|23)"
    assert str(zero_class(ctx)) == "0"
    huge = Fraction(10**5000) * psi1(ctx)
    for render in (str, repr):
        with pytest.raises(ResourceLimitError):
            render(huge)
    assert repr(Fraction(-2, 3) * psi1(ctx)) == "TautClass(-2/3*psi_1)"


def test_two_digit_marks_keep_divisor_labels_apart() -> None:
    ctx = RingContext((1, 2, 12, 21))
    assert str(boundary(ctx, (1, 2))) == "D(1,2|12,21)"
    assert str(boundary(ctx, (12,))) == "D(12|1,2,21)"
    assert str(boundary(ctx, (1, 2)) - boundary(ctx, (12,))) == "-D(12|1,2,21) + D(1,2|12,21)"
    assert str(boundary(RingContext.standard(10), (10,))) == "D(10|1,2,3,4,5,6,7,8,9)"
    assert str(boundary(RingContext.standard(9), (9,))) == "D(9|12345678)"
    sides = _all_genus_sides(ctx)
    assert len({str(boundary(ctx, side)) for side in sides}) == len(sides)


def test_text_form_matches_the_retired_renderer() -> None:
    rng = random.Random(20261020)
    seen: Counter = Counter()
    for t in range(3, 12):
        for standard in (True, False):
            others = range(2, t + 1) if standard else sorted(rng.sample(range(2, 16), t - 1))
            ctx = RingContext((1, *others))
            classes = [zero_class(ctx), psi1(ctx), -psi1(ctx)]
            for _ in range(4):
                cls = TautClass(ctx, _oracle_terms(ctx, rng))
                classes += [cls, -cls, cls.reduce(), Fraction(1, 5) * cls]
            for cls, text in zip(classes, _render_classes(classes)):
                assert str(cls) == text
                assert repr(cls) == f"TautClass({cls})"
                seen["zero"] += cls.is_zero()
                seen["psi"] += bool(cls.coefficient_psi1())
                seen["no psi"] += not cls.coefficient_psi1() and not cls.is_zero()
                seen["negative first"] += text.startswith("-")
                seen["denominator"] += "/" in text
    assert min(seen[key] for key in ("zero", "psi", "no psi", "negative first", "denominator")) >= 18, seen


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
    assert_canonical(reduced)
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


# ---------------------------------------------------------------------------
# Keys, marks and the Fraction-dict oracle
# ---------------------------------------------------------------------------


def test_constructor_routes_every_key_through_its_side() -> None:
    ctx4 = RingContext.standard(4)
    unsorted = TautClass(ctx4, {("D", (3, 2)): 1})
    assert unsorted == boundary(ctx4, (2, 3))
    assert unsorted.coefficient_boundary((2, 3)) == 1
    both = TautClass(ctx4, {("D", (3, 2)): 1, ("D", (2, 3)): Fraction(1, 2), ("psi",): 0})
    assert both == Fraction(3, 2) * boundary(ctx4, (2, 3))
    assert TautClass(ctx4, {("D", (3, 2)): 1, ("D", (2, 3)): -1}).is_zero()
    ctx3 = RingContext.standard(3)
    for key in (("bogus",), ("D", (9,)), ("D", (2, 3)), ("D", 2), ("D",), "psi", ("psi", 1)):
        for value in (2, 0):
            with pytest.raises(InvalidArgumentError):
                TautClass(ctx3, {key: value})
    with pytest.raises(InvalidArgumentError):
        TautClass(ctx3, {("D", (9,)): 1, ("bogus",): 2})


def test_psi1_minus_subtracts_each_matching_divisor_once() -> None:
    ctx = RingContext.standard(4)
    # Genus-zero sides holding 1 and avoiding 4: {1,2}, {1,3}, {1,2,3}.
    expected = psi1(ctx) - boundary(ctx, (3, 4)) - boundary(ctx, (2, 4)) - boundary(ctx, (4,))
    assert psi1_minus(ctx, [((1,), (4,))]) == expected
    assert psi1_minus(ctx, [((1,), (4,)), ((1, 2), (4,))]) == expected
    assert psi1_minus(ctx, [((2,), (2,))]) == psi1(ctx)
    assert psi1_minus(ctx, [((), ())]) == psi1(ctx) - sum(
        (boundary(ctx, side) for side in _all_genus_sides(ctx)), zero_class(ctx)
    )
    for family in (((5,), ()), ((1,), (0,))):
        with pytest.raises(InvalidArgumentError):
            psi1_minus(ctx, [family])


def test_marks_below_one_are_refused() -> None:
    for marks in ((0, 1, 2), (-3, 1), (-1, 0, 1, 2)):
        with pytest.raises(InvalidArgumentError, match="mark must be >= 1"):
            RingContext(marks)
    ctx = RingContext.standard(3)
    for mapping in ({1: 1, 2: 0, 3: -4}, {1: 1, 2: 3, 3: -1}):
        with pytest.raises(InvalidArgumentError, match="mark must be >= 1"):
            relabel(psi1(ctx), mapping)
    for new_mark in (0, -2):
        with pytest.raises(InvalidArgumentError, match="mark must be >= 1"):
            pullback_forget(psi1(ctx), new_mark)


def _oracle_terms(ctx: RingContext, rng: random.Random) -> dict:
    """A sparse random class in the oracle's ``Fraction``-dict format."""
    sides = _all_genus_sides(ctx)
    chosen = rng.sample(sides, min(len(sides), rng.randint(1, 24)))
    terms = {("D", side): Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for side in chosen}
    if rng.random() < 0.7:
        terms[oracle.PSI] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return {key: value for key, value in terms.items() if value}


def _agrees(cls: TautClass, marks: tuple[int, ...], expected: dict) -> None:
    assert cls.ctx.marks == marks
    assert oracle.terms_of(cls) == expected
    assert_canonical(cls)
    assert cls == TautClass(cls.ctx, expected)


def _compare_with_oracle(seed: int) -> None:
    """Every class operation against the retired ``Fraction``-dict algebra on
    seeded classes over 3..8 marks.  Marks run up to 15, so side masks and
    relabelings reach past one 12-bit relabeling table."""
    rng = random.Random(seed)
    for t in range(3, 9):
        for _ in range(6):
            ctx = RingContext((1,) + tuple(sorted(rng.sample(range(2, 16), t - 1))))
            terms = [_oracle_terms(ctx, rng) for _ in range(3)]
            classes = [TautClass(ctx, item) for item in terms]
            for cls, item in zip(classes, terms):
                _agrees(cls, ctx.marks, item)
            a, x = classes[0], terms[0]
            _agrees(a.reduce(), ctx.marks, oracle.reduce(ctx, x))
            new_mark = rng.choice([m for m in range(2, 17) if m not in ctx.marks])
            big = tuple(sorted(ctx.marks + (new_mark,)))
            _agrees(pullback_forget(a, new_mark), big, oracle.pullback_forget(ctx, x, new_mark))
            for mark in ctx.marks[1:]:
                assert pushforward_forget(a, mark) == oracle.pushforward_forget(ctx, x, mark)
            images = (1,) + tuple(rng.sample(range(2, 16), t - 1))
            mapping = dict(zip(ctx.marks, images))
            _agrees(relabel(a, mapping), tuple(sorted(images)), oracle.relabel(x, mapping))
            scales = [rng.choice((6, -3, 2, Fraction(3, 2), Fraction(-4, 9), 1)) for _ in terms]
            _agrees(linear_combination(zip(scales, classes)), ctx.marks, oracle.linear_combination(zip(scales, terms)))
            _agrees(scales[0] * a, ctx.marks, oracle.linear_combination([(scales[0], x)]))
            _agrees(a - classes[1], ctx.marks, oracle.linear_combination([(1, x), (-1, terms[1])]))
            _agrees(-a, ctx.marks, oracle.linear_combination([(-1, x)]))


def test_class_algebra_matches_the_fraction_dict_oracle() -> None:
    _compare_with_oracle(20261019)


def _doubled(pairs):
    """``combine_ints`` with the common factor 2 left in: the same values, no
    longer in lowest terms."""
    den, nums = util.combine_ints(pairs)
    return 2 * den, {key: 2 * num for key, num in nums.items()}


@pytest.mark.parametrize("doctor", ["psi-mask", "normalization"])
def test_the_oracle_comparison_catches_a_doctored_kernel(monkeypatch, doctor: str) -> None:
    if doctor == "psi-mask":
        masks = tautring._psi_masks
        monkeypatch.setattr(tautring, "_psi_masks", lambda ctx: masks(ctx)[:-1])
    else:
        monkeypatch.setattr(tautring, "combine_ints", _doubled)
    with pytest.raises(AssertionError):
        _compare_with_oracle(20261019)
