from __future__ import annotations

import functools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable

import pytest
from fraction_class_oracle import assert_canonical

from rubbertaut import polyclasses
from rubbertaut.errors import InvalidArgumentError, ResourceLimitError, TheoremViolationError
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
    _PSI_KEY,
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


def test_coefficient_refuses_malformed_exponents() -> None:
    poly = MultiPoly(2, {(1, 0): 1})
    assert poly.coefficient((1, 0)) == 1
    assert poly.coefficient((0, 1)) is None
    for exponents, message in [
        ((1,), "bad exponent tuple"),
        ((1, 0, 0), "bad exponent tuple"),
        ((), "bad exponent tuple"),
        ((-1, 2), "exponent must be >= 0, got -1"),
        ((0, -1), "exponent must be >= 0, got -1"),
    ]:
        with pytest.raises(InvalidArgumentError, match=message):
            poly.coefficient(exponents)


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
        assert_canonical(value)
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
                assert_canonical(value)
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
            assert_canonical(value)
            assert_canonical(value.reduce())
            assert_canonical(pullback_forget(value, t + 1))
            assert_canonical(relabel(value, mapping))
        assert_canonical(poly.evaluate(_seeded_point(rng, t - 1)))


def test_pullback_stability() -> None:
    check_pullback_stability(4)
    check_pullback_stability(5)


def _doctor_quadric(monkeypatch: pytest.MonkeyPatch, t: int, coeffs: dict) -> None:
    """Make the ``t``-mark quadric the predicates read carry ``coeffs``."""
    honest = genus1_polynomial
    doctored = MultiPoly(t - 1, coeffs)
    monkeypatch.setattr(
        polyclasses, "genus1_polynomial", lambda marks: doctored if marks == t else honest(marks)
    )


@pytest.mark.parametrize(
    "t, doctor, witness",
    [
        # a coefficient the pullback has is dropped
        (4, lambda c: {e: v for e, v in c.items() if e != (0, 2, 0)}, "(0, 2, 0) is missing"),
        # a coefficient the pullback lacks is dropped one level down
        (3, lambda c: {e: v for e, v in c.items() if e != (1, 1)}, "(1, 1, 0) is extra"),
        # a coefficient is altered
        (4, lambda c: {**c, (1, 1, 0): c[(2, 0, 0)]}, "(1, 1, 0) differs"),
    ],
    ids=["missing", "extra", "different"],
)
def test_pullback_stability_names_the_failing_coefficient(
    t: int, doctor: Callable[[dict], dict], witness: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    _doctor_quadric(monkeypatch, t, doctor(dict(genus1_polynomial(t).coeffs)))
    with pytest.raises(
        TheoremViolationError,
        match=re.escape(f"pullback stability fails at t=4: coefficient {witness}"),
    ):
        check_pullback_stability(4)


def test_equivariance_under_mark_permutations() -> None:
    for t in (3, 4, 5):
        check_equivariance(t)


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
            # At three marks, swapping a_2^2 and a_3^2 is itself equivariant.
            equivariant = t == 3 and {a, b} == {(2, 0), (0, 2)}
            assert equivariant == _equivariant_under_every_relabeling(swapped, t), (t, a, b)
            if equivariant:
                check_equivariance(t)
                continue
            with pytest.raises(TheoremViolationError, match=f"equivariance fails at t={t}") as caught:
                check_equivariance(t)
            # The witness is a swap (i i+1) and a monomial it moves onto a
            # mismatched coefficient, so the monomial or its image was swapped.
            found = re.search(r"swapping marks (\d+), (\d+) at exponents \(([\d, ]+)\)", str(caught.value))
            assert found, str(caught.value)
            i, exponents = int(found[1]), tuple(int(e) for e in found[3].split(","))
            assert int(found[2]) == i + 1
            image = list(exponents)
            image[i - 2], image[i - 1] = exponents[i - 1], exponents[i - 2]
            assert {exponents, tuple(image)} & {a, b}, (t, a, b, str(caught.value))


def test_degree_two_homogeneity() -> None:
    rng = random.Random(11)
    for t in (3, 4):
        point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(t - 1)]
        check_homogeneity(Fraction(3, 2), point)
        check_homogeneity(-2, point)


def test_homogeneity_names_the_scale_and_point(monkeypatch: pytest.MonkeyPatch) -> None:
    coeffs = dict(genus1_polynomial(3).coeffs)
    # a degree-one term: P(c a) = c^2 Q(a) + c L(a), not c^2 P(a)
    _doctor_quadric(monkeypatch, 3, {**coeffs, (1, 0): coeffs[(2, 0)]})
    check_homogeneity(2, [0, 1])  # L vanishes where the weight of mark 2 does
    with pytest.raises(
        TheoremViolationError,
        match=re.escape("homogeneity fails at t=3, scale 3/2, point (1, -1/2)"),
    ):
        check_homogeneity(Fraction(3, 2), [1, Fraction(-1, 2)])


@functools.lru_cache(maxsize=None)
def _genus0_sides(t: int) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Each genus-zero side of at least two marks, with its genus-one side."""
    marks = range(1, t + 1)
    return [
        (frozenset(genus0), tuple(m for m in marks if m not in genus0))
        for size in range(2, t)
        for genus0 in combinations(marks, size)
    ]


def _doubled_theta(t: int, weights: dict[int, int], drop_family: bool) -> dict[tuple, int]:
    """Twice Hain's ``sum_j (k_j^2/2) psi_j - 1/2 sum_S k_S^2 D_S`` at integer weights.

    ``weights`` gives ``k_m = alpha_m`` for some of the marks 2..t (the
    rest weigh 0), ``k_1 = -sum alpha`` and ``k_S = sum_{m in S} k_m``;
    ``S`` runs over the genus-zero sides.  With
    ``psi_j = psi_1 + sum_{S ∋ j, 1 ∉ S} D_S - sum_{S ∋ 1, j ∉ S} D_S``
    expanded, ``D_S`` has coefficient ``sum_{j in S} k_j^2 - k_S^2`` when
    ``1 ∉ S`` and ``-(sum_{j ∉ S} k_j^2 + k_S^2)`` when ``1 ∈ S``; each is
    built directly as an integer keyed like a class term, not as a sum of
    classes.  ``drop_family`` leaves out the ``- sum_{S ∋ 1, j ∉ S} D_S``
    family of every ``psi_j``.
    """
    k = {1: -sum(weights.values()), **weights}
    squares = sum(v * v for v in k.values())
    coeffs = {_PSI_KEY: squares}
    for genus0, genus1 in _genus0_sides(t):
        k_side = inside = 0
        for m, v in k.items():
            if m in genus0:
                k_side += v
                inside += v * v
        if 1 not in genus0:
            value = inside - k_side * k_side
        else:
            value = -k_side * k_side - (0 if drop_family else squares - inside)
        if value:
            coeffs[("D", genus1)] = value
    return coeffs


def _theta_mismatches(t: int, drop_family: bool = False) -> list[tuple[int, ...]]:
    """Exponents where ``genus1_polynomial(t)`` and Theta differ after reduction.

    Theta's coefficients are read off by polarization at unit vectors:
    ``alpha_i^2`` gets ``Theta(e_i)`` and ``alpha_i alpha_j`` gets
    ``Theta(e_i + e_j) - Theta(e_i) - Theta(e_j)``.
    """
    free = list(range(2, t + 1))
    single = {i: _doubled_theta(t, {i: 1}, drop_family) for i in free}
    doubled = {tuple(2 * (m == i) for m in free): single[i] for i in free}
    for i, j in combinations(free, 2):
        pair = _doubled_theta(t, {i: 1, j: 1}, drop_family)
        doubled[tuple(int(m in (i, j)) for m in free)] = {
            key: pair.get(key, 0) - single[i].get(key, 0) - single[j].get(key, 0)
            for key in pair.keys() | single[i].keys() | single[j].keys()
        }
    ctx = RingContext.standard(t)
    poly = genus1_polynomial(t)
    assert set(poly.coeffs) == set(doubled)
    return [
        exponents
        for exponents, coeffs in doubled.items()
        if poly.coeffs[exponents].reduce()
        != TautClass(ctx, {key: Fraction(v, 2) for key, v in coeffs.items() if v}).reduce()
    ]


def test_polynomial_is_hains_theta_divisor() -> None:
    """P = Q in genus one: the weight quadric is Hain's Theta (arXiv:1102.4031)."""
    for t in range(3, MAX_MARKS + 1):
        assert _theta_mismatches(t) == [], t


def test_theta_oracle_catches_a_dropped_divisor_family() -> None:
    """Without ``- sum_{S ∋ 1, j ∉ S} D_S`` in ``psi_j``, every square coefficient differs."""
    for t in range(3, 8):
        free = range(2, t + 1)
        squares = [tuple(2 * (m == i) for m in free) for i in free]
        assert _theta_mismatches(t, drop_family=True) == squares, t


def _lambda1_pairing(cls: TautClass, s: int) -> Fraction:
    """``L_s(c)``, the integral of ``lambda_1 * c * psi_s**(n - 2)`` over the
    ``n``-mark genus-one space of ``cls``.

    ``lambda_1`` vanishes on the irreducible boundary and the lambda_g formula
    gives ``multinomial(k - 1; b) / 24`` for ``lambda_1 psi^b`` on ``k``
    marks, while genus-zero integrals are multinomials.  So ``L_s(psi_1)`` is
    ``(n - 1) / 24`` for ``s != 1`` and ``1 / 24`` for ``s = 1``, and
    ``L_s(D(S|S'))`` is ``1 / 24`` when the genus-zero side ``S'`` is a pair
    without ``s`` or holds all ``n`` marks, and 0 otherwise.
    """
    n = cls.ctx.t
    total = cls.coefficient_psi1() * (1 if s == 1 else n - 1)
    for side, coeff in cls.boundary_terms():
        if not side or (len(side) == n - 2 and s in side):
            total += coeff
    return total / 24


def _pairing_misses(poly: MultiPoly, weights: list[Fraction]) -> list[int]:
    """The marks ``s`` where ``L_s(P(a)) != sum_{i != s} a_i**2 / 24``, with
    ``a_2 .. a_t`` the weights and ``a_1 = -sum a_i``: Hain's ``Theta``
    (arXiv:1102.4031) paired by the rules of :func:`_lambda1_pairing`.
    Reducing first must not change a pairing."""
    value = poly.evaluate(weights)
    a = [-sum(weights), *weights]
    misses = []
    for s in range(1, len(a) + 1):
        expected = sum(w * w for m, w in enumerate(a, 1) if m != s) / 24
        pairing = _lambda1_pairing(value, s)
        assert pairing == _lambda1_pairing(value.reduce(), s), (s, weights)
        if pairing != expected:
            misses.append(s)
    return misses


def _seeded_weights(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)) for _ in range(count)]


@pytest.mark.parametrize("t", range(3, MAX_MARKS + 1))
def test_lambda1_pairings_of_the_polynomial(t: int) -> None:
    """Every ``L_s`` of ``P(a)`` is ``sum_{i != s} a_i**2 / 24`` at three seeded
    rational weight vectors: ``3 t`` pairings per ``t``, 189 up to the cap."""
    rng = random.Random(t)
    poly = genus1_polynomial(t)
    for _ in range(3):
        assert _pairing_misses(poly, _seeded_weights(rng, t - 1)) == []


def test_lambda1_pairings_of_the_localization_solves() -> None:
    """The degree-2 solve's ``a2, a3, b``, and ``b`` replaced by degree 3's
    ``b_again``, pass the pairing identity on three marks."""
    solution = evaluate_and_solve(2)
    b_again = evaluate_and_solve(3).b_again
    rng = random.Random(2)
    for b, draws in ((solution.b, 5), (b_again, 3)):
        poly = MultiPoly(2, {(2, 0): solution.a2, (0, 2): solution.a3, (1, 1): b})
        for _ in range(draws):
            assert _pairing_misses(poly, _seeded_weights(rng, 2)) == []


@pytest.mark.parametrize(
    "side, misses",
    [((1, 2), [1, 2]), ((), [1, 2, 3, 4])],
    ids=["D(12|34)", "D(|1234)"],
)
def test_lambda1_pairings_catch_a_doctored_coefficient(side: tuple[int, ...], misses: list[int]) -> None:
    """One divisor added to the ``alpha_2**2`` coefficient on four marks moves
    the pairings it enters: ``D(12|34)`` those of marks 1 and 2, ``D(|1234)``
    all four."""
    coeffs = dict(genus1_polynomial(4).coeffs)
    coeffs[2, 0, 0] = coeffs[2, 0, 0] + boundary(RingContext.standard(4), side)
    doctored = MultiPoly(3, coeffs)
    rng = random.Random(4)
    for _ in range(3):
        assert _pairing_misses(doctored, _seeded_weights(rng, 3)) == misses


def test_mark_cap_bounds_the_polynomial_and_its_checks() -> None:
    assert len(genus1_polynomial(MAX_MARKS).coeffs) == (MAX_MARKS - 1) * MAX_MARKS // 2
    with pytest.raises(ResourceLimitError, match=f"cap {MAX_MARKS}"):
        genus1_polynomial(MAX_MARKS + 1)
    with pytest.raises(ResourceLimitError):
        check_pullback_stability(MAX_MARKS + 1)
    with pytest.raises(ResourceLimitError):
        check_equivariance(MAX_MARKS + 1)
    with pytest.raises(ResourceLimitError):
        check_homogeneity(2, [1] * MAX_MARKS)


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


def test_float_exponents_are_refused_not_truncated() -> None:
    with pytest.raises(InvalidArgumentError, match=r"exponent must be an integer, got 1\.5"):
        MultiPoly(2, {(1.5, 0): 1})
    with pytest.raises(InvalidArgumentError, match="exponent must be an integer"):
        MultiPoly(1, {(Fraction(1),): 1})
    poly = genus1_polynomial(3)
    assert str(poly.coefficient((1, 1))) == "psi_1 - D(1|23)"
    for exponents, message in [
        ((1.9, 1.2), r"exponent must be an integer, got 1\.9"),
        ((1.0, 1), r"exponent must be an integer, got 1\.0"),
        ((1,), r"bad exponent tuple \(1,\)"),
        ((1, -1), "exponent must be >= 0, got -1"),
        (5, "need a sequence of exponent values, got 5"),
    ]:
        with pytest.raises(InvalidArgumentError, match=message):
            poly.coefficient(exponents)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: genus1_polynomial(3.0), "number of marks must be an integer, got 3.0"),
        (lambda: check_equivariance(Fraction(3)), "number of marks must be an integer"),
        (lambda: hain_expand(2.5, 2, (1, -1)), "genus must be an integer, got 2.5"),
        (lambda: hain_expand(2, 2.0, (1, -1)), "number of marks must be an integer, got 2.0"),
        (lambda: interpolate(lambda point: 1, (1.5,)), "degree must be an integer, got 1.5"),
        (lambda: interpolate(lambda point: 1, (2, 1.0)), "degree must be an integer, got 1.0"),
    ],
    ids=["genus1-marks", "equivariance-marks", "hain-genus", "hain-marks", "interp", "interp-second"],
)
def test_non_integer_arguments_are_refused(call: Callable[[], object], message: str) -> None:
    with pytest.raises(InvalidArgumentError, match=message):
        call()


def test_multipoly_values_are_rationals_or_classes() -> None:
    ctx = RingContext.standard(3)
    assert MultiPoly(1, {(0,): 2, (1,): Fraction(1, 2)}).evaluate((2,)) == 3
    assert MultiPoly(1, {(0,): psi1(ctx) - psi1(ctx)}) == MultiPoly(1)
    for value in (0.5, None, "1"):
        with pytest.raises(InvalidArgumentError, match="not a rational or a class"):
            MultiPoly(1, {(0,): value})
    with pytest.raises(InvalidArgumentError, match="mix rationals and classes"):
        MultiPoly(1, {(0,): Fraction(1), (1,): psi1(ctx)})


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

    rebuilt = interpolate(fn, (2, 3))
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
        assert interpolate(original.evaluate, degrees) == original


def test_interpolation_handles_class_values() -> None:
    poly = genus1_polynomial(3)
    rebuilt = interpolate(poly.evaluate, (2, 2))
    assert rebuilt == poly


def test_interpolation_cap_is_checked_before_any_evaluation() -> None:
    calls: list[tuple] = []

    def fn(point: tuple) -> Fraction:
        calls.append(point)
        return Fraction(1)

    for degrees in ((MAX_INTERP_POINTS,), (30, 30, 30), (10**30,)):
        with pytest.raises(ResourceLimitError, match=f"more than {MAX_INTERP_POINTS} grid points"):
            interpolate(fn, degrees)
    assert calls == []
    assert interpolate(fn, (4, 4, 4)) == MultiPoly(3, {(0, 0, 0): Fraction(1)})
    assert len(calls) == 125 == MAX_INTERP_POINTS


def test_stirling_weights_expand_the_falling_factorial() -> None:
    weights = polyclasses._stirling_weights(12)
    for k, row in enumerate(weights):
        for x in range(-4, 15):
            falling = math.prod(x - i for i in range(k))
            assert sum(w * x**j for j, w in enumerate(row)) * math.factorial(k) == falling


def test_interpolation_round_trips_one_variable_of_degree_124() -> None:
    rng = random.Random(124)
    coeffs = {(e,): Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for e in range(125)}
    original = MultiPoly(1, coeffs)
    assert interpolate(original.evaluate, (MAX_INTERP_POINTS - 1,)) == original


def test_interpolation_handles_class_values_in_three_variables() -> None:
    poly = genus1_polynomial(4)
    assert interpolate(poly.evaluate, (2, 2, 2)) == poly


def test_the_empty_polynomial_interpolates_to_itself() -> None:
    for nvars in (1, 2, 3):
        empty = MultiPoly(nvars)
        assert interpolate(empty.evaluate, (2,) * nvars) == empty


def test_interpolation_validates_arguments() -> None:
    with pytest.raises(InvalidArgumentError):
        interpolate(lambda p: Fraction(1), ())
    with pytest.raises(InvalidArgumentError):
        interpolate(lambda p: Fraction(1), (-1,))


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
        (3, (1, 2, 4, -7)),
        (2, (1, 2, 4, 8, 16, -31)),
        (3, (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(-37, 42))),
    ],
)
def test_hain_matches_the_multiset_count(g: int, weights) -> None:
    result = hain_expand(g, len(weights), weights)
    expected = _hain_by_multiset_count(g, len(weights), weights)
    assert result == expected
    assert list(result) == list(expected)
    # Exactly Fraction, never an int that equals one: the JSON payload and
    # the repr of the result depend on the type.
    assert {type(value) for value in result.values()} == {Fraction}


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
