"""The exact sparse-sum kernel against a term-by-term ``Fraction`` oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rubbertaut.locgraphs import Monomial
from rubbertaut.util import combine


def _oracle(pairs) -> dict:
    """Add every scaled term one at a time, then drop the zero sums."""
    total: dict = {}
    for scale, terms in pairs:
        for key, value in terms.items():
            total[key] = total.get(key, Fraction(0)) + Fraction(scale) * Fraction(value)
    return {key: value for key, value in total.items() if value}


def _random_value(rng: random.Random, exact: bool) -> Fraction | int:
    if exact:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return rng.randint(-5, 5)


def _random_key(rng: random.Random, monomial: bool):
    if monomial:
        return Monomial(rng.randint(0, 2), 0, rng.randint(0, 2), rng.choice((None, 0, 1)))
    return ("D", tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 3)))))


@pytest.mark.parametrize("exact", [False, True], ids=["int-values", "fraction-values"])
@pytest.mark.parametrize("monomial", [False, True], ids=["tuple-keys", "monomial-keys"])
def test_combine_matches_the_term_by_term_sum(exact: bool, monomial: bool) -> None:
    rng = random.Random(20261018 + 2 * exact + monomial)
    for _ in range(200):
        pairs = [
            (
                _random_value(rng, rng.random() < 0.5),
                {_random_key(rng, monomial): _random_value(rng, exact) for _ in range(rng.randint(0, 6))},
            )
            for _ in range(rng.randint(0, 5))
        ]
        result = combine(iter(pairs))
        assert result == _oracle(pairs)
        assert all(type(value) is Fraction and value for value in result.values())


def test_combine_drops_cancelled_keys_and_zero_scales() -> None:
    a = {("D", (1,)): Fraction(1, 3), ("D", (2,)): 2}
    assert combine([(1, a), (-1, a)]) == {}
    assert combine([(Fraction(3, 2), a), (Fraction(-3, 2), a)]) == {}
    assert combine([(0, a)]) == {}
    assert combine([(0, a), (2, {("D", (2,)): Fraction(1, 2)})]) == {("D", (2,)): Fraction(1)}
    assert combine([(1, a), (-1, {("D", (1,)): Fraction(1, 3)})]) == {("D", (2,)): Fraction(2)}


def test_combine_of_nothing_is_empty() -> None:
    assert combine([]) == {}
    assert combine([(5, {})]) == {}


def test_combine_keeps_first_appearance_order() -> None:
    x, y, z = Monomial(psi_genus=1), Monomial(psi_rubber=1), Monomial(hodge_j=0)
    result = combine([(1, {y: 1, x: 1}), (1, {z: 1, y: -1}), (1, {y: 2})])
    assert list(result) == [y, x, z]
    assert result == {y: Fraction(2), x: Fraction(1), z: Fraction(1)}
