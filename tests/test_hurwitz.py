from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from rubbertaut.errors import InvalidArgumentError, ResourceLimitError
from rubbertaut.hurwitz import (
    MAX_DEGREE,
    MAX_SIMPLE_BRANCH,
    hurwitz_one_part,
    hurwitz_oracle,
    rubber_psi_integral,
)
from rubbertaut.partitions import aut, enumerate_partitions


# ---------------------------------------------------------------------------
# Independent oracle: enumerate transposition tuples over ALL start
# permutations of the given cycle type (no canonical-representative trick, no
# state collapsing), normalized by aut(alpha) * aut(beta) / d!.
# ---------------------------------------------------------------------------


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[x]] for x in range(len(q)))


def _transitive(perms: tuple[tuple[int, ...], ...], d: int) -> bool:
    component = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            if p[x] not in component:
                component.add(p[x])
                frontier.append(p[x])
    return len(component) == d


def _brute_force_count(alpha: tuple[int, ...], beta: tuple[int, ...]) -> Fraction:
    d = sum(alpha)
    r = len(alpha) + len(beta) - 2
    transpositions = []
    for i in range(d):
        for j in range(i + 1, d):
            t = list(range(d))
            t[i], t[j] = j, i
            transpositions.append(tuple(t))
    starts = [p for p in permutations(range(d)) if _cycle_type(p) == alpha]
    total = 0
    for sigma in starts:
        for taus in product(transpositions, repeat=r):
            current = sigma
            for t in taus:
                current = _compose(t, current)
            if _cycle_type(current) != beta:
                continue
            if not _transitive((sigma,) + taus, d):
                continue
            total += 1
    return Fraction(aut(alpha) * aut(beta) * total, math.factorial(d))


def test_counts_match_brute_force_up_to_degree_four() -> None:
    for d in range(1, 5):
        for alpha in enumerate_partitions(d):
            for beta in enumerate_partitions(d):
                assert hurwitz_oracle(alpha, beta) == _brute_force_count(alpha, beta)


def test_frozen_small_counts() -> None:
    # Values computed with the brute-force enumeration above.
    assert hurwitz_oracle((2,), (1, 1)) == 1
    assert hurwitz_oracle((1, 1), (1, 1)) == 2
    assert hurwitz_oracle((2, 1), (2, 1)) == 4
    assert hurwitz_oracle((2, 1), (1, 1, 1)) == 24
    assert hurwitz_oracle((1, 1, 1), (1, 1, 1)) == 144
    assert hurwitz_oracle((3, 1), (2, 2)) == 6
    assert hurwitz_oracle((2, 1, 1), (2, 1, 1)) == 480
    assert hurwitz_oracle((1, 1, 1, 1), (1, 1, 1, 1)) == 69120
    assert hurwitz_oracle((2,), (2,)) == Fraction(1, 2)
    assert hurwitz_oracle((4,), (4,)) == Fraction(1, 4)


def test_one_part_closed_form_up_to_degree_six() -> None:
    for d in range(1, 7):
        for nu in enumerate_partitions(d):
            expected = Fraction(math.factorial(len(nu) - 1)) * Fraction(d) ** (
                len(nu) - 2
            )
            assert hurwitz_one_part(nu, d) == expected
            assert hurwitz_oracle((d,), nu) == expected


def test_symmetry_in_the_two_profiles() -> None:
    for d in range(1, 6):
        for alpha in enumerate_partitions(d):
            for beta in enumerate_partitions(d):
                if len(alpha) + len(beta) - 2 > MAX_SIMPLE_BRANCH:
                    continue
                assert hurwitz_oracle(alpha, beta) == hurwitz_oracle(beta, alpha)


def test_profile_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle((2, 1), (2,))
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle((), (1,))
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle((0, 2), (1, 1))


def test_resource_caps_are_enforced() -> None:
    big = MAX_DEGREE + 1
    with pytest.raises(ResourceLimitError):
        hurwitz_oracle((big,), tuple([1] * big))
    with pytest.raises(ResourceLimitError):
        hurwitz_oracle(tuple([1] * 6), tuple([1] * 6))


def test_rubber_integrals_divide_by_branch_count() -> None:
    assert rubber_psi_integral((2,), (1, 1)) == 1
    assert rubber_psi_integral((1, 1), (2,)) == 1
    assert rubber_psi_integral((1, 1, 1), (3,)) == 3
    assert rubber_psi_integral((1, 1), (1, 1)) == 1
    for alpha in enumerate_partitions(4):
        for beta in enumerate_partitions(4):
            r = len(alpha) + len(beta) - 2
            if r < 1:
                continue
            expected = hurwitz_oracle(alpha, beta) / math.factorial(r)
            assert rubber_psi_integral(alpha, beta) == expected


def test_rubber_integral_needs_a_branch_point() -> None:
    with pytest.raises(InvalidArgumentError):
        rubber_psi_integral((3,), (3,))
