from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rubbertaut import partitions
from rubbertaut.errors import InvalidArgumentError, ResourceLimitError
from rubbertaut.partitions import (
    MAX_MARKED_ASSIGNMENTS,
    MAX_PARTITION_DEGREE,
    aut,
    decorated_aut,
    enumerate_partitions,
    enumerate_marked,
    tau_power_coefficient,
)
from rubbertaut.series import MAX_SERIES_ORDER, series, series_mul, series_tau


# ---------------------------------------------------------------------------
# Independent oracle: partition counts via Euler's pentagonal recurrence
# ---------------------------------------------------------------------------


def _partition_counts(n_max: int) -> list[int]:
    counts = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts[n] = total
    return counts


def test_enumeration_count_matches_pentagonal_oracle() -> None:
    counts = _partition_counts(12)
    for n in range(1, 13):
        assert len(enumerate_partitions(n)) == counts[n]


def test_enumeration_contents_and_order() -> None:
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(6)) == 11
    for nu in enumerate_partitions(9):
        assert sum(nu) == 9
        assert nu == tuple(sorted(nu, reverse=True))
    assert len(set(enumerate_partitions(9))) == len(enumerate_partitions(9))


def test_enumeration_with_length_bound() -> None:
    bounded = enumerate_partitions(6, max_length=2)
    assert bounded == [(6,), (5, 1), (4, 2), (3, 3)]


def test_enumeration_lists_every_partition_at_the_cap_and_refuses_past_it() -> None:
    partitions = enumerate_partitions(MAX_PARTITION_DEGREE)
    assert len(partitions) == _partition_counts(MAX_PARTITION_DEGREE)[-1] == 231
    assert enumerate_partitions(MAX_PARTITION_DEGREE, 3) == [nu for nu in partitions if len(nu) <= 3]
    # Refused before anything is listed: 10**6 in at most three parts alone
    # would be about 8 * 10**10 partitions.
    for n in (MAX_PARTITION_DEGREE + 1, 10**6):
        for max_length in (None, 3):
            with pytest.raises(
                ResourceLimitError,
                match=f"degree {n} exceeds the partition-sum cap {MAX_PARTITION_DEGREE}",
            ):
                enumerate_partitions(n, max_length)


def test_enumeration_table_hands_out_copies() -> None:
    first = enumerate_partitions(7, 3)
    expected = list(first)
    first.append((99,))
    first[0] = (0,)
    assert enumerate_partitions(7, 3) == expected
    # A bound at or past n lists the same partitions under the one key (n, n).
    assert enumerate_partitions(7, 7) == enumerate_partitions(7, 100) == enumerate_partitions(7)
    assert (7, 3) in partitions._PARTITIONS and (7, 100) not in partitions._PARTITIONS
    assert enumerate_partitions(7, 0) == [] and enumerate_partitions(0, 0) == [()]


def test_aut_orders() -> None:
    assert aut((3, 2, 1)) == 1
    assert aut((2, 2, 1)) == 2
    assert aut((1, 1, 1)) == 6
    assert aut((2, 2, 2, 1, 1)) == 12


def test_decorated_aut_distinguishes_decorations() -> None:
    assert decorated_aut([(1, (), True), (1, (), False), (1, (), False)]) == 2
    assert decorated_aut([(1, (), False)] * 3) == 6
    assert decorated_aut([(2, (1,), False), (2, (2,), False)]) == 1
    assert decorated_aut([]) == 1


def test_enumerate_marked_distinct_parts_have_trivial_orbits() -> None:
    classes = enumerate_marked((2, 1), (2, 3))
    assert len(classes) == 4
    assert all(orbit == 1 for _, orbit in classes)


def test_enumerate_marked_merge_equal_parts() -> None:
    classes = enumerate_marked((1, 1), (2, 3))
    assert classes == [
        (((1, ()), (1, (2, 3))), 2),
        (((1, (2,)), (1, (3,))), 2),
    ]
    single = enumerate_marked((1, 1), (2,))
    assert single == [(((1, ()), (1, (2,))), 2)]


def test_enumerate_marked_orbit_sizes_sum_to_all_assignments() -> None:
    for nu in [(3, 2, 1), (2, 2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        for labels in [(2,), (2, 3), (2, 3, 4)]:
            classes = enumerate_marked(nu, labels)
            assert sum(orbit for _, orbit in classes) == len(nu) ** len(labels)


def _marked_by_assignment_walk(nu: tuple[int, ...], labels: tuple[int, ...]) -> list:
    """The retired enumerator, kept as the oracle: walk every map
    ``label -> part`` and count the sorted marking each one gives."""
    counts: Counter = Counter()
    for assignment in itertools.product(range(len(nu)), repeat=len(labels)):
        marks: list[list[int]] = [[] for _ in nu]
        for label, index in zip(labels, assignment):
            marks[index].append(label)
        slots = sorted(
            ((size, tuple(sorted(ms))) for size, ms in zip(nu, marks)),
            key=lambda slot: (-slot[0], slot[1]),
        )
        counts[tuple(slots)] += 1
    return sorted(counts.items())


def test_enumerate_marked_matches_the_assignment_walk() -> None:
    # Every partition with d <= 10, its parts descending and ascending, and
    # 0 to 3 labels given in and out of order.
    checked = 0
    for nu in (nu for d in range(11) for nu in enumerate_partitions(d)):
        for parts in {nu, nu[::-1]}:
            for labels in [(), (2,), (2, 3), (3, 2), (2, 3, 4), (4, 2, 3), (5, 1, 3)]:
                expected = _marked_by_assignment_walk(parts, labels)
                assert enumerate_marked(parts, labels) == expected, (parts, labels)
                checked += 1
    assert checked == 1750


def test_enumerate_marked_reject_duplicate_labels() -> None:
    with pytest.raises(InvalidArgumentError):
        enumerate_marked((2, 1), (2, 2))


def _must_not_run(*args: object, **kwargs: object) -> None:
    raise AssertionError("work ran past a cap")


class _UnreadParts(tuple):
    """A partition whose parts can be counted but not read: every marking is
    built from the parts, so reading one means the work has begun."""

    def __iter__(self):  # type: ignore[override]
        _must_not_run()

    def __getitem__(self, index):  # type: ignore[override]
        _must_not_run()


def test_enumerate_marked_refuses_past_the_assignment_cap_before_any_walk() -> None:
    # Three labels on the longest partition the partition-sum cap admits
    # are exactly at the cap and still walk.
    assert MAX_MARKED_ASSIGNMENTS == MAX_PARTITION_DEGREE**3
    at_cap = enumerate_marked((1,) * MAX_PARTITION_DEGREE, (2, 3, 4))
    assert sum(orbit for _, orbit in at_cap) == MAX_MARKED_ASSIGNMENTS
    with pytest.raises(AssertionError, match="work ran past a cap"):
        enumerate_marked(_UnreadParts((2, 1)), (2, 3))
    for nu, labels in [((1,) * 17, (2, 3, 4)), ((1,) * 16, (2, 3, 4, 5, 6, 7))]:
        count = len(nu) ** len(labels)
        with pytest.raises(ResourceLimitError, match=f"{count} label assignments exceed the cap"):
            enumerate_marked(_UnreadParts(nu), labels)


def _tau_power_by_partitions(n: int, l: int) -> Fraction:
    """The retired partition sum: ``l!/aut(nu) * prod(nu_i^(nu_i-1)/nu_i!)``
    over partitions ``nu`` of ``n`` with exactly ``l`` parts."""
    if n == 0:
        return Fraction(1 if l == 0 else 0)
    total = Fraction(0)
    for nu in enumerate_partitions(n, max_length=l):
        if len(nu) != l:
            continue
        weight = Fraction(math.factorial(l), aut(nu))
        for part in nu:
            weight *= Fraction(part ** (part - 1), math.factorial(part))
        total += weight
    return total


def test_tau_power_closed_form_matches_partition_sum() -> None:
    for n in range(0, 17):
        for l in range(0, n + 1):
            assert tau_power_coefficient(n, l) == _tau_power_by_partitions(n, l), (n, l)
    assert tau_power_coefficient(3, 4) == 0


def test_tau_power_coefficient_matches_series_route() -> None:
    # Independent route: multiply the tree series into its l-th power and read
    # off coefficients; the partition-sum formula must agree everywhere.
    tau, power = series_tau(8), series([1], 8)
    for l in range(0, 5):
        for n in range(0, 9):
            assert tau_power_coefficient(n, l) == power.coefficient(n)
        power = series_mul(power, tau)


def test_tau_power_coefficient_frozen_values() -> None:
    assert tau_power_coefficient(0, 0) == 1
    assert tau_power_coefficient(3, 2) == 2
    assert tau_power_coefficient(1, 1) == 1
    assert tau_power_coefficient(2, 3) == 0
    assert tau_power_coefficient(4, 2) == 4
    assert tau_power_coefficient(5, 2) == Fraction(25, 3)


def test_tau_power_coefficient_refuses_past_the_series_order_cap(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    n = MAX_SERIES_ORDER
    assert tau_power_coefficient(n, 2) == Fraction(2 * n ** (n - 3), math.factorial(n - 2))
    monkeypatch.setattr(partitions, "math", SimpleNamespace(factorial=_must_not_run))
    for n in (MAX_SERIES_ORDER + 1, 10**6):
        with pytest.raises(ResourceLimitError, match=f"order {n} exceeds the series-order cap"):
            tau_power_coefficient(n, 2)
    with pytest.raises(InvalidArgumentError):
        tau_power_coefficient(10**6, -1)


def test_non_integer_arguments_are_refused() -> None:
    for n in (3.0, Fraction(3), "3"):
        with pytest.raises(InvalidArgumentError, match="degree must be an integer"):
            enumerate_partitions(n)
    # 2.5 would otherwise admit partitions with three parts
    for max_length in (2.5, 2.0):
        with pytest.raises(InvalidArgumentError, match="max_length must be an integer"):
            enumerate_partitions(4, max_length)
    assert enumerate_partitions(4, 2) == [(4,), (3, 1), (2, 2)]
    with pytest.raises(InvalidArgumentError, match="n must be an integer, got 2.5"):
        tau_power_coefficient(2.5, 1)
    with pytest.raises(InvalidArgumentError, match="l must be an integer, got 1.0"):
        tau_power_coefficient(3, 1.0)


def test_marked_partitions_refuse_non_integer_parts_and_labels() -> None:
    # 2.5 and 2.0 would otherwise come back as slot sizes and marks
    cases = [
        ((2.5, 1), (2,), "part must be an integer, got 2.5"),
        ((2, 1), (2.0,), "label must be an integer, got 2.0"),
        ((2, "1"), (), "part must be an integer, got '1'"),
    ]
    for nu, labels, message in cases:
        with pytest.raises(InvalidArgumentError, match=message):
            enumerate_marked(nu, labels)
    assert enumerate_marked((2, 1), (2,)) == [(((2, ()), (1, (2,))), 1), (((2, (2,)), (1, ())), 1)]
