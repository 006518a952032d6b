"""Integer partitions, marked partitions, and their symmetry factors.

A partition is a descending tuple of positive parts.  A *marked* partition
additionally distributes a set of labels over the parts; two markings are
identified when a permutation of equal-size parts carries one to the other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .errors import InvalidArgumentError

__all__ = [
    "enumerate_partitions",
    "aut",
    "decorated_aut",
    "MarkedPartition",
    "enumerate_marked",
    "tau_power_coefficient",
]


def enumerate_partitions(n: int, max_length: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of ``n`` (optionally with at most ``max_length`` parts).

    Parts are listed in descending order within each partition; partitions are
    listed in descending lexicographic order, so ``(n,)`` comes first.
    """
    if n < 0:
        raise InvalidArgumentError(f"cannot partition {n}")
    if max_length is not None and max_length < 0:
        raise InvalidArgumentError(f"max_length must be >= 0, got {max_length}")
    limit = n if max_length is None else max_length
    out: list[tuple[int, ...]] = []

    def extend(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) >= limit:
            return
        for part in range(min(remaining, largest), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return out


def aut(nu: Sequence[int]) -> int:
    """Order of the permutation group preserving the multiset of parts."""
    result = 1
    for count in Counter(nu).values():
        result *= math.factorial(count)
    return result


def decorated_aut(items: Iterable[Hashable]) -> int:
    """Product of factorials of multiplicities of *equal* decorated slots.

    Callers describe each slot by any hashable datum (for example
    ``(size, marks, carries_genus)``); slots are interchangeable exactly when
    their descriptions coincide.
    """
    result = 1
    for count in Counter(items).values():
        result *= math.factorial(count)
    return result


@dataclass(frozen=True, order=True)
class MarkedPartition:
    """A partition with labels distributed over its parts, up to symmetry.

    ``slots`` is canonically sorted by descending size, then by mark tuple,
    so equal objects represent the same symmetry class.
    """

    slots: tuple[tuple[int, tuple[int, ...]], ...]

    @staticmethod
    def from_assignment(
        nu: Sequence[int], assignment: dict[int, int]
    ) -> "MarkedPartition":
        """Build from a map ``label -> part index`` into ``nu``."""
        marks: list[list[int]] = [[] for _ in nu]
        for label, index in assignment.items():
            if not 0 <= index < len(nu):
                raise InvalidArgumentError(f"label {label} assigned to missing part {index}")
            marks[index].append(label)
        slots = tuple(
            sorted(
                ((size, tuple(sorted(ms))) for size, ms in zip(nu, marks)),
                key=lambda slot: (-slot[0], slot[1]),
            )
        )
        return MarkedPartition(slots)


def enumerate_marked(
    nu: Sequence[int], labels: Sequence[int]
) -> list[tuple[MarkedPartition, int]]:
    """Distinct markings of ``nu`` by ``labels``, each with its orbit size.

    The orbit size counts raw assignments (maps ``label -> part``) giving the
    class, so orbit sizes sum to ``len(nu) ** len(labels)``.
    """
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError(f"labels must be distinct, got {labels!r}")
    counts: Counter[MarkedPartition] = Counter()

    def assign(i: int, assignment: dict[int, int]) -> None:
        if i == len(labels):
            counts[MarkedPartition.from_assignment(nu, assignment)] += 1
            return
        for index in range(len(nu)):
            assignment[labels[i]] = index
            assign(i + 1, assignment)
        assignment.pop(labels[i], None)

    assign(0, {})
    return sorted(counts.items())


def tau_power_coefficient(n: int, l: int) -> Fraction:
    """Coefficient of ``x**n`` in the ``l``-th power of the tree series.

    Lagrange inversion of ``tau = x * exp(tau)`` gives the closed form
    ``[x^n] tau^l = l * n^(n-l-1) / (n-l)!`` for ``1 <= l <= n`` (it is 1 at
    ``l = n``).
    """
    if n < 0 or l < 0:
        raise InvalidArgumentError(f"need n, l >= 0, got n={n}, l={l}")
    if n == 0:
        return Fraction(1 if l == 0 else 0)
    if l == 0 or l > n:
        return Fraction(0)
    if l == n:
        return Fraction(1)
    return Fraction(l * n ** (n - l - 1), math.factorial(n - l))
