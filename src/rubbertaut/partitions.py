"""Integer partitions, marked partitions, and their symmetry factors.

A partition is a descending tuple of positive parts.  A *marked* partition
additionally distributes a set of labels over the parts; two markings are
identified when a permutation of equal-size parts carries one to the other.
It is a plain tuple of ``(size, marks)`` slots, sorted by descending size and
then by mark tuple, so equal tuples are the same symmetry class.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .errors import InvalidArgumentError, ResourceLimitError
from .series import MAX_SERIES_ORDER
from .util import Table, check_integer, check_integers

__all__ = [
    "MAX_PARTITION_DEGREE",
    "MAX_MARKED_ASSIGNMENTS",
    "enumerate_partitions",
    "aut",
    "decorated_aut",
    "enumerate_marked",
    "tau_power_coefficient",
]

#: Highest ``n`` :func:`enumerate_partitions` lists (231 partitions), checked
#: before any is listed, so it caps every partition sum of the package:
#: ``relation_extract(16, lift_pair(24))`` takes about 0.028 s (0.022 s once
#: its graphs are built), ``verify-all --g-max 24 --d-max 16`` 0.7-1.05 s and
#: listing the partitions of 60 about 3 s (2-vCPU VM whose speed varies
#: between runs).
MAX_PARTITION_DEGREE = 16

#: Most label assignments ``len(nu) ** len(labels)`` :func:`enumerate_marked` counts, checked first:
#: three labels on any partition the partition-sum cap admits, 0.1 ms at ``(1,) * 16`` (2-vCPU VM).
MAX_MARKED_ASSIGNMENTS = MAX_PARTITION_DEGREE**3


#: The partitions of ``n`` with at most ``limit`` parts, keyed by
#: ``(n, min(max_length, n))`` and listed once per process; every call copies
#: its entry.
_PARTITIONS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = Table(lambda key: _list_partitions(*key))


def _check_partition_degree(n: int) -> None:
    """Refuse ``n`` past the partition-sum cap (``verify-all`` does so before any sweep)."""
    if n > MAX_PARTITION_DEGREE:
        raise ResourceLimitError(f"degree {n} exceeds the partition-sum cap {MAX_PARTITION_DEGREE}")


def enumerate_partitions(n: int, max_length: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of ``n`` (optionally with at most ``max_length`` parts).

    Parts are listed in descending order within each partition; partitions are
    listed in descending lexicographic order, so ``(n,)`` comes first.  An
    ``n`` past :data:`MAX_PARTITION_DEGREE` is refused before any is listed.
    """
    _check_partition_degree(n := check_integer("degree", n, least=0))
    if max_length is None:
        return list(_PARTITIONS[n, n])
    return list(_PARTITIONS[n, min(check_integer("max_length", max_length, least=0), n)])


def _list_partitions(n: int, limit: int) -> tuple[tuple[int, ...], ...]:
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
    return tuple(out)


def aut(nu: Sequence[int]) -> int:
    """Order of the permutation group preserving the multiset of parts."""
    return decorated_aut(nu)


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


_Slots = tuple[tuple[int, tuple[int, ...]], ...]


def _place_labels(slots: _Slots, labels: Iterable[int]) -> list[tuple[_Slots, int]]:
    """Every placement of ``labels`` on the ``(key, marks)`` slots once, with
    its orbit size: the walk under :func:`enumerate_marked` and the graph
    layer's ``_part_marks``.  Slots of one key sit side by side and are
    interchangeable while their marks agree.  Each label in turn goes into
    each slot that is not equal to the slot before it and multiplies the
    orbit by that slot's multiplicity: one path per placement up to swapping
    equal slots, in the order of ``labels``."""
    placements = [(slots, 1)]
    for label in labels:
        placements = [
            (slots[:i] + ((key, marks + (label,)),) + slots[i + 1 :], orbit * slots.count(slots[i]))
            for slots, orbit in placements
            for i, (key, marks) in enumerate(slots)
            if not i or slots[i] != slots[i - 1]
        ]
    return placements


def enumerate_marked(nu: Sequence[int], labels: Sequence[int]) -> list[tuple[_Slots, int]]:
    """Distinct markings of ``nu`` by ``labels``, each with its orbit size.

    Each marking is its tuple of ``(size, marks)`` slots; its orbit size counts
    the raw assignments (maps ``label -> part``) giving it, so orbit sizes sum
    to ``len(nu) ** len(labels)``, refused past :data:`MAX_MARKED_ASSIGNMENTS`
    before any marking is built.  The ascending labels walk the descending
    parts by :func:`_place_labels`, the parts' sizes as keys, so each label
    goes into each distinct slot once.  Parts and labels are integers of at
    least 1.
    """
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError(f"labels must be distinct, got {labels!r}")
    if (count := len(nu) ** len(labels)) > MAX_MARKED_ASSIGNMENTS:
        raise ResourceLimitError(f"{count} label assignments exceed the cap {MAX_MARKED_ASSIGNMENTS}")
    nu, labels = check_integers("part", nu, least=1), check_integers("label", labels, least=1)
    slots = tuple((size, ()) for size in sorted(nu, reverse=True))
    markings = _place_labels(slots, sorted(labels))
    return sorted((tuple(sorted(slots, key=lambda s: (-s[0], s[1]))), orbit) for slots, orbit in markings)


def tau_power_coefficient(n: int, l: int) -> Fraction:
    """Coefficient of ``x**n`` in the ``l``-th power of the tree series.

    Lagrange inversion of ``tau = x * exp(tau)`` gives the closed form
    ``[x^n] tau^l = l * n^(n-l-1) / (n-l)!`` for ``1 <= l <= n`` (it is 1 at
    ``l = n``).  An ``n`` past :data:`rubbertaut.series.MAX_SERIES_ORDER`
    is refused before any power is computed.
    """
    n, l = check_integer("n", n, least=0), check_integer("l", l, least=0)
    if n > MAX_SERIES_ORDER:
        raise ResourceLimitError(f"order {n} exceeds the series-order cap {MAX_SERIES_ORDER}")
    if n == 0:
        return Fraction(1 if l == 0 else 0)
    if l == 0 or l > n:
        return Fraction(0)
    if l == n:
        return Fraction(1)
    return Fraction(l * n ** (n - l - 1), math.factorial(n - l))
