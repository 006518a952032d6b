"""The retired ``Fraction``-dict divisor algebra, kept as a test oracle.

A class here is a dict from ``("psi",)`` and ``("D", side)``, with ``side``
the sorted genus-one side, to nonzero rationals: the format ``TautClass``
stored before it moved to integer numerators over one denominator.  Each
operation is the former implementation, one term at a time; it uses nothing
of :mod:`rubbertaut.tautring` but ``RingContext``.  :func:`terms_of` reads a
``TautClass`` through its public accessors into this format, and
:func:`assert_canonical` checks the stored integer form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from rubbertaut.tautring import RingContext, TautClass

PSI = ("psi",)
Terms = dict[tuple, Fraction]


def terms_of(cls: TautClass) -> Terms:
    """A class's terms, read through its public accessors only."""
    psi = cls.coefficient_psi1()
    terms = {PSI: psi} if psi else {}
    terms.update((("D", side), value) for side, value in cls.boundary_terms())
    return terms


def assert_canonical(cls: TautClass) -> None:
    """The stored form: a positive ``int`` denominator and nonzero ``int``
    numerators, coprime as a whole, keyed by psi (1) or a valid side mask."""
    den, nums = cls._den, cls._nums
    assert type(den) is int and den > 0, den
    assert all(type(num) is int and num != 0 for num in nums.values()), nums
    assert math.gcd(den, *nums.values()) == 1, (den, nums)
    full = sum(1 << m for m in cls.ctx.marks)
    for mask in nums:
        assert mask == 1 or (mask & ~full == 0 and bin(full ^ mask).count("1") >= 2), mask


def _add(total: Terms, key: tuple, value: Fraction) -> None:
    value += total.get(key, 0)
    if value:
        total[key] = value
    else:
        total.pop(key, None)


def linear_combination(pairs: Iterable[tuple[Fraction | int, Mapping[tuple, Fraction]]]) -> Terms:
    total: Terms = {}
    for scale, terms in pairs:
        for key, value in terms.items():
            _add(total, key, Fraction(scale) * value)
    return total


def reduce(ctx: RingContext, terms: Mapping[tuple, Fraction]) -> Terms:
    """Replace ``psi1`` by the sum of the divisors whose genus-one side avoids
    mark 1 and leaves at least two marks on the genus-zero side."""
    out = dict(terms)
    psi = out.pop(PSI, None)
    if psi is not None:
        others = [m for m in ctx.marks if m != 1]
        for size in range(ctx.t - 1):
            for side in combinations(others, size):
                _add(out, ("D", side), psi)
    return out


def pullback_forget(ctx: RingContext, terms: Mapping[tuple, Fraction], new_mark: int) -> Terms:
    big = tuple(sorted(ctx.marks + (new_mark,)))
    out: Terms = {}
    for key, value in terms.items():
        if key == PSI:
            _add(out, PSI, value)
            _add(out, ("D", tuple(m for m in big if m not in (1, new_mark))), -value)
        else:
            _add(out, ("D", tuple(sorted(key[1] + (new_mark,)))), value)
            _add(out, key, value)
    return out


def pushforward_forget(ctx: RingContext, terms: Mapping[tuple, Fraction], forgotten: int) -> Fraction:
    total = terms.get(PSI, Fraction(0))
    for key, value in terms.items():
        if key != PSI:
            genus0 = [m for m in ctx.marks if m not in key[1]]
            if forgotten in genus0 and len(genus0) == 2:
                total += value
    return total


def relabel(terms: Mapping[tuple, Fraction], mapping: Mapping[int, int]) -> Terms:
    return {
        key if key == PSI else ("D", tuple(sorted(mapping[m] for m in key[1]))): value
        for key, value in terms.items()
    }
