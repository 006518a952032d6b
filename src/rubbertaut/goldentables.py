"""Frozen reference data for the fixed-point graph sums in degrees two and three.

Everything here is a hand-checked transcription: each row's graph label,
prefactor, multiplicity and fixed-locus moduli for both degree tables, and
the displayed ``1/t`` relation coefficients.  ``localize --golden`` and
``verify-all`` compare what ``localize`` prints against these rows.  The
module is data only: it imports nothing from the package, and nothing in it
is computed by the engine.  The rows' factor cells and their full Laurent
products live with the tests, which compare them against the engine's
assembled contributions.

Locus literals: ``("M03",)`` for a three-special-point rational vertex,
``("M", 1, n)`` for the genus-one vertex with ``n`` special points, and
``("rub", h, nu, d)`` for the genus-``h`` rubber space over the ramification
profile ``nu`` against ``(d)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GoldenRow",
    "TABLE_D2",
    "TABLE_D3",
    "R2_RELATION",
    "L3_RELATION_DISPLAYED",
    "L3_OMITTED_TERM",
]


@dataclass(frozen=True)
class GoldenRow:
    """One transcribed table row: decoration, weight and moduli."""

    index: int
    label: str
    prefactor: Fraction
    multiplicity: int
    locus: tuple[tuple, ...]


TABLE_D2: tuple[GoldenRow, ...] = (
    GoldenRow(1, "2^g{2,3}", Fraction(1, 2), 1, (("M", 1, 3),)),
    GoldenRow(2, "2{2,3}", Fraction(1), 1, (("M03",), ("rub", 1, (2,), 2))),
    GoldenRow(3, "1^g{2,3}+1", Fraction(1), 1, (("M", 1, 3), ("rub", 0, (1, 1), 2))),
    GoldenRow(4, "1^g{2}+1{3}", Fraction(1), 2, (("M", 1, 2), ("rub", 0, (1, 1), 2))),
    GoldenRow(5, "1^g+1{2,3}", Fraction(1), 1, (("M03",), ("M", 1, 1), ("rub", 0, (1, 1), 2))),
    GoldenRow(6, "1{2,3}+1", Fraction(1), 1, (("M03",), ("rub", 1, (1, 1), 2))),
    GoldenRow(7, "1{2}+1{3}", Fraction(1), 1, (("rub", 1, (1, 1), 2),)),
)


TABLE_D3: tuple[GoldenRow, ...] = (
    GoldenRow(1, "3^g{2,3}", Fraction(1, 3), 1, (("M", 1, 3),)),
    GoldenRow(2, "3{2,3}", Fraction(1), 1, (("M03",), ("rub", 1, (3,), 3))),
    GoldenRow(3, "2^g{2,3}+1", Fraction(1), 1, (("M", 1, 3), ("rub", 0, (2, 1), 3))),
    GoldenRow(4, "2^g{2}+1{3}", Fraction(1), 2, (("M", 1, 2), ("rub", 0, (2, 1), 3))),
    GoldenRow(5, "2^g+1{2,3}", Fraction(1), 1, (("M03",), ("M", 1, 1), ("rub", 0, (2, 1), 3))),
    GoldenRow(6, "2{2,3}+1^g", Fraction(1), 1, (("M03",), ("M", 1, 1), ("rub", 0, (2, 1), 3))),
    GoldenRow(7, "2{2}+1^g{3}", Fraction(1), 2, (("M", 1, 2), ("rub", 0, (2, 1), 3))),
    GoldenRow(8, "2+1^g{2,3}", Fraction(1), 1, (("M", 1, 3), ("rub", 0, (2, 1), 3))),
    GoldenRow(9, "2{2,3}+1", Fraction(1), 1, (("M03",), ("rub", 1, (2, 1), 3))),
    GoldenRow(10, "2{2}+1{3}", Fraction(1), 1, (("rub", 1, (2, 1), 3),)),
    GoldenRow(11, "2{3}+1{2}", Fraction(1), 1, (("rub", 1, (2, 1), 3),)),
    GoldenRow(12, "2+1{2,3}", Fraction(1), 1, (("M03",), ("rub", 1, (2, 1), 3))),
    GoldenRow(13, "1^g{2,3}+1+1", Fraction(1, 2), 1, (("M", 1, 3), ("rub", 0, (1, 1, 1), 3))),
    GoldenRow(14, "1^g{2}+1{3}+1", Fraction(1), 2, (("M", 1, 2), ("rub", 0, (1, 1, 1), 3))),
    GoldenRow(15, "1^g+1{2,3}+1", Fraction(1), 1, (("M03",), ("M", 1, 1), ("rub", 0, (1, 1, 1), 3))),
    GoldenRow(16, "1^g+1{2}+1{3}", Fraction(1), 1, (("M", 1, 1), ("rub", 0, (1, 1, 1), 3))),
)


#: Displayed ``1/t`` relation in degree two, summed per row and keyed by the
#: cotangent powers ``(psi at the genus node, psi on the rubber)``.
R2_RELATION: dict[int, dict[tuple[int, int], Fraction]] = {
    1: {(1, 0): Fraction(4)},
    3: {(1, 0): Fraction(-1)},
    4: {(0, 0): Fraction(-2)},
    6: {(0, 0): Fraction(-1)},
    7: {(0, 0): Fraction(-1)},
}

#: Displayed ``1/t`` relation in degree three, summed per row.
L3_RELATION_DISPLAYED: dict[int, dict[tuple[int, int], Fraction]] = {
    1: {(1, 0): Fraction(54)},
    3: {(1, 0): Fraction(-24)},
    4: {(0, 0): Fraction(-24)},
    7: {(0, 0): Fraction(-12)},
    8: {(1, 0): Fraction(-3)},
    9: {(0, 0): Fraction(-4)},
    10: {(0, 0): Fraction(-2)},
    11: {(0, 0): Fraction(-2)},
    12: {(0, 0): Fraction(-1)},
    13: {(1, 1): Fraction(1)},
    14: {(0, 1): Fraction(4)},
    15: {(0, 0): Fraction(-2)},
    16: {(0, 0): Fraction(-2)},
}

#: One genuine degree-three relation term left out of the displayed sum: the
#: row-14 pair also carries a node-cotangent term whose boundary evaluation
#: vanishes (the rubber fiber contracts).  Stored as (row, key, total).
L3_OMITTED_TERM: tuple[int, tuple[int, int], Fraction] = (14, (1, 0), Fraction(-4))
