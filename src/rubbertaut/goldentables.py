"""Frozen reference data for the fixed-point graph sums in degrees two and three.

Everything here is a hand-checked transcription: the per-row prefactors,
fixed-locus moduli, and factor products for both degree tables, the displayed
``1/t`` relation coefficients, and the degree totals of the rubber graph
under the pair lift.  The test suite compares the engine's independently
assembled contributions against these rows cell by cell; nothing in this
module is computed by the engine itself.

Factor literals:

* ``("node", s, "N")`` — genus-side node factor ``t/(t/s - psi_N)``;
* ``("node", s, "N'")`` — rational-node factor ``t/(t/s - psi_N')``; the
  contracted vertex caps ``psi_N'`` at power 0, so it is the scalar ``s``;
* ``("inf",)`` — rubber node factor ``1/(-t - psi)``;
* ``("hodge1", p)`` — genus-one Hodge factor ``(t - lambda_1)/t**p``;
* ``("rat", c, k)`` — the scalar ``c * t**k``.

Locus literals: ``("M03",)`` for a three-special-point rational vertex,
``("M", 1, n)`` for the genus-one vertex with ``n`` special points, and
``("rub", h, nu, d)`` for the genus-``h`` rubber space over the ramification
profile ``nu`` against ``(d)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .locgraphs import SymExpr, build_factor
from .series import LaurentPoly

__all__ = [
    "GoldenRow",
    "TABLE_D2",
    "TABLE_D3",
    "R2_RELATION",
    "R2_NONCONTRIBUTING",
    "L3_RELATION_DISPLAYED",
    "L3_OMITTED_TERM",
    "L3_NONCONTRIBUTING",
    "PAIR_RUBBER_TOTALS",
]


@dataclass(frozen=True)
class GoldenRow:
    """One transcribed table row: decoration, weight, moduli, factor cell."""

    index: int
    label: str
    prefactor: Fraction
    multiplicity: int
    locus: tuple[tuple, ...]
    factors: tuple[tuple, ...]

    def _caps(self) -> tuple[int, int]:
        """Cotangent truncation orders (genus node, rubber) from the moduli."""
        node_cap = 0
        rubber_cap = 0
        for piece in self.locus:
            if piece[0] == "M":
                node_cap = piece[2]
            elif piece[0] == "rub":
                h, nu = piece[1], piece[2]
                rubber_cap = len(nu) - 2 if h == 0 else len(nu)
        return node_cap, rubber_cap

    def expand(self) -> LaurentPoly[SymExpr]:
        """The cell's exact Laurent polynomial, prefactor included."""
        node_cap, rubber_cap = self._caps()
        product = build_factor(("scalar", Fraction(1), 0))
        for literal in self.factors:
            product = product.mul(_expand_literal(literal, node_cap, rubber_cap))
        return product.scale(self.prefactor)


def _expand_literal(literal: tuple, node_cap: int, rubber_cap: int) -> LaurentPoly[SymExpr]:
    kind = literal[0]
    if kind == "node":
        if literal[2] == "N":
            return build_factor(("node", literal[1], node_cap))
        return build_factor(("scalar", Fraction(literal[1]), 0))
    if kind == "inf":
        return build_factor(("node_inf", rubber_cap))
    if kind == "hodge1":
        product = build_factor(("hodge", 1))
        for _ in range(literal[1] - 1):
            product = product.mul(build_factor(("hodge", 0)))
        return product
    if kind == "rat":
        return build_factor(("scalar", Fraction(literal[1]), literal[2]))
    raise InvalidArgumentError(f"unknown factor literal {literal!r}")


def _row(
    index: int,
    label: str,
    prefactor: Fraction | int,
    multiplicity: int,
    locus: tuple[tuple, ...],
    factors: tuple[tuple, ...],
) -> GoldenRow:
    return GoldenRow(index, label, Fraction(prefactor), multiplicity, locus, factors)


TABLE_D2: tuple[GoldenRow, ...] = (
    _row(
        1,
        "2^g{2,3}",
        Fraction(1, 2),
        1,
        (("M", 1, 3),),
        (("node", 2, "N"), ("rat", Fraction(2), -2), ("hodge1", 1), ("rat", Fraction(1), 2)),
    ),
    _row(
        2,
        "2{2,3}",
        1,
        1,
        (("M03",), ("rub", 1, (2,), 2)),
        (
            ("node", 2, "N'"),
            ("inf",),
            ("rat", Fraction(2), -2),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1), 2),
        ),
    ),
    _row(
        3,
        "1^g{2,3}+1",
        1,
        1,
        (("M", 1, 3), ("rub", 0, (1, 1), 2)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("hodge1", 1),
            ("rat", Fraction(1), 3),
        ),
    ),
    _row(
        4,
        "1^g{2}+1{3}",
        1,
        2,
        (("M", 1, 2), ("rub", 0, (1, 1), 2)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("hodge1", 1),
            ("rat", Fraction(1), 2),
        ),
    ),
    _row(
        5,
        "1^g+1{2,3}",
        1,
        1,
        (("M03",), ("M", 1, 1), ("rub", 0, (1, 1), 2)),
        (
            ("node", 1, "N'"),
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("hodge1", 2),
            ("rat", Fraction(1), 2),
        ),
    ),
    _row(
        6,
        "1{2,3}+1",
        1,
        1,
        (("M03",), ("rub", 1, (1, 1), 2)),
        (
            ("node", 1, "N'"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1), 3),
        ),
    ),
    _row(
        7,
        "1{2}+1{3}",
        1,
        1,
        (("rub", 1, (1, 1), 2),),
        (("inf",), ("rat", Fraction(1), -2), ("rat", Fraction(1), 2)),
    ),
)


TABLE_D3: tuple[GoldenRow, ...] = (
    _row(
        1,
        "3^g{2,3}",
        Fraction(1, 3),
        1,
        (("M", 1, 3),),
        (
            ("node", 3, "N"),
            ("rat", Fraction(27, 6), -3),
            ("hodge1", 1),
            ("rat", Fraction(4), 3),
        ),
    ),
    _row(
        2,
        "3{2,3}",
        1,
        1,
        (("M03",), ("rub", 1, (3,), 3)),
        (
            ("node", 3, "N'"),
            ("inf",),
            ("rat", Fraction(27, 6), -3),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(2), 3),
        ),
    ),
    _row(
        3,
        "2^g{2,3}+1",
        1,
        1,
        (("M", 1, 3), ("rub", 0, (2, 1), 3)),
        (
            ("node", 2, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3), 4),
        ),
    ),
    _row(
        4,
        "2^g{2}+1{3}",
        1,
        2,
        (("M", 1, 2), ("rub", 0, (2, 1), 3)),
        (
            ("node", 2, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3), 3),
        ),
    ),
    _row(
        5,
        "2^g+1{2,3}",
        1,
        1,
        (("M03",), ("M", 1, 1), ("rub", 0, (2, 1), 3)),
        (
            ("node", 2, "N"),
            ("node", 1, "N'"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 2),
            ("rat", Fraction(3), 3),
        ),
    ),
    _row(
        6,
        "2{2,3}+1^g",
        1,
        1,
        (("M03",), ("M", 1, 1), ("rub", 0, (2, 1), 3)),
        (
            ("node", 2, "N'"),
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 2),
            ("rat", Fraction(3), 3),
        ),
    ),
    _row(
        7,
        "2{2}+1^g{3}",
        1,
        2,
        (("M", 1, 2), ("rub", 0, (2, 1), 3)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3), 3),
        ),
    ),
    _row(
        8,
        "2+1^g{2,3}",
        1,
        1,
        (("M", 1, 3), ("rub", 0, (2, 1), 3)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3, 2), 4),
        ),
    ),
    _row(
        9,
        "2{2,3}+1",
        1,
        1,
        (("M03",), ("rub", 1, (2, 1), 3)),
        (
            ("node", 2, "N'"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1), 4),
        ),
    ),
    _row(
        10,
        "2{2}+1{3}",
        1,
        1,
        (("rub", 1, (2, 1), 3),),
        (("inf",), ("rat", Fraction(2), -3), ("rat", Fraction(1), 3)),
    ),
    _row(
        11,
        "2{3}+1{2}",
        1,
        1,
        (("rub", 1, (2, 1), 3),),
        (("inf",), ("rat", Fraction(2), -3), ("rat", Fraction(1), 3)),
    ),
    _row(
        12,
        "2+1{2,3}",
        1,
        1,
        (("M03",), ("rub", 1, (2, 1), 3)),
        (
            ("node", 1, "N'"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1, 2), 4),
        ),
    ),
    _row(
        13,
        "1^g{2,3}+1+1",
        Fraction(1, 2),
        1,
        (("M", 1, 3), ("rub", 0, (1, 1, 1), 3)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 1),
            ("rat", Fraction(2), 5),
        ),
    ),
    _row(
        14,
        "1^g{2}+1{3}+1",
        1,
        2,
        (("M", 1, 2), ("rub", 0, (1, 1, 1), 3)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 1),
            ("rat", Fraction(2), 4),
        ),
    ),
    _row(
        15,
        "1^g+1{2,3}+1",
        1,
        1,
        (("M03",), ("M", 1, 1), ("rub", 0, (1, 1, 1), 3)),
        (
            ("node", 1, "N'"),
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 2),
            ("rat", Fraction(2), 4),
        ),
    ),
    _row(
        16,
        "1^g+1{2}+1{3}",
        1,
        1,
        (("M", 1, 1), ("rub", 0, (1, 1, 1), 3)),
        (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 1),
            ("rat", Fraction(2), 3),
        ),
    ),
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

#: Degree-two rows whose cells carry no ``1/t`` coefficient at all.
R2_NONCONTRIBUTING = frozenset({2, 5})

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

#: Degree-three rows with no ``1/t`` coefficient.
L3_NONCONTRIBUTING = frozenset({2, 5, 6})

#: Pair-lift rubber-graph coefficient at ``1/t``:
#: ``-(d**(d-1) * (d-1)! / d!)``, independent of the genus.
PAIR_RUBBER_TOTALS: dict[int, Fraction] = {
    1: Fraction(-1),
    2: Fraction(-1),
    3: Fraction(-3),
    4: Fraction(-16),
    5: Fraction(-125),
}
