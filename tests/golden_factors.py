"""The factor cells of the frozen degree-2 and degree-3 tables, kept as a
test oracle.

:mod:`rubbertaut.goldentables` holds each row's label, prefactor,
multiplicity and locus.  This module holds the rest of each hand-checked
row, its factor cell, keyed by degree and row index.  :func:`expand` turns
a row into its exact Laurent polynomial, and :func:`mismatched_rows`
compares that with the engine's assembled contribution.  It also keeps the
frozen values that only the tests read: the rows without a ``1/t``
coefficient and the pair-lift rubber totals.

Factor literals:

* ``("node", s, "N")`` — genus-side node factor ``t/(t/s - psi_N)``;
* ``("node", s, "N'")`` — rational-node factor ``t/(t/s - psi_N')``; the
  contracted vertex caps ``psi_N'`` at power 0, so it is the scalar ``s``;
* ``("inf",)`` — rubber node factor ``1/(-t - psi)``;
* ``("hodge1", p)`` — genus-one Hodge factor ``(t - lambda_1)/t**p``;
* ``("rat", c, k)`` — the scalar ``c * t**k``.
"""

from __future__ import annotations

from fractions import Fraction

from rubbertaut import goldentables
from rubbertaut.locgraphs import LIFT_DIVISOR, SymExpr, assemble_contribution, build_factor, enumerate_rows
from rubbertaut.series import LaurentPoly

FACTORS: dict[int, dict[int, tuple[tuple, ...]]] = {
    2: {
        1: (("node", 2, "N"), ("rat", Fraction(2), -2), ("hodge1", 1), ("rat", Fraction(1), 2)),
        2: (
            ("node", 2, "N'"),
            ("inf",),
            ("rat", Fraction(2), -2),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1), 2),
        ),
        3: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("hodge1", 1),
            ("rat", Fraction(1), 3),
        ),
        4: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("hodge1", 1),
            ("rat", Fraction(1), 2),
        ),
        5: (
            ("node", 1, "N'"),
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("hodge1", 2),
            ("rat", Fraction(1), 2),
        ),
        6: (
            ("node", 1, "N'"),
            ("inf",),
            ("rat", Fraction(1), -2),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1), 3),
        ),
        7: (("inf",), ("rat", Fraction(1), -2), ("rat", Fraction(1), 2)),
    },
    3: {
        1: (
            ("node", 3, "N"),
            ("rat", Fraction(27, 6), -3),
            ("hodge1", 1),
            ("rat", Fraction(4), 3),
        ),
        2: (
            ("node", 3, "N'"),
            ("inf",),
            ("rat", Fraction(27, 6), -3),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(2), 3),
        ),
        3: (
            ("node", 2, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3), 4),
        ),
        4: (
            ("node", 2, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3), 3),
        ),
        5: (
            ("node", 2, "N"),
            ("node", 1, "N'"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 2),
            ("rat", Fraction(3), 3),
        ),
        6: (
            ("node", 2, "N'"),
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 2),
            ("rat", Fraction(3), 3),
        ),
        7: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3), 3),
        ),
        8: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("hodge1", 1),
            ("rat", Fraction(3, 2), 4),
        ),
        9: (
            ("node", 2, "N'"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1), 4),
        ),
        10: (("inf",), ("rat", Fraction(2), -3), ("rat", Fraction(1), 3)),
        11: (("inf",), ("rat", Fraction(2), -3), ("rat", Fraction(1), 3)),
        12: (
            ("node", 1, "N'"),
            ("inf",),
            ("rat", Fraction(2), -3),
            ("rat", Fraction(1), -1),
            ("rat", Fraction(1, 2), 4),
        ),
        13: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 1),
            ("rat", Fraction(2), 5),
        ),
        14: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 1),
            ("rat", Fraction(2), 4),
        ),
        15: (
            ("node", 1, "N'"),
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 2),
            ("rat", Fraction(2), 4),
        ),
        16: (
            ("node", 1, "N"),
            ("inf",),
            ("rat", Fraction(1), -3),
            ("hodge1", 1),
            ("rat", Fraction(2), 3),
        ),
    },
}

#: Rows of each degree's table whose cells carry no ``1/t`` coefficient.
NONCONTRIBUTING: dict[int, frozenset[int]] = {2: frozenset({2, 5}), 3: frozenset({2, 5, 6})}

#: Pair-lift rubber-graph coefficient at ``1/t``:
#: ``-(d**(d-1) * (d-1)! / d!)``, independent of the genus.
PAIR_RUBBER_TOTALS: dict[int, Fraction] = {
    1: Fraction(-1),
    2: Fraction(-1),
    3: Fraction(-3),
    4: Fraction(-16),
    5: Fraction(-125),
}


def _caps(row: goldentables.GoldenRow) -> tuple[int, int]:
    """Cotangent truncation orders (genus node, rubber) from the moduli."""
    node_cap = 0
    rubber_cap = 0
    for piece in row.locus:
        if piece[0] == "M":
            node_cap = piece[2]
        elif piece[0] == "rub":
            h, nu = piece[1], piece[2]
            rubber_cap = len(nu) - 2 if h == 0 else len(nu)
    return node_cap, rubber_cap


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
    raise ValueError(f"unknown factor literal {literal!r}")


def expand(d: int, row: goldentables.GoldenRow) -> LaurentPoly[SymExpr]:
    """The row's exact Laurent polynomial, prefactor included."""
    node_cap, rubber_cap = _caps(row)
    product = build_factor(("scalar", Fraction(1), 0))
    for literal in FACTORS[d][row.index]:
        product = product.mul(_expand_literal(literal, node_cap, rubber_cap))
    return product.scale(row.prefactor)


def mismatched_rows(d: int) -> list[int]:
    """Indices of the degree-``d`` rows whose factor cell's product differs
    from the engine's assembled contribution."""
    rows = enumerate_rows(d, LIFT_DIVISOR)
    table = goldentables.TABLE_D2 if d == 2 else goldentables.TABLE_D3
    return [
        golden.index
        for row, golden in zip(rows, table, strict=True)
        if assemble_contribution(row.representative, LIFT_DIVISOR).total() != expand(d, golden)
    ]
