"""Torus fixed-point graphs for degree-``d`` rubber maps and their exact
contributions.

The setup localizes a one-parameter torus action on a space of maps to a
rigidified rational curve.  Every fixed locus is described by a graph with
one vertex of positive genus (either over the zero end or carried by the
rubber over the infinity end), one vertex per ramification part over zero,
and a single edge per part; only graphs with at most ``2g`` plus the twist
parts contribute (:func:`enumerate_graphs`).  Each graph contributes a
product of explicitly known factors — an exact Laurent polynomial in the
equivariant weight ``t`` with coefficients in a small symbol algebra (powers
of three cotangent symbols and one Hodge symbol).  Only the ``1/t``
coefficient of the graph sum in the relation's own degree carries the
relation, and all but three factors of a graph are a scalar times a power of
``t``: :func:`_graph_data` reads each graph in display order, with that
scalar, off tables built once per process and keyed by partition and lift
shape, never by genus (1,272 entries at the cap), and :func:`relation_extract`
walks just the genus-node cotangent powers and Hodge indices the degree
allows.  :func:`hodge_form_from_graphs` sums the pair lift's genus-free part
once per degree and part count and adds the genus per call.  Only the tests
and the benchmark tracer run the full Laurent product
(:func:`assemble_contribution`), their oracle for the relation and the frozen
factor cells.  Evaluating the relation's terms through the boundary catalogue
and solving gives the divisor-class coefficients of the genus-one weight
quadric.  Every sum here runs through :func:`rubbertaut.util.combine` or its
integer core ``combine_ints``.

Two lifts of the action are used, and a :class:`Lift` is one of them:

* the *divisor lift* ``Lift(1, divisor=True)`` (:data:`LIFT_DIVISOR`, genus
  one only) places marks 2 and 3 over zero, inserts one Hodge class, and
  twists the branch morphism by ``d - 2`` — it produces relations among
  degree-one classes on the three-mark space;
* the *pair lift* ``Lift(g)`` (:func:`lift_pair`) places no extra marks,
  inserts the top two Hodge classes, and twists by ``d - 1`` — it produces
  the linear identities for the one-point Hodge integrals (see
  :mod:`rubbertaut.hodge`).

Every fixed locus is a vertex space ``M_{g,n}`` times a rubber space, so the
genus node's cotangent series stops at ``3g - 2 + m`` (``m`` marks besides
the node) and the rubber node's at ``2h - 2 + l`` (rubber genus ``h``: 0 over
zero, the lift's genus over infinity; ``l`` parts over zero), whichever the
lift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .errors import (
    InvalidArgumentError,
    TheoremViolationError,
    UnsupportedGraphError,
)
from .hodge import LinearForm, _check_genus, n_target, solve_hodge
from .partitions import decorated_aut, enumerate_partitions
from .series import LaurentPoly, RingOps
from .tautring import (
    RingContext,
    TautClass,
    boundary,
    linear_combination,
    psi1,
    pullback_forget,
    pushforward_forget,
    relabel,
    section_pushforward,
    zero_class,
)
from .util import Table, check_integer, check_integers, combine, combine_ints

__all__ = [
    "Monomial",
    "Part",
    "LocGraph",
    "Lift",
    "LIFT_DIVISOR",
    "lift_pair",
    "enumerate_graphs",
    "Row",
    "enumerate_rows",
    "locus_descriptor",
    "render_graph",
    "Contribution",
    "graph_prefactor",
    "assemble_contribution",
    "Relation",
    "relation_extract",
    "relation_by_row",
    "hodge_form_from_graphs",
    "EvaluatedRelation",
    "evaluate_relation",
    "Degree2Solution",
    "Degree3Report",
    "evaluate_and_solve",
]


# ---------------------------------------------------------------------------
# Symbol algebra: monomials in the cotangent/Hodge symbols
# ---------------------------------------------------------------------------


class Monomial(NamedTuple):
    """One monomial of the fixed-locus symbol algebra.

    ``psi_genus`` is the node cotangent power on the positive-genus vertex
    and ``psi_rubber`` the cotangent power at the rubber's boundary point;
    ``hodge_j`` is the index of the Hodge class contributed by the
    positive-genus vertex (``None`` when the graph has no such vertex over
    zero, ``0`` for the unit term).
    """

    psi_genus: int = 0
    psi_rubber: int = 0
    hodge_j: int | None = None


UNIT = Monomial()

SymExpr = dict[Monomial, Fraction]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if a.hodge_j is not None and b.hodge_j is not None:
        raise InvalidArgumentError("two Hodge factors met in one monomial")
    return Monomial(
        a.psi_genus + b.psi_genus,
        a.psi_rubber + b.psi_rubber,
        a.hodge_j if a.hodge_j is not None else b.hodge_j,
    )


def _sym_mul(a: SymExpr, b: SymExpr) -> SymExpr:
    # For a fixed ``mono_a`` the products with distinct ``mono_b`` differ.
    return combine(
        (coeff_a, {_mono_mul(mono_a, mono_b): coeff_b for mono_b, coeff_b in b.items()})
        for mono_a, coeff_a in a.items()
    )


SYM_OPS: RingOps[SymExpr] = RingOps(
    zero=dict,
    add=lambda a, b: combine(((1, a), (1, b))),
    neg=lambda a: combine(((-1, a),)),
    mul=_sym_mul,
    is_zero=lambda a: not a,
    scale=lambda a, q: combine(((q, a),)),
)


def _laurent(coeffs: Mapping[int, SymExpr]) -> LaurentPoly[SymExpr]:
    return LaurentPoly(SYM_OPS, coeffs)


def _scalar(coeff: Fraction, power: int) -> LaurentPoly[SymExpr]:
    return _laurent({power: {UNIT: coeff}}) if coeff else _laurent({})


# ---------------------------------------------------------------------------
# Graphs and lifts
# ---------------------------------------------------------------------------


class Part(NamedTuple):
    """One ramification part over zero: size, marks placed on it, genus flag.

    A tuple that compares and hashes as ``(size, marks, genus)``;
    :class:`LocGraph` checks its fields."""

    size: int
    marks: tuple[int, ...] = ()
    genus: bool = False


def _part_order(part: Part) -> tuple:
    return (-part.size, 0 if part.genus else 1, -len(part.marks), part.marks)


class _Graph(NamedTuple):
    side: str
    parts: tuple[Part, ...]


class LocGraph(_Graph):
    """A fixed-locus graph: the side carrying the genus, plus decorated parts.

    ``side`` is ``"zero"`` when the positive-genus vertex sits over zero and
    ``"infinity"`` when the genus is carried by the rubber.  A tuple that
    compares and hashes as ``(side, parts)``.  The constructor checks that
    each part's size is an integer >= 1 and its marks are distinct integers
    >= 1 ascending, on one part only, stores them as ``int`` and sorts the
    parts into a canonical display order, so equal graphs compare equal; the
    graph tables skip all of this, their parts being canonical.
    """

    __slots__ = ()

    def __new__(cls, side: str, parts: tuple[Part, ...]) -> LocGraph:
        if side not in ("zero", "infinity") or not parts:
            raise InvalidArgumentError(f"need side 'zero' or 'infinity' and a part, got {side!r}, {parts!r}")
        checked = []
        for p in parts:
            if not (isinstance(p, Part) and type(p.genus) is bool and isinstance(p.marks, tuple)):
                raise InvalidArgumentError(f"{p!r} is not a Part with a tuple of marks and a bool genus flag")
            if sorted(set(marks := check_integers("mark", p.marks, least=1))) != list(marks):
                raise InvalidArgumentError(f"the marks of {p!r} must ascend and be distinct")
            checked.append(Part(check_integer("part size", p.size, least=1), marks, p.genus))
        parts = tuple(checked)
        marks = [m for p in parts for m in p.marks]
        if len(set(marks)) != len(marks):
            raise InvalidArgumentError(f"a mark sits on two parts of {parts!r}")
        genus_count = sum(1 for p in parts if p.genus)
        if side == "zero" and genus_count != 1:
            raise InvalidArgumentError("genus-over-zero graphs need exactly one genus part")
        if side == "infinity" and genus_count != 0:
            raise InvalidArgumentError("genus-over-infinity graphs cannot flag a part")
        return tuple.__new__(cls, (side, tuple(sorted(parts, key=_part_order))))

    @property
    def degree(self) -> int:
        return sum(p.size for p in self.parts)

    @property
    def partition(self) -> tuple[int, ...]:
        return tuple(sorted((p.size for p in self.parts), reverse=True))

    def genus_part(self) -> Part | None:
        for p in self.parts:
            if p.genus:
                return p
        return None

    def has_rubber(self) -> bool:
        """The rubber factor is absent only for a one-part genus-over-zero graph."""
        return not (self.side == "zero" and len(self.parts) == 1)


@dataclass(frozen=True)
class Lift:
    """One of the two linearizations: ``Lift(g)`` or ``Lift(1, divisor=True)``.

    ``genus`` is the positive genus carried by the fixed loci, at most
    :data:`rubbertaut.hodge.MAX_GENUS`.  The marks placed over zero and the
    twist subtracted from the degree to give the branch exponent follow from
    ``divisor``.
    """

    genus: int
    divisor: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "genus", _check_genus(self.genus))
        if type(self.divisor) is not bool:
            raise InvalidArgumentError(f"need a bool divisor flag, got {self.divisor!r}")
        if self.divisor and self.genus != 1:
            raise InvalidArgumentError(f"the divisor lift is genus one only, got {self.genus}")

    @property
    def zero_marks(self) -> tuple[int, ...]:
        return (2, 3) if self.divisor else ()

    @property
    def branch_twist(self) -> int:
        return 2 if self.divisor else 1


#: Divisor lift: genus one, marks 2 and 3 over zero, one Hodge insertion.
LIFT_DIVISOR = Lift(1, divisor=True)


def lift_pair(genus: int) -> Lift:
    """Pair lift at the given genus: no extra marks, top Hodge pair inserted."""
    return Lift(genus)


def _slot_factor(size: int, marks: tuple) -> tuple:
    """Numerator, denominator and power of ``t`` of a part off the genus:
    ``t / size`` with no mark (a free part), 1 with one, and ``size / t``
    with two (the contracted vertex's node factor and its Hodge ``1/t``)."""
    return ((1, size, 1), (1, 1, 0), (size, 1, -1))[len(marks)]


def _part_marks(tied: tuple[bool, ...], labels: tuple[int, ...]) -> list[list]:
    """Every distinct placement of the ascending ``labels`` on ``len(tied)``
    parts, as each part's marks, in display order: by mark counts (more on
    earlier parts first), then by the labels read part by part, repeats
    skipped.  ``tied[i]`` flags part ``i`` as part ``i - 1`` but for marks
    (one size, neither the genus part); tied parts ascend by ``(-count,
    marks)``, the canonical part order, which only a marked part can break."""
    out = []
    for spots in itertools.combinations_with_replacement(range(len(tied)), len(labels)):
        for word in itertools.permutations(labels):
            marks = [()] * len(tied)
            for spot, label in sorted(zip(spots, word)):
                marks[spot] += (label,)
            keys = [(-len(ms), ms) for ms in marks]
            if marks not in out and all(keys[s - 1] <= keys[s] for s in spots if tied[s]):
                out.append(marks)
    return out


#: The graph tables, shared by every call and never keyed by genus: per
#: ``(nu, twist, labels)`` the partition's graphs in display order, each
#: ``(graph, num, den, power, genus part)``, 1,272 entries (914 pair, 358
#: divisor) and 11,140 graphs at the partition-sum cap; per ``(tied, labels)``
#: the :func:`_part_marks` placements, 221 entries; one :class:`Part` per
#: distinct part, 124 of them; per ``(d, l)``, one :func:`_zero_side_sums`,
#: 136 entries.  Parts and graphs are tuples that compare and hash as their
#: fields; the table graphs skip :class:`LocGraph`'s checks and sort
#: (``tuple.__new__``), since their parts are already canonical.
_GRAPHS: dict[tuple, tuple[tuple, ...]] = Table(lambda key: _partition_graphs(*key))
_MARKINGS: dict[tuple, list] = Table(lambda key: _part_marks(*key))
_PARTS: dict[tuple, Part] = Table(Part._make)
_ZERO_SUMS: dict[tuple[int, int], tuple[int, dict]] = Table(lambda key: _zero_side_sums(*key))


def _rubber_integral(l: int, d: int) -> int:
    """The genus-zero rubber integral of an ``l``-part partition of ``d``
    against ``(d,)``, ``l >= 2``: Goulden-Jackson-Vakil's one-part Hurwitz
    number ``(l - 1)! * d**(l - 2)`` (math/0309440) over ``(l - 1)!``, no
    table needed.  The tests' oracle is :func:`hurwitz.rubber_psi_integral`."""
    return d ** (l - 2)


def _partition_graphs(nu: tuple[int, ...], twist: int, labels: tuple[int, ...]) -> tuple[tuple, ...]:
    """The graph-table entry of ``nu``: over zero by descending genus size (on
    the first part of that size), then over infinity, each by :func:`_part_marks`."""
    d, l = sum(nu), len(nu)
    edge_num, edge_den = math.prod(s**s for s in nu), math.prod(math.factorial(s) for s in nu)
    out = []
    for genus in [i for i in range(l) if not i or nu[i] != nu[i - 1]] + [None] * (l <= twist):
        flags = [i == genus for i in range(l)]
        tied = tuple(i > 0 and i - 1 != genus and nu[i] == nu[i - 1] for i in range(l))
        zero = genus is not None
        for marks in _MARKINGS[tied, labels]:
            num, den, power, run = edge_num, edge_den * (d if zero and l == 1 else 1), len(labels) - twist, 1
            for i, ms in enumerate(marks):
                if i != genus:
                    # equal parts sit side by side: a run of r gives r! automorphisms
                    run = run + 1 if tied[i] and ms == marks[i - 1] else 1
                    slot_num, slot_den, slot_power = _slot_factor(nu[i], ms)
                    num, den, power = num * slot_num, den * slot_den * run, power + slot_power
            parts = tuple(map(_PARTS.__getitem__, zip(nu, marks, flags)))
            graph = tuple.__new__(LocGraph, ("zero" if zero else "infinity", parts))  # canonical: no checks
            out.append((graph, num, den, power, (nu[genus], len(marks[genus])) if zero else None))
    return tuple(out)


def _graph_data(d: int, lift: Lift) -> Iterator[tuple]:
    """Every contributing graph in display order, with its residue's scalars.

    Yields ``(graph, b0, num, den, power, genus, rubber_cap)``: the branch
    weight ``B0``; all factors but the three series and ``B0! / (B0 - k)!``
    as ``num / den * t**power`` (edge factors ``s**s / s! t**-s``, each part
    off the genus by :func:`_slot_factor`, ``t`` per lifted mark, ``t**k``,
    automorphisms, ``1/d`` without rubber); the genus part's ``(size, mark
    count)``, ``None`` over infinity; and the rubber's top cotangent power
    ``2h - 2 + l``, -1 for the one-part graph over zero, which has no rubber.
    A graph contributes only when ``B0 >= k``: with ``l`` parts, ``B0 = 2g +
    d - l`` over zero and ``d - l`` over infinity, while ``k = d - twist``,
    so only partitions with ``l <= 2g + twist`` parts and only infinity
    graphs with ``l <= twist`` are built.  Only ``B0`` and the infinity
    rubber's cap depend on the genus; the rest is read off the ``_GRAPHS``
    entry of the partition and the lift's twist and marks, built once."""
    d = check_integer("degree", d, least=1)
    g, twist, labels = lift.genus, lift.branch_twist, lift.zero_marks
    for nu in enumerate_partitions(d, 2 * g + twist):
        l = len(nu)
        for graph, num, den, power, genus in _GRAPHS[nu, twist, labels]:
            b0, cap = (d - l, 2 * g - 2 + l) if genus is None else (2 * g + d - l, l - 2)
            yield graph, b0, num, den, power, genus, cap


def enumerate_graphs(d: int, lift: Lift) -> list[LocGraph]:
    """Contributing graphs, one per isomorphism class, in :func:`_graph_data`'s order."""
    return [data[0] for data in _graph_data(d, lift)]


def mirror_swap(graph: LocGraph, lift: Lift) -> LocGraph:
    """Exchange the two lifted marks (identity for mark-free lifts)."""
    if len(lift.zero_marks) != 2:
        return graph
    a, b = lift.zero_marks
    swap = {a: b, b: a}
    return LocGraph(
        graph.side,
        tuple(
            Part(p.size, tuple(sorted(swap.get(m, m) for m in p.marks)), p.genus)
            for p in graph.parts
        ),
    )


@dataclass(frozen=True)
class Row:
    """One presentation row: a graph class plus its mirror when distinct.

    Mirror pairs merge only on the genus-over-zero side; the rubber side
    keeps the two mark placements as separate rows.
    """

    index: int
    graphs: tuple[LocGraph, ...]

    @property
    def representative(self) -> LocGraph:
        return self.graphs[0]

    @property
    def multiplicity(self) -> int:
        return len(self.graphs)


def enumerate_rows(d: int, lift: Lift) -> list[Row]:
    """Graphs grouped into display rows, numbered from 1."""
    graphs = enumerate_graphs(d, lift)
    used: set[LocGraph] = set()
    rows: list[Row] = []
    for graph in graphs:
        if graph in used:
            continue
        used.add(graph)
        members = [graph]
        if graph.side == "zero":
            partner = mirror_swap(graph, lift)
            if partner != graph and partner not in used:
                used.add(partner)
                members.append(partner)
        rows.append(Row(len(rows) + 1, tuple(members)))
    return rows


# ---------------------------------------------------------------------------
# Locus description and rendering
# ---------------------------------------------------------------------------


def _rubber_spec(graph: LocGraph, lift: Lift) -> tuple | None:
    if not graph.has_rubber():
        return None
    h = 0 if graph.side == "zero" else lift.genus
    return ("rub", h, graph.partition, graph.degree)


def locus_descriptor(graph: LocGraph, lift: Lift) -> tuple[tuple, ...]:
    """Structured fixed-locus moduli: rational vertices, genus vertex, rubber."""
    pieces: list[tuple] = []
    for p in graph.parts:
        if not p.genus and len(p.marks) == 2:
            pieces.append(("M03",))
    genus = graph.genus_part()
    if genus is not None:
        pieces.append(("M", lift.genus, 1 + len(genus.marks)))
    rubber = _rubber_spec(graph, lift)
    if rubber is not None:
        pieces.append(rubber)
    return tuple(pieces)


def render_graph(graph: LocGraph) -> str:
    """Compact text form, e.g. ``2^g{2,3}+1`` (genus flag and marks per part)."""
    chunks = []
    for p in graph.parts:
        text = str(p.size)
        if p.genus:
            text += "^g"
        if p.marks:
            text += "{" + ",".join(map(str, p.marks)) + "}"
        chunks.append(text)
    return "+".join(chunks)


# ---------------------------------------------------------------------------
# Contribution assembly
# ---------------------------------------------------------------------------

#: Factor descriptors: ("node", size, cap) | ("hodge", g) |
#: ("node_inf", cap) | ("scalar", coeff, power), the last a rational times
#: ``t**power``
FactorSpec = tuple


def _genus_vertex_dim(graph: LocGraph, lift: Lift) -> int:
    """``dim M_{g,n} = 3g - 3 + n``, with the node and the part's marks as points."""
    genus = graph.genus_part()
    if genus is None:
        raise InvalidArgumentError("graph has no genus vertex over zero")
    return 3 * lift.genus - 2 + len(genus.marks)


def _rubber_dim(graph: LocGraph, lift: Lift) -> int:
    """Rubber dimension ``2h - 3 + l(mu) + l(nu)``, with one part over infinity."""
    h = 0 if graph.side == "zero" else lift.genus
    return 2 * h - 2 + len(graph.parts)


def _node_factor(size: int, cap: int) -> LaurentPoly[SymExpr]:
    coeffs: dict[int, SymExpr] = {}
    for a in range(cap + 1):
        coeffs[-a] = {Monomial(psi_genus=a): Fraction(size ** (a + 1))}
    return _laurent(coeffs)


def _hodge_factor(g: int) -> LaurentPoly[SymExpr]:
    if g == 0:
        return _scalar(Fraction(1), -1)
    coeffs: dict[int, SymExpr] = {}
    for j in range(g + 1):
        coeffs[g - j - 1] = {Monomial(hodge_j=j): Fraction((-1) ** j)}
    return _laurent(coeffs)


def _node_infinity_factor(cap: int) -> LaurentPoly[SymExpr]:
    coeffs: dict[int, SymExpr] = {}
    for b in range(cap + 1):
        coeffs[-b - 1] = {Monomial(psi_rubber=b): Fraction((-1) ** (b + 1))}
    return _laurent(coeffs)


def build_factor(spec: FactorSpec) -> LaurentPoly[SymExpr]:
    """Expand one factor descriptor into its exact Laurent polynomial."""
    kind = spec[0]
    if kind == "node":
        return _node_factor(spec[1], spec[2])
    if kind == "hodge":
        return _hodge_factor(spec[1])
    if kind == "node_inf":
        return _node_infinity_factor(spec[1])
    if kind == "scalar":
        return _scalar(spec[1], spec[2])
    raise InvalidArgumentError(f"unknown factor kind {kind!r}")


@dataclass(frozen=True)
class Contribution:
    """Assembled contribution of one graph: prefactor times a factor product."""

    prefactor: Fraction
    product: LaurentPoly[SymExpr] = field(compare=False)

    def total(self) -> LaurentPoly[SymExpr]:
        return self.product.scale(self.prefactor)


def graph_prefactor(graph: LocGraph) -> Fraction:
    """Automorphism weight; the unexpanded one-part graph also divides by ``d``.

    With a rubber factor present the graph automorphisms permute equal
    decorated parts.  Without one (single part, genus over zero) the edge's
    cyclic deck transformations act as well, contributing ``1/d``.
    """
    automorphisms = decorated_aut((p.size, p.marks, p.genus) for p in graph.parts)
    return Fraction(1, automorphisms * (1 if graph.has_rubber() else graph.degree))


def assemble_contribution(graph: LocGraph, lift: Lift) -> Contribution:
    """Build the exact contribution of one graph under the given lift.

    The full Laurent product is the tests' oracle for :func:`relation_extract`,
    which reads the ``1/t`` coefficient without it, and for the frozen
    tables' factor cells.  A graph that misses the branch twist
    (``0 <= k <= B0``) is refused.
    """
    b0 = (2 * lift.genus if graph.side == "zero" else 0) + graph.degree - len(graph.parts)
    k = graph.degree - lift.branch_twist
    if not 0 <= k <= b0:
        raise InvalidArgumentError("graph does not meet the branch twist")
    specs: list[FactorSpec] = []
    for p in graph.parts:
        if p.genus:
            specs.append(("node", p.size, _genus_vertex_dim(graph, lift)))
            specs.append(("hodge", lift.genus))
        elif len(p.marks) == 2:
            # the contracted rational vertex's node factor, truncated at
            # cotangent power 0
            specs.append(("scalar", Fraction(p.size), 0))
            specs.append(("hodge", 0))
        elif len(p.marks) == 0:
            specs.append(("scalar", Fraction(1, p.size), 1))
        # a part with one mark is a two-special-point vertex: factor 1
    if graph.has_rubber():
        specs.append(("node_inf", _rubber_dim(graph, lift)))
    edge_coeff = Fraction(1)
    for p in graph.parts:
        edge_coeff *= Fraction(p.size**p.size, math.factorial(p.size))
    specs.append(("scalar", edge_coeff, -graph.degree))
    if lift.zero_marks:
        specs.append(("scalar", Fraction(1), len(lift.zero_marks)))
    specs.append(("scalar", Fraction(math.perm(b0, k)), k))
    product = _scalar(Fraction(1), 0)
    for spec in specs:
        product = product.mul(build_factor(spec))
    return Contribution(graph_prefactor(graph), product)


# ---------------------------------------------------------------------------
# Relation extraction at the simple pole
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """The ``1/t`` coefficient of the graph sum, term by term.

    ``terms`` maps each graph to the surviving monomials and their exact
    coefficients (prefactor included, global insertion understood).
    """

    d: int
    lift: Lift
    terms: Mapping[LocGraph, Mapping[Monomial, Fraction]]


def _genus_walk(lift: Lift, size: int, marks: int) -> list:
    """``(a, j, coefficient, power of t)`` of the genus node and Hodge series
    terms the relation's degree allows: ``(a, 0)`` with ``a <= min(1, m)``
    (``m`` marks on the genus part) on the divisor lift, where the inserted
    Hodge class kills the vertex's ``lambda_1``, and the top-degree ``(a, g
    - 1 - a)``, ``a < g``, on the pair lift; both stay inside the vertex
    dimension ``3g - 2 + m``."""
    if lift.divisor:
        return [(a, 0, size ** (a + 1), -a) for a in range(min(1, marks) + 1)]
    g = lift.genus
    return [(a, g - 1 - a, size ** (a + 1) * (-1) ** (g - 1 - a), 0) for a in range(g)]


def _pole_sign(b: int, rubber_cap: int) -> int:
    """The sign ``(-1)^(b+1)`` of the rubber term ``psi^b t^(-b-1)`` that
    turns a graph's other factors, ``t^b``, into ``1/t``: kept for ``0 <= b``
    up to the rubber's top power, and for ``b = -1`` on a graph without
    rubber (cap -1), whose other factors give ``1/t`` themselves.  Any other
    ``b`` keeps no term, and the sign is 0."""
    if b == rubber_cap == -1 or 0 <= b <= rubber_cap:
        return 1 if b % 2 else -1
    return 0


def relation_extract(d: int, lift: Lift) -> Relation:
    """The exact relation carried by the ``1/t`` coefficients: of every graph
    in :func:`_graph_data`'s order that keeps one, the kept part of
    ``assemble_contribution(graph, lift).total().coefficient(-1)``.  The genus
    node's and Hodge class's series (powers ``a``, ``j``) take the terms of
    :func:`_genus_walk`, built once per genus part and call, and the power of
    ``t`` fixes the rubber node's ``b``, kept by :func:`_pole_sign`: the pair
    lift's zero-side rubber sits at its top power ``l - 2`` (``-1``, no
    rubber, for one part) and every infinity graph's at ``b = 0``."""
    d = check_integer("degree", d, least=lift.branch_twist)
    k = d - lift.branch_twist
    walks: dict[tuple | None, list] = Table(lambda genus: _genus_walk(lift, *genus))
    walks[None] = [(0, None, 1, 0)]
    monomials: dict[tuple, Monomial] = Table(Monomial._make)
    terms = {}
    for graph, b0, num, den, power, genus, rubber_cap in _graph_data(d, lift):
        num *= math.perm(b0, k)
        kept = {}
        for a, j, coeff, genus_power in walks[genus]:
            b = power + genus_power
            if sign := _pole_sign(b, rubber_cap):
                kept[monomials[a, max(b, 0), j]] = Fraction(num * coeff * sign, den)
        if kept:
            terms[graph] = kept
    return Relation(d, lift, terms)


def relation_by_row(relation: Relation) -> dict[int, dict[tuple[int, int], Fraction]]:
    """Aggregate a relation by the display rows of its degree and lift.

    Keys are ``(psi_genus, psi_rubber)`` pairs; mirror graphs in a row sum.
    """
    rows = enumerate_rows(relation.d, relation.lift)
    graph_to_row = {graph: row.index for row in rows for graph in row.graphs}
    pairs: dict[int, list[tuple[Fraction, dict[tuple[int, int], int]]]] = {}
    for graph, monos in relation.terms.items():
        pairs.setdefault(graph_to_row[graph], []).extend(
            (coeff, {(mono.psi_genus, mono.psi_rubber): 1}) for mono, coeff in monos.items()
        )
    out = {index: combine(terms) for index, terms in pairs.items()}
    return {index: bucket for index, bucket in out.items() if bucket}


def _zero_side_sums(d: int, l: int) -> tuple[int, dict]:
    """``sign * num / den`` (rubber at its top power ``l - 2``) of the pair
    lift's zero-side graphs with ``l`` parts, summed per genus part."""
    return combine_ints(
        (_pole_sign(power, l - 2), den, {genus: num})
        for nu in enumerate_partitions(d) if len(nu) == l
        for _, num, den, power, genus in _GRAPHS[nu, 1, ()] if genus is not None
    )


def hodge_form_from_graphs(g: int, d: int) -> LinearForm:
    """The Hodge-integral linear form recovered from the pair-lift graphs.

    Independently of :func:`rubbertaut.hodge.hodge_linear_form`, sums the
    genus-over-zero terms (rubber factors integrated out) and normalizes by
    the rubber graph's coefficient, all from the graphs' integers.  Every
    pair-walk term has genus power 0, so :func:`_pole_sign` keeps a graph's
    whole walk or none of it, with one sign; the genus enters a zero-side
    graph only through ``perm(2g + d - l, d - 1)`` (0 past ``2g + 1`` parts)
    and the walk.  So each part count's ``_ZERO_SUMS`` entry, times that and
    :func:`_rubber_integral` (1 without rubber), adds to each genus part's
    weight, which spreads once through the part's :func:`_genus_walk`.
    """
    lift = lift_pair(g)
    d = check_integer("degree", d, least=lift.branch_twist)
    pairs = []
    for l in range(1, min(2 * g + 1, d) + 1):
        common, sums = _ZERO_SUMS[d, l]
        pairs.append((math.perm(2 * g + d - l, d - 1) * (_rubber_integral(l, d) if l > 1 else 1), common, sums))
    _, num, den, power, _ = _GRAPHS[(d,), 1, ()][-1]  # the one graph over infinity
    if not (rubber := _pole_sign(power, 2 * g - 1) * num * math.factorial(d - 1)):
        raise TheoremViolationError(f"no rubber term in the degree-{d} pair relation")
    common, weights = combine_ints(pairs)
    _, sums = combine_ints(
        (weight, 1, {j: coeff for _, j, coeff, _ in _genus_walk(lift, *genus)}) for genus, weight in weights.items()
    )
    return {j: Fraction(-value * den, common * rubber) for j, value in sums.items()}


# ---------------------------------------------------------------------------
# Boundary evaluation of divisor-lift terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluatedRelation:
    """A divisor-lift relation pushed to the three-mark space.

    ``known`` collects the directly evaluated classes; ``p_terms`` and
    ``s_terms`` hold coefficients of the split-mark and joint-mark rubber
    atoms, keyed by the sizes of the parts carrying the marks.
    """

    known: TautClass
    p_terms: Mapping[tuple[int, int], Fraction]
    s_terms: Mapping[tuple[int, int], Fraction]


def _tail_special_points(graph: LocGraph) -> int:
    """Special points on the stabilized rubber component.

    The reference mark and the genus node always survive; a marked part
    adds one point (a transferred mark for a single mark, the node to a
    surviving three-point vertex for a double mark); an unmarked part's
    edge contracts to a smooth point.
    """
    marked = sum(1 for p in graph.parts if not p.genus and p.marks)
    return 2 + marked


def _evaluate_zero_side(
    graph: LocGraph, mono: Monomial, ctx: RingContext
) -> TautClass | None:
    genus = graph.genus_part()
    assert genus is not None
    dim_rub = len(graph.parts) - 2
    if not graph.has_rubber():
        if mono.psi_genus == 1:
            return psi1(ctx)
    elif mono.psi_rubber == dim_rub:
        scalar = _rubber_integral(len(graph.parts), graph.degree)
        if len(genus.marks) == 2 and mono.psi_genus == 1:
            return scalar * psi1(ctx)
        if len(genus.marks) == 1 and mono.psi_genus == 0:
            return scalar * boundary(ctx, genus.marks)
    elif dim_rub - mono.psi_rubber != max(0, _tail_special_points(graph) - 3):
        # Unsaturated rubber: the fiber sweeps a boundary stratum only when its
        # dimension matches the stabilized tail's moduli; otherwise it contracts.
        return None
    elif (
        len(genus.marks) == 0
        and mono.psi_genus == 0
        and mono.psi_rubber == 0
        and all(len(p.marks) <= 1 for p in graph.parts if not p.genus)
    ):
        return boundary(ctx, ())
    raise UnsupportedGraphError(
        f"no boundary evaluation for {render_graph(graph)} at {mono}"
    )


def _marked_sizes(graph: LocGraph) -> tuple[str, tuple[int, int]]:
    """Classify a two-part rubber-side graph by its sorted mark counts: joint
    marks ``[0, 2]`` (marked part first) or split marks ``[1, 1]`` (mark 2's
    part first), with the part sizes."""
    parts = sorted(graph.parts, key=lambda p: len(p.marks))
    counts = [len(p.marks) for p in parts]
    if counts == [0, 2]:
        return "S", (parts[1].size, parts[0].size)
    if counts == [1, 1]:
        size_of = {p.marks[0]: p.size for p in parts}
        return "P", (size_of[2], size_of[3])
    raise UnsupportedGraphError(f"no rubber evaluation for {render_graph(graph)}")


def evaluate_relation(relation: Relation) -> EvaluatedRelation:
    """Push every term of a divisor-lift relation to the three-mark space."""
    if not relation.lift.divisor:
        raise InvalidArgumentError("only divisor-lift relations evaluate to classes")
    ctx = RingContext((1, *relation.lift.zero_marks))
    known = [(1, zero_class(ctx))]
    atoms: dict[str, list[tuple[Fraction, dict[tuple[int, int], int]]]] = {"P": [], "S": []}
    for graph, monos in relation.terms.items():
        for mono, coeff in monos.items():
            if graph.side == "zero":
                value = _evaluate_zero_side(graph, mono, ctx)
                if value is not None:
                    known.append((coeff, value))
            else:
                kind, sizes = _marked_sizes(graph)
                atoms[kind].append((coeff, {sizes: 1}))
    return EvaluatedRelation(
        linear_combination(known), combine(atoms["P"]), combine(atoms["S"])
    )


# ---------------------------------------------------------------------------
# Solving for the divisor-class coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Degree2Solution:
    """Divisor-class coefficients determined by the degree-two relation.

    ``a2, a3, b`` are the coefficients of the weight quadric on the
    three-mark space; ``a2p, a3p, bp`` are their joint-mark companions.
    ``anchor`` is the computed two-mark normalization.
    """

    anchor: Fraction
    a2: TautClass
    a3: TautClass
    b: TautClass
    a2p: TautClass
    a3p: TautClass
    bp: TautClass


@dataclass(frozen=True)
class Degree3Report:
    """Degree-three consistency: an independent solve and an exact residual."""

    base: Degree2Solution
    b_again: TautClass
    residual: TautClass


def _anchor_coefficient() -> Fraction:
    """Normalization of the two-mark seed class, computed from first values.

    Pairing the seed against the Hodge insertion must reproduce the
    degree-one rubber value, so the coefficient is their exact ratio.
    """
    return n_target(1, 1) / solve_hodge(1).value(0)


def _main_relation(
    evaluated: EvaluatedRelation,
    a2: TautClass,
    a3: TautClass,
    a2p: TautClass,
    a3p: TautClass,
    bp: TautClass,
    degree: str,
) -> tuple[TautClass, Fraction]:
    """Everything in ``known + sum s * S + sum p * P`` but the mixed term.

    Joint-mark atoms are ``S(a, b) = a^2 A2' + b^2 A3' + a b B'`` and
    split-mark atoms are ``P(a, b) = a^2 A2 + b^2 A3 + a b B``; the relation
    reads ``total + weight * B = 0`` for the returned ``(total, weight)``.
    """
    pairs = [(1, evaluated.known)]
    for (sa, sb), coeff in evaluated.s_terms.items():
        pairs += [(coeff * sa * sa, a2p), (coeff * sb * sb, a3p), (coeff * sa * sb, bp)]
    weight = Fraction(0)
    for (pa, pb), coeff in evaluated.p_terms.items():
        pairs += [(coeff * pa * pa, a2), (coeff * pb * pb, a3)]
        weight += coeff * pa * pb
    if weight == 0:
        raise TheoremViolationError(f"{degree} relation does not see the mixed coefficient")
    return linear_combination(pairs), weight


def evaluate_and_solve(d: int) -> Degree2Solution | Degree3Report:
    """Solve the divisor-lift relation in degree ``d`` (2 or 3).

    Degree 2 determines all six coefficients; degree 3 re-derives the mixed
    coefficient from its own relation, given the degree-2 solution, and
    returns the exact residual of the full relation.
    """
    if (d := check_integer("degree", d)) not in (2, 3):
        raise InvalidArgumentError(
            f"the divisor pipeline is implemented for degrees 2 and 3, not {d}"
        )
    ctx3 = RingContext.standard(3)
    anchor = _anchor_coefficient()
    seed = anchor * boundary(RingContext((1, 2)), ())
    a2 = pullback_forget(seed, 3).reduce()
    a3 = pullback_forget(relabel(seed, {1: 1, 2: 3}), 2).reduce()
    if a3 != relabel(a2, {1: 1, 2: 3, 3: 2}).reduce():
        raise TheoremViolationError("the two routes to the second pure coefficient differ")
    evaluated = evaluate_relation(relation_extract(2, LIFT_DIVISOR))

    # Joint-mark companions by restriction: forget the third mark, then glue
    # it back onto the second.
    a2p = section_pushforward(pushforward_forget(a2, 3), 2, 3, ctx3)
    a3p = section_pushforward(pushforward_forget(a3, 3), 2, 3, ctx3)

    # Restricting the whole relation: split-mark atoms become joint-mark
    # atoms (the marks are brought together), joint-mark atoms are fixed
    # (gluing after forgetting is the identity on their source), and the
    # known part pushes to a multiple of the joint boundary divisor.
    pushed_known = section_pushforward(
        pushforward_forget(evaluated.known, 3), 2, 3, ctx3
    )
    joint_coeffs = combine(((1, evaluated.s_terms), (1, evaluated.p_terms)))
    if set(joint_coeffs) != {(1, 1)}:
        raise UnsupportedGraphError(
            f"unexpected joint-mark atoms {sorted(joint_coeffs)} in degree 2"
        )
    # pushed_known + c11 * (a2p + a3p + bp) = 0
    bp = linear_combination(
        ((-1 / joint_coeffs[(1, 1)], pushed_known), (-1, a2p), (-1, a3p))
    )
    total, b_weight = _main_relation(evaluated, a2, a3, a2p, a3p, bp, "degree-two")
    solution = Degree2Solution(
        anchor=anchor,
        a2=a2,
        a3=a3,
        b=((-1 / b_weight) * total).reduce(),
        a2p=a2p.reduce(),
        a3p=a3p.reduce(),
        bp=bp.reduce(),
    )
    if d == 2:
        return solution
    evaluated = evaluate_relation(relation_extract(3, LIFT_DIVISOR))
    total, b_weight = _main_relation(
        evaluated, a2, a3, solution.a2p, solution.a3p, solution.bp, "degree-three"
    )
    return Degree3Report(
        base=solution,
        b_again=((-1 / b_weight) * total).reduce(),
        residual=linear_combination(((1, total), (b_weight, solution.b))).reduce(),
    )
