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
of three cotangent symbols and one Hodge symbol).  Only the ``1/t`` coefficient of the graph
sum carries the relation, and all but three factors of a graph are a
scalar times a power of ``t``, so the relation is read by a residue walk
over the genus-node cotangent power and the Hodge index, with the rubber
cotangent power fixed by the power of ``t``, in integers over one
denominator per graph.  The repeated rubber integrals are memoized in
:mod:`rubbertaut.hurwitz`.  The full Laurent product
(:func:`assemble_contribution`) stays as the oracle for that walk and for
the frozen degree-2 and degree-3 tables.  Evaluating the relation's terms
through the boundary catalogue and solving gives the divisor-class
coefficients of the genus-one weight quadric.  Every sum here, from the
symbol algebra's ring operations to the per-row relations and the solve,
runs through :func:`rubbertaut.util.combine`.

Two lifts of the action are used:

* the *divisor lift* places two extra marks over zero, inserts one Hodge
  class, and twists the branch morphism by ``d - 2`` — it produces relations
  among degree-one classes on the three-mark space;
* the *pair lift* places no extra marks, inserts the top two Hodge classes,
  and twists by ``d - 1`` — it produces the linear identities for the
  one-point Hodge integrals (see :mod:`rubbertaut.hodge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    InvalidArgumentError,
    TheoremViolationError,
    UnsupportedGraphError,
)
from .hodge import LinearForm, n_target, solve_hodge
from .hurwitz import rubber_psi_integral
from .partitions import decorated_aut, enumerate_marked, enumerate_partitions
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
from .util import combine, falling_factorial

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

    ``psi_genus`` / ``psi_rational`` are node cotangent powers on the
    positive-genus vertex and on a contracted three-special-point rational
    vertex; ``psi_rubber`` is the cotangent power at the rubber's boundary
    point; ``hodge_j`` is the index of the Hodge class contributed by the
    positive-genus vertex (``None`` when the graph has no such vertex over
    zero, ``0`` for the unit term).
    """

    psi_genus: int = 0
    psi_rational: int = 0
    psi_rubber: int = 0
    hodge_j: int | None = None


UNIT = Monomial()

SymExpr = dict[Monomial, Fraction]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if a.hodge_j is not None and b.hodge_j is not None:
        raise InvalidArgumentError("two Hodge factors met in one monomial")
    return Monomial(
        a.psi_genus + b.psi_genus,
        a.psi_rational + b.psi_rational,
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


@dataclass(frozen=True)
class Part:
    """One ramification part over zero: size, marks placed on it, genus flag."""

    size: int
    marks: tuple[int, ...] = ()
    genus: bool = False


def _part_order(part: Part) -> tuple:
    return (-part.size, 0 if part.genus else 1, -len(part.marks), part.marks)


@dataclass(frozen=True)
class LocGraph:
    """A fixed-locus graph: the side carrying the genus, plus decorated parts.

    ``side`` is ``"zero"`` when the positive-genus vertex sits over zero and
    ``"infinity"`` when the genus is carried by the rubber.  Parts are kept
    in a canonical display order, so equal graphs compare equal.
    """

    side: str
    parts: tuple[Part, ...]

    def __post_init__(self) -> None:
        if self.side not in ("zero", "infinity"):
            raise InvalidArgumentError(f"bad side {self.side!r}")
        ordered = tuple(sorted(self.parts, key=_part_order))
        object.__setattr__(self, "parts", ordered)
        genus_count = sum(1 for p in self.parts if p.genus)
        if self.side == "zero" and genus_count != 1:
            raise InvalidArgumentError("genus-over-zero graphs need exactly one genus part")
        if self.side == "infinity" and genus_count != 0:
            raise InvalidArgumentError("genus-over-infinity graphs cannot flag a part")

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
    """A linearization choice: extra marks over zero, branch twist, insertion.

    ``genus`` is the positive genus carried by the fixed loci;
    ``branch_twist`` is subtracted from the degree to give the branch
    exponent; ``insertion`` names the global class multiplying every graph.
    """

    genus: int
    zero_marks: tuple[int, ...]
    branch_twist: int
    insertion: str

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise InvalidArgumentError(f"need genus >= 1, got {self.genus}")
        if self.insertion not in ("hodge-1", "hodge-pair"):
            raise InvalidArgumentError(f"unknown insertion {self.insertion!r}")


#: Divisor lift: genus one, marks 2 and 3 over zero, one Hodge insertion.
LIFT_DIVISOR = Lift(genus=1, zero_marks=(2, 3), branch_twist=2, insertion="hodge-1")


def lift_pair(genus: int) -> Lift:
    """Pair lift at the given genus: no extra marks, top Hodge pair inserted."""
    return Lift(genus=genus, zero_marks=(), branch_twist=1, insertion="hodge-pair")


def _branch_data(graph: LocGraph, lift: Lift) -> tuple[int, int]:
    """Branch morphism data: total weight ``B0`` and twist exponent ``k``."""
    b0 = (2 * lift.genus if graph.side == "zero" else 0) + graph.degree - len(graph.parts)
    k = graph.degree - lift.branch_twist
    return b0, k


def enumerate_graphs(d: int, lift: Lift) -> list[LocGraph]:
    """All isomorphism classes of contributing graphs, in display order.

    Graphs whose branch weight cannot absorb the required twist (``B0 < k``)
    have no fixed points in the twisted space and are omitted.  With ``l``
    parts, ``B0 = 2g + d - l`` over zero and ``d - l`` over infinity, while
    ``k = d - twist``, so a contributing graph has ``l <= 2g + twist`` parts
    (``l <= twist`` over infinity); only partitions that short are marked.
    Equal slots of a marked partition give the same graph, so the genus is
    flagged only on the first of them and every graph is built once.
    """
    if d < 1:
        raise InvalidArgumentError(f"need degree >= 1, got {d}")
    max_parts = max(0, 2 * lift.genus + lift.branch_twist)
    kept = []
    for nu in enumerate_partitions(d, max_parts):
        for marked, _ in enumerate_marked(nu, lift.zero_marks):
            slots = marked.slots
            candidates = [LocGraph("infinity", tuple(Part(s, ms) for s, ms in slots))]
            for genus_index in range(len(slots)):
                if genus_index and slots[genus_index] == slots[genus_index - 1]:
                    continue
                candidates.append(
                    LocGraph(
                        "zero",
                        tuple(
                            Part(s, ms, genus=(i == genus_index))
                            for i, (s, ms) in enumerate(slots)
                        ),
                    )
                )
            for graph in candidates:
                b0, k = _branch_data(graph, lift)
                if b0 >= k:
                    kept.append(graph)
    return sorted(kept, key=sort_key)


def sort_key(graph: LocGraph) -> tuple:
    """Display order: partition, side, genus size, mark counts, mark placement."""
    genus = graph.genus_part()
    return (
        tuple(-s for s in graph.partition),
        0 if graph.side == "zero" else 1,
        -(genus.size if genus is not None else 0),
        tuple(-len(p.marks) for p in graph.parts),
        tuple(p.marks for p in graph.parts),
    )


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

#: Factor descriptors: ("node", size, which, cap) | ("hodge", g) |
#: ("node_inf", cap) | ("edge", coeff, power) | ("free", size) |
#: ("ev", count) | ("branch", b0, k)
FactorSpec = tuple


def _genus_vertex_dim(graph: LocGraph, lift: Lift) -> int:
    genus = graph.genus_part()
    if genus is None:
        raise InvalidArgumentError("graph has no genus vertex over zero")
    if lift.insertion == "hodge-1":
        # genus-one space with the node point plus the marks on the part
        return 1 + len(genus.marks)
    return 3 * lift.genus - 2


def _rubber_dim(graph: LocGraph, lift: Lift) -> int:
    if graph.side == "zero":
        return len(graph.parts) - 2
    if lift.insertion == "hodge-1":
        return len(graph.parts)
    return 2 * lift.genus - 1


def _node_factor(size: int, which: str, cap: int) -> LaurentPoly[SymExpr]:
    coeffs: dict[int, SymExpr] = {}
    for a in range(cap + 1):
        mono = Monomial(psi_genus=a) if which == "genus" else Monomial(psi_rational=a)
        coeffs[-a] = {mono: Fraction(size ** (a + 1))}
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
        return _node_factor(spec[1], spec[2], spec[3])
    if kind == "hodge":
        return _hodge_factor(spec[1])
    if kind == "node_inf":
        return _node_infinity_factor(spec[1])
    if kind == "edge":
        return _scalar(spec[1], spec[2])
    if kind == "free":
        return _scalar(Fraction(1, spec[1]), 1)
    if kind == "ev":
        return _scalar(Fraction(1), spec[1])
    if kind == "branch":
        return _scalar(Fraction(falling_factorial(spec[1], spec[2])), spec[2])
    raise InvalidArgumentError(f"unknown factor kind {kind!r}")


@dataclass(frozen=True)
class Contribution:
    """Assembled contribution of one graph: prefactor times a factor product."""

    graph: LocGraph
    lift: Lift
    prefactor: Fraction
    factors: tuple[FactorSpec, ...]
    product: LaurentPoly[SymExpr] = field(compare=False)

    def total(self) -> LaurentPoly[SymExpr]:
        return self.product.scale(self.prefactor)

    def coefficient_at(self, power: int) -> SymExpr:
        return SYM_OPS.scale(self.product.coefficient(power), self.prefactor)


def _prefactor_denominator(graph: LocGraph) -> int:
    slots = [(p.size, p.marks, p.genus) for p in graph.parts]
    denominator = decorated_aut(slots)
    if not graph.has_rubber():
        denominator *= graph.degree
    return denominator


def graph_prefactor(graph: LocGraph) -> Fraction:
    """Automorphism weight; the unexpanded one-part graph also divides by ``d``.

    With a rubber factor present the graph automorphisms permute equal
    decorated parts.  Without one (single part, genus over zero) the edge's
    cyclic deck transformations act as well, contributing ``1/d``.
    """
    return Fraction(1, _prefactor_denominator(graph))


def assemble_contribution(graph: LocGraph, lift: Lift) -> Contribution:
    """Build the exact contribution of one graph under the given lift.

    The full Laurent product is the oracle for :func:`relation_extract`,
    which reads the ``1/t`` coefficient without it, and it backs the frozen
    degree-2 and degree-3 tables.
    """
    specs: list[FactorSpec] = []
    for p in graph.parts:
        if p.genus:
            specs.append(("node", p.size, "genus", _genus_vertex_dim(graph, lift)))
            specs.append(("hodge", lift.genus))
        elif len(p.marks) == 2:
            specs.append(("node", p.size, "rational", 0))
            specs.append(("hodge", 0))
        elif len(p.marks) == 0:
            specs.append(("free", p.size))
        # a part with one mark is a two-special-point vertex: factor 1
    if graph.has_rubber():
        specs.append(("node_inf", _rubber_dim(graph, lift)))
    edge_coeff = Fraction(1)
    for p in graph.parts:
        edge_coeff *= Fraction(p.size**p.size, math.factorial(p.size))
    specs.append(("edge", edge_coeff, -graph.degree))
    if lift.zero_marks:
        specs.append(("ev", len(lift.zero_marks)))
    b0, k = _branch_data(graph, lift)
    if b0 < k:
        raise InvalidArgumentError("graph does not meet the branch twist")
    specs.append(("branch", b0, k))
    product = _scalar(Fraction(1), 0)
    for spec in specs:
        product = product.mul(build_factor(spec))
    return Contribution(graph, lift, graph_prefactor(graph), tuple(specs), product)


def _residue(graph: LocGraph, lift: Lift) -> tuple[dict[Monomial, int], int]:
    """The ``t^-1`` coefficient of the contribution, without its product.

    Every factor but three is a scalar times a power of ``t``: the
    prefactor, the edge coefficient, ``1/size`` per free part, ``size`` per
    two-mark part (with its ``1/t``), ``t`` per lifted mark and the branch
    factor.  The three series are the genus node's (cotangent power ``a``),
    the Hodge class's (index ``j``) and the rubber node's (cotangent power
    ``b``), so the residue is a sum over ``(a, j)`` with ``b`` fixed by the
    power of ``t``.  It is returned as integer numerators over one common
    denominator, so a caller builds a ``Fraction`` only for the monomials it
    keeps; divided out, it equals
    ``assemble_contribution(graph, lift).coefficient_at(-1)``.
    """
    b0, k = _branch_data(graph, lift)
    if b0 < k:
        raise InvalidArgumentError("graph does not meet the branch twist")
    num, den = falling_factorial(b0, k), _prefactor_denominator(graph)
    power = k + len(lift.zero_marks) - graph.degree
    for p in graph.parts:
        num *= p.size**p.size
        den *= math.factorial(p.size)
        if p.genus:
            continue
        if len(p.marks) == 2:
            num *= p.size
            power -= 1
        elif not p.marks:
            den *= p.size
            power += 1
    genus = graph.genus_part()
    # (a, j, coefficient, power of t) of the genus node and Hodge series
    terms: list[tuple[int, int | None, int, int]] = [(0, None, 1, 0)]
    if genus is not None:
        g = lift.genus
        terms = [
            (a, j, genus.size ** (a + 1) * (-1) ** j, g - j - 1 - a)
            for a in range(_genus_vertex_dim(graph, lift) + 1)
            for j in range(g + 1)
        ]
    rubber_cap = _rubber_dim(graph, lift) if graph.has_rubber() else None
    out: dict[Monomial, int] = {}
    for a, j, coeff, shift in terms:
        # the rubber term psi^b t^(-b-1) turns t^b into 1/t
        b = power + shift
        if rubber_cap is None:
            if b == -1:
                out[Monomial(a, 0, 0, j)] = num * coeff
        elif 0 <= b <= rubber_cap:
            out[Monomial(a, 0, b, j)] = num * coeff * (-1) ** (b + 1)
    return out, den


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


def _keep_divisor_term(graph: LocGraph, lift: Lift, mono: Monomial) -> bool:
    """Relevance filter for the divisor lift.

    The inserted Hodge class squares to zero against the vertex's own
    ``hodge_j = 1`` term, a cotangent power at the genus node beyond 1
    pushes into degrees above the relation's, and the rubber side pairs the
    insertion with a degree-one unknown, so only its cotangent-free terms
    stay in degree.
    """
    if mono.psi_rational != 0:
        return False
    if graph.side == "zero":
        if mono.hodge_j != 0:
            return False
        if mono.psi_genus > 1:
            return False
        genus = graph.genus_part()
        if genus is not None and len(genus.marks) == 0 and mono.psi_genus > 0:
            return False
        return True
    return mono.psi_rubber == 0


def _keep_pair_term(graph: LocGraph, lift: Lift, mono: Monomial) -> bool:
    """Socle filter for the pair lift: keep exactly the top-degree terms."""
    if mono.psi_rational != 0:
        return False
    g = lift.genus
    if graph.side == "zero":
        if mono.hodge_j is None or mono.psi_genus + mono.hodge_j != g - 1:
            return False
        if graph.has_rubber() and mono.psi_rubber != len(graph.parts) - 2:
            return False
        return True
    return mono.psi_rubber == 0


def relation_extract(d: int, lift: Lift) -> Relation:
    """Extract the exact relation carried by the ``1/t`` coefficients."""
    if d < lift.branch_twist:
        raise InvalidArgumentError(f"this lift needs degree >= {lift.branch_twist}, got {d}")
    keep = _keep_divisor_term if lift.insertion == "hodge-1" else _keep_pair_term
    terms: dict[LocGraph, dict[Monomial, Fraction]] = {}
    for graph in enumerate_graphs(d, lift):
        numerators, den = _residue(graph, lift)
        kept = {
            mono: Fraction(num, den)
            for mono, num in numerators.items()
            if keep(graph, lift, mono)
        }
        if kept:
            terms[graph] = kept
    return Relation(d, lift, terms)


def relation_by_row(relation: Relation, rows: Sequence[Row]) -> dict[int, dict[tuple[int, int], Fraction]]:
    """Aggregate a divisor-lift relation by display row.

    Keys are ``(psi_genus, psi_rubber)`` pairs; mirror graphs in a row sum.
    """
    graph_to_row = {graph: row.index for row in rows for graph in row.graphs}
    pairs: dict[int, list[tuple[Fraction, dict[tuple[int, int], int]]]] = {}
    for graph, monos in relation.terms.items():
        pairs.setdefault(graph_to_row[graph], []).extend(
            (coeff, {(mono.psi_genus, mono.psi_rubber): 1}) for mono, coeff in monos.items()
        )
    out = {index: combine(terms) for index, terms in pairs.items()}
    return {index: bucket for index, bucket in out.items() if bucket}


def hodge_form_from_graphs(g: int, d: int) -> LinearForm:
    """The Hodge-integral linear form recovered from the pair-lift graphs.

    Independently of :func:`rubbertaut.hodge.hodge_linear_form`, sums the
    genus-over-zero terms (rubber factors integrated out) and normalizes by
    the rubber graph's coefficient.
    """
    lift = lift_pair(g)
    relation = relation_extract(d, lift)
    pairs: list[tuple[Fraction, dict[int, int]]] = []
    rubber_coeff = Fraction(0)
    for graph, monos in relation.terms.items():
        for mono, coeff in monos.items():
            if graph.side == "zero":
                weight = coeff
                if graph.has_rubber():
                    weight *= rubber_psi_integral(graph.partition, (d,))
                assert mono.hodge_j is not None
                pairs.append((weight, {mono.hodge_j: 1}))
            else:
                rubber_coeff += coeff
    if rubber_coeff == 0:
        raise TheoremViolationError(f"no rubber term in the degree-{d} pair relation")
    return {j: -v / rubber_coeff for j, v in combine(pairs).items()}


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
    if not graph.has_rubber():
        if mono.psi_genus == 1:
            return psi1(ctx)
        raise UnsupportedGraphError(
            f"no boundary evaluation for {render_graph(graph)} at {mono}"
        )
    dim_rub = len(graph.parts) - 2
    if mono.psi_rubber == dim_rub:
        scalar = rubber_psi_integral(graph.partition, (graph.degree,))
        if len(genus.marks) == 2 and mono.psi_genus == 1:
            return scalar * psi1(ctx)
        if len(genus.marks) == 1 and mono.psi_genus == 0:
            return scalar * boundary(ctx, genus.marks)
        raise UnsupportedGraphError(
            f"no boundary evaluation for {render_graph(graph)} at {mono}"
        )
    # Unsaturated rubber: the fiber sweeps a boundary stratum only when its
    # dimension matches the stabilized tail's moduli; otherwise it contracts.
    fiber = dim_rub - mono.psi_rubber
    moduli = max(0, _tail_special_points(graph) - 3)
    if fiber != moduli:
        return None
    if (
        len(genus.marks) == 0
        and mono.psi_genus == 0
        and mono.psi_rubber == 0
        and all(len(p.marks) <= 1 for p in graph.parts if not p.genus)
    ):
        return boundary(ctx, ())
    raise UnsupportedGraphError(
        f"no boundary evaluation for {render_graph(graph)} at {mono}"
    )


def _marked_sizes(graph: LocGraph, lift: Lift) -> tuple[str, tuple[int, int]]:
    """Classify a rubber-side graph: joint or split marks, with part sizes."""
    first, second = lift.zero_marks
    joint = [p for p in graph.parts if len(p.marks) == 2]
    if joint:
        others = [p for p in graph.parts if not p.marks]
        if len(graph.parts) != 2 or len(others) != 1:
            raise UnsupportedGraphError(
                f"no rubber evaluation for {render_graph(graph)}"
            )
        return "S", (joint[0].size, others[0].size)
    if len(graph.parts) != 2 or any(len(p.marks) != 1 for p in graph.parts):
        raise UnsupportedGraphError(f"no rubber evaluation for {render_graph(graph)}")
    size_of = {p.marks[0]: p.size for p in graph.parts}
    return "P", (size_of[first], size_of[second])


def evaluate_relation(relation: Relation, ctx: RingContext) -> EvaluatedRelation:
    """Push every term of a divisor-lift relation to the three-mark space."""
    if relation.lift.insertion != "hodge-1":
        raise InvalidArgumentError("only divisor-lift relations evaluate to classes")
    known = [(1, zero_class(ctx))]
    atoms: dict[str, list[tuple[Fraction, dict[tuple[int, int], int]]]] = {"P": [], "S": []}
    for graph, monos in relation.terms.items():
        for mono, coeff in monos.items():
            if graph.side == "zero":
                value = _evaluate_zero_side(graph, mono, ctx)
                if value is not None:
                    known.append((coeff, value))
            else:
                kind, sizes = _marked_sizes(graph, relation.lift)
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
    if d not in (2, 3):
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
    evaluated = evaluate_relation(relation_extract(2, LIFT_DIVISOR), ctx3)

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
    evaluated = evaluate_relation(relation_extract(3, LIFT_DIVISOR), ctx3)
    total, b_weight = _main_relation(
        evaluated, a2, a3, solution.a2p, solution.a3p, solution.bp, "degree-three"
    )
    return Degree3Report(
        base=solution,
        b_again=((-1 / b_weight) * total).reduce(),
        residual=linear_combination(((1, total), (b_weight, solution.b))).reduce(),
    )
