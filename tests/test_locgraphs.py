from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import sys
import threading
from collections.abc import Iterator
from fractions import Fraction

import golden_factors
import pytest

from rubbertaut import cli, goldentables, hurwitz, locgraphs, partitions
from rubbertaut.errors import (
    InvalidArgumentError,
    ResourceLimitError,
    UnsupportedGraphError,
)
from rubbertaut.hodge import MAX_GENUS, hodge_linear_form, n_target, solve_hodge
from rubbertaut.hurwitz import MAX_DEGREE as MAX_COUNT_DEGREE
from rubbertaut.locgraphs import (
    LIFT_DIVISOR,
    Lift,
    LocGraph,
    Monomial,
    Part,
    Relation,
    _genus_vertex_dim,
    _rubber_dim,
    assemble_contribution,
    enumerate_graphs,
    enumerate_rows,
    evaluate_and_solve,
    evaluate_relation,
    graph_prefactor,
    hodge_form_from_graphs,
    lift_pair,
    locus_descriptor,
    mirror_swap,
    relation_by_row,
    relation_extract,
    render_graph,
)
from rubbertaut.partitions import MAX_PARTITION_DEGREE, enumerate_marked, enumerate_partitions
from rubbertaut.tautring import RingContext, boundary, psi1
from rubbertaut.util import combine_ints


@pytest.fixture
def fresh_graph_tables() -> Iterator[None]:
    """Empty the graph, marking, Part and zero-side-sum tables before and
    after the test, so that a doctored helper builds every entry the test
    reads and no doctored entry is left for a later test."""
    tables = locgraphs._GRAPHS, locgraphs._MARKINGS, locgraphs._PARTS, locgraphs._ZERO_SUMS
    for table in tables:
        table.clear()
    yield
    for table in tables:
        table.clear()


# ---------------------------------------------------------------------------
# Graph enumeration
# ---------------------------------------------------------------------------


def _display_key(graph: LocGraph) -> tuple:
    """Display order read off a built graph: partition, side, genus size,
    mark counts, mark placement."""
    genus = graph.genus_part()
    return (
        tuple(-s for s in graph.partition),
        0 if graph.side == "zero" else 1,
        -(genus.size if genus is not None else 0),
        tuple(-len(p.marks) for p in graph.parts),
        tuple(p.marks for p in graph.parts),
    )


def _oracle_graphs(d: int, lift: Lift) -> list[LocGraph]:
    """Every partition, a graph per genus position, deduplicated, then filtered.

    No bound on the number of parts: the branch condition ``B0 >= k`` is
    tested on every graph of every marked partition.
    """
    classes: set[LocGraph] = set()
    for nu in enumerate_partitions(d):
        for slots, _ in enumerate_marked(nu, lift.zero_marks):
            classes.add(LocGraph("infinity", tuple(Part(s, ms) for s, ms in slots)))
            for genus_index in range(len(slots)):
                parts = tuple(
                    Part(s, ms, genus=(i == genus_index)) for i, (s, ms) in enumerate(slots)
                )
                classes.add(LocGraph("zero", parts))
    kept = []
    for graph in classes:
        b0 = (2 * lift.genus if graph.side == "zero" else 0) + d - len(graph.parts)
        if b0 >= d - lift.branch_twist:
            kept.append(graph)
    return sorted(kept, key=_display_key)


_ORACLE_CASES = [(lift_pair(g), d) for g in range(1, 6) for d in range(1, 11)]
_ORACLE_CASES += [(LIFT_DIVISOR, d) for d in range(1, 11)]


def test_enumeration_matches_the_unbounded_oracle() -> None:
    for lift, d in _ORACLE_CASES:
        assert enumerate_graphs(d, lift) == _oracle_graphs(d, lift), (lift, d)


def _table_walk(d: int, lift: Lift) -> Iterator[tuple]:
    """Every ``_GRAPHS`` entry of degree ``d`` under ``lift``, partition by
    partition, as ``(graph, b0, num, den, power, genus, rubber_cap)``, with
    ``B0`` and the rubber cap by their own formula, as ``_residue`` and
    ``_oracle_graphs`` take them, not production's ``_branch_weights``:
    ``B0 = (2g if zero side else 0) + d - l``, and the cap ``l - 2`` (-1 for
    one part, no rubber) over zero, ``2g - 2 + l`` over infinity."""
    g, twist = lift.genus, lift.branch_twist
    for nu in enumerate_partitions(d, 2 * g + twist):
        l = len(nu)
        for graph, num, den, power, genus in locgraphs._GRAPHS[nu, twist, lift.zero_marks]:
            zero = genus is not None
            b0, rubber_cap = (2 * g if zero else 0) + d - l, l - 2 if zero else 2 * g - 2 + l
            yield graph, b0, num, den, power, genus, rubber_cap


_CANONICAL_CASES = [(lift_pair(g), d) for g in range(1, 6) for d in range(1, 13)]
_CANONICAL_CASES += [(LIFT_DIVISOR, d) for d in range(1, 13)]


def test_built_graphs_are_canonical_and_in_display_order() -> None:
    """The graph pass builds each graph's parts in canonical order without
    sorting them: every graph equals and hashes as the public constructor's,
    and the graphs come in the retired display sort's order (``_display_key``)."""
    checked = 0
    for lift, d in _CANONICAL_CASES:
        graphs = [data[0] for data in _table_walk(d, lift)]
        for graph in graphs:
            rebuilt = LocGraph(graph.side, graph.parts)
            assert graph == rebuilt and hash(graph) == hash(rebuilt), render_graph(graph)
        assert graphs == sorted(graphs, key=_display_key), (lift, d)
        checked += len(graphs)
    assert checked == 5443


def test_part_marks_are_every_canonical_placement_once() -> None:
    """Every map of up to three labels to the parts, with each run of tied
    parts put in canonical order, gives one placement of ``_part_marks``,
    which lists each once in display order: three labels are the first
    count whose walk leaves a tied run out of order."""
    for l in range(1, 5):
        for ties in itertools.product((False, True), repeat=l - 1):
            tied = (False, *ties)
            for labels in ((), (2,), (2, 3), (2, 3, 4)):
                expected = set()
                for spots in itertools.product(range(l), repeat=len(labels)):
                    marks = [tuple(m for m, spot in zip(labels, spots) if spot == i) for i in range(l)]
                    for i in range(1, l):  # insertion sort within each tied run
                        j = i
                        while j and tied[j] and (-len(marks[j]), marks[j]) < (-len(marks[j - 1]), marks[j - 1]):
                            marks[j - 1], marks[j] = marks[j], marks[j - 1]
                            j -= 1
                    expected.add(tuple(marks))
                placements = locgraphs._part_marks(tied, labels)
                assert len(placements) == len(expected) and set(map(tuple, placements)) == expected, (tied, labels)
                assert placements == sorted(placements, key=lambda ms: (tuple(-len(m) for m in ms), ms))


def _residue(graph: LocGraph, lift: Lift) -> tuple[dict[Monomial, int], int]:
    """The part of the ``t^-1`` coefficient the relation keeps, read off one
    built graph without the Laurent product: the oracle for the relation's
    slot-data pass.

    Every factor but three is a scalar times a power of ``t``: the
    prefactor, the edge coefficient, ``1/size`` per free part, ``size`` per
    two-mark part (with its ``1/t``), ``t`` per lifted mark and the branch
    factor.  The three series are the genus node's (cotangent power ``a``),
    the Hodge class's (index ``j``) and the rubber node's (cotangent power
    ``b``), with ``b`` fixed by the power of ``t``.  The relation's degree
    fixes the genus-vertex terms, so the walk visits only ``(a, 0)`` with
    ``a <= min(1, m)`` (``m`` marks on the genus part) on the divisor lift
    and the top-degree ``(a, g - 1 - a)``, ``a < g``, on the pair lift.  The
    result is integer numerators over one denominator.
    """
    b0 = (2 * lift.genus if graph.side == "zero" else 0) + graph.degree - len(graph.parts)
    k = graph.degree - lift.branch_twist
    num, den = math.perm(b0, k), graph_prefactor(graph).denominator
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
        if lift.divisor:
            domain = [(a, 0) for a in range(min(1, len(genus.marks)) + 1)]
        else:
            domain = [(a, g - 1 - a) for a in range(g)]
        terms = [
            (a, j, genus.size ** (a + 1) * (-1) ** j, g - j - 1 - a) for a, j in domain
        ]
    rubber_cap = _rubber_dim(graph, lift) if graph.has_rubber() else None
    out: dict[Monomial, int] = {}
    for a, j, coeff, shift in terms:
        # the rubber term psi^b t^(-b-1) turns t^b into 1/t
        b = power + shift
        if rubber_cap is None:
            if b == -1:
                out[Monomial(a, 0, j)] = num * coeff
        elif 0 <= b <= rubber_cap:
            out[Monomial(a, b, j)] = num * coeff * (-1) ** (b + 1)
    return out, den


def _residue_fractions(graph: LocGraph, lift: Lift) -> dict[Monomial, Fraction]:
    numerators, den = _residue(graph, lift)
    return {mono: Fraction(num, den) for mono, num in numerators.items()}


def _check_relation_against_the_residue_oracle(cases: list[tuple[Lift, int]]) -> int:
    """``relation_extract`` against ``_residue`` on every graph of the
    unbounded enumeration: graph order, monomial order and exact values.
    Returns the number of graphs checked."""
    checked = 0
    for lift, d in cases:
        expected = []
        for graph in _oracle_graphs(d, lift):
            residue = _residue_fractions(graph, lift)
            if residue:
                expected.append((graph, list(residue.items())))
            checked += 1
        terms = relation_extract(d, lift).terms
        assert [(g, list(m.items())) for g, m in terms.items()] == expected, (lift, d)
    return checked


_RESIDUE_CASES = [(lift_pair(g), d) for g in range(1, 9) for d in range(1, 11)]
_RESIDUE_CASES += [(LIFT_DIVISOR, d) for d in range(2, 11)]
_RESIDUE_CASES += [(lift_pair(24), 16), (LIFT_DIVISOR, 16)]


def test_relation_matches_the_residue_oracle_on_every_graph() -> None:
    # The slot-data pass reads each graph's scalars off its marked
    # partition; the oracle reads them off the built graph.
    assert _check_relation_against_the_residue_oracle(_RESIDUE_CASES) == 6198


def test_the_residue_oracle_catches_a_dropped_two_mark_size(
    monkeypatch: pytest.MonkeyPatch, fresh_graph_tables: None
) -> None:
    """A two-mark part that loses its ``size`` factor fails the oracle once
    such a part is larger than 1 (degree 3 on)."""
    honest = locgraphs._slot_factor

    def doctored(size: int, marks: tuple[int, ...]) -> tuple[int, int, int]:
        return (1, 1, -1) if len(marks) == 2 else honest(size, marks)

    monkeypatch.setattr(locgraphs, "_slot_factor", doctored)
    for d in (3, 4):
        with pytest.raises(AssertionError):
            _check_relation_against_the_residue_oracle([(LIFT_DIVISOR, d)])


def test_the_checks_catch_a_doctored_graph_table_entry(
    capsys: pytest.CaptureFixture[str], fresh_graph_tables: None
) -> None:
    """One graph-table entry's numerator off by one (``3^g+1``, pair lift,
    degree 4) fails the residue oracle and verify-all's graph-sum cross-check."""
    enumerate_graphs(4, lift_pair(1))
    key = ((3, 1), 1, ())
    (graph, num, *rest), *others = locgraphs._GRAPHS[key]
    assert render_graph(graph) == "3^g+1"
    locgraphs._GRAPHS[key] = ((graph, num + 1, *rest), *others)
    with pytest.raises(AssertionError):
        _check_relation_against_the_residue_oracle([(lift_pair(1), 4)])
    code = cli.main(["verify-all", "--g-max", "2", "--d-max", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL hodge: graph-sum-cross-check-g<=2-d<=5 — graph sum differs from the closed form at g=1, d=4"
    ]


def test_the_checks_catch_a_doctored_rubber_integral(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    """The two-part rubber integral off by one at degree 3 (first read by the
    graph sums at genus 1 and by the degree-3 divisor relation) fails exactly
    the two checks that read it: the graph-sum cross-check and the divisor
    solve."""
    rubber_integral = locgraphs._rubber_integral
    assert rubber_integral(2, 3) == hurwitz.rubber_psi_integral((2, 1), (3,))
    monkeypatch.setattr(locgraphs, "_rubber_integral", lambda l, d: rubber_integral(l, d) + ((l, d) == (2, 3)))
    code = cli.main(["verify-all", "--g-max", "2", "--d-max", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL hodge: graph-sum-cross-check-g<=2-d<=5 — graph sum differs from the closed form at g=1, d=3",
        "FAIL divisors: degree-2-solve-and-degree-3-residual — degree-3 residual is not zero",
    ]


def test_the_rubber_integral_is_the_one_part_closed_form() -> None:
    """Every partition of two parts or more within the partition-sum cap
    gets the integer that the Hurwitz layer's rubber integral gives."""
    for d in range(2, MAX_PARTITION_DEGREE + 1):
        for nu in enumerate_partitions(d):
            if len(nu) > 1:
                value = locgraphs._rubber_integral(len(nu), d)
                assert type(value) is int
                assert value == hurwitz.rubber_psi_integral(nu, (d,)), nu


def test_every_genus_reads_one_graph_table_entry_per_partition(fresh_graph_tables: None) -> None:
    """The genus only widens the partitions read: genus 1..5 at degree 9
    add the pair-lift entries of ``2g + 1`` parts at most, p(9) = 30 in all,
    and a lower genus yields the very graphs of a higher one."""
    sizes = []
    for g in range(1, 6):
        relation_extract(9, lift_pair(g))
        sizes.append(len(locgraphs._GRAPHS))
    assert sizes == [len(enumerate_partitions(9, 2 * g + 1)) for g in range(1, 6)]
    assert set(locgraphs._GRAPHS) == {(nu, 1, ()) for nu in enumerate_partitions(9)}
    assert sizes[-1] == 30
    built = {id(graph) for graph in enumerate_graphs(9, lift_pair(5))}
    assert all(id(graph) in built for graph in enumerate_graphs(9, lift_pair(1)))
    assert len(locgraphs._GRAPHS) == 30


def test_the_graph_tables_stay_within_their_bound(fresh_graph_tables: None) -> None:
    """verify-all's graph checks at the genus and partition caps, plus every
    divisor-lift degree, fill one entry per partition and lift shape: 914
    pair and 358 divisor entries, and one zero-side sum per degree and part
    count.  A key holding the genus would not."""
    cli._check_hodge_engine(MAX_GENUS, MAX_PARTITION_DEGREE)
    cli._check_tables()
    cli._check_pair_totals(MAX_PARTITION_DEGREE)
    cli._check_divisor_solve()
    for d in range(1, MAX_PARTITION_DEGREE + 1):
        enumerate_graphs(d, LIFT_DIVISOR)
    degrees = range(1, MAX_PARTITION_DEGREE + 1)
    pair = {(nu, 1, ()) for d in degrees for nu in enumerate_partitions(d)}
    divisor = {(nu, 2, (2, 3)) for d in degrees for nu in enumerate_partitions(d, 4)}
    assert (len(pair), len(divisor)) == (914, 358)
    assert set(locgraphs._GRAPHS) == pair | divisor
    assert len(locgraphs._GRAPHS) == 1272
    assert sum(map(len, locgraphs._GRAPHS.values())) == 11140  # 2,471 pair, 8,669 divisor
    assert (len(locgraphs._MARKINGS), len(locgraphs._PARTS)) == (221, 124)
    # the cross-check's zero-side sums: one entry per degree and part count
    assert set(locgraphs._ZERO_SUMS) == {(d, l) for d in degrees for l in range(1, d + 1)}
    assert len(locgraphs._ZERO_SUMS) == 136


def _sha256_of_reprs(items: Iterator) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


def test_the_graph_layer_outputs_are_frozen(fresh_graph_tables: None) -> None:
    """The graph-table entries at the partition cap, the placements they fill
    and the relations read off them hash to frozen values (sha256 over the
    ``repr`` of each item in turn), so any rebuild of how the tables are
    filled or walked must reproduce them byte for byte."""
    keys = [(nu, 1, ()) for d in range(1, 17) for nu in enumerate_partitions(d)]
    keys += [(nu, 2, (2, 3)) for d in range(2, 17) for nu in enumerate_partitions(d, 4)]
    entries = [locgraphs._GRAPHS[key] for key in keys]
    assert (len(entries), sum(map(len, entries))) == (1271, 11138)
    assert _sha256_of_reprs(entries) == "e2704f087bebc8ba5079f3e9c3c2f3ce7be2f94f4253297e525b83262dc2e324"
    markings = [(key, locgraphs._MARKINGS[key]) for key in sorted(locgraphs._MARKINGS)]
    assert len(markings) == 221
    assert _sha256_of_reprs(markings) == "70eef76c51a4b51e54699ca0f083c10f12348c0ded093fffd50dfdc01f513fce"
    relations = [relation_extract(d, lift_pair(g)).terms for g in range(1, 6) for d in range(1, 14)]
    relations += [relation_extract(d, LIFT_DIVISOR).terms for d in range(2, 14)]
    assert _sha256_of_reprs(relations) == "0d09b808aa800df7a6848a44b94a9c2b14920f965e22632cb53125551bdeb60b"


def test_table_graphs_are_the_constructors_graphs(fresh_graph_tables: None) -> None:
    """Every table graph at the partition cap, built past the constructor's
    checks, is a ``LocGraph`` that equals and hashes as the constructor's;
    graphs and parts are immutable."""
    for d in range(1, MAX_PARTITION_DEGREE + 1):
        enumerate_graphs(d, lift_pair(MAX_GENUS))
        enumerate_graphs(d, LIFT_DIVISOR)
    graphs = [graph for entry in locgraphs._GRAPHS.values() for graph, *_ in entry]
    assert len(graphs) == 11140
    for graph in graphs:
        rebuilt = LocGraph(graph.side, graph.parts)
        assert type(graph) is LocGraph and graph == rebuilt and hash(graph) == hash(rebuilt), graph
    for obj, field in ((graphs[0], "side"), (graphs[0], "parts"), (graphs[0].parts[0], "size")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))


def test_threads_build_one_consistent_table(fresh_graph_tables: None) -> None:
    """Threads filling the same degrees in shuffled orders extract equal
    relations and graph-sum forms, every graph holds the interned parts, and
    every entry equals a single-threaded rebuild."""
    cases = [(lift_pair(g), d) for g in (1, 2, 3) for d in range(1, 10)]
    cases += [(LIFT_DIVISOR, d) for d in range(2, 10)]
    results: list[dict] = [{} for _ in range(4)]  # more threads than cores

    def extract_all(k: int) -> None:
        order = cases[:]
        random.Random(k).shuffle(order)
        for lift, d in order:
            results[k][lift, d] = [(g, list(m.items())) for g, m in relation_extract(d, lift).terms.items()]
            if not lift.divisor:
                results[k][lift.genus, d] = list(hodge_form_from_graphs(lift.genus, d).items())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extract_all, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == results[0] for result in results)
    tables = locgraphs._GRAPHS, locgraphs._MARKINGS, locgraphs._PARTS, locgraphs._ZERO_SUMS
    parts = [part for entry in locgraphs._GRAPHS.values() for graph, *_ in entry for part in graph.parts]
    assert all(part is locgraphs._PARTS[part.size, part.marks, part.genus] for part in parts)
    # Every entry equals the one a single thread builds over the same cases.
    threaded = [dict(table) for table in tables]
    for table in tables:
        table.clear()
    extract_all(0)
    assert [dict(table) for table in tables] == threaded
    assert all(result == results[0] for result in results)


def _retired_keep_divisor_term(graph: LocGraph, mono: Monomial) -> bool:
    """The divisor lift's retired post-walk filter, kept as the oracle.

    The inserted Hodge class kills the vertex's own ``hodge_j = 1`` term, a
    cotangent power at the genus node beyond 1 (or any, on a mark-free
    genus part) leaves the relation's degree, and the rubber side keeps
    only its cotangent-free terms.
    """
    if graph.side == "zero":
        if mono.hodge_j != 0 or mono.psi_genus > 1:
            return False
        genus = graph.genus_part()
        return not (genus is not None and not genus.marks and mono.psi_genus > 0)
    return mono.psi_rubber == 0


def _retired_keep_pair_term(graph: LocGraph, lift: Lift, mono: Monomial) -> bool:
    """The pair lift's retired socle filter, kept as the oracle."""
    if graph.side == "zero":
        if mono.hodge_j is None or mono.psi_genus + mono.hodge_j != lift.genus - 1:
            return False
        return not graph.has_rubber() or mono.psi_rubber == len(graph.parts) - 2
    return mono.psi_rubber == 0


def _retired_filter(
    graph: LocGraph, lift: Lift, terms: dict[Monomial, Fraction]
) -> dict[Monomial, Fraction]:
    """``terms`` restricted to the monomials the retired keep filters pass."""
    if lift.divisor:
        return {m: c for m, c in terms.items() if _retired_keep_divisor_term(graph, m)}
    return {m: c for m, c in terms.items() if _retired_keep_pair_term(graph, lift, m)}


def _filtered_laurent(graph: LocGraph, lift: Lift) -> dict[Monomial, Fraction]:
    """The ``1/t`` coefficient of the full Laurent product, through the retired filters."""
    return _retired_filter(graph, lift, assemble_contribution(graph, lift).total().coefficient(-1))


def test_relation_keeps_the_filtered_residue_of_every_graph() -> None:
    # The walk visits only monomials the retired filters keep, and the
    # relation holds every graph with a nonempty residue, in graph order.
    for lift, d in _ORACLE_CASES:
        if d < lift.branch_twist:
            continue
        expected = {}
        for graph in _oracle_graphs(d, lift):
            residue = _residue_fractions(graph, lift)
            kept = _retired_filter(graph, lift, residue)
            assert kept == residue, (render_graph(graph), lift)
            if kept:
                expected[graph] = kept
        terms = relation_extract(d, lift).terms
        assert [(g, list(m.items())) for g, m in terms.items()] == [
            (g, list(m.items())) for g, m in expected.items()
        ], (lift, d)


def _check_walk_against_the_laurent_product(cases: list[tuple[Lift, int]]) -> int:
    """``_residue`` per graph and ``relation_extract`` per degree against the
    filtered Laurent coefficient; returns the number of graphs checked."""
    checked = 0
    for lift, d in cases:
        expected = {}
        for graph in _oracle_graphs(d, lift):
            kept = _filtered_laurent(graph, lift)
            assert _residue_fractions(graph, lift) == kept, (render_graph(graph), lift)
            if kept:
                expected[graph] = kept
            checked += 1
        terms = relation_extract(d, lift).terms
        assert list(terms) == list(expected), (lift, d)
        assert terms == expected, (lift, d)
    return checked


_WALK_CASES = [(LIFT_DIVISOR, d) for d in range(2, 10)]
_WALK_CASES += [(lift_pair(g), d) for g in range(1, 5) for d in range(1, 10)]


def test_residue_walk_matches_the_laurent_product() -> None:
    # The full Laurent product through the retired keep filters is the
    # oracle for the walk and for the relation built from it.
    assert _check_walk_against_the_laurent_product(_WALK_CASES) == 1688


def test_the_laurent_oracle_catches_a_short_pair_walk(
    monkeypatch: pytest.MonkeyPatch, fresh_graph_tables: None
) -> None:
    """A pair walk over ``a < g - 1`` instead of ``a < g`` fails the oracle
    and the graph-sum cross-check."""
    honest = locgraphs._genus_walk

    def doctored(lift: Lift, size: int, marks: int) -> list[tuple[int, int, int, int]]:
        walk = honest(lift, size, marks)
        return walk if lift.divisor else [term for term in walk if term[0] < lift.genus - 1]

    monkeypatch.setattr(locgraphs, "_genus_walk", doctored)
    with pytest.raises(AssertionError):
        _check_walk_against_the_laurent_product([(lift_pair(2), 3)])
    assert hodge_form_from_graphs(2, 3) != hodge_linear_form(2, 3)


def _retired_pole_terms(d: int, lift: Lift) -> Iterator[tuple]:
    """The retired generator under ``relation_extract``, kept as the oracle:
    ``(graph, den, {monomial: numerator})`` of every graph that keeps a
    ``1/t`` term, one ``_pole_sign`` call per walk term."""
    if d < lift.branch_twist:
        raise InvalidArgumentError(f"this lift needs degree >= {lift.branch_twist}, got {d}")
    k = d - lift.branch_twist
    walks = {None: [(0, None, 1, 0)]}
    for graph, b0, num, den, power, genus, rubber_cap in _table_walk(d, lift):
        if genus not in walks:
            walks[genus] = locgraphs._genus_walk(lift, *genus)
        num *= math.perm(b0, k)
        kept = {}
        for a, j, coeff, genus_power in walks[genus]:
            b = power + genus_power
            if sign := locgraphs._pole_sign(b, rubber_cap):
                kept[Monomial(a, max(b, 0), j)] = num * coeff * sign
        if kept:
            yield graph, den, kept


def _retired_relation_extract(d: int, lift: Lift) -> Relation:
    """The retired ``relation_extract``: each graph's pole terms over its denominator."""
    terms = {graph: {m: Fraction(n, den) for m, n in kept.items()} for graph, den, kept in _retired_pole_terms(d, lift)}
    return Relation(d, lift, terms)


def _retired_hodge_form_from_graphs(g: int, d: int) -> dict[int, Fraction]:
    """The retired per-graph ``hodge_form_from_graphs``: every graph of every
    call, its sign and branch factor at this genus, summed per genus part."""
    lift = lift_pair(g)
    k = d - lift.branch_twist
    pairs: list[tuple] = []
    rubber_coeff = Fraction(0)
    for graph, b0, num, den, power, genus, rubber_cap in _table_walk(d, lift):
        sign = locgraphs._pole_sign(power, rubber_cap)
        if not sign:
            continue
        term = sign * num * math.perm(b0, k)
        if genus is None:
            rubber_coeff += Fraction(term, den)
            continue
        l = len(graph.parts)
        pairs.append((1, den, {genus: term * locgraphs._rubber_integral(l, d) if l > 1 else term}))
    common, weights = combine_ints(pairs)
    _, sums = combine_ints(
        (weight, 1, {j: coeff for _, j, coeff, _ in locgraphs._genus_walk(lift, *genus)})
        for genus, weight in weights.items()
    )
    return {j: Fraction(-num, common) / rubber_coeff for j, num in sums.items()}


_RETIRED_RELATION_CASES = [
    (lift_pair(g), d) for g in (1, 2, 3, 5, MAX_GENUS) for d in range(1, MAX_PARTITION_DEGREE + 1)
]
_RETIRED_RELATION_CASES += [(LIFT_DIVISOR, d) for d in range(2, MAX_PARTITION_DEGREE + 1)]


def test_relations_match_the_retired_pole_walk() -> None:
    """Terms, values and key order, graph by graph and monomial by monomial."""
    for lift, d in _RETIRED_RELATION_CASES:
        ours, retired = relation_extract(d, lift).terms, _retired_relation_extract(d, lift).terms
        assert [(g, list(m.items())) for g, m in ours.items()] == [
            (g, list(m.items())) for g, m in retired.items()
        ], (lift, d)


def test_forms_match_the_retired_per_graph_sum(fresh_graph_tables: None) -> None:
    """Every graph-sum form at the genus and partition caps, key order too,
    with the zero-side sums filled first by the top genus, then by genus 1
    (after the tables are emptied)."""
    for genera in (range(MAX_GENUS, 0, -1), range(1, MAX_GENUS + 1)):
        locgraphs._ZERO_SUMS.clear()
        for g in genera:
            for d in range(1, MAX_PARTITION_DEGREE + 1):
                expected = list(_retired_hodge_form_from_graphs(g, d).items())
                assert list(hodge_form_from_graphs(g, d).items()) == expected, (g, d)


def _retired_genus_vertex_dim(graph: LocGraph, lift: Lift) -> int:
    """The per-insertion branch the moduli formula replaced."""
    genus = graph.genus_part()
    assert genus is not None
    if lift.divisor:
        return 1 + len(genus.marks)
    return 3 * lift.genus - 2


def _retired_rubber_dim(graph: LocGraph, lift: Lift) -> int:
    """The per-insertion branch the moduli formula replaced."""
    if graph.side == "zero":
        return len(graph.parts) - 2
    if lift.divisor:
        return len(graph.parts)
    return 2 * lift.genus - 1


def test_dimensions_from_the_moduli_match_the_retired_branches() -> None:
    cases = [(lift_pair(g), d) for g in range(1, 7) for d in range(1, 11)]
    cases += [(LIFT_DIVISOR, d) for d in range(1, 11)]
    checked = 0
    for lift, d in cases:
        for graph in enumerate_graphs(d, lift):
            if graph.genus_part() is not None:
                assert _genus_vertex_dim(graph, lift) == _retired_genus_vertex_dim(graph, lift)
            if graph.has_rubber():
                assert _rubber_dim(graph, lift) == _retired_rubber_dim(graph, lift)
            checked += 1
    assert checked == 3046


def test_divisor_lift_enumeration_counts() -> None:
    expected = {
        LIFT_DIVISOR: [2, 8, 19, 39, 69, 113, 173, 252, 352],
        lift_pair(1): [2, 3, 5, 7, 10, 13, 17, 21, 26],
        lift_pair(3): [2, 3, 5, 8, 13, 20, 31, 45, 65],
    }
    for lift, counts in expected.items():
        assert [len(enumerate_graphs(d, lift)) for d in range(1, 10)] == counts
    rows2 = enumerate_rows(2, LIFT_DIVISOR)
    rows3 = enumerate_rows(3, LIFT_DIVISOR)
    assert [row.index for row in rows2] == list(range(1, 8))
    assert [row.index for row in rows3] == list(range(1, 17))


def test_divisor_lift_row_labels_are_stable() -> None:
    rows = enumerate_rows(3, LIFT_DIVISOR)
    labels = [[render_graph(g) for g in row.graphs] for row in rows]
    assert labels == [
        ["3^g{2,3}"],
        ["3{2,3}"],
        ["2^g{2,3}+1"],
        ["2^g{2}+1{3}", "2^g{3}+1{2}"],
        ["2^g+1{2,3}"],
        ["2{2,3}+1^g"],
        ["2{2}+1^g{3}", "2{3}+1^g{2}"],
        ["2+1^g{2,3}"],
        ["2{2,3}+1"],
        ["2{2}+1{3}"],
        ["2{3}+1{2}"],
        ["2+1{2,3}"],
        ["1^g{2,3}+1+1"],
        ["1^g{2}+1{3}+1", "1^g{3}+1{2}+1"],
        ["1^g+1{2,3}+1"],
        ["1^g+1{2}+1{3}"],
    ]


def test_mirror_pairs_merge_only_over_zero() -> None:
    rows = enumerate_rows(3, LIFT_DIVISOR)
    by_index = {row.index: row for row in rows}
    assert len(by_index[4].graphs) == 2
    assert mirror_swap(by_index[4].graphs[0], LIFT_DIVISOR) == by_index[4].graphs[1]
    # The rubber-side mirror placements stay separate rows.
    assert len(by_index[10].graphs) == 1
    assert len(by_index[11].graphs) == 1
    assert mirror_swap(by_index[10].graphs[0], LIFT_DIVISOR) == by_index[11].graphs[0]


def test_graph_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        LocGraph("zero", (Part(2, (2, 3), False), Part(1, (), False)))
    with pytest.raises(InvalidArgumentError):
        LocGraph(
            "infinity", (Part(2, (2, 3), True), Part(1, (), False))
        )
    with pytest.raises(InvalidArgumentError):
        LocGraph("sideways", (Part(2, (2, 3), True),))
    # no part would be a graph of degree 0
    with pytest.raises(InvalidArgumentError):
        LocGraph("infinity", ())


@pytest.mark.parametrize(
    "part",
    [
        Part(2, (3, 2), True),
        Part(2, (2, 2), True),
        Part(2, [2, 3], True),
        Part(0, (2, 3), True),
        Part(-1, (2, 3), True),
        Part(2.0, (2, 3), True),
        (2, (2, 3), True),
        Part(2, (4,), True),
        Part(True, (2, 3), True),
        Part(2, (2, 3), 1),
        Part(2, (-5,), True),
        Part(2, (0,), True),
        Part(2, (2.5,), True),
    ],
    ids=[
        "unsorted-marks", "repeated-mark", "list-marks", "size-zero", "negative-size", "float-size", "tuple",
        "mark-on-two-parts", "bool-size", "int-genus", "negative-mark", "zero-mark", "float-mark",
    ],
)
def test_graph_parts_are_validated(part: object) -> None:
    # (3, 2) would never equal the canonical (2, 3) graph, so a lookup in a
    # relation's terms would miss it without an error.
    with pytest.raises(InvalidArgumentError):
        LocGraph("zero", (part, Part(1, (4,))))
    assert LocGraph("zero", (Part(2, (2, 3), True), Part(1))).parts[0].marks == (2, 3)


@pytest.mark.parametrize(
    "genus, divisor",
    [(0, False), (-1, False), (0, True), (2, True), (True, False), (1, 1)],
    ids=["0-pair", "-1-pair", "0-divisor", "2-divisor", "bool-genus", "int-divisor"],
)
def test_lift_validation(genus: int, divisor: bool) -> None:
    """The divisor lift exists in genus one only; every lift needs genus >= 1,
    an integer that is not a bool, and a bool divisor flag."""
    with pytest.raises(InvalidArgumentError):
        Lift(genus, divisor=divisor)


def test_a_lift_of_non_integer_genus_is_refused() -> None:
    for build in (Lift, lift_pair, lambda g: relation_extract(3, Lift(g))):
        with pytest.raises(InvalidArgumentError, match="genus must be an integer"):
            build(2.0)


def test_lifts_derive_their_marks_and_twist() -> None:
    assert LIFT_DIVISOR == Lift(1, divisor=True)
    assert (LIFT_DIVISOR.zero_marks, LIFT_DIVISOR.branch_twist) == ((2, 3), 2)
    assert lift_pair(3) == Lift(3)
    assert (lift_pair(3).zero_marks, lift_pair(3).branch_twist) == ((), 1)


def test_lifts_refuse_a_genus_past_the_cap() -> None:
    assert lift_pair(MAX_GENUS).genus == MAX_GENUS
    for build in (Lift, lift_pair, lambda g: hodge_form_from_graphs(g, 2)):
        with pytest.raises(ResourceLimitError, match=f"genus {MAX_GENUS + 1} exceeds the genus cap"):
            build(MAX_GENUS + 1)


def _refuse_partitions(monkeypatch: pytest.MonkeyPatch) -> None:
    """Let the graph layer reach the partition-sum cap check, and no further."""

    def no_partitions(n: int, *args: object) -> None:
        partitions._check_partition_degree(n)
        raise AssertionError("a partition was listed for a refused degree")

    monkeypatch.setattr(locgraphs, "enumerate_partitions", no_partitions)


def test_graph_sums_are_refused_past_the_partition_cap_before_any_partition() -> None:
    assert enumerate_graphs(MAX_PARTITION_DEGREE, lift_pair(1))
    message = "exceeds the partition-sum cap"
    for d in (MAX_PARTITION_DEGREE + 1, 10**6):
        for lift in (LIFT_DIVISOR, lift_pair(MAX_GENUS)):
            # the listing the graphs are built from refuses at once
            with pytest.raises(ResourceLimitError, match=f"degree {d} {message}"):
                enumerate_partitions(d, 2 * lift.genus + lift.branch_twist)
            with pytest.raises(ResourceLimitError, match=f"degree {d} {message} {MAX_PARTITION_DEGREE}"):
                enumerate_graphs(d, lift)
            with pytest.raises(ResourceLimitError, match=f"degree {d} {message}"):
                relation_extract(d, lift)
            with pytest.raises(ResourceLimitError, match=f"degree {d} {message}"):
                enumerate_rows(d, lift)


def test_graph_form_runs_past_the_count_cap_to_the_partition_cap() -> None:
    for g in (1, 2, MAX_GENUS):
        for d in range(MAX_COUNT_DEGREE + 1, MAX_PARTITION_DEGREE + 1):
            assert hodge_form_from_graphs(g, d) == hodge_linear_form(g, d)


def test_graph_form_is_refused_past_the_partition_cap_before_any_partition(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    _refuse_partitions(monkeypatch)
    for d in (MAX_PARTITION_DEGREE + 1, 10**6):
        with pytest.raises(
            ResourceLimitError, match=f"degree {d} exceeds the partition-sum cap {MAX_PARTITION_DEGREE}"
        ):
            hodge_form_from_graphs(MAX_GENUS, d)


def test_the_graph_layer_never_walks_the_hurwitz_state_graph(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def no_walk(*args: object) -> None:
        raise AssertionError("the graph layer walked the Hurwitz state graph")

    monkeypatch.setattr(hurwitz, "_count_tuples", no_walk)
    for g in (1, 2, 3):
        for d in range(1, 10):
            assert hodge_form_from_graphs(g, d) == hodge_linear_form(g, d)
    assert evaluate_and_solve(2).anchor == 1
    assert evaluate_and_solve(3).residual.is_zero()


def test_relation_extract_rejects_degrees_below_the_twist() -> None:
    with pytest.raises(InvalidArgumentError, match="degree must be >= 2, got 1"):
        relation_extract(1, LIFT_DIVISOR)
    with pytest.raises(InvalidArgumentError, match="degree must be >= 1, got 0"):
        relation_extract(0, lift_pair(2))
    assert relation_extract(2, LIFT_DIVISOR).terms


def test_assembly_rejects_a_degree_below_the_twist() -> None:
    """At d = 1 the divisor lift's twist exponent ``k = d - 2`` is negative."""
    graphs = enumerate_graphs(1, LIFT_DIVISOR)
    assert graphs
    for graph in graphs:
        with pytest.raises(InvalidArgumentError, match="does not meet the branch twist"):
            assemble_contribution(graph, LIFT_DIVISOR)


def test_graph_accessors() -> None:
    graph = LocGraph("zero", (Part(1, (), False), Part(2, (2, 3), True)))
    assert graph.degree == 3
    assert graph.partition == (2, 1)
    assert graph.genus_part() == Part(2, (2, 3), True)
    assert graph.has_rubber()
    one_part = LocGraph("zero", (Part(2, (2, 3), True),))
    assert not one_part.has_rubber()


# ---------------------------------------------------------------------------
# Frozen tables: prefactor, multiplicity, locus, full factor product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_assembled_rows_match_frozen_tables(d: int) -> None:
    rows = enumerate_rows(d, LIFT_DIVISOR)
    table = goldentables.TABLE_D2 if d == 2 else goldentables.TABLE_D3
    assert len(rows) == len(table)
    for row, golden in zip(rows, table):
        assert render_graph(row.representative) == golden.label
        assert assemble_contribution(row.representative, LIFT_DIVISOR).prefactor == golden.prefactor
        assert row.multiplicity == golden.multiplicity
        assert locus_descriptor(row.representative, LIFT_DIVISOR) == golden.locus
    assert golden_factors.mismatched_rows(d) == []


@pytest.mark.parametrize(
    "d, index, literal, doctored",
    [
        (2, 1, 1, ("rat", Fraction(3), -2)),
        (2, 7, 0, ("rat", Fraction(1), 0)),
        (3, 5, 1, ("node", 1, "N")),
        (3, 14, 3, ("hodge1", 2)),
    ],
)
def test_the_product_comparison_catches_a_doctored_cell(
    monkeypatch: pytest.MonkeyPatch, d: int, index: int, literal: int, doctored: tuple
) -> None:
    cell = list(golden_factors.FACTORS[d][index])
    assert cell[literal] != doctored
    cell[literal] = doctored
    monkeypatch.setitem(golden_factors.FACTORS[d], index, tuple(cell))
    assert golden_factors.mismatched_rows(d) == [index]


@pytest.mark.parametrize("d, silent", golden_factors.NONCONTRIBUTING.items())
def test_noncontributing_rows_have_no_residue(d: int, silent: frozenset[int]) -> None:
    rows = enumerate_rows(d, LIFT_DIVISOR)
    for row in rows:
        for graph in row.graphs:
            laurent = assemble_contribution(graph, LIFT_DIVISOR).total().coefficient(-1)
            residue = _residue_fractions(graph, LIFT_DIVISOR)
            assert residue == _filtered_laurent(graph, LIFT_DIVISOR)
            assert (laurent == {}) == (residue == {}) == (row.index in silent)


def test_degree_two_relation_coefficients() -> None:
    by_row = relation_by_row(relation_extract(2, LIFT_DIVISOR))
    assert by_row == {
        1: {(1, 0): Fraction(4)},
        3: {(1, 0): Fraction(-1)},
        4: {(0, 0): Fraction(-2)},
        6: {(0, 0): Fraction(-1)},
        7: {(0, 0): Fraction(-1)},
    }


def test_degree_three_relation_coefficients() -> None:
    by_row = relation_by_row(relation_extract(3, LIFT_DIVISOR))
    assert by_row[1] == {(1, 0): Fraction(54)}
    assert by_row[13] == {(1, 1): Fraction(1)}
    # The genus-node mixed term accompanies the displayed rubber term.
    assert by_row[14] == {(0, 1): Fraction(4), (1, 0): Fraction(-4)}
    assert by_row[16] == {(0, 0): Fraction(-2)}
    expected = {
        index: dict(terms)
        for index, terms in goldentables.L3_RELATION_DISPLAYED.items()
    }
    row_index, key, value = goldentables.L3_OMITTED_TERM
    expected[row_index][key] = expected[row_index].get(key, Fraction(0)) + value
    assert by_row == {
        index: {k: Fraction(v) for k, v in terms.items() if v != 0}
        for index, terms in expected.items()
    }


# ---------------------------------------------------------------------------
# The pair lift: rubber totals and the recovered linear form
# ---------------------------------------------------------------------------


def _pair_rubber_total(g: int, d: int) -> Fraction:
    relation = relation_extract(d, lift_pair(g))
    total = Fraction(0)
    for graph, monos in relation.terms.items():
        if graph.side == "infinity":
            total += sum(monos.values(), Fraction(0))
    return total


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_pair_rubber_totals_match_closed_form(d: int) -> None:
    expected = golden_factors.PAIR_RUBBER_TOTALS[d]
    for g in (1, 2, 3):
        assert _pair_rubber_total(g, d) == expected


def test_recovered_linear_form_matches_direct_derivation() -> None:
    for g in (1, 2):
        for d in (1, 2, 3, 4):
            assert hodge_form_from_graphs(g, d) == hodge_linear_form(g, d)


def test_recovered_linear_form_sums_integers_without_a_relation(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """The graph-sum form reads the pole terms' integers and builds no
    :class:`Relation`; its keys keep the order of the relation's terms."""
    cases = [(g, d) for g in (1, 3, 5) for d in (1, 4, 7)]
    orders = {}
    for g, d in cases:
        terms = relation_extract(d, lift_pair(g)).terms
        zero = [mono.hodge_j for graph, monos in terms.items() if graph.side == "zero" for mono in monos]
        orders[g, d] = list(dict.fromkeys(zero))

    def no_relation(*args: object) -> None:
        raise AssertionError("a Relation was built")

    monkeypatch.setattr(locgraphs, "Relation", no_relation)
    for g, d in cases:
        form = hodge_form_from_graphs(g, d)
        assert form == hodge_linear_form(g, d), (g, d)
        assert list(form) == orders[g, d], (g, d)


def test_recovered_form_evaluates_to_the_series_target() -> None:
    solution = solve_hodge(2, d_max=4)
    for d in (1, 2, 3):
        form = hodge_form_from_graphs(2, d)
        value = sum(
            (coeff * solution.values[j] for j, coeff in form.items()), Fraction(0)
        )
        assert value == n_target(2, d)


# ---------------------------------------------------------------------------
# Evaluating the divisor relation on the three-mark space
# ---------------------------------------------------------------------------


def test_degree_two_evaluation_totals() -> None:
    # Row by row: +4 psi (one-part graph), -1 * 1 * psi (saturated, both
    # marks on the genus part), -1 * D(2) - 1 * D(3) (mirror pair, one mark
    # on the genus part), so the directly evaluated total is 3 psi - D - D.
    evaluated = evaluate_relation(relation_extract(2, LIFT_DIVISOR))
    known = evaluated.known
    assert known.ctx == RingContext.standard(3)
    assert known.coefficient_psi1() == 3
    assert known.coefficient_boundary((2,)) == -1
    assert known.coefficient_boundary((3,)) == -1
    assert known.coefficient_boundary(()) == 0
    assert known.coefficient_boundary((1,)) == 0
    assert evaluated.s_terms == {(1, 1): Fraction(-1)}
    assert evaluated.p_terms == {(1, 1): Fraction(-1)}


def test_degree_three_evaluation_totals() -> None:
    # psi: 54 - 24 - 3 + 1*3 = 30; D(2) and D(3): -12 - 6 + 2*3 = -12 each;
    # D(empty): -2 from the fully split row whose rubber fiber matches the
    # stabilized tail; the remaining rows contract to zero.
    evaluated = evaluate_relation(relation_extract(3, LIFT_DIVISOR))
    known = evaluated.known
    assert known.coefficient_psi1() == 30
    assert known.coefficient_boundary((2,)) == -12
    assert known.coefficient_boundary((3,)) == -12
    assert known.coefficient_boundary(()) == -2
    assert known.coefficient_boundary((1,)) == 0
    assert evaluated.s_terms == {(2, 1): Fraction(-4), (1, 2): Fraction(-1)}
    assert evaluated.p_terms == {(2, 1): Fraction(-2), (1, 2): Fraction(-2)}


def test_pair_relations_do_not_evaluate_to_classes() -> None:
    with pytest.raises(InvalidArgumentError):
        evaluate_relation(relation_extract(2, lift_pair(1)))


def test_unsupported_shapes_are_reported_not_guessed() -> None:
    # A saturated rubber term with both marks on the genus part but no
    # genus-node cotangent power is outside the evaluation catalogue.
    graph = LocGraph(
        "zero", (Part(1, (2, 3), True), Part(1, (), False), Part(1, (), False))
    )
    synthetic = Relation(
        3,
        LIFT_DIVISOR,
        {graph: {Monomial(psi_genus=0, psi_rubber=1): Fraction(1)}},
    )
    with pytest.raises(UnsupportedGraphError):
        evaluate_relation(synthetic)


def test_rubber_graphs_outside_the_two_part_shapes_are_refused() -> None:
    # A one-part rubber carrying both marks is neither joint marks [0, 2]
    # nor split marks [1, 1] on two parts.
    graph = LocGraph("infinity", (Part(2, (2, 3)),))
    synthetic = Relation(2, LIFT_DIVISOR, {graph: {Monomial(): Fraction(1)}})
    message = f"no rubber evaluation for {render_graph(graph)}"
    with pytest.raises(UnsupportedGraphError, match=re.escape(message)):
        evaluate_relation(synthetic)


# ---------------------------------------------------------------------------
# Solving for the divisor classes
# ---------------------------------------------------------------------------


def test_degree_two_solution_is_the_expected_quadric() -> None:
    solution = evaluate_and_solve(2)
    ctx = RingContext.standard(3)
    assert solution.anchor == 1
    assert solution.a2 == (psi1(ctx) - boundary(ctx, (2,))).reduce()
    assert solution.a3 == (psi1(ctx) - boundary(ctx, (3,))).reduce()
    assert solution.b == (psi1(ctx) - boundary(ctx, (1,))).reduce()
    assert solution.bp.is_zero()


def test_degree_three_relation_is_spanned_by_the_quadric() -> None:
    report = evaluate_and_solve(3)
    assert report.b_again == report.base.b
    assert report.residual.is_zero()


def test_unsupported_solve_degrees_are_rejected() -> None:
    with pytest.raises(InvalidArgumentError):
        evaluate_and_solve(4)
    with pytest.raises(InvalidArgumentError, match="degree must be an integer, got 2.0"):
        evaluate_and_solve(2.0)
    # refused before the degree is compared with the lift's twist
    for call in (
        lambda: relation_extract("3", LIFT_DIVISOR),
        lambda: hodge_form_from_graphs(1, "3"),
        lambda: enumerate_graphs("3", lift_pair(1)),
    ):
        with pytest.raises(InvalidArgumentError, match="degree must be an integer, got '3'"):
            call()
