from __future__ import annotations

from fractions import Fraction

import pytest

from rubbertaut import goldentables
from rubbertaut.errors import (
    InvalidArgumentError,
    UnsupportedGraphError,
)
from rubbertaut.hodge import hodge_linear_form, n_target, solve_hodge
from rubbertaut.locgraphs import (
    LIFT_DIVISOR,
    LocGraph,
    Monomial,
    Part,
    Relation,
    assemble_contribution,
    enumerate_graphs,
    enumerate_rows,
    evaluate_and_solve,
    evaluate_relation,
    hodge_form_from_graphs,
    lift_pair,
    locus_descriptor,
    mirror_swap,
    relation_by_row,
    relation_extract,
    render_graph,
)
from rubbertaut.tautring import RingContext, boundary, psi1


# ---------------------------------------------------------------------------
# Graph enumeration
# ---------------------------------------------------------------------------


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
        contribution = assemble_contribution(row.representative, LIFT_DIVISOR)
        assert contribution.prefactor == golden.prefactor
        assert row.multiplicity == golden.multiplicity
        assert locus_descriptor(row.representative, LIFT_DIVISOR) == golden.locus
        assert contribution.total() == golden.expand()


@pytest.mark.parametrize(
    "d, silent",
    [(2, goldentables.R2_NONCONTRIBUTING), (3, goldentables.L3_NONCONTRIBUTING)],
)
def test_noncontributing_rows_have_no_residue(d: int, silent: set[int]) -> None:
    rows = enumerate_rows(d, LIFT_DIVISOR)
    for row in rows:
        for graph in row.graphs:
            residue = assemble_contribution(graph, LIFT_DIVISOR).coefficient_at(-1)
            if row.index in silent:
                assert residue == {}
            else:
                assert residue != {}


def test_degree_two_relation_coefficients() -> None:
    rows = enumerate_rows(2, LIFT_DIVISOR)
    by_row = relation_by_row(relation_extract(2, LIFT_DIVISOR), rows)
    assert by_row == {
        1: {(1, 0): Fraction(4)},
        3: {(1, 0): Fraction(-1)},
        4: {(0, 0): Fraction(-2)},
        6: {(0, 0): Fraction(-1)},
        7: {(0, 0): Fraction(-1)},
    }


def test_degree_three_relation_coefficients() -> None:
    rows = enumerate_rows(3, LIFT_DIVISOR)
    by_row = relation_by_row(relation_extract(3, LIFT_DIVISOR), rows)
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
    expected = goldentables.PAIR_RUBBER_TOTALS[d]
    for g in (1, 2, 3):
        assert _pair_rubber_total(g, d) == expected


def test_recovered_linear_form_matches_direct_derivation() -> None:
    for g in (1, 2):
        for d in (1, 2, 3, 4):
            assert hodge_form_from_graphs(g, d) == hodge_linear_form(g, d)


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
    ctx = RingContext.standard(3)
    evaluated = evaluate_relation(relation_extract(2, LIFT_DIVISOR), ctx)
    known = evaluated.known
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
    ctx = RingContext.standard(3)
    evaluated = evaluate_relation(relation_extract(3, LIFT_DIVISOR), ctx)
    known = evaluated.known
    assert known.coefficient_psi1() == 30
    assert known.coefficient_boundary((2,)) == -12
    assert known.coefficient_boundary((3,)) == -12
    assert known.coefficient_boundary(()) == -2
    assert known.coefficient_boundary((1,)) == 0
    assert evaluated.s_terms == {(2, 1): Fraction(-4), (1, 2): Fraction(-1)}
    assert evaluated.p_terms == {(2, 1): Fraction(-2), (1, 2): Fraction(-2)}


def test_pair_relations_do_not_evaluate_to_classes() -> None:
    ctx = RingContext.standard(3)
    with pytest.raises(InvalidArgumentError):
        evaluate_relation(relation_extract(2, lift_pair(1)), ctx)


def test_unsupported_shapes_are_reported_not_guessed() -> None:
    # A saturated rubber term with both marks on the genus part but no
    # genus-node cotangent power is outside the evaluation catalogue.
    ctx = RingContext.standard(3)
    graph = LocGraph(
        "zero", (Part(1, (2, 3), True), Part(1, (), False), Part(1, (), False))
    )
    synthetic = Relation(
        3,
        LIFT_DIVISOR,
        {graph: {Monomial(psi_genus=0, psi_rubber=1): Fraction(1)}},
    )
    with pytest.raises(UnsupportedGraphError):
        evaluate_relation(synthetic, ctx)


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
