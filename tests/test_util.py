"""The exact sparse-sum kernel against a term-by-term ``Fraction`` oracle,
rational formatting, the self-filling table, and the one integer check
that every entry point's integer arguments pass through."""

from __future__ import annotations

import ast
import random
import re
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest

import rubbertaut
from rubbertaut import hodge, hurwitz, locgraphs, partitions
from rubbertaut.errors import InvalidArgumentError, ResourceLimitError
from rubbertaut.hodge import evaluate_form, hodge_linear_form, n_target, solve_hodge, verify_scaling
from rubbertaut.hurwitz import hurwitz_one_part, hurwitz_oracle, hurwitz_row, rubber_psi_integral
from rubbertaut.locgraphs import (
    Lift,
    LocGraph,
    Monomial,
    Part,
    enumerate_graphs,
    evaluate_and_solve,
    hodge_form_from_graphs,
    lift_pair,
    relation_extract,
)
from rubbertaut.partitions import enumerate_marked, enumerate_partitions, tau_power_coefficient
from rubbertaut.polyclasses import MultiPoly, genus1_polynomial, hain_expand, interpolate
from rubbertaut.series import series, series_log_sine, series_tau
from rubbertaut.tautring import RingContext, boundary
from rubbertaut.util import Table, check_integer, check_integers, combine, fraction_str


def _oracle(pairs) -> dict:
    """Add every scaled term one at a time, then drop the zero sums."""
    total: dict = {}
    for scale, terms in pairs:
        for key, value in terms.items():
            total[key] = total.get(key, Fraction(0)) + Fraction(scale) * Fraction(value)
    return {key: value for key, value in total.items() if value}


def _random_value(rng: random.Random, exact: bool) -> Fraction | int:
    if exact:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return rng.randint(-5, 5)


def _random_key(rng: random.Random, monomial: bool):
    if monomial:
        return Monomial(rng.randint(0, 2), rng.randint(0, 2), rng.choice((None, 0, 1)))
    return ("D", tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 3)))))


@pytest.mark.parametrize("exact", [False, True], ids=["int-values", "fraction-values"])
@pytest.mark.parametrize("monomial", [False, True], ids=["tuple-keys", "monomial-keys"])
def test_combine_matches_the_term_by_term_sum(exact: bool, monomial: bool) -> None:
    rng = random.Random(20261018 + 2 * exact + monomial)
    for _ in range(200):
        pairs = [
            (
                _random_value(rng, rng.random() < 0.5),
                {_random_key(rng, monomial): _random_value(rng, exact) for _ in range(rng.randint(0, 6))},
            )
            for _ in range(rng.randint(0, 5))
        ]
        result = combine(iter(pairs))
        assert result == _oracle(pairs)
        assert all(type(value) is Fraction and value for value in result.values())


def test_combine_drops_cancelled_keys_and_zero_scales() -> None:
    a = {("D", (1,)): Fraction(1, 3), ("D", (2,)): 2}
    assert combine([(1, a), (-1, a)]) == {}
    assert combine([(Fraction(3, 2), a), (Fraction(-3, 2), a)]) == {}
    assert combine([(0, a)]) == {}
    assert combine([(0, a), (2, {("D", (2,)): Fraction(1, 2)})]) == {("D", (2,)): Fraction(1)}
    assert combine([(1, a), (-1, {("D", (1,)): Fraction(1, 3)})]) == {("D", (2,)): Fraction(2)}


def test_combine_of_nothing_is_empty() -> None:
    assert combine([]) == {}
    assert combine([(5, {})]) == {}


def test_combine_keeps_first_appearance_order() -> None:
    x, y, z = Monomial(psi_genus=1), Monomial(psi_rubber=1), Monomial(hodge_j=0)
    result = combine([(1, {y: 1, x: 1}), (1, {z: 1, y: -1}), (1, {y: 2})])
    assert list(result) == [y, x, z]
    assert result == {y: Fraction(2), x: Fraction(1), z: Fraction(1)}


def test_fraction_str_refuses_a_rational_past_the_digit_limit() -> None:
    assert fraction_str(Fraction(-7, 2)) == "-7/2"
    assert fraction_str(10**100) == "1" + "0" * 100
    assert fraction_str(Fraction(3)) == "3"
    # Any other value is made an exact rational first.
    assert fraction_str(Decimal("-2.50")) == "-5/2"
    assert fraction_str(0.375) == "3/8"
    assert fraction_str(True) == "1"
    for value in (10**5000, Fraction(1, 10**5000), Fraction(10**5000, 3)):
        with pytest.raises(ResourceLimitError, match="too long to print"):
            fraction_str(value)


def _counting_table() -> tuple[Table, list]:
    calls: list = []

    def build(key: int) -> list:
        calls.append(key)
        return [key]

    return Table(build), calls


def test_table_builds_each_missing_key_once() -> None:
    table, calls = _counting_table()
    first = table[3]
    assert first == [3] and table[3] is first and table[4] == [4]
    assert calls == [3, 4]
    assert table == {3: [3], 4: [4]} and len(table) == 2


def test_table_get_never_builds() -> None:
    table, calls = _counting_table()
    assert table.get(5) is None and 5 not in table
    assert calls == [] and table == {}


def test_table_returns_an_assigned_entry_as_is() -> None:
    table, calls = _counting_table()
    doctored = ["doctored"]
    table[7] = doctored
    assert table[7] is doctored and calls == []


def test_table_clear_forgets_every_entry() -> None:
    table, calls = _counting_table()
    table[1], table[2]
    table.clear()
    assert table == {} and table[1] == [1]
    assert calls == [1, 2, 1]


def test_two_threads_that_build_one_key_read_back_the_first_stored() -> None:
    barrier = threading.Barrier(2)

    def build(key: int) -> list:
        barrier.wait(timeout=10)  # both threads are inside the builder at once
        return [key]

    table = Table(build)
    results: list = [None, None]

    def read(slot: int) -> None:
        results[slot] = table[9]

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert results[0] is results[1] is table[9]
    assert table == {9: [9]}


def test_every_process_wide_memo_is_a_table() -> None:
    tables = (
        partitions._PARTITIONS,
        hodge._TREES,
        locgraphs._GRAPHS,
        locgraphs._MARKINGS,
        locgraphs._PARTS,
        locgraphs._ZERO_SUMS,
        hurwitz._CUTS,
        hurwitz._MERGES,
    )
    assert all(type(table) is Table for table in tables)
    # no second fill rule for a process-wide table: besides Table, only
    # hain_expand's per-call Fraction memo defines __missing__
    missing = []
    for path in sorted(Path(rubbertaut.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__missing__" for item in node.body
            ):
                missing.append(f"{path.stem}.{node.name}")
    assert missing == ["polyclasses._SharedFractions", "util.Table"]


class _Index:
    """An integer type that is not ``int``: it has ``__index__`` only."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_an_index_object_comes_back_as_an_int() -> None:
    assert type(check_integer("n", _Index(2))) is int and check_integer("n", _Index(2)) == 2
    checked = check_integers("n", [_Index(2), 3])
    assert checked == (2, 3) and all(type(value) is int for value in checked)


def test_an_index_argument_acts_as_its_int() -> None:
    two, three = _Index(2), _Index(3)
    assert Lift(two) == Lift(2)
    assert LocGraph("zero", (Part(two, (two,), True),)) == LocGraph("zero", (Part(2, (2,), True),))
    assert solve_hodge(two, three) == solve_hodge(2, 3)
    assert genus1_polynomial(three) == genus1_polynomial(3)
    assert enumerate_marked((two, 1), (two,)) == enumerate_marked((2, 1), (2,))
    assert hurwitz_oracle((two, 1), (three,)) == hurwitz_oracle((2, 1), (3,))


def test_the_lower_bound_itself_is_accepted() -> None:
    assert check_integer("n", 0, least=0) == 0
    assert check_integer("n", 1, least=1) == 1
    assert check_integers("n", (1, 1, 4), least=1) == (1, 1, 4)
    assert check_integers("n", (), least=1) == ()
    with pytest.raises(InvalidArgumentError, match="^n must be >= 1, got 0$"):
        check_integer("n", 0, least=1)


@pytest.mark.parametrize("value", [True, False, 2.0, "2", Fraction(2), None])
def test_a_bool_or_non_integer_is_refused(value: object) -> None:
    with pytest.raises(InvalidArgumentError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
        check_integer("n", value)


def test_a_sequence_error_names_the_first_bad_element() -> None:
    with pytest.raises(InvalidArgumentError, match="^part must be an integer, got 2.5$"):
        check_integers("part", (3, 2.5, "x", True), least=1)
    with pytest.raises(InvalidArgumentError, match="^part must be an integer, got True$"):
        check_integers("part", (3, True, 2.5))
    with pytest.raises(InvalidArgumentError, match="^part must be >= 1, got 0$"):
        check_integers("part", (3, 0, -1), least=1)
    with pytest.raises(InvalidArgumentError, match="^need a sequence of part values, got 5$"):
        check_integers("part", 5)


_CTX = RingContext.standard(3)

#: Every library entry point with an integer argument, that argument given as ``x``.
_INTEGER_ARGUMENTS: dict[str, Callable[[object], object]] = {
    "solve_hodge-genus": lambda x: solve_hodge(x),
    "solve_hodge-degree": lambda x: solve_hodge(2, x),
    "HodgeSolution.value": lambda x: solve_hodge(3).value(x),
    "hodge_linear_form-genus": lambda x: hodge_linear_form(x, 2),
    "hodge_linear_form-degree": lambda x: hodge_linear_form(2, x),
    "evaluate_form-index": lambda x: evaluate_form({x: Fraction(1)}, [Fraction(1)] * 3),
    "n_target-genus": lambda x: n_target(x, 2),
    "n_target-degree": lambda x: n_target(2, x),
    "verify_scaling-genus": lambda x: verify_scaling(x, 2),
    "verify_scaling-degree": lambda x: verify_scaling(2, x),
    "enumerate_partitions-degree": lambda x: enumerate_partitions(x),
    "enumerate_partitions-max_length": lambda x: enumerate_partitions(4, x),
    "enumerate_marked-part": lambda x: enumerate_marked((x, 1), (1,)),
    "enumerate_marked-label": lambda x: enumerate_marked((2, 1), (x,)),
    "tau_power_coefficient-n": lambda x: tau_power_coefficient(x, 1),
    "tau_power_coefficient-l": lambda x: tau_power_coefficient(3, x),
    "series-order": lambda x: series([1], x),
    "series_tau-order": lambda x: series_tau(x),
    "series_log_sine-scale": lambda x: series_log_sine(x, 4),
    "series_log_sine-order": lambda x: series_log_sine(2, x),
    "PowerSeries.coefficient": lambda x: series_tau(3).coefficient(x),
    "genus1_polynomial-marks": lambda x: genus1_polynomial(x),
    "hain_expand-genus": lambda x: hain_expand(x, 2, (1, -1)),
    "hain_expand-marks": lambda x: hain_expand(2, x, (1, -1)),
    "interpolate-degree": lambda x: interpolate(lambda point: 1, (x,)),
    "MultiPoly-nvars": lambda x: MultiPoly(x),
    "MultiPoly-exponent": lambda x: MultiPoly(2, {(x, 0): 1}),
    "RingContext-mark": lambda x: RingContext((x, 2)),
    "RingContext.standard-marks": lambda x: RingContext.standard(x),
    "boundary-mark": lambda x: boundary(_CTX, (x,)),
    "hurwitz_oracle-alpha": lambda x: hurwitz_oracle((x, 1), (2,)),
    "hurwitz_oracle-beta": lambda x: hurwitz_oracle((2,), (x, 1)),
    "hurwitz_row-alpha": lambda x: hurwitz_row((x, 1)),
    "hurwitz_one_part-nu": lambda x: hurwitz_one_part((x, 1), 3),
    "hurwitz_one_part-degree": lambda x: hurwitz_one_part((2,), x),
    "rubber_psi_integral-alpha": lambda x: rubber_psi_integral((x, 1), (2,)),
    "relation_extract-degree": lambda x: relation_extract(x, lift_pair(1)),
    "enumerate_graphs-degree": lambda x: enumerate_graphs(x, lift_pair(1)),
    "hodge_form_from_graphs-genus": lambda x: hodge_form_from_graphs(x, 2),
    "hodge_form_from_graphs-degree": lambda x: hodge_form_from_graphs(2, x),
    "evaluate_and_solve-degree": lambda x: evaluate_and_solve(x),
    "Lift-genus": lambda x: Lift(x),
    "LocGraph-part-size": lambda x: LocGraph("zero", (Part(x, (), True),)),
    "LocGraph-mark": lambda x: LocGraph("zero", (Part(2, (x,), True),)),
}


@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("call", list(_INTEGER_ARGUMENTS.values()), ids=list(_INTEGER_ARGUMENTS))
def test_every_integer_argument_refuses_a_bool_float_or_string(
    call: Callable[[object], object], value: object
) -> None:
    with pytest.raises(InvalidArgumentError, match=f"must be an integer, got {re.escape(repr(value))}"):
        call(value)
