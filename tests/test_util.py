"""The exact sparse-sum kernel against a term-by-term ``Fraction`` oracle,
rational formatting, and the self-filling table."""

from __future__ import annotations

import ast
import random
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import rubbertaut
from rubbertaut import hodge, hurwitz, locgraphs, partitions
from rubbertaut.errors import ResourceLimitError
from rubbertaut.locgraphs import Monomial
from rubbertaut.util import Table, combine, fraction_str


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
