"""The benchmark's workloads: seeded inputs, timed operations and their oracles.

Every workload turns a seed into a list of ``Op``.  An op's ``run`` makes
exactly the program calls that are timed; it may read the results of earlier
ops from ``state``.  Its ``check`` runs after the timed region and returns
whether the result passes an oracle owned by this file: a closed form, a
frozen table, or an identity written here from the package's public
primitives.  No op relies on the package's own boolean checkers.

The ops and their order are fixed; the seed draws only inputs that leave the
amount of work unchanged (permutations, points, weights, the choice among
Hurwitz pairs of like cost), so that runs on different seeds can be compared.
Order is fixed because it is not cost-neutral: a seeded shuffle moved single
solves by up to 25% (the same solve costs more on a fresh heap than after a
large one).  hodge-solve and graph-sums have no input that leaves the work
unchanged, so they do not use the seed.

Every workload has a number of ops that is 5 modulo 10.  ``run.py`` pools the
op latencies of all passes, and with such a count the pooled median and 90th
percentile fall in the middle of one op's samples rather than on the
boundary between two ops of different cost, where they would jump.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from rubbertaut import goldentables, hodge, hurwitz, locgraphs, polyclasses, tautring


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]


@dataclass
class Workload:
    ops: list[Op]
    #: The op whose result ``--corrupt`` perturbs, and how.
    corrupt_op: str
    corrupt: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# hodge-solve
# ---------------------------------------------------------------------------

#: Every genus 3..10 with d_max at g, about 3g/2 and 2g, and the square
#: system at genus 11 (25 solves).
HODGE_GRID = tuple(
    (g, d) for g in range(3, 11) for d in sorted({g, (3 * g + 1) // 2, 2 * g})
) + ((11, 11),)


def bernoulli(n: int) -> Fraction:
    """``B_n`` from the recurrence ``sum_{k<=m} C(m+1, k) B_k = 0``."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(-sum(math.comb(m + 1, k) * values[k] for k in range(m)) / (m + 1))
    return values[n]


def lambda_g_closed_form(g: int) -> Fraction:
    """``|B_2g| / (2^(2g-1) (2g-1)!! 2g)``, the value of ``I(g, 0)``."""
    double_factorial = math.prod(range(1, 2 * g, 2))
    return abs(bernoulli(2 * g)) / (2 ** (2 * g - 1) * double_factorial * 2 * g)


def hodge_solve(seed: int) -> Workload:
    def op(g: int, d: int) -> Op:
        def check(result: Any, state: dict) -> bool:
            return (
                result.unique
                and len(result.values) == g
                and result.value(0) == lambda_g_closed_form(g)
            )

        return Op(f"solve_hodge({g},{d})", lambda state: hodge.solve_hodge(g, d), check)

    def corrupt(result: Any) -> Any:
        return dataclasses.replace(result, values=(result.values[0] + 1,) + result.values[1:])

    g, d = HODGE_GRID[0]
    return Workload([op(g, d) for g, d in HODGE_GRID], f"solve_hodge({g},{d})", corrupt)


# ---------------------------------------------------------------------------
# weight-classes
# ---------------------------------------------------------------------------

#: Mark counts whose polynomials are built, relabeled and evaluated.
MARKS = tuple(range(3, 10))
#: (genus, marks) of the theta-power expansions, each also at scaled weights.
HAIN_SIZES = ((2, 4), (2, 5), (3, 3), (3, 4), (2, 6))
PSI_ANCHOR = (("psi+", 1), ("psi+", 1))


def _poly(t: int) -> str:
    return f"genus1_polynomial({t})"


def _weights(rng: random.Random, t: int) -> tuple[Fraction, ...]:
    """``1, 2, 4, ..., 2^(t-2)`` and minus their sum, in a seeded order.

    No proper subset of these sums to zero, so every expansion of one size
    has the same support, and the seed moves no work.
    """
    head = [2**i for i in range(t - 1)]
    return tuple(Fraction(w) for w in rng.sample(head + [-sum(head)], t))


def _point(rng: random.Random, t: int) -> list[Fraction]:
    """``1/2, 2/3, ..., (t-1)/t`` in a seeded order with seeded signs."""
    entries = [Fraction(i + 1, i + 2) * rng.choice((-1, 1)) for i in range(t - 1)]
    return rng.sample(entries, t - 1)


def _stability_op(t: int) -> Op:
    """Pull the (t-1)-mark coefficients back to t marks and reduce them."""

    def run(state: dict) -> dict:
        small = state[_poly(t - 1)]
        return {e: tautring.pullback_forget(c, t).reduce() for e, c in small.coeffs.items()}

    def check(result: dict, state: dict) -> bool:
        small, big = state[_poly(t - 1)], state[_poly(t)]
        lifted = {e + (0,) for e in small.coeffs}
        if lifted != {e for e in big.coeffs if e[-1] == 0} or set(result) != set(small.coeffs):
            return False
        return all(cls == big.coeffs[e + (0,)].reduce() for e, cls in result.items())

    return Op(f"stability({t})", run, check)


def _relabel_op(t: int, image: list[int]) -> Op:
    """Relabel every coefficient under a permutation of marks 2..t."""
    mapping = {1: 1, **dict(zip(range(2, t + 1), image))}

    def run(state: dict) -> dict:
        return {e: tautring.relabel(c, mapping) for e, c in state[_poly(t)].coeffs.items()}

    def check(result: dict, state: dict) -> bool:
        poly = state[_poly(t)]
        if set(result) != set(poly.coeffs):
            return False
        for exponents, cls in result.items():
            moved = [0] * (t - 1)
            for index, power in enumerate(exponents):
                moved[mapping[index + 2] - 2] = power
            if poly.coeffs.get(tuple(moved)) != cls:
                return False
        return True

    return Op(f"relabel({t},{image})", run, check)


def _evaluate_ops(t: int, point: list[Fraction], scale: Fraction) -> list[Op]:
    """Evaluate at a point and at its multiple: degree-two homogeneity."""
    names = (f"evaluate({t},a)", f"evaluate({t},{scale}a)")
    scaled = [scale * p for p in point]

    def check(result: Any, state: dict) -> bool:
        base, moved = state[names[0]], state[names[1]]
        return base is not None and not base.is_zero() and moved == scale * scale * base

    return [
        Op(names[0], lambda state: state[_poly(t)].evaluate(point), check),
        Op(names[1], lambda state: state[_poly(t)].evaluate(scaled), check),
    ]


def _hain_ops(g: int, t: int, weights: tuple[Fraction, ...], scale: int) -> list[Op]:
    """Expand at weights and at scaled weights: the scale enters as c^(2g)."""
    names = (f"hain_expand({g},{t},w)", f"hain_expand({g},{t},{scale}w)")
    scaled = tuple(scale * w for w in weights)
    factor = Fraction(scale) ** (2 * g)

    def check(result: Any, state: dict) -> bool:
        base, moved = state[names[0]], state[names[1]]
        return bool(base) and moved == {mono: factor * coeff for mono, coeff in base.items()}

    return [
        Op(names[0], lambda state: polyclasses.hain_expand(g, t, weights), check),
        Op(names[1], lambda state: polyclasses.hain_expand(g, t, scaled), check),
    ]


def weight_classes(seed: int) -> Workload:
    rng = random.Random(seed)
    builds = [
        Op(
            _poly(t),
            lambda state, t=t: polyclasses.genus1_polynomial(t),
            lambda result, state, t=t: len(result.coeffs) == (t - 1) * t // 2
            and result.degree() == 2,
        )
        for t in MARKS
    ]
    transforms = [_stability_op(t) for t in MARKS[1:]]
    for t in MARKS:
        transforms.append(_relabel_op(t, rng.sample(range(2, t + 1), t - 1)))
        transforms += _evaluate_ops(t, _point(rng, t), Fraction(3, 2) * rng.choice((-1, 1)))
    for g, t in HAIN_SIZES:
        transforms += _hain_ops(g, t, _weights(rng, t), 2 * rng.choice((-1, 1)))
    transforms.append(
        Op(
            "hain_expand(2,2,(1,-1))",
            lambda state: polyclasses.hain_expand(2, 2, (Fraction(1), Fraction(-1))),
            lambda result, state: result.get(PSI_ANCHOR) == Fraction(1, 8),
        )
    )

    def corrupt(result: dict) -> dict:
        exponents = next(iter(result))
        bad = dict(result)
        bad[exponents] = result[exponents] + tautring.boundary(result[exponents].ctx, ())
        return bad

    return Workload(builds + transforms, f"stability({MARKS[1]})", corrupt)


# ---------------------------------------------------------------------------
# graph-sums
# ---------------------------------------------------------------------------

FORM_GRID = tuple((g, d) for g in range(1, 4) for d in range(1, 7)) + tuple(
    (4, d) for d in range(1, 5)
)
PAIR_GRID = tuple((g, d) for g in range(1, 4) for d in range(2, 10))
DIVISOR_DEGREES = tuple(range(2, 9))


def _nonzero(form: dict) -> dict:
    return {j: v for j, v in form.items() if v != 0}


def _form_op(g: int, d: int) -> Op:
    return Op(
        f"hodge_form_from_graphs({g},{d})",
        lambda state: locgraphs.hodge_form_from_graphs(g, d),
        lambda result, state: _nonzero(result)
        == _nonzero(hodge.hodge_linear_form(g, d, "resummed")),
    )


def _pair_op(g: int, d: int) -> Op:
    def check(result: Any, state: dict) -> bool:
        total = Fraction(0)
        for graph, monos in result.terms.items():
            if graph.side == "infinity":
                total += sum(monos.values(), Fraction(0))
        return total == -Fraction(d) ** (d - 2)

    return Op(
        f"relation_extract({d},pair({g}))",
        lambda state: locgraphs.relation_extract(d, locgraphs.lift_pair(g)),
        check,
    )


def _swap_marks(graph: Any) -> Any:
    swap = {2: 3, 3: 2}
    return locgraphs.LocGraph(
        graph.side,
        tuple(
            locgraphs.Part(p.size, tuple(sorted(swap.get(m, m) for m in p.marks)), p.genus)
            for p in graph.parts
        ),
    )


def _golden_relation(d: int) -> dict:
    if d == 2:
        return dict(goldentables.R2_RELATION)
    expected = dict(goldentables.L3_RELATION_DISPLAYED)
    row, key, value = goldentables.L3_OMITTED_TERM
    bucket = dict(expected.get(row, {}))
    bucket[key] = bucket.get(key, Fraction(0)) + value
    expected[row] = bucket
    return expected


def _divisor_op(d: int) -> Op:
    def check(result: Any, state: dict) -> bool:
        terms = result.terms
        if not terms or any(terms.get(_swap_marks(g)) != monos for g, monos in terms.items()):
            return False
        if d not in (2, 3):
            return True
        rows = locgraphs.enumerate_rows(d, locgraphs.LIFT_DIVISOR)
        row_of = {graph: row.index for row in rows for graph in row.graphs}
        by_row: dict[int, dict] = {}
        for graph, monos in terms.items():
            bucket = by_row.setdefault(row_of[graph], {})
            for mono, coeff in monos.items():
                key = (mono.psi_genus, mono.psi_rubber)
                bucket[key] = bucket.get(key, Fraction(0)) + coeff
        by_row = {i: _nonzero(b) for i, b in by_row.items() if _nonzero(b)}
        return by_row == _golden_relation(d)

    return Op(
        f"relation_extract({d},divisor)",
        lambda state: locgraphs.relation_extract(d, locgraphs.LIFT_DIVISOR),
        check,
    )


def _solve_op(d: int) -> Op:
    """Degree 2 must hit the three-mark quadric; degree 3 re-derives its b."""
    if d == 2:
        def check(result: Any, state: dict) -> bool:
            poly = polyclasses.genus1_polynomial(3)
            pairs = (((2, 0), result.a2), ((0, 2), result.a3), ((1, 1), result.b))
            return all(poly.coeffs[e].reduce() == cls.reduce() for e, cls in pairs)
    else:
        def check(result: Any, state: dict) -> bool:
            return result.residual.is_zero() and result.b_again.reduce() == result.base.b.reduce()

    return Op(f"evaluate_and_solve({d})", lambda state: locgraphs.evaluate_and_solve(d), check)


def graph_sums(seed: int) -> Workload:
    ops = [_form_op(g, d) for g, d in FORM_GRID]
    ops += [_pair_op(g, d) for g, d in PAIR_GRID]
    ops += [_divisor_op(d) for d in DIVISOR_DEGREES]
    ops += [_solve_op(2), _solve_op(3)]

    def corrupt(result: dict) -> dict:
        return {**result, 0: result.get(0, Fraction(0)) + 1}

    g, d = FORM_GRID[0]
    return Workload(ops, f"hodge_form_from_graphs({g},{d})", corrupt)


# ---------------------------------------------------------------------------
# hurwitz-pairs
# ---------------------------------------------------------------------------

TABLE = Path(__file__).resolve().parent / "hurwitz_table.json"
#: Frozen cost (seconds) of each drawn pair: 35 rungs from 2 ms to 0.33 s.
LADDER = tuple(0.002 * (0.33 / 0.002) ** (i / 34) for i in range(35))
#: A rung draws among this many unused pairs of nearest frozen cost...
NEAREST = 2
#: ...that cost within this factor of the nearest one, so that no seed makes
#: a rung much dearer than another seed does.
SAME_COST = 1.03


def load_table() -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction, float]]:
    rows = json.loads(TABLE.read_text())["pairs"]
    return [(tuple(a), tuple(b), Fraction(v), s) for a, b, v, s in rows]


def hurwitz_pairs(seed: int) -> Workload:
    """Distinct unordered pairs, each asked in one order, in ascending cost."""
    rng = random.Random(seed)
    table = [row for row in load_table() if row[3] > 0]
    used: set[frozenset] = set()
    chosen = []
    for rung in reversed(LADDER):
        free = [row for row in table if frozenset(row[:2]) not in used]
        free.sort(key=lambda row: abs(math.log(row[3] / rung)))
        best = free[0][3]
        near = [row for row in free[:NEAREST] if abs(math.log(row[3] / best)) <= math.log(SAME_COST)]
        alpha, beta, value, _ = rng.choice(near)
        used.add(frozenset((alpha, beta)))
        chosen.append((alpha, beta, value))
    chosen.reverse()
    ops = [
        Op(
            f"hurwitz_oracle({alpha},{beta})",
            lambda state, a=alpha, b=beta: hurwitz.hurwitz_oracle(a, b),
            lambda result, state, v=value: result == v,
        )
        for alpha, beta, value in chosen
    ]
    return Workload(ops, ops[0].name, lambda result: result + 1)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "hodge-solve": hodge_solve,
    "weight-classes": weight_classes,
    "graph-sums": graph_sums,
    "hurwitz-pairs": hurwitz_pairs,
}
