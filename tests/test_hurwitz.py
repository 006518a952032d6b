from __future__ import annotations

import math
import random
import sys
import threading
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import permutations, product

import pytest

from rubbertaut import cli, hurwitz
from rubbertaut.errors import InvalidArgumentError, ResourceLimitError
from rubbertaut.hurwitz import (
    MAX_DEGREE,
    MAX_SIMPLE_BRANCH,
    hurwitz_one_part,
    hurwitz_oracle,
    hurwitz_row,
    rubber_psi_integral,
)
from rubbertaut.partitions import aut, enumerate_partitions
from rubbertaut.util import Table


# ---------------------------------------------------------------------------
# Independent oracle: enumerate transposition tuples over ALL start
# permutations of the given cycle type (no canonical-representative trick, no
# state collapsing), normalized by aut(alpha) * aut(beta) / d!.
# ---------------------------------------------------------------------------


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[x]] for x in range(len(q)))


def _transitive(perms: tuple[tuple[int, ...], ...], d: int) -> bool:
    component = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            if p[x] not in component:
                component.add(p[x])
                frontier.append(p[x])
    return len(component) == d


def _brute_force_count(alpha: tuple[int, ...], beta: tuple[int, ...]) -> Fraction:
    d = sum(alpha)
    r = len(alpha) + len(beta) - 2
    transpositions = []
    for i in range(d):
        for j in range(i + 1, d):
            t = list(range(d))
            t[i], t[j] = j, i
            transpositions.append(tuple(t))
    starts = [p for p in permutations(range(d)) if _cycle_type(p) == alpha]
    total = 0
    for sigma in starts:
        for taus in product(transpositions, repeat=r):
            current = sigma
            for t in taus:
                current = _compose(t, current)
            if _cycle_type(current) != beta:
                continue
            if not _transitive((sigma,) + taus, d):
                continue
            total += 1
    return Fraction(aut(alpha) * aut(beta) * total, math.factorial(d))


# ---------------------------------------------------------------------------
# Independent oracle: the retired production search.  It fixes one
# permutation of cycle type alpha and walks transposition tuples level by
# level, collapsing equal (permutation, connectivity) states, so it counts
# the same integer as the cycle-length engine from explicit permutations.
# ---------------------------------------------------------------------------


def _canonical_of_type(alpha: tuple[int, ...]) -> tuple[int, ...]:
    perm = list(range(sum(alpha)))
    start = 0
    for part in alpha:
        for offset in range(part):
            perm[start + offset] = start + (offset + 1) % part
        start += part
    return tuple(perm)


def _cycle_blocks(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Each element mapped to the least element of its cycle."""
    code = list(range(len(perm)))
    for start in range(len(perm)):
        x = perm[start]
        while x != start:
            code[x] = min(code[x], start)
            x = perm[x]
    return tuple(code)


def _join(code: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    lo, hi = sorted((code[i], code[j]))
    return tuple(lo if c == hi else c for c in code)


def _search_count(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    d = sum(alpha)
    r = len(alpha) + len(beta) - 2
    transpositions = []
    for i in range(d):
        for j in range(i + 1, d):
            t = list(range(d))
            t[i], t[j] = j, i
            transpositions.append((i, j, tuple(t)))
    sigma0 = _canonical_of_type(alpha)
    states = {(sigma0, _cycle_blocks(sigma0)): 1}
    for step in range(r):
        remaining = r - step
        next_states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (perm, code), weight in states.items():
            distance = abs(len(_cycle_type(perm)) - len(beta))
            if distance > remaining or (remaining - distance) % 2:
                continue
            if len(set(code)) - 1 > remaining:
                continue
            for i, j, tau in transpositions:
                key = (_compose(tau, perm), _join(code, i, j))
                next_states[key] = next_states.get(key, 0) + weight
        states = next_states
    return sum(
        weight
        for (perm, code), weight in states.items()
        if _cycle_type(perm) == beta and len(set(code)) == 1
    )


def _search_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ordered pair with d <= 5, and those at d = 6 with r <= 5."""
    pairs = []
    for d in range(1, 7):
        profiles = [tuple(p) for p in enumerate_partitions(d)]
        for alpha in profiles:
            for beta in profiles:
                if d <= 5 or len(alpha) + len(beta) - 2 <= 5:
                    pairs.append((alpha, beta))
    return pairs


# ---------------------------------------------------------------------------
# Independent oracle: the retired tuple-keyed walk.  It rebuilds and re-sorts
# every successor of every state on every level of every pair, keying levels
# on the state tuples themselves and generating each state's moves whole,
# joins inside one component included, under the cycle-distance prune too;
# the production walk interns each state once, builds its merged successors
# by id from tables of cuts and merges keyed by component, and keeps only
# the component prune.
# ---------------------------------------------------------------------------


State = tuple[tuple[int, ...], ...]


def _component_moves(state: State) -> Iterator[tuple[State, int]]:
    """Each state one transposition away, with the number of transpositions."""
    for c, comp in enumerate(state):
        rest = state[:c] + state[c + 1 :]
        for i, n in enumerate(comp):
            others = comp[:i] + comp[i + 1 :]
            for m in range(1, n // 2 + 1):
                ways = n // 2 if 2 * m == n else n
                yield _normal(rest, others + (m, n - m)), ways
            for j in range(i + 1, len(comp)):
                joined = others[: j - 1] + others[j:] + (n + comp[j],)
                yield _normal(rest, joined), n * comp[j]
        for c2 in range(c + 1, len(state)):
            comp2 = state[c2]
            rest2 = rest[: c2 - 1] + rest[c2:]
            for i, a in enumerate(comp):
                for j, b in enumerate(comp2):
                    merged = comp[:i] + comp[i + 1 :] + comp2[:j] + comp2[j + 1 :] + (a + b,)
                    yield _normal(rest2, merged), a * b


def _cut_and_merge_moves(state: State) -> Iterator[tuple[State, int]]:
    """The moves of ``state`` but the joins inside one component, the only
    moves that keep the component count and lose a cycle."""
    cycles = sum(map(len, state))
    for successor, ways in _component_moves(state):
        if len(successor) < len(state) or sum(map(len, successor)) > cycles:
            yield successor, ways


def _normal(rest: State, comp: tuple[int, ...]) -> State:
    """The state ``rest`` plus the component ``comp``, both sorted."""
    return tuple(sorted(rest + (tuple(sorted(comp, reverse=True)),), reverse=True))


def _retired_count_tuples(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    r = len(alpha) + len(beta) - 2
    target_cycles = len(beta)
    states: dict[State, int] = {tuple((a,) for a in alpha): 1}
    for step in range(r):
        remaining = r - step
        next_states: dict[State, int] = {}
        for state, weight in states.items():
            distance = abs(sum(map(len, state)) - target_cycles)
            if distance > remaining or (remaining - distance) % 2:
                continue
            if len(state) - 1 > remaining:
                continue
            for successor, ways in _component_moves(state):
                next_states[successor] = next_states.get(successor, 0) + weight * ways
        states = next_states
    return states.get((beta,), 0)


def test_counts_match_brute_force_up_to_degree_four() -> None:
    for d in range(1, 5):
        for alpha in enumerate_partitions(d):
            for beta in enumerate_partitions(d):
                assert hurwitz_oracle(alpha, beta) == _brute_force_count(alpha, beta)


def test_frozen_small_counts() -> None:
    # Values computed with the brute-force enumeration above.
    assert hurwitz_oracle((2,), (1, 1)) == 1
    assert hurwitz_oracle((1, 1), (1, 1)) == 2
    assert hurwitz_oracle((2, 1), (2, 1)) == 4
    assert hurwitz_oracle((2, 1), (1, 1, 1)) == 24
    assert hurwitz_oracle((1, 1, 1), (1, 1, 1)) == 144
    assert hurwitz_oracle((3, 1), (2, 2)) == 6
    assert hurwitz_oracle((2, 1, 1), (2, 1, 1)) == 480
    assert hurwitz_oracle((1, 1, 1, 1), (1, 1, 1, 1)) == 69120
    assert hurwitz_oracle((2,), (2,)) == Fraction(1, 2)
    assert hurwitz_oracle((4,), (4,)) == Fraction(1, 4)


def test_counts_match_the_permutation_search() -> None:
    for alpha, beta in _search_pairs():
        expected = Fraction(_search_count(alpha, beta) * aut(beta), math.prod(alpha))
        assert hurwitz_oracle(alpha, beta) == expected, (alpha, beta)


def test_counts_match_the_retired_walk() -> None:
    pairs = [
        (alpha, beta)
        for d in range(1, 8)
        for alpha in enumerate_partitions(d)
        for beta in enumerate_partitions(d)
    ]
    rng = random.Random(15)
    for d in range(8, MAX_DEGREE + 1):
        profiles = enumerate_partitions(d)
        pairs += [(rng.choice(profiles), rng.choice(profiles)) for _ in range(6)]
    for alpha, beta in pairs:
        assert hurwitz._count_tuples(alpha, (beta,)) == {beta: _retired_count_tuples(alpha, beta)}, (
            alpha,
            beta,
        )


def test_rows_match_the_retired_walk() -> None:
    for d in range(1, 8):
        profiles = enumerate_partitions(d)
        for alpha in profiles:
            expected = {beta: _retired_count_tuples(alpha, beta) for beta in profiles}
            assert hurwitz._count_tuples(alpha, profiles) == expected, alpha


def test_hurwitz_formula_against_the_trivial_profile() -> None:
    # Hurwitz's closed form for covers with one arbitrary and one unramified
    # fibre: d! * r! * d^(l-3) * prod(mu_i^mu_i / mu_i!), r = d + l - 2.
    for d in range(1, 10):
        for mu in enumerate_partitions(d):
            l = len(mu)
            expected = (
                math.factorial(d)
                * math.factorial(d + l - 2)
                * Fraction(d) ** (l - 3)
                * math.prod(Fraction(m**m, math.factorial(m)) for m in mu)
            )
            assert hurwitz_oracle(mu, (1,) * d) == expected, mu


def test_one_part_closed_form_up_to_max_degree() -> None:
    for d in range(1, MAX_DEGREE + 1):
        for nu in enumerate_partitions(d):
            expected = Fraction(math.factorial(len(nu) - 1)) * Fraction(d) ** (
                len(nu) - 2
            )
            assert hurwitz_one_part(nu, d) == expected
            assert hurwitz_oracle((d,), nu) == expected


def test_symmetry_in_the_two_profiles() -> None:
    for d in range(1, 7):
        for alpha in enumerate_partitions(d):
            for beta in enumerate_partitions(d):
                assert hurwitz_oracle(alpha, beta) == hurwitz_oracle(beta, alpha)


def test_rows_equal_the_pair_counts() -> None:
    for d in range(1, 9):
        profiles = enumerate_partitions(d)
        for alpha in profiles:
            row = hurwitz_row(alpha)
            assert list(row) == profiles
            assert row == {beta: hurwitz_oracle(alpha, beta) for beta in profiles}, alpha


def test_profile_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle((2, 1), (2,))
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle((), (1,))
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle((0, 2), (1, 1))
    with pytest.raises(InvalidArgumentError):
        hurwitz_row(())


@pytest.mark.parametrize(
    "part",
    [2.7, 2.0, Fraction(5, 2), "2"],
    ids=["float", "integral-float", "fraction", "string"],
)
def test_non_integer_parts_are_refused(part: object) -> None:
    # int() would truncate 2.7 and 5/2 to 2 and read "2" as 2, and
    # H((2, 1), (3)) = 1 would come back for a profile that is not one;
    # the degree 2.0 equals the sum of (1, 1), so only its type tells it apart.
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle([part, 1], [3])
    with pytest.raises(InvalidArgumentError):
        hurwitz_oracle([3], [part, 1])
    with pytest.raises(InvalidArgumentError):
        hurwitz_row([part, 1])
    with pytest.raises(InvalidArgumentError):
        hurwitz_one_part([part, 1], 3)
    with pytest.raises(InvalidArgumentError):
        rubber_psi_integral([part, 1], [3])
    with pytest.raises(InvalidArgumentError):
        hurwitz_one_part([1, 1], part)


@pytest.mark.parametrize(
    "count",
    [
        lambda profile: hurwitz_oracle(profile, [3]),
        lambda profile: hurwitz_oracle([3], profile),
        lambda profile: hurwitz_row(profile)[(3,)],
        lambda profile: hurwitz_one_part(profile, 3),
        lambda profile: rubber_psi_integral(profile, [3]),
    ],
    ids=[
        "hurwitz_oracle-alpha",
        "hurwitz_oracle-beta",
        "hurwitz_row",
        "hurwitz_one_part",
        "rubber_psi_integral",
    ],
)
def test_unordered_profiles_are_refused(count: Callable[[object], Fraction]) -> None:
    # Iterating {2: 5, 1: 7} reads only its keys, and a set cannot repeat a
    # part, so both read as the profile (2, 1), with H((2, 1), (3)) = 1.
    for profile in ({2: 5, 1: 7}, {2, 1}, frozenset({2, 1})):
        with pytest.raises(InvalidArgumentError):
            count(profile)
    assert count([2, 1]) == count((2, 1)) == count(iter([1, 2]))


def test_resource_caps_are_enforced() -> None:
    big = MAX_DEGREE + 1
    with pytest.raises(ResourceLimitError):
        hurwitz_oracle((big,), tuple([1] * big))
    with pytest.raises(ResourceLimitError, match=f"degree {big} exceeds the exact-count cap {MAX_DEGREE}"):
        hurwitz_row((big,))
    # (1^d, 1^d) has the most branch points of any pair of degree d, and
    # Hurwitz's formula gives d! * r! * d^(d-3) for it.
    ones = (1,) * MAX_DEGREE
    assert len(ones) + len(ones) - 2 == MAX_SIMPLE_BRANCH
    expected = math.factorial(MAX_DEGREE) * math.factorial(MAX_SIMPLE_BRANCH)
    assert hurwitz_oracle(ones, ones) == expected * MAX_DEGREE ** (MAX_DEGREE - 3)


# ---------------------------------------------------------------------------
# Repeated calls
# ---------------------------------------------------------------------------


def test_repeated_calls_return_equal_values() -> None:
    first = hurwitz_oracle((2, 1, 1), (3, 1))
    assert hurwitz_oracle((2, 1, 1), (3, 1)) == first
    assert first == _brute_force_count((2, 1, 1), (3, 1))


# ---------------------------------------------------------------------------
# The state table
# ---------------------------------------------------------------------------


def _closure(d: int) -> set[int]:
    """Ids of every state reachable from the start state of any alpha."""
    seen = {hurwitz._intern(tuple((a,) for a in alpha)) for alpha in enumerate_partitions(d)}
    frontier = list(seen)
    while frontier:
        for target, _ in hurwitz._successors(frontier.pop()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def _multisets_of_partitions(d: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every multiset of partitions of total size ``d``, each sorted descending."""
    pieces = [tuple(p) for n in range(1, d + 1) for p in enumerate_partitions(n)]
    out = set()

    def extend(remaining: int, start: int, chosen: tuple[tuple[int, ...], ...]) -> None:
        if remaining == 0:
            out.add(tuple(sorted(chosen, reverse=True)))
        for i in range(start, len(pieces)):
            if sum(pieces[i]) <= remaining:
                extend(remaining - sum(pieces[i]), i, chosen + (pieces[i],))

    extend(d, 0, ())
    return out


def _states_whose_moves_differ(d_max: int) -> list[State]:
    """States of degree at most ``d_max`` whose successors differ from the
    per-state cuts and merges merged by target."""
    differ = []
    for d in range(1, d_max + 1):
        for sid in _closure(d):
            state = hurwitz._STATES[sid]
            expected: dict[State, int] = {}
            for successor, ways in _cut_and_merge_moves(state):
                expected[successor] = expected.get(successor, 0) + ways
            got = {hurwitz._STATES[target]: ways for target, ways in hurwitz._successors(sid)}
            if got != expected:
                differ.append(state)
    return differ


def _fresh_tables(monkeypatch: pytest.MonkeyPatch) -> None:
    """Give the module empty state and component tables for one test."""
    for name, empty in (
        ("_IDS", {}),
        ("_STATES", []),
        ("_COMPONENTS", []),
        ("_SUCCESSORS", []),
        ("_CUTS", Table(hurwitz._CUTS.build)),
        ("_MERGES", Table(hurwitz._MERGES.build)),
    ):
        monkeypatch.setattr(hurwitz, name, empty)


def test_successors_match_the_per_state_moves() -> None:
    assert _states_whose_moves_differ(8) == []


@pytest.mark.parametrize(
    "table, key, entry, start, failure",
    [
        # An equal cut of a 4-cycle counted n = 4 ways, not n // 2 = 2.
        ("_CUTS", (4,), (((3, 1), 4), ((2, 2), 4)), ((4,),), "one-part count fails at (2, 2)"),
        # Joining two fixed points counted 2 ways, not 1 * 1: the walk from
        # (1, 1) to (2,) merges them.
        ("_MERGES", ((1,), (1,)), (((2,), 2),), ((1,), (1,)), "one-part count fails at (1, 1)"),
        # A fixed point joined to either of two counted 3 ways, not 2: no
        # walk to or from one cycle merges a two-cycle component.
        ("_MERGES", ((1, 1), (1,)), (((2, 1), 3),), ((1, 1), (1,)), "symmetry fails at (3, 1)/(2, 1, 1)"),
    ],
    ids=["cut", "merge", "two-cycle-merge"],
)
def test_a_doctored_table_entry_fails_the_checks(
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
    table: str,
    key: tuple,
    entry: tuple,
    start: State,
    failure: str,
) -> None:
    _fresh_tables(monkeypatch)
    getattr(hurwitz, table)[key] = entry
    assert start in _states_whose_moves_differ(8)
    code = cli.main(["verify-all", "--g-max", "1", "--d-max", "4"])
    out = capsys.readouterr().out
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        f"FAIL hurwitz: one-part-and-symmetry-d<=4 — {failure}"
    ]


def test_a_doctored_merge_fails_the_one_part_check(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    """A merge of two 4-cycles' components that keeps the cycles apart makes
    ``H((4, 4), (8,))`` 0, not the closed form's 1.  The walk from ``(8,)``,
    one component, never merges; the one from ``(4, 4)`` does."""
    _fresh_tables(monkeypatch)
    hurwitz._MERGES[((4,), (4,))] = (((4, 4), 16),)
    assert hurwitz_oracle((8,), (4, 4)) == hurwitz_one_part((4, 4), 8) == 1
    assert hurwitz_oracle((4, 4), (8,)) == 0
    code = cli.main(["verify-all", "--g-max", "1", "--d-max", "8"])
    out = capsys.readouterr().out
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL hurwitz: one-part-and-symmetry-d<=8 — one-part count fails at (4, 4)"
    ]


def test_a_doctored_merge_of_a_many_cycle_component_fails_the_symmetry_check(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    """A 4-cycle joined to a cycle of a three-cycle component counted one
    way too many.  No one-part walk merges such a component; the symmetry
    check, which compares every pair, reaches it."""
    _fresh_tables(monkeypatch)
    hurwitz._MERGES[((4,), (2, 1, 1))] = (((6, 1, 1), 9), ((5, 2, 1), 8))
    code = cli.main(["verify-all", "--g-max", "1", "--d-max", "8"])
    out = capsys.readouterr().out
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL hurwitz: one-part-and-symmetry-d<=8 — symmetry fails at (6, 1, 1)/(4, 4)"
    ]


def test_a_walk_stops_at_its_longest_profile(monkeypatch: pytest.MonkeyPatch) -> None:
    _fresh_tables(monkeypatch)
    counts = hurwitz._count_tuples((3,), ((1, 1, 1), (3,), (2, 1)))
    assert list(counts.items()) == [((1, 1, 1), 3), ((3,), 1), ((2, 1), 3)]
    expanded = [hurwitz._STATES[sid] for sid, moves in enumerate(hurwitz._SUCCESSORS) if moves is not None]
    assert expanded == [((3,),), ((2, 1),)]
    assert ((1, 1, 1),) in hurwitz._IDS


def test_the_hurwitz_check_builds_every_merge_entry(monkeypatch: pytest.MonkeyPatch) -> None:
    _fresh_tables(monkeypatch)
    cli._check_hurwitz(MAX_DEGREE)
    assert len(hurwitz._MERGES) == 478


def test_successors_count_every_cut_and_merge() -> None:
    # Of the C(d, 2) transpositions, those inside one cycle cut it and those
    # across two components merge them; the rest join within a component.
    for d in range(1, 9):
        for sid in _closure(d):
            state = hurwitz._STATES[sid]
            successors = hurwitz._successors(sid)
            targets = [target for target, _ in successors]
            assert len(set(targets)) == len(targets)
            cuts = sum(math.comb(n, 2) for comp in state for n in comp)
            sizes = [sum(comp) for comp in state]
            merges = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1 :])
            assert sum(ways for _, ways in successors) == cuts + merges


def test_the_walk_reaches_every_multiset_of_partitions() -> None:
    sizes = []
    for d in range(1, MAX_DEGREE + 1):
        states = {hurwitz._STATES[sid] for sid in _closure(d)}
        assert states == _multisets_of_partitions(d)
        sizes.append(len(states))
    assert sizes == [1, 3, 6, 14, 27, 58, 111, 223, 424, 817]
    # The table bounds in the module's docstring: no other state, component
    # or pair of components within the degree cap can ever be entered.
    within_cap = [s for s in hurwitz._STATES if sum(map(sum, s)) <= MAX_DEGREE]
    assert len(within_cap) == sum(sizes) == 1684
    components = {tuple(p) for n in range(1, MAX_DEGREE + 1) for p in enumerate_partitions(n)}
    assert {c for c in hurwitz._CUTS if sum(c) <= MAX_DEGREE} == components
    assert len(components) == 138
    pairs = {
        (c, c2)
        for c in components
        for c2 in components
        if c >= c2 and sum(c) + sum(c2) <= MAX_DEGREE
    }
    assert {pair for pair in hurwitz._MERGES if sum(map(sum, pair)) <= MAX_DEGREE} == pairs
    assert len(pairs) == 478


def test_a_capped_pair_enters_no_state() -> None:
    before = len(hurwitz._STATES)
    ones = (1,) * (MAX_DEGREE + 1)
    with pytest.raises(ResourceLimitError):
        hurwitz_oracle(ones, ones)
    with pytest.raises(ResourceLimitError):
        hurwitz_oracle((6, 5), (6, 5))
    with pytest.raises(ResourceLimitError):
        hurwitz_row(ones)
    assert len(hurwitz._STATES) == before
    assert ((6,), (5,)) not in hurwitz._IDS


def test_threads_build_one_consistent_table(monkeypatch: pytest.MonkeyPatch) -> None:
    _fresh_tables(monkeypatch)
    pairs = [
        (alpha, beta)
        for d in range(1, 7)
        for alpha in enumerate_partitions(d)
        for beta in enumerate_partitions(d)
    ]
    expected = {pair: _retired_count_tuples(*pair) for pair in pairs}
    results: list[dict] = [{} for _ in range(6)]

    def count_all(k: int) -> None:
        order = pairs[:]
        random.Random(k).shuffle(order)
        for alpha, beta in order:
            results[k][alpha, beta] = hurwitz._count_tuples(alpha, (beta,))[beta]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=count_all, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == expected for result in results)
    table = hurwitz._STATES
    assert [hurwitz._IDS[state] for state in table] == list(range(len(table)))
    assert len(hurwitz._IDS) == len(table) == len(hurwitz._COMPONENTS) == len(hurwitz._SUCCESSORS)
    # Every entry equals the one a single thread builds over the same pairs.
    threaded = _successors_by_state(), hurwitz._CUTS, hurwitz._MERGES
    _fresh_tables(monkeypatch)
    count_all(0)
    assert (_successors_by_state(), hurwitz._CUTS, hurwitz._MERGES) == threaded


def _successors_by_state() -> dict[State, dict[State, int]]:
    """Each expanded state's successors, keyed by state rather than by id."""
    states = hurwitz._STATES
    return {
        states[sid]: {states[target]: ways for target, ways in successors}
        for sid, successors in enumerate(hurwitz._SUCCESSORS)
        if successors is not None
    }


def test_capped_degrees_raise_on_every_call() -> None:
    big = (MAX_DEGREE + 1,)
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            hurwitz_oracle(big, big)


def test_the_cap_is_read_at_call_time(monkeypatch: pytest.MonkeyPatch) -> None:
    # A pair counted under a wider cap is refused again once the cap is back.
    big = (MAX_DEGREE + 1,)
    monkeypatch.setattr(hurwitz, "MAX_DEGREE", MAX_DEGREE + 1)
    assert hurwitz_oracle(big, big) == Fraction(1, MAX_DEGREE + 1)
    monkeypatch.setattr(hurwitz, "MAX_DEGREE", MAX_DEGREE)
    with pytest.raises(ResourceLimitError):
        hurwitz_oracle(big, big)


def test_rubber_integrals_divide_by_branch_count() -> None:
    assert rubber_psi_integral((2,), (1, 1)) == 1
    assert rubber_psi_integral((1, 1), (2,)) == 1
    assert rubber_psi_integral((1, 1, 1), (3,)) == 3
    assert rubber_psi_integral((1, 1), (1, 1)) == 1
    for d in range(1, 8):
        for alpha in enumerate_partitions(d):
            for beta in enumerate_partitions(d):
                r = len(alpha) + len(beta) - 2
                if r < 1:
                    continue
                expected = hurwitz_oracle(alpha, beta) / math.factorial(r)
                assert rubber_psi_integral(alpha, beta) == expected


def test_one_part_rubber_integrals_need_no_walk(monkeypatch: pytest.MonkeyPatch) -> None:
    def no_walk(*args: object) -> None:
        raise AssertionError("a one-part rubber integral walked the state graph")

    monkeypatch.setattr(hurwitz, "_count_tuples", no_walk)
    # Past the exact-count cap the closed form d^(l - 2) still answers.
    assert rubber_psi_integral((6, 6), (12,)) == 1
    assert rubber_psi_integral((16,), (1,) * 16) == 16**14
    for d in range(2, MAX_DEGREE + 1):
        for nu in enumerate_partitions(d):
            if len(nu) > 1:
                assert rubber_psi_integral(nu, (d,)) == Fraction(d) ** (len(nu) - 2)
                assert rubber_psi_integral((d,), nu) == Fraction(d) ** (len(nu) - 2)
    with pytest.raises(AssertionError, match="walked"):
        rubber_psi_integral((2, 1), (2, 1))


def test_rubber_integral_needs_a_branch_point() -> None:
    with pytest.raises(InvalidArgumentError):
        rubber_psi_integral((3,), (3,))
