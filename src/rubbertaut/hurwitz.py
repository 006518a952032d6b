"""Genus-zero double Hurwitz numbers by an exact cut-and-join recursion.

The count fixes a permutation ``sigma0`` of cycle type ``alpha`` and counts
tuples of transpositions ``(tau_1, ..., tau_r)``, ``r = len(alpha) +
len(beta) - 2``, whose product ``tau_r ... tau_1 sigma0`` has cycle type
``beta`` and which, together with ``sigma0``, act transitively.  Which
transpositions can follow depends only on cycle lengths, so the tuples are
counted over component states (Goulden-Jackson-Vakil, math/0309440;
Cavalieri-Johnson-Markwig, arXiv:0804.0579): a state is the sorted multiset
of connected components, each the sorted cycle lengths of the current
product inside it, and it starts as one component ``(a,)`` per part of
``alpha``.  One transposition either cuts an ``n``-cycle into ``{m, n - m}``,
which ``n`` transpositions do (``n / 2`` when ``m = n - m``), or joins an
``a``-cycle and a ``b``-cycle, which ``a * b`` transpositions do.  The ``r``
steps must merge the ``len(alpha)`` start components into one and end on
``len(beta)`` cycles, which in genus zero leaves no step to join two cycles
of one component: the walk makes cuts and merges only.  A merge drops a cycle
and a component and a cut adds a cycle, so ``2 * (components - 1) = cycles +
remaining - len(beta)`` at every step: the one prune drops states with
``components - 1 > remaining``, and a one-component state after ``s`` steps
has ``s - len(alpha) + 2`` cycles.  Each state carries the exact number of
tuples reaching it, level by level; one walk from ``alpha`` reads the count
of each ``beta`` off the state ``(beta,)`` at its step, for a pair or a row.

Normalization: with ``N`` the tuple count above, the number returned is
``N * aut(beta) / prod(alpha)``.  It is symmetric in the two profiles and
reproduces the one-part closed form ``H((d), nu) = (l - 1)! * d ** (l - 2)``,
``l = len(nu)``, for every ``nu`` up to ``MAX_DEGREE``.  Calibration against that
closed form singles it out among the weightings ``N / (prod(alpha) *
aut(alpha)) * (aut(alpha) * aut(beta)) ** k``: ``k = 1`` is this one, while
``k = 0`` and ``k = -1`` both miss it already below degree five.

Every walk of degree ``d`` moves in one state graph, whose states are the
multisets of partitions of ``d``, so the graph is shared by every profile
pair.  A state gets an integer id the first time a walk reaches it, stored
with its component count, and its successors are built once, on its first
expansion, merged by target with their ``ways`` summed.  They come from two
tables keyed by component, not by state, each with the ways of equal results
summed: the cuts of one sorted component and the merges of an ordered pair.
A successor puts one entry in place of its one or two components, so only
the outer tuple is re-sorted, and the walk runs on ids.  The tables grow only
through the two walks after their degree cap, so they never hold more than
1,684 states (the multisets of partitions of each ``d <= 10``), 138 cut
entries (the partitions of each ``n <= 10``) and 478 merge entries (the pairs
of those partitions of total size at most 10).
:func:`rubber_psi_integral` reads a one-part pair off the closed form at any
degree, without a walk; the graph sums use that closed form without calling it.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator, Mapping, Sequence, Set
from fractions import Fraction

from .errors import InvalidArgumentError, ResourceLimitError
from .partitions import aut, enumerate_partitions
from .util import Table, check_integer, check_integers

__all__ = [
    "MAX_DEGREE",
    "MAX_SIMPLE_BRANCH",
    "hurwitz_oracle",
    "hurwitz_one_part",
    "hurwitz_row",
    "rubber_psi_integral",
]

#: Largest total degree the exact count accepts.
MAX_DEGREE = 10
#: Most simple branch points a profile pair within ``MAX_DEGREE`` can have.
MAX_SIMPLE_BRANCH = 2 * MAX_DEGREE - 2

#: A search state: the connected components, each the sorted cycle lengths
#: of the current product inside it.
_Comp = tuple[int, ...]
_State = tuple[_Comp, ...]
#: A component one transposition gives, with the number of transpositions.
_Move = tuple[_Comp, int]

#: The state table, indexed by state id: the id of each state reached so far,
#: and per id its state, component count, and merged successors ``(target id,
#: ways)`` once it has been expanded; and the two component tables, the cuts
#: of one component and the merges of two, at most 138 and 478 entries within
#: the degree cap.  New ids are handed out under the lock; successors are pure
#: data built without it: two threads that build one at once store equal values.
_TABLE_LOCK = threading.Lock()
_IDS: dict[_State, int] = {}
_STATES: list[_State] = []
_COMPONENTS: list[int] = []
_SUCCESSORS: list[tuple[tuple[int, int], ...] | None] = []
_CUTS: dict[_Comp, tuple[_Move, ...]] = Table(lambda comp: _summed(_cuts(comp)))
_MERGES: dict[tuple[_Comp, _Comp], tuple[_Move, ...]] = Table(lambda pair: _summed(_merges(*pair)))


def _validate_profile(name: str, profile: Sequence[int]) -> tuple[int, ...]:
    if isinstance(profile, (Set, Mapping)):
        raise InvalidArgumentError(f"{name} must be an ordered sequence of parts")
    if not (parts := check_integers(f"{name} part", profile, least=1)):
        raise InvalidArgumentError(f"{name} must have a part")
    return tuple(sorted(parts, reverse=True))


def _cuts(comp: _Comp) -> Iterator[_Move]:
    """Each component that cutting a cycle of ``comp`` gives, with its ways."""
    for i, n in enumerate(comp):
        others = comp[:i] + comp[i + 1 :]
        for m in range(1, n // 2 + 1):
            yield others + (m, n - m), n // 2 if 2 * m == n else n


def _merges(comp: _Comp, comp2: _Comp) -> Iterator[_Move]:
    """Each component that joining a cycle of ``comp`` to one of ``comp2`` gives."""
    for i, a in enumerate(comp):
        for j, b in enumerate(comp2):
            yield comp[:i] + comp[i + 1 :] + comp2[:j] + comp2[j + 1 :] + (a + b,), a * b


def _summed(moves: Iterator[_Move]) -> tuple[_Move, ...]:
    """``moves`` with each component sorted and the ways of equal ones summed."""
    summed: dict[_Comp, int] = {}
    for comp, ways in moves:
        comp = tuple(sorted(comp, reverse=True))
        summed[comp] = summed.get(comp, 0) + ways
    return tuple(summed.items())


def _intern(state: _State) -> int:
    """The id of ``state``, entering it in the table on its first visit."""
    sid = _IDS.get(state)
    if sid is not None:
        return sid
    with _TABLE_LOCK:
        sid = _IDS.get(state)
        if sid is None:
            sid = len(_STATES)
            _STATES.append(state)
            _COMPONENTS.append(len(state))
            _SUCCESSORS.append(None)
            # Published last, so an id read without the lock is complete.
            _IDS[state] = sid
    return sid


def _successors(sid: int) -> tuple[tuple[int, int], ...]:
    """Each state one transposition from ``sid``, with the summed ways."""
    successors = _SUCCESSORS[sid]
    if successors is None:
        state = _STATES[sid]
        merged: dict[int, int] = {}
        for c, comp in enumerate(state):
            rest = state[:c] + state[c + 1 :]
            replacements = [(rest, _CUTS[comp])]
            for c2 in range(c + 1, len(state)):
                replacements.append((rest[: c2 - 1] + rest[c2:], _MERGES[comp, state[c2]]))
            for others, moves in replacements:
                for new, ways in moves:
                    target = _intern(tuple(sorted(others + (new,), reverse=True)))
                    merged[target] = merged.get(target, 0) + ways
        successors = _SUCCESSORS[sid] = tuple(merged.items())
    return successors


def _count_tuples(alpha: _Comp, betas: Sequence[_Comp]) -> dict[_Comp, int]:
    """Transposition tuples completing a fixed ``alpha``-permutation to each of ``betas``."""
    r = len(alpha) + max(map(len, betas)) - 2
    counts = dict.fromkeys(betas, 0)
    states = {_intern(tuple((a,) for a in alpha)): 1}
    step = 0
    for beta in sorted(betas, key=len):
        while step < len(alpha) + len(beta) - 2:
            remaining = r - step
            next_states: dict[int, int] = {}
            for sid, weight in states.items():
                if _COMPONENTS[sid] - 1 > remaining:
                    continue
                for target, ways in _successors(sid):
                    next_states[target] = next_states.get(target, 0) + weight * ways
            states = next_states
            step += 1
        counts[beta] = states.get(_IDS.get((beta,), -1), 0)
    return counts


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise ResourceLimitError(f"degree {d} exceeds the exact-count cap {MAX_DEGREE}")


def hurwitz_oracle(alpha: Sequence[int], beta: Sequence[int]) -> Fraction:
    """Genus-zero double Hurwitz number for ramification profiles ``alpha, beta``."""
    alpha_t = _validate_profile("alpha", alpha)
    beta_t = _validate_profile("beta", beta)
    if sum(alpha_t) != sum(beta_t):
        raise InvalidArgumentError(
            f"profiles must have equal size, got {sum(alpha_t)} and {sum(beta_t)}"
        )
    _check_degree(sum(alpha_t))
    return Fraction(_count_tuples(alpha_t, (beta_t,))[beta_t] * aut(beta_t), math.prod(alpha_t))


def hurwitz_row(alpha: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
    """``hurwitz_oracle(alpha, beta)`` for every ``beta`` of the degree, from one walk."""
    alpha_t = _validate_profile("alpha", alpha)
    _check_degree(sum(alpha_t))
    counts = _count_tuples(alpha_t, enumerate_partitions(sum(alpha_t)))
    return {beta: Fraction(n * aut(beta), math.prod(alpha_t)) for beta, n in counts.items()}


def hurwitz_one_part(nu: Sequence[int], d: int) -> Fraction:
    """Closed form ``(l - 1)! * d**(l - 2)`` for profiles ``nu`` against ``(d)``."""
    nu_t = _validate_profile("nu", nu)
    if sum(nu_t) != (d := check_integer("degree", d)):
        raise InvalidArgumentError(f"partition {nu_t} does not sum to degree {d}")
    l = len(nu_t)
    return Fraction(math.factorial(l - 1)) * Fraction(d) ** (l - 2)


def rubber_psi_integral(alpha: Sequence[int], beta: Sequence[int]) -> Fraction:
    """Top cotangent-line integral on the genus-zero rubber space.

    Equals the double Hurwitz number divided by ``r!`` where ``r`` is the
    number of simple branch points; requires ``r >= 1``.  A one-part pair
    reads it off :func:`hurwitz_one_part` (``d ** (l - 2)``) at any degree.
    """
    alpha_t = _validate_profile("alpha", alpha)
    beta_t = _validate_profile("beta", beta)
    r = len(alpha_t) + len(beta_t) - 2
    if r < 1:
        raise InvalidArgumentError(
            "rubber integral needs at least one simple branch point"
        )
    if len(alpha_t) == 1:
        alpha_t, beta_t = beta_t, alpha_t
    if len(beta_t) == 1:
        return hurwitz_one_part(alpha_t, beta_t[0]) / math.factorial(r)
    return hurwitz_oracle(alpha_t, beta_t) / math.factorial(r)
