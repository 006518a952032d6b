"""Genus-zero double Hurwitz numbers by exact enumeration.

The count fixes a permutation ``sigma0`` of cycle type ``alpha`` and counts
tuples of transpositions ``(tau_1, ..., tau_r)``, ``r = len(alpha) +
len(beta) - 2``, whose product ``tau_r ... tau_1 sigma0`` has cycle type
``beta`` and which, together with ``sigma0``, act transitively.  The tuples
are enumerated exactly, but level by level with equal intermediate states
(permutation, connectivity partition) collapsed into one weighted entry, so
the worst cases inside the documented caps stay fast.

Normalization: with ``N`` the tuple count above, the number returned is
``N * aut(beta) / prod(alpha)``.  It is symmetric in the two profiles and
reproduces the one-part closed form ``H((d), nu) = (l - 1)! * d ** (l - 2)``,
``l = len(nu)``, for every ``nu`` up to degree six.  Calibration against that
closed form singles it out among the weightings ``N / (prod(alpha) *
aut(alpha)) * (aut(alpha) * aut(beta)) ** k``: ``k = 1`` is this one, while
``k = 0`` and ``k = -1`` both miss it already below degree five.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InvalidArgumentError, ResourceLimitError
from .partitions import aut

__all__ = [
    "MAX_DEGREE",
    "MAX_SIMPLE_BRANCH",
    "hurwitz_oracle",
    "hurwitz_one_part",
    "rubber_psi_integral",
]

#: Largest total degree the exact enumeration accepts.
MAX_DEGREE = 7
#: Largest number of simple branch points the exact enumeration accepts.
MAX_SIMPLE_BRANCH = 8


# -- permutation helpers (tuples of images, 0-based) ------------------------


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composite ``p after q``: ``x -> p[q[x]]``."""
    return tuple(p[q[x]] for x in range(len(q)))


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths: list[int] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _cycle_count(perm: tuple[int, ...]) -> int:
    return len(_cycle_type(perm))


def _canonical_of_type(alpha: Sequence[int]) -> tuple[int, ...]:
    """The permutation cycling consecutive blocks of sizes ``alpha``."""
    perm = list(range(sum(alpha)))
    start = 0
    for part in alpha:
        for offset in range(part):
            perm[start + offset] = start + (offset + 1) % part
        start += part
    return tuple(perm)


def _initial_blocks(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Connectivity code: each element mapped to the least element of its cycle."""
    code = list(range(len(perm)))
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        least = min(cycle)
        for y in cycle:
            code[y] = least
    return tuple(code)


def _join(code: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    a, b = code[i], code[j]
    if a == b:
        return code
    lo, hi = (a, b) if a < b else (b, a)
    return tuple(lo if c == hi else c for c in code)


def _validate_profile(name: str, profile: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(sorted((int(p) for p in profile), reverse=True))
    if not parts or any(p < 1 for p in parts):
        raise InvalidArgumentError(f"{name} must be a nonempty tuple of positive parts")
    return parts


def _count_tuples(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """Number of transposition tuples completing a fixed ``alpha``-permutation."""
    d = sum(alpha)
    r = len(alpha) + len(beta) - 2
    sigma0 = _canonical_of_type(alpha)
    transpositions: list[tuple[int, int, tuple[int, ...]]] = []
    for i in range(d):
        for j in range(i + 1, d):
            perm = list(range(d))
            perm[i], perm[j] = j, i
            transpositions.append((i, j, tuple(perm)))
    target_cycles = len(beta)
    states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {
        (sigma0, _initial_blocks(sigma0)): 1
    }
    for step in range(r):
        remaining = r - step
        next_states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (perm, code), weight in states.items():
            distance = abs(_cycle_count(perm) - target_cycles)
            if distance > remaining or (remaining - distance) % 2:
                continue
            if len(set(code)) - 1 > remaining:
                continue
            for i, j, tau in transpositions:
                key = (_compose(tau, perm), _join(code, i, j))
                next_states[key] = next_states.get(key, 0) + weight
        states = next_states
    total = 0
    for (perm, code), weight in states.items():
        if _cycle_type(perm) != beta:
            continue
        if len(set(code)) != 1:
            continue
        total += weight
    return total


def hurwitz_oracle(alpha: Sequence[int], beta: Sequence[int]) -> Fraction:
    """Genus-zero double Hurwitz number for ramification profiles ``alpha, beta``."""
    alpha_t = _validate_profile("alpha", alpha)
    beta_t = _validate_profile("beta", beta)
    if sum(alpha_t) != sum(beta_t):
        raise InvalidArgumentError(
            f"profiles must have equal size, got {sum(alpha_t)} and {sum(beta_t)}"
        )
    d = sum(alpha_t)
    if d > MAX_DEGREE:
        raise ResourceLimitError(f"degree {d} exceeds the exact-count cap {MAX_DEGREE}")
    r = len(alpha_t) + len(beta_t) - 2
    if r > MAX_SIMPLE_BRANCH:
        raise ResourceLimitError(
            f"{r} simple branch points exceed the exact-count cap {MAX_SIMPLE_BRANCH}"
        )
    return Fraction(_count_tuples(alpha_t, beta_t) * aut(beta_t), math.prod(alpha_t))


def hurwitz_one_part(nu: Sequence[int], d: int) -> Fraction:
    """Closed form ``(l - 1)! * d**(l - 2)`` for profiles ``nu`` against ``(d)``."""
    nu_t = _validate_profile("nu", nu)
    if sum(nu_t) != d:
        raise InvalidArgumentError(f"partition {nu_t} does not sum to degree {d}")
    l = len(nu_t)
    return Fraction(math.factorial(l - 1)) * Fraction(d) ** (l - 2)


def rubber_psi_integral(alpha: Sequence[int], beta: Sequence[int]) -> Fraction:
    """Top cotangent-line integral on the genus-zero rubber space.

    Equals the double Hurwitz number divided by ``r!`` where ``r`` is the
    number of simple branch points; requires ``r >= 1``.
    """
    alpha_t = _validate_profile("alpha", alpha)
    beta_t = _validate_profile("beta", beta)
    r = len(alpha_t) + len(beta_t) - 2
    if r < 1:
        raise InvalidArgumentError(
            "rubber integral needs at least one simple branch point"
        )
    return hurwitz_oracle(alpha_t, beta_t) / math.factorial(r)
