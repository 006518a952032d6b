"""Class-valued polynomials: the genus-one divisor quadric, exact
interpolation, and the formal normal-function square expansion.

The centerpiece is a quadratic form in weights attached to the non-reference
marks whose coefficients are degree-one tautological classes
(:class:`~rubbertaut.tautring.TautClass`).  The same container also supports
plain rational coefficients, so the exact tensor-grid interpolator below is
generic in the value type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Any, Callable, Mapping, Sequence

from .errors import InvalidArgumentError, ResourceLimitError
from .tautring import (
    _PSI_KEY,
    RingContext,
    TautClass,
    _trusted_class,
    linear_combination,
    pullback_forget,
    relabel,
)

__all__ = [
    "MAX_MARKS",
    "MAX_HAIN_MONOMIALS",
    "MAX_INTERP_POINTS",
    "MultiPoly",
    "genus1_polynomial",
    "check_pullback_stability",
    "check_equivariance",
    "check_homogeneity",
    "interpolate",
    "hain_expand",
]


def _is_zero_value(value: Any) -> bool:
    if value is None:
        return True
    is_zero = getattr(value, "is_zero", None)
    if callable(is_zero):
        return bool(is_zero())
    return value == 0


@dataclass(frozen=True)
class MultiPoly:
    """A polynomial in several variables with duck-typed coefficients.

    ``coeffs`` maps exponent tuples (one entry per variable) to values; the
    values only need addition among themselves and left-multiplication by
    ``Fraction``.  Zero values are dropped on construction, so the generated
    equality on ``(nvars, coeffs)`` compares polynomials.
    """

    nvars: int
    coeffs: Mapping[tuple[int, ...], Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[tuple[int, ...], Any] = {}
        for exponents, value in self.coeffs.items():
            key = tuple(int(e) for e in exponents)
            if len(key) != self.nvars or any(e < 0 for e in key):
                raise InvalidArgumentError(f"bad exponent tuple {exponents!r}")
            if not _is_zero_value(value):
                cleaned[key] = value
        object.__setattr__(self, "coeffs", cleaned)

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def coefficient(self, exponents: Sequence[int]) -> Any:
        return self.coeffs.get(tuple(int(e) for e in exponents))

    def evaluate(self, point: Sequence[Fraction | int]) -> Any:
        """Value at an exact rational point (None when the sum is empty).

        Class values are summed by :func:`~rubbertaut.tautring.linear_combination`
        over one integer denominator; other values by plain addition.
        """
        if len(point) != self.nvars:
            raise InvalidArgumentError(
                f"point has {len(point)} entries for {self.nvars} variables"
            )
        values = [Fraction(p) for p in point]
        terms = []
        for exponents, value in self.coeffs.items():
            num = den = 1
            for base, exp in zip(values, exponents):
                if exp:
                    num *= base.numerator**exp
                    den *= base.denominator**exp
            terms.append((Fraction(num, den), value))
        if not terms:
            return None
        if all(isinstance(value, TautClass) for _, value in terms):
            return linear_combination(terms)
        # ``scale * value`` is a new value, so summing in place never
        # touches a stored coefficient.
        total = terms[0][0] * terms[0][1]
        for scale, value in terms[1:]:
            total += scale * value
        return total


# ---------------------------------------------------------------------------
# The genus-one divisor quadric
# ---------------------------------------------------------------------------

#: Most marks :func:`genus1_polynomial` builds, and so the most that
#: ``pclass`` and the ``check_*`` predicates accept.  Each coefficient has up
#: to ``2**t`` divisor terms.  At 11 marks the polynomial takes about 0.02 s,
#: ``check_pullback_stability`` about 0.12 s and ``check_equivariance`` about
#: 0.6 s, and ``pclass`` about 0.07 s after start-up; at 12 marks 0.04 s,
#: 0.4 s, 1.7 s and 0.16 s (2-vCPU VM, Python 3.11).
MAX_MARKS = 11

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def genus1_polynomial(t: int) -> MultiPoly:
    """The degree-two class polynomial in weights ``alpha_2 .. alpha_t``.

    Variable ``i`` of the result corresponds to mark ``i + 2``; the
    coefficient of ``alpha_i**2`` and of ``alpha_i alpha_j`` are degree-one
    classes on the ``t``-mark space.  Each is ``psi1`` minus a family of
    divisors: ``alpha_i**2`` loses the divisors whose genus-zero side holds
    1 but not i, and ``alpha_i alpha_j`` those whose genus-zero side holds 1
    but neither i nor j, or both i and j but not 1.
    """
    if t < 3:
        raise InvalidArgumentError(f"need at least 3 marks, got {t}")
    if t > MAX_MARKS:
        raise ResourceLimitError(f"{t} marks exceed the weight-polynomial cap {MAX_MARKS}")
    ctx = RingContext.standard(t)
    free_marks = list(range(2, t + 1))
    squares = {i: {_PSI_KEY: _ONE} for i in free_marks}
    mixed = {pair: {_PSI_KEY: _ONE} for pair in combinations(free_marks, 2)}
    # One walk over the genus-zero sides; each divisor is written only into
    # the coefficients it enters.
    for size in range(2, t):
        for genus0 in combinations(ctx.marks, size):
            side = tuple(m for m in ctx.marks if m not in genus0)
            key = ("D", side)
            if genus0[0] == 1:
                for i in side:
                    squares[i][key] = _MINUS_ONE
                for pair in combinations(side, 2):
                    mixed[pair][key] = _MINUS_ONE
            else:
                for pair in combinations(genus0, 2):
                    mixed[pair][key] = _MINUS_ONE

    def exponents(pairs: Mapping[int, int]) -> tuple[int, ...]:
        return tuple(pairs.get(m, 0) for m in free_marks)

    coeffs: dict[tuple[int, ...], TautClass] = {}
    for i, terms in squares.items():
        coeffs[exponents({i: 2})] = _trusted_class(ctx, terms)
    for (i, j), terms in mixed.items():
        coeffs[exponents({i: 1, j: 1})] = _trusted_class(ctx, terms)
    return MultiPoly(t - 1, coeffs)


def check_pullback_stability(t: int) -> bool:
    """Setting the last weight to zero must recover the pulled-back polynomial.

    Compares every coefficient of the ``t``-mark polynomial with last
    exponent zero against the pullback (adding mark ``t``) of the matching
    coefficient one level down, in reduced normal form.
    """
    if t < 4:
        raise InvalidArgumentError(f"stability needs at least 4 marks, got {t}")
    big = genus1_polynomial(t)
    small = genus1_polynomial(t - 1)
    seen: set[tuple[int, ...]] = set()
    for exponents, value in small.coeffs.items():
        lifted_exponents = exponents + (0,)
        seen.add(lifted_exponents)
        counterpart = big.coefficient(lifted_exponents)
        if counterpart is None:
            return False
        if pullback_forget(value, t).reduce() != counterpart.reduce():
            return False
    for exponents in big.coeffs:
        if exponents[-1] == 0 and exponents not in seen:
            return False
    return True


def check_equivariance(t: int) -> bool:
    """Relabeling marks 2..t must permute the coefficients accordingly.

    Only the adjacent transpositions ``(i i+1)`` of marks 2..t are checked:
    they generate every relabeling, and relabelings compose, so a polynomial
    equivariant under them is equivariant under all ``(t-1)!``.
    """
    poly = genus1_polynomial(t)
    free_marks = list(range(2, t + 1))

    def exponents(pairs: Mapping[int, int]) -> tuple[int, ...]:
        return tuple(pairs.get(m, 0) for m in free_marks)

    for swap in free_marks[:-1]:
        mapping = {m: m for m in range(1, t + 1)}
        mapping[swap], mapping[swap + 1] = swap + 1, swap
        for i in free_marks:
            moved = relabel(poly.coefficient(exponents({i: 2})), mapping)
            if moved != poly.coefficient(exponents({mapping[i]: 2})):
                return False
        for i, j in combinations(free_marks, 2):
            moved = relabel(poly.coefficient(exponents({i: 1, j: 1})), mapping)
            a, b = sorted((mapping[i], mapping[j]))
            if moved != poly.coefficient(exponents({a: 1, b: 1})):
                return False
    return True


def check_homogeneity(
    t: int, scale: Fraction | int, point: Sequence[Fraction | int]
) -> bool:
    """Degree-two homogeneity: ``P(c * a) == c**2 * P(a)`` at an exact point."""
    poly = genus1_polynomial(t)
    frac = Fraction(scale)
    scaled_point = [frac * Fraction(p) for p in point]
    lhs = poly.evaluate(scaled_point)
    rhs = frac * frac * poly.evaluate(point)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Exact tensor-grid interpolation
# ---------------------------------------------------------------------------


#: Most grid points :func:`interpolate` evaluates, and most trials times grid
#: points the ``interp`` command runs.  One round trip costs time quadratic
#: in its grid, and more again when one variable carries a high degree: at
#: 125 points, three variables of degree 4 take about 0.4 s and one variable
#: of degree 124 about 7.6 s; two variables of degree 9 (100 points) take
#: about 0.24 s (2-vCPU VM, Python 3.11).
MAX_INTERP_POINTS = 125


def _lagrange_basis(points: Sequence[Fraction]) -> list[list[Fraction]]:
    """Coefficient vectors of the Lagrange basis through the given nodes."""
    n = len(points)
    basis: list[list[Fraction]] = []
    for i in range(n):
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            denom *= points[i] - points[j]
            expanded = [Fraction(0)] * (len(coeffs) + 1)
            for degree, c in enumerate(coeffs):
                expanded[degree + 1] += c
                expanded[degree] -= points[j] * c
            coeffs = expanded
        padded = coeffs + [Fraction(0)] * (n - len(coeffs))
        basis.append([c / denom for c in padded])
    return basis


def interpolate(
    fn: Callable[[tuple[Fraction, ...]], Any],
    nvars: int,
    degrees: Sequence[int],
) -> MultiPoly:
    """Exact interpolation of ``fn`` on the integer grid ``{0..deg}**nvars``.

    ``fn`` must be a polynomial of per-variable degree at most ``degrees``;
    its values may be rationals or any type supporting addition and
    ``Fraction``-scaling (such as :class:`TautClass`).
    """
    if nvars < 1:
        raise InvalidArgumentError(f"need at least one variable, got {nvars}")
    if len(degrees) != nvars or any(d < 0 for d in degrees):
        raise InvalidArgumentError(f"bad per-variable degrees {degrees!r}")
    if math.prod(d + 1 for d in degrees) > MAX_INTERP_POINTS:
        raise ResourceLimitError(
            f"degrees {tuple(degrees)} need more than {MAX_INTERP_POINTS} grid points"
        )
    axes = [[Fraction(v) for v in range(d + 1)] for d in degrees]
    bases = [_lagrange_basis(axis) for axis in axes]
    coeffs: dict[tuple[int, ...], Any] = {}
    for grid_index in product(*(range(len(axis)) for axis in axes)):
        value = fn(tuple(axes[v][grid_index[v]] for v in range(nvars)))
        if _is_zero_value(value):
            continue
        for exponents in product(*(range(len(axis)) for axis in axes)):
            weight = Fraction(1)
            for v in range(nvars):
                weight *= bases[v][grid_index[v]][exponents[v]]
            if weight == 0:
                continue
            term = weight * value
            if exponents in coeffs:
                coeffs[exponents] = coeffs[exponents] + term
            else:
                coeffs[exponents] = term
    return MultiPoly(nvars, coeffs)


# ---------------------------------------------------------------------------
# Formal normal-function square expansion
# ---------------------------------------------------------------------------

#: Most monomials :func:`hain_expand` enumerates.  At 37,820 monomials
#: (genus 3, weights ``-3,-3,0,3,3``) the ``hain`` command takes about 0.25 s
#: after start-up, most of it rendering rows, and the expansion alone about
#: 0.04 s (2-vCPU VM, Python 3.11).
MAX_HAIN_MONOMIALS = 50_000


def _check_monomial_cap(symbols: int, g: int, t: int) -> None:
    """Raise when ``comb(symbols + g - 1, g)``, the number of degree-``g``
    monomials in ``symbols`` symbols, exceeds :data:`MAX_HAIN_MONOMIALS`.

    The running product after ``i + 1`` factors is ``comb(symbols + i, i + 1)``,
    which never decreases in ``i``, so the walk stops at the first one over
    the cap and costs little even for a huge ``g``.
    """
    count = 1
    for i in range(g):
        count = count * (symbols + i) // (i + 1)
        if count > MAX_HAIN_MONOMIALS:
            raise ResourceLimitError(
                f"genus {g} over {t} marks needs more than {MAX_HAIN_MONOMIALS} monomials"
            )


def hain_expand(
    g: int, t: int, weights: Sequence[Fraction | int]
) -> dict[tuple[tuple, ...], Fraction]:
    """Expand the ``g``-th power of the weighted divisor combination.

    The linear combination pairs each mark's squared weight with a formal
    cotangent symbol ``("psi+", j)`` and each subset with formal boundary
    symbols ``("delta", h, J)``; the result maps degree-``g`` monomials
    (sorted symbol tuples) to exact rationals, including the ``1/g!``
    normalization.
    """
    if g < 2:
        raise InvalidArgumentError(f"need genus >= 2, got {g}")
    if t < 2:
        raise InvalidArgumentError(f"need at least 2 marks, got {t}")
    k = [Fraction(w) for w in weights]
    if len(k) != t:
        raise InvalidArgumentError(f"need {t} weights, got {len(k)}")
    if sum(k) != 0:
        raise InvalidArgumentError("weights must sum to zero")
    if not any(k):
        return {}
    # With a nonzero weight k_i, a subset and its union with {i} never both
    # sum to zero, so at least 2**(t-1) subsets carry g - 1 symbols each.
    # This bounds t and g before the 2**t subsets are walked.
    _check_monomial_cap(2 ** (t - 1) * (g - 1), g, t)
    marks = list(range(1, t + 1))
    base: dict[tuple, Fraction] = {}
    for index, mark in enumerate(marks):
        value = k[index] ** 2 / 2
        if value:
            base[("psi+", mark)] = value
    for size in range(1, t + 1):
        for subset in combinations(range(t), size):
            k_sum = sum((k[i] for i in subset), Fraction(0))
            if k_sum == 0:
                continue
            j_key = tuple(marks[i] for i in subset)
            if size >= 2:
                base[("delta", 0, j_key)] = -(k_sum**2)
            for h in range(1, g):
                scaled = Fraction(2 * h - 1, 2 * g - 2) * k_sum
                base[("delta", h, j_key)] = -(scaled**2) / 2
    _check_monomial_cap(len(base), g, t)
    symbols = sorted(base)
    numerators = [base[symbol].numerator for symbol in symbols]
    denominators = [base[symbol].denominator for symbol in symbols]
    result: dict[tuple[tuple, ...], Fraction] = {}
    # A subset and its complement carry the same squared weight, so many
    # monomials share one unreduced (numerator, denominator) pair; each pair
    # becomes one immutable ``Fraction``, shared by all of them.
    shared: dict[tuple[int, int], Fraction] = {}

    # Monomials in combinations_with_replacement order.  A prefix carries the
    # numerator and denominator of its coefficient as plain integers, the
    # denominator including the factorial of each multiplicity; ``run``
    # counts the trailing copies of ``symbols[last]``.
    def extend(prefix: tuple, last: int, num: int, den: int, run: int) -> None:
        for index in range(max(last, 0), len(symbols)):
            repeat = run + 1 if index == last else 1
            monomial = prefix + (symbols[index],)
            num_next = num * numerators[index]
            den_next = den * denominators[index] * repeat
            if len(monomial) == g:
                pair = (num_next, den_next)
                value = shared.get(pair)
                if value is None:
                    value = shared[pair] = Fraction(num_next, den_next)
                result[monomial] = value
            else:
                extend(monomial, index, num_next, den_next, repeat)

    extend((), -1, 1, 1, 0)
    return result
