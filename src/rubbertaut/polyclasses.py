"""Class-valued polynomials: the genus-one divisor quadric, exact
interpolation, and the formal normal-function square expansion.

The centerpiece is a quadratic form in weights attached to the non-reference
marks whose coefficients are degree-one tautological classes
(:class:`~rubbertaut.tautring.TautClass`).  The same container also holds
plain rational coefficients, and the exact grid interpolator below recovers
polynomials of either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Any, Callable, Mapping, Sequence

from .errors import InvalidArgumentError, ResourceLimitError, TheoremViolationError
from .tautring import RingContext, TautClass, linear_combination, psi1_minus, pullback_forget, relabel
from .util import check_integer, check_integers, combine, fraction_str

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


def _combine_values(pairs: Sequence[tuple[Fraction | int, Any]]) -> Any:
    """``sum(scale * value for scale, value in pairs)``, or None for no pairs.

    The values are all classes, summed by :func:`linear_combination`, or all
    rationals, summed by :func:`combine` on a one-key map.
    """
    if not pairs:
        return None
    if isinstance(pairs[0][1], TautClass):
        return linear_combination(pairs)
    return combine((scale, {0: value}) for scale, value in pairs).get(0, Fraction(0))


def _exponent_key(exponents: Sequence[int], nvars: int) -> tuple[int, ...]:
    """``exponents`` as a tuple of ``nvars`` non-negative ints; anything else
    (a float exponent too, which ``int`` would truncate) raises."""
    if len(key := check_integers("exponent", exponents, least=0)) != nvars:
        raise InvalidArgumentError(f"bad exponent tuple {exponents!r}")
    return key


@dataclass(frozen=True)
class MultiPoly:
    """A polynomial in several variables with rational or class coefficients.

    ``coeffs`` maps exponent tuples (one entry per variable) to values, which
    are all ``int``/``Fraction`` or all :class:`TautClass`.  Zero values are
    dropped on construction, so the generated equality on ``(nvars, coeffs)``
    compares polynomials.
    """

    nvars: int
    coeffs: Mapping[tuple[int, ...], Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nvars", check_integer("number of variables", self.nvars, least=0))
        cleaned: dict[tuple[int, ...], Any] = {}
        for exponents, value in self.coeffs.items():
            key = _exponent_key(exponents, self.nvars)
            if isinstance(value, TautClass):
                is_zero = value.is_zero()
            elif isinstance(value, (int, Fraction)):
                is_zero = value == 0
            else:
                raise InvalidArgumentError(f"coefficient {value!r} is not a rational or a class")
            if not is_zero:
                cleaned[key] = value
        if len({isinstance(value, TautClass) for value in cleaned.values()}) > 1:
            raise InvalidArgumentError("coefficients mix rationals and classes")
        object.__setattr__(self, "coeffs", cleaned)

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def coefficient(self, exponents: Sequence[int]) -> Any:
        """The value at ``exponents``, or None; a malformed exponent tuple raises."""
        return self.coeffs.get(_exponent_key(exponents, self.nvars))

    def evaluate(self, point: Sequence[Fraction | int]) -> Any:
        """Value at an exact rational point (None when the sum is empty)."""
        if len(point) != self.nvars:
            raise InvalidArgumentError(f"point has {len(point)} entries for {self.nvars} variables")
        values = [Fraction(p) for p in point]
        terms = []
        for exponents, value in self.coeffs.items():
            num = den = 1
            for base, exp in zip(values, exponents):
                if exp:
                    num *= base.numerator**exp
                    den *= base.denominator**exp
            terms.append((Fraction(num, den), value))
        return _combine_values(terms)


# ---------------------------------------------------------------------------
# The genus-one divisor quadric
# ---------------------------------------------------------------------------

#: Most marks :func:`genus1_polynomial` builds, and so the most that
#: ``pclass`` and the ``check_*`` predicates accept.  Each coefficient has up
#: to ``2**t`` divisor terms.  At 11 marks the polynomial takes about 0.006 s,
#: ``check_pullback_stability`` about 0.03 s, ``check_equivariance`` about
#: 0.04 s and ``pclass`` about 0.04 s after start-up; at 12 marks 0.014 s,
#: 0.06 s, 0.14 s and 0.09 s (2-vCPU VM, Python 3.11).
MAX_MARKS = 11


def genus1_polynomial(t: int) -> MultiPoly:
    """The degree-two class polynomial in weights ``alpha_2 .. alpha_t``.

    Variable ``i`` of the result corresponds to mark ``i + 2``; the
    coefficient of ``alpha_i**2`` and of ``alpha_i alpha_j`` are degree-one
    classes on the ``t``-mark space.  Each is ``psi1`` minus a family of
    divisors: ``alpha_i**2`` loses the divisors whose genus-zero side holds
    1 but not i, and ``alpha_i alpha_j`` those whose genus-zero side holds 1
    but neither i nor j, or both i and j but not 1.
    """
    if (t := check_integer("number of marks", t, least=3)) > MAX_MARKS:
        raise ResourceLimitError(f"{t} marks exceed the weight-polynomial cap {MAX_MARKS}")
    ctx = RingContext.standard(t)
    free_marks = range(2, t + 1)
    coeffs: dict[tuple[int, ...], TautClass] = {}
    for i in free_marks:
        coeffs[tuple(2 * (m == i) for m in free_marks)] = psi1_minus(ctx, [((1,), (i,))])
    for i, j in combinations(free_marks, 2):
        exponents = tuple(int(m in (i, j)) for m in free_marks)
        coeffs[exponents] = psi1_minus(ctx, [((1,), (i, j)), ((i, j), (1,))])
    return MultiPoly(t - 1, coeffs)


def check_pullback_stability(t: int) -> None:
    """Setting the last weight to zero must recover the pulled-back polynomial.

    Compares every coefficient of the ``t``-mark polynomial with last
    exponent zero against the pullback (adding mark ``t``) of the matching
    coefficient one level down, in reduced normal form.  Raises
    ``TheoremViolationError`` at the first exponents missing, extra or different.
    """
    big = genus1_polynomial(t := check_integer("number of marks", t, least=4))
    lifted = {e + (0,): value for e, value in genus1_polynomial(t - 1).coeffs.items()}
    for exponents in sorted(lifted.keys() | {e for e in big.coeffs if e[-1] == 0}):
        value, counterpart = lifted.get(exponents), big.coefficient(exponents)
        if value is None or counterpart is None or pullback_forget(value, t).reduce() != counterpart.reduce():
            problem = "is missing" if counterpart is None else "is extra" if value is None else "differs"
            raise TheoremViolationError(f"pullback stability fails at t={t}: coefficient {exponents} {problem}")


def check_equivariance(t: int) -> None:
    """Relabeling marks 2..t must permute the coefficients accordingly.

    Only the adjacent transpositions ``(i i+1)`` of marks 2..t are checked:
    they generate every relabeling, and relabelings compose, so a polynomial
    equivariant under them is equivariant under all ``(t-1)!``.
    A mismatch raises ``TheoremViolationError`` naming ``t``, the marks and the exponents.
    """
    poly = genus1_polynomial(t)
    for i in range(2, t):
        swap = {m: m for m in range(1, t + 1)} | {i: i + 1, i + 1: i}
        for exponents, value in poly.coeffs.items():
            image = exponents[: i - 2] + (exponents[i - 1], exponents[i - 2]) + exponents[i:]
            if relabel(value, swap) != poly.coeffs.get(image):
                raise TheoremViolationError(
                    f"equivariance fails at t={t}: swapping marks {i}, {i + 1} at exponents {exponents}"
                )


def check_homogeneity(scale: Fraction | int, point: Sequence[Fraction | int]) -> None:
    """Degree-two homogeneity: ``P(c * a) == c**2 * P(a)`` at an exact point.

    ``point`` gives the weights of marks ``2..t``, so ``t = len(point) + 1``.
    A failure raises ``TheoremViolationError`` naming ``t``, the scale and the point.
    """
    t, frac = len(point) + 1, Fraction(scale)
    poly = genus1_polynomial(t)
    if poly.evaluate([frac * Fraction(p) for p in point]) != frac * frac * poly.evaluate(point):
        coords = ", ".join(map(fraction_str, point))
        raise TheoremViolationError(f"homogeneity fails at t={t}, scale {fraction_str(frac)}, point ({coords})")


# ---------------------------------------------------------------------------
# Exact tensor-grid interpolation
# ---------------------------------------------------------------------------


#: Most grid points :func:`interpolate` evaluates, and most trials times grid
#: points the ``interp`` command runs.  Each axis costs time quadratic in its
#: own length only.  One round trip (evaluation included) at 125 points takes
#: about 0.14 s for one variable of degree 124 and 0.05 s for three variables
#: of degree 4; two variables of degree 9 (100 points) take about 0.05 s
#: (2-vCPU VM, Python 3.11).
MAX_INTERP_POINTS = 125


def _stirling_weights(degree: int) -> list[list[Fraction]]:
    """``w[k][j] = s(k, j) / k!`` for ``j <= k <= degree``.

    ``s(k, j)`` are the signed Stirling numbers of the first kind,
    ``x (x-1) ... (x-k+1) = sum_j s(k, j) x**j``, built by
    ``s(k+1, j) = s(k, j-1) - k s(k, j)``.
    """
    rows = [[1]]
    for k in range(degree):
        prev = rows[-1] + [0]
        rows.append([(prev[j - 1] if j else 0) - k * prev[j] for j in range(k + 2)])
    return [[Fraction(s, math.factorial(k)) for s in row] for k, row in enumerate(rows)]


def _line_coefficients(values: Sequence[Any], weights: list[list[Fraction]]) -> list[Any]:
    """Monomial coefficients of the polynomial taking ``values[x]`` at ``x = 0..d``.

    Newton's forward-difference formula
    ``p(x) = sum_k (Delta^k p)(0) x (x-1) ... (x-k+1) / k!`` with
    ``(Delta^k p)(0) = sum_i (-1)**(k-i) C(k, i) p(i)``, expanded by the
    Stirling weights.  A None value, and a None coefficient, is zero.
    """
    d = len(values) - 1
    known = [(i, value) for i, value in enumerate(values) if value is not None]
    diffs = [
        _combine_values([((-1) ** (k - i) * math.comb(k, i), value) for i, value in known if i <= k])
        for k in range(d + 1)
    ]
    return [
        _combine_values([(weights[k][j], diffs[k]) for k in range(j, d + 1) if diffs[k] is not None])
        for j in range(d + 1)
    ]


def interpolate(fn: Callable[[tuple[Fraction, ...]], Any], degrees: Sequence[int]) -> MultiPoly:
    """Exact interpolation of ``fn`` on the integer grid ``{0..d_1} x ... x {0..d_n}``.

    ``fn`` must be a polynomial of degree at most ``degrees[v]`` in variable
    ``v``; its values are rationals or all :class:`TautClass`, and None
    counts as zero.  The grid is reduced one axis at a time: every line
    along the axis is interpolated by forward differences, and its grid
    index turns into the exponent of that variable.
    """
    if not (degrees := check_integers("degree", degrees, least=0)):
        raise InvalidArgumentError("need one degree per variable, got none")
    if math.prod(d + 1 for d in degrees) > MAX_INTERP_POINTS:
        raise ResourceLimitError(f"degrees {degrees} need more than {MAX_INTERP_POINTS} grid points")
    weights = _stirling_weights(max(degrees))
    grid = {
        index: fn(tuple(Fraction(i) for i in index))
        for index in product(*(range(d + 1) for d in degrees))
    }
    for v, d in enumerate(degrees):
        lines: dict[tuple[int, ...], list[Any]] = {}
        for index, value in grid.items():
            lines.setdefault(index[:v] + index[v + 1 :], [None] * (d + 1))[index[v]] = value
        grid = {}
        for rest, values in lines.items():
            for j, coeff in enumerate(_line_coefficients(values, weights)):
                if coeff is not None:
                    grid[rest[:v] + (j,) + rest[v:]] = coeff
    return MultiPoly(len(degrees), grid)


# ---------------------------------------------------------------------------
# Formal normal-function square expansion
# ---------------------------------------------------------------------------

#: Most monomials :func:`hain_expand` enumerates.  At 37,820 monomials
#: (genus 3, weights ``-3,-3,0,3,3``) the ``hain`` command takes about 0.15 s
#: after start-up, most of it rendering rows, and the expansion alone about
#: 0.02 s (2-vCPU VM, Python 3.11).
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


class _SharedFractions(dict):
    """Integer numerator -> ``Fraction(numerator, den)``, made on first lookup."""

    def __init__(self, den: int) -> None:
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> Fraction:
        value = self[num] = Fraction(num, self.den)
        return value


def hain_expand(
    g: int, t: int, weights: Sequence[Fraction | int]
) -> dict[tuple[tuple, ...], Fraction]:
    """Expand ``Theta**g / g!`` for the weighted divisor combination ``Theta``.

    ``Theta`` pairs formal symbols with these coefficients, where ``k_J`` is
    the sum of the weights of the marks in ``J`` (symbols whose coefficient
    vanishes are dropped):

    * ``("psi+", j)``: ``k_j**2 / 2``;
    * ``("delta", 0, J)`` for ``|J| >= 2``: ``-k_J**2``;
    * ``("delta", h, J)`` for ``1 <= h < g``: ``-((2h-1)/(2g-2))**2 * k_J**2 / 2``.

    The result maps each degree-``g`` monomial (a sorted symbol tuple, in
    ``combinations_with_replacement`` order) to its exact coefficient in
    ``Theta**g / g!``: the product of its symbols' coefficients over the
    factorials of their multiplicities.

    With ``q`` the lcm of the weights' denominators, ``K = q * k`` and
    ``c = (2g-2)**2``, every coefficient above is an integer over ``2 c q**2``
    (``c K_j**2``, ``-2c K_J**2`` and ``-(2h-1)**2 K_J**2``), so the walk
    carries integer numerators over the one denominator
    ``(2 c q**2)**g * g!`` and makes one ``Fraction`` per distinct numerator.
    """
    g, t = check_integer("genus", g, least=2), check_integer("number of marks", t, least=2)
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
    q = math.lcm(*(w.denominator for w in k))
    scaled = [w.numerator * (q // w.denominator) for w in k]
    c = (2 * g - 2) ** 2
    base: dict[tuple, int] = {}
    for mark, weight in enumerate(scaled, 1):
        if weight:
            base[("psi+", mark)] = c * weight**2
    for size in range(1, t + 1):
        for subset in combinations(range(t), size):
            square = sum(scaled[i] for i in subset) ** 2
            if not square:
                continue
            j_key = tuple(i + 1 for i in subset)
            if size >= 2:
                base[("delta", 0, j_key)] = -2 * c * square
            for h in range(1, g):
                base[("delta", h, j_key)] = -((2 * h - 1) ** 2) * square
    _check_monomial_cap(len(base), g, t)
    symbols = sorted(base)
    numerators = [base[symbol] for symbol in symbols]
    # A subset and its complement carry the same squared weight, so many
    # monomials share one numerator and so one immutable ``Fraction``.
    shared = _SharedFractions((2 * c * q * q) ** g * math.factorial(g))
    out: list[Fraction] = []

    # A prefix of ``depth`` symbols ends in ``run`` copies of
    # ``symbols[last]`` and carries ``g! * prod / prod(multiplicity!)``, which
    # stays an integer at every division; the last symbol of a prefix of
    # ``g - 1`` is one pass over the remaining numerators.
    def extend(last: int, num: int, run: int, depth: int) -> None:
        repeat = num * numerators[last] // (run + 1)
        if depth == g - 1:
            out.append(shared[repeat])
            out.extend(map(shared.__getitem__, map(num.__mul__, numerators[last + 1 :])))
            return
        extend(last, repeat, run + 1, depth + 1)
        for index in range(last + 1, len(symbols)):
            extend(index, num * numerators[index], 1, depth + 1)

    extend(0, math.factorial(g), 0, 0)
    return dict(zip(combinations_with_replacement(symbols, g), out))
