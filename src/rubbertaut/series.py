"""Exact truncated power series and finite Laurent polynomials.

Power series have ``fractions.Fraction`` coefficients and an explicit
truncation order; asking for a coefficient beyond it raises
``TruncationExceededError`` rather than returning a silent zero.  Their
operations are the ones the package uses: the truncated product, ``log`` and
``exp``, and two fixed series, the tree function and the log-sine.  Laurent
polynomials are finite by construction and never truncate; their
coefficients live in a ring described by a :class:`RingOps` table, and the
one such ring in the package is the graph layer's symbol algebra
(:data:`rubbertaut.locgraphs.SYM_OPS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Generic, Iterable, Mapping, TypeVar

from .errors import InvalidArgumentError, ResourceLimitError, TruncationExceededError
from .util import check_integer, fraction_str

__all__ = [
    "MAX_SERIES_ORDER",
    "PowerSeries",
    "series",
    "series_mul",
    "series_log",
    "series_exp",
    "series_tau",
    "series_log_sine",
    "series_to_json",
    "RingOps",
    "LaurentPoly",
]

C = TypeVar("C")

#: Highest order :func:`series`, :func:`series_tau` and :func:`series_log_sine`
#: build, checked before any coefficient is computed or padded.  The Hodge
#: layer needs at most ``2 * MAX_GENUS = 48``; ``series_log_sine`` at ``d =
#: 10`` takes about 0.1 s at order 200, 0.74 s at 400 and 7.3 s at 800
#: (2-vCPU VM, Python 3.11).
MAX_SERIES_ORDER = 200


def _check_order(order: object, least: int) -> int:
    """``order`` checked as an integer >= ``least`` and against :data:`MAX_SERIES_ORDER`."""
    if (order := check_integer("order", order, least=least)) > MAX_SERIES_ORDER:
        raise ResourceLimitError(f"order {order} exceeds the series-order cap {MAX_SERIES_ORDER}")
    return order


# ---------------------------------------------------------------------------
# Truncated power series over Fraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSeries:
    """A power series truncated at an explicit order.

    ``coeffs[i]`` is the coefficient of ``x**i`` for ``0 <= i <= order``;
    nothing is known beyond ``order``.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of ``x**n``; errors outside the stored range."""
        if (n := check_integer("coefficient index", n, least=0)) > self.order:
            raise TruncationExceededError(
                f"coefficient {n} requested but series is truncated at order {self.order}"
            )
        return self.coeffs[n]


def series(coeffs: Iterable[Fraction | int], order: int | None = None) -> PowerSeries:
    """Build a series from leading coefficients, zero-padded to ``order``; an
    order past :data:`MAX_SERIES_ORDER` is refused before any padding."""
    values = [Fraction(c) for c in coeffs]
    if order is None:
        if not values:
            raise InvalidArgumentError("empty series needs an explicit order")
        order = len(values) - 1
    order = _check_order(order, 0)
    if len(values) > order + 1:
        raise InvalidArgumentError("more coefficients than the requested order allows")
    values.extend([Fraction(0)] * (order + 1 - len(values)))
    return PowerSeries(tuple(values))


def series_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Product, truncated at the smaller of the two orders."""
    order = min(f.order, g.order)
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f.coeffs[: order + 1]):
        if a == 0:
            continue
        for j in range(order + 1 - i):
            b = g.coeffs[j]
            if b != 0:
                out[i + j] += a * b
    return PowerSeries(tuple(out))


def series_log(f: PowerSeries) -> PowerSeries:
    """Logarithm of a series with constant term 1.

    Uses the derivative recurrence ``n f_n = n g_n + sum_{k<n} k g_k f_{n-k}``
    for ``g = log f``.
    """
    if f.coeffs[0] != 1:
        raise InvalidArgumentError("series_log needs constant term 1")
    n_max = f.order
    g = [Fraction(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n):
            if g[k] != 0 and f.coeffs[n - k] != 0:
                acc += k * g[k] * f.coeffs[n - k]
        g[n] = f.coeffs[n] - acc / n
    return PowerSeries(tuple(g))


def series_exp(f: PowerSeries) -> PowerSeries:
    """Exponential of a series with constant term 0.

    Uses ``n h_n = sum_{k<=n} k f_k h_{n-k}`` for ``h = exp f``.
    """
    if f.coeffs[0] != 0:
        raise InvalidArgumentError("series_exp needs constant term 0")
    n_max = f.order
    h = [Fraction(0)] * (n_max + 1)
    h[0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if f.coeffs[k] != 0:
                acc += k * f.coeffs[k] * h[n - k]
        h[n] = acc / n
    return PowerSeries(tuple(h))


def series_tau(order: int) -> PowerSeries:
    """The tree series ``sum_{r>=1} r^(r-1)/r! x^r`` to the given order.

    It is the unique power-series solution of ``tau = x * exp(tau)`` with
    zero constant term.
    """
    order = _check_order(order, 1)
    coeffs = [Fraction(0)]
    for r in range(1, order + 1):
        coeffs.append(Fraction(r ** (r - 1), math.factorial(r)))
    return PowerSeries(tuple(coeffs))


def series_log_sine(d: int, order: int) -> PowerSeries:
    """The even series ``log((d y / 2) / sin(d y / 2))`` to the given order.

    ``sin(z)/z`` at ``z = d y / 2`` is the series in ``w = y^2`` with
    coefficients ``(-d^2/4)^k / (2k+1)!``; its ``-log`` is taken in ``w`` and
    spread back onto the even powers of ``y``, so every coefficient is an
    exact rational and the odd ones are exact zeros.
    """
    d = check_integer("scale d", d, least=1)
    order = _check_order(order, 0)
    step = Fraction(-d * d, 4)
    sinc = PowerSeries(
        tuple(step**k / math.factorial(2 * k + 1) for k in range(order // 2 + 1))
    )
    coeffs = [Fraction(0)] * (order + 1)
    for k, c in enumerate(series_log(sinc).coeffs):
        coeffs[2 * k] = -c
    return PowerSeries(tuple(coeffs))


def series_to_json(f: PowerSeries) -> dict[str, Any]:
    """Serialize as ``{"order": N, "coeffs": ["p/q", ...]}``."""
    return {"order": f.order, "coeffs": [fraction_str(c) for c in f.coeffs]}


# ---------------------------------------------------------------------------
# Laurent polynomials over a duck-typed coefficient ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingOps(Generic[C]):
    """Operation table describing a commutative coefficient ring.

    ``zero`` is a factory (rings with mutable elements get fresh zeros),
    ``scale`` multiplies an element by an exact rational.
    """

    zero: Callable[[], C]
    add: Callable[[C, C], C]
    neg: Callable[[C], C]
    mul: Callable[[C, C], C]
    is_zero: Callable[[C], bool]
    scale: Callable[[C, Fraction], C]


class LaurentPoly(Generic[C]):
    """A finite Laurent polynomial in one variable ``t``.

    Exponents may be negative; coefficients live in the ring described by
    ``ops``.  All arithmetic is exact and never truncates.
    """

    __slots__ = ("ops", "_coeffs")

    def __init__(self, ops: RingOps[C], coeffs: Mapping[int, C] | None = None):
        self.ops = ops
        self._coeffs: dict[int, C] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not ops.is_zero(v):
                    self._coeffs[int(k)] = v

    # -- inspection -----------------------------------------------------

    def coefficient(self, k: int) -> C:
        """Coefficient of ``t**k`` (an exact zero if absent)."""
        if k in self._coeffs:
            return self._coeffs[k]
        return self.ops.zero()

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "LaurentPoly[C]") -> "LaurentPoly[C]":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            if k in out:
                out[k] = self.ops.add(out[k], v)
            else:
                out[k] = v
        return LaurentPoly(self.ops, out)

    def neg(self) -> "LaurentPoly[C]":
        return LaurentPoly(self.ops, {k: self.ops.neg(v) for k, v in self._coeffs.items()})

    def sub(self, other: "LaurentPoly[C]") -> "LaurentPoly[C]":
        return self.add(other.neg())

    def mul(self, other: "LaurentPoly[C]") -> "LaurentPoly[C]":
        out: dict[int, C] = {}
        for i, a in self._coeffs.items():
            for j, b in other._coeffs.items():
                prod = self.ops.mul(a, b)
                key = i + j
                if key in out:
                    out[key] = self.ops.add(out[key], prod)
                else:
                    out[key] = prod
        return LaurentPoly(self.ops, out)

    def scale(self, q: Fraction | int) -> "LaurentPoly[C]":
        frac = Fraction(q)
        return LaurentPoly(self.ops, {k: self.ops.scale(v, frac) for k, v in self._coeffs.items()})

    # -- comparison -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.sub(other).is_zero()

    def __hash__(self):  # pragma: no cover - mutability guard
        raise TypeError("LaurentPoly is not hashable")

    def __repr__(self) -> str:
        terms = ", ".join(f"t^{k}: {self._coeffs[k]!r}" for k in sorted(self._coeffs))
        return f"LaurentPoly({{{terms}}})"
