"""Small shared helpers: rational formatting and the exact sparse-sum kernel.

:func:`combine` is the one place that adds sparse key -> rational maps and
drops the keys that cancel: divisor classes, Hodge linear forms, the graph
layer's symbol expressions and its per-row relations all sum through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, TypeVar

from .errors import InvalidArgumentError

__all__ = [
    "fraction_str",
    "parse_fraction",
    "falling_factorial",
    "combine",
]

K = TypeVar("K", bound=Hashable)


def fraction_str(value: Fraction | int) -> str:
    """Render an exact rational as ``p`` or ``p/q`` (never a float)."""
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"not a rational: {text!r}") from exc


def falling_factorial(n: int, k: int) -> int:
    """Product ``n (n-1) ... (n-k+1)`` with the empty product equal to 1.

    Defined for integer ``n`` and ``k >= 0``; returns 0 when ``0 <= n < k``.
    """
    if k < 0:
        raise InvalidArgumentError("falling factorial needs k >= 0")
    result = 1
    for i in range(k):
        result *= n - i
    return result


def combine(
    pairs: Iterable[tuple[Fraction | int, Mapping[K, Fraction | int]]]
) -> dict[K, Fraction]:
    """The sparse map ``sum(scale * terms for scale, terms in pairs)``.

    Scales and values may be ``int`` or ``Fraction``.  Every term is brought
    over one denominator, the lcm of the scales' denominators times the lcm
    of the values' denominators, so the sum runs over plain ints; only the
    keys whose sum is nonzero come back, each with one ``Fraction``, in the
    order they first appear.
    """
    pairs = [(scale, terms) for scale, terms in pairs if scale]
    scale_den = math.lcm(*(scale.denominator for scale, _ in pairs))
    coeff_den = math.lcm(*{value.denominator for _, terms in pairs for value in terms.values()})
    sums: dict[K, int] = {}
    for scale, terms in pairs:
        factor = scale.numerator * (scale_den // scale.denominator)
        for key, value in terms.items():
            term = factor * value.numerator * (coeff_den // value.denominator)
            sums[key] = sums.get(key, 0) + term
    den = scale_den * coeff_den
    return {key: Fraction(num, den) for key, num in sums.items() if num}
