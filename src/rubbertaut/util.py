"""Small shared helpers: rational formatting and combinatorics."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidArgumentError

__all__ = [
    "fraction_str",
    "parse_fraction",
    "falling_factorial",
    "binomial",
]


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


def binomial(n: int, k: int) -> int:
    """Binomial coefficient for integer ``n`` (negative allowed) and ``k >= 0``."""
    if k < 0:
        raise InvalidArgumentError("binomial needs k >= 0")
    if n >= 0:
        return math.comb(n, k)
    return falling_factorial(n, k) // math.factorial(k)
