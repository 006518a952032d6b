"""Small shared helpers: rational formatting and the exact sparse-sum kernel.

:func:`combine` is the one place that adds sparse key -> rational maps and
drops the keys that cancel: divisor classes, Hodge linear forms, the graph
layer's symbol expressions and its per-row relations all sum through it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, TypeVar

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "too_long_to_print",
    "fraction_str",
    "parse_fraction",
    "combine",
]

K = TypeVar("K", bound=Hashable)


def too_long_to_print() -> ResourceLimitError:
    """The error for a number past Python's int-to-str digit limit."""
    return ResourceLimitError(
        f"a rational with more than {sys.get_int_max_str_digits()} digits is too long to print"
    )


def fraction_str(value: Fraction | int) -> str:
    """Render an exact rational as ``p`` or ``p/q`` (never a float).

    A numerator or denominator past Python's int-to-str digit limit raises
    ``ResourceLimitError`` instead of the interpreter's ``ValueError``.
    """
    try:
        return str(Fraction(value))
    except ValueError as exc:
        raise too_long_to_print() from exc


def parse_fraction(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"not a rational: {text!r}") from exc


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
