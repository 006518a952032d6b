"""Small shared helpers: the integer checks, rational formatting, sparse sums
and :class:`Table`, the one place where a process-wide memo fills itself.

:func:`check_integer` and :func:`check_integers` are the one place that
decides what an integer argument is: an ``int`` or an object with
``__index__``, never a bool, and at least a given lower bound.  Every entry
point checks its integer data through them; only the resource caps, whose
errors name their own cap, are compared where they are kept.

:func:`combine_ints` is the one place that adds sparse key -> rational maps
and drops the keys that cancel: divisor classes store its integer result
directly, and :func:`combine`, which Hodge linear forms, the graph layer's
symbol expressions and its per-row relations sum through, makes its
rationals from it.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "check_integer",
    "check_integers",
    "too_long_to_print",
    "fraction_str",
    "parse_fraction",
    "combine_ints",
    "combine",
    "Table",
]

K = TypeVar("K", bound=Hashable)

_INT = frozenset({int})


class Table(dict):
    """A ``dict`` that stores and returns ``build(key)`` on reading a missing
    key; ``get``, ``in`` and iteration never build, and an assigned entry is
    read back as is.  Entries are pure data built without a lock: two threads
    that miss one key at once both build it, and ``setdefault`` keeps the first."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: Hashable) -> object:
        return self.setdefault(key, self.build(key))


def check_integer(what: str, value: object, least: int | None = None) -> int:
    """``value`` as an ``int``; a non-integer (a float too), a bool, or a value
    below ``least`` raises ``InvalidArgumentError``, as ``<what> must be an
    integer, got ...`` or ``<what> must be >= <least>, got ...``."""
    if type(value) is not int:
        try:
            if type(value) is bool:
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise InvalidArgumentError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidArgumentError(f"{what} must be >= {least}, got {value}")
    return value


def check_integers(what: str, values: Iterable[object], least: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``, each checked as by :func:`check_integer`
    (``what`` names one element); the error names the first bad element.

    A tuple of plain ``int`` at or above ``least`` passes in one pass over
    the element types and one ``min``, with no call per element."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidArgumentError(f"need a sequence of {what} values, got {values!r}") from None
    if _INT.issuperset(map(type, values)) and (least is None or not values or min(values) >= least):
        return values
    return tuple(check_integer(what, value, least) for value in values)


def too_long_to_print() -> ResourceLimitError:
    """The error for a number past Python's int-to-str digit limit."""
    return ResourceLimitError(
        f"a rational with more than {sys.get_int_max_str_digits()} digits is too long to print"
    )


def fraction_str(value: Fraction | int) -> str:
    """Render an exact rational as ``p`` or ``p/q`` (never a float).

    An ``int`` or ``Fraction`` prints as itself; any other value is first made
    an exact ``Fraction``.  A numerator or denominator past Python's
    int-to-str digit limit raises ``ResourceLimitError`` instead of the
    interpreter's ``ValueError``.
    """
    try:
        return str(value if type(value) in (int, Fraction) else Fraction(value))
    except ValueError as exc:
        raise too_long_to_print() from exc


def parse_fraction(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"not a rational: {text!r}") from exc


def combine_ints(pairs: Iterable[tuple[Fraction | int, int, Mapping[K, int]]]) -> tuple[int, dict[K, int]]:
    """The sparse sum of ``scale * terms / den`` over integer ``terms``, as a
    positive common denominator and the nonzero numerators over it, coprime
    as a whole, in the order their keys first appear."""
    pairs = [(scale.numerator, scale.denominator * den, terms) for scale, den, terms in pairs if scale]
    common = math.lcm(*(den for _, den, _ in pairs))
    sums: dict[K, int] = {}
    for num, den, terms in pairs:
        factor = num * (common // den)
        for key, value in terms.items():
            sums[key] = sums.get(key, 0) + factor * value
    if 0 in sums.values():
        sums = {key: value for key, value in sums.items() if value}
    divisor = math.gcd(common, *sums.values())
    if divisor == 1:
        return common, sums
    return common // divisor, {key: value // divisor for key, value in sums.items()}


def combine(pairs: Iterable[tuple[Fraction | int, Mapping[K, Fraction | int]]]) -> dict[K, Fraction]:
    """The sparse map ``sum(scale * terms for scale, terms in pairs)``.

    Scales and values may be ``int`` or ``Fraction``.  Every map is brought
    over the lcm of all values' denominators and summed by
    :func:`combine_ints`; each nonzero sum comes back as one ``Fraction``,
    in the order its key first appears.
    """
    pairs = [(scale, terms) for scale, terms in pairs if scale]
    den = math.lcm(*{value.denominator for _, terms in pairs for value in terms.values()})
    common, sums = combine_ints(
        (scale, den, {key: value.numerator * (den // value.denominator) for key, value in terms.items()})
        for scale, terms in pairs
    )
    return {key: Fraction(num, common) for key, num in sums.items()}
