"""Degree-one tautological classes on rational-tails genus-one mark spaces.

The ambient space has one genus-one component plus rational tails, a fixed
reference mark 1, and further marks up to ``T``.  The degree-one group is
spanned by the cotangent class at mark 1 (``psi1``) and boundary divisors
``D(S | S')`` recorded by their genus-one side ``S`` (the genus-zero side
``S'`` must carry at least two marks).  A single relation expresses ``psi1``
through boundary divisors, so every class has a normal form with no ``psi1``
term; :meth:`TautClass.reduce` computes it.  Sums and linear combinations
of classes run through :func:`rubbertaut.util.combine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .errors import InvalidArgumentError
from .util import combine, fraction_str

__all__ = [
    "RingContext",
    "TautClass",
    "psi1",
    "boundary",
    "zero_class",
    "pullback_forget",
    "pushforward_forget",
    "section_pushforward",
    "relabel",
    "linear_combination",
]

_PSI_KEY = ("psi",)


@dataclass(frozen=True)
class RingContext:
    """Mark set of the ambient space; mark 1 is the genus-side reference."""

    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        marks = tuple(sorted(set(self.marks)))
        if marks != self.marks:
            raise InvalidArgumentError(f"marks must be sorted and distinct, got {self.marks}")
        if len(marks) < 2:
            raise InvalidArgumentError("need at least two marks")
        if 1 not in marks:
            raise InvalidArgumentError("mark 1 (the reference mark) must be present")

    @staticmethod
    def standard(t: int) -> "RingContext":
        """Marks ``1..t``."""
        if t < 2:
            raise InvalidArgumentError(f"need T >= 2, got {t}")
        return RingContext(tuple(range(1, t + 1)))

    @property
    def t(self) -> int:
        return len(self.marks)


def _d_key(ctx: RingContext, genus1_side: Iterable[int]) -> tuple:
    side = tuple(sorted(set(genus1_side)))
    if any(m not in ctx.marks for m in side):
        raise InvalidArgumentError(f"genus-one side {side} uses marks outside {ctx.marks}")
    if len(ctx.marks) - len(side) < 2:
        raise InvalidArgumentError(
            f"genus-zero side of D({side} | ...) needs at least two marks"
        )
    return ("D", side)


class TautClass:
    """An exact rational combination of ``psi1`` and boundary divisors.

    ``coeffs`` maps ``("psi",)`` and ``("D", side)``, with ``side`` the sorted
    genus-one side of a valid divisor, to rationals; zero values are dropped.
    """

    __slots__ = ("ctx", "_coeffs")

    def __init__(self, ctx: RingContext, coeffs: Mapping[tuple, Fraction] | None = None):
        self.ctx = ctx
        self._coeffs: dict[tuple, Fraction] = {}
        if coeffs:
            for key, value in coeffs.items():
                if not isinstance(value, Fraction):
                    value = Fraction(value)
                if value:
                    self._coeffs[key] = value

    # -- inspection -----------------------------------------------------

    def coefficient_psi1(self) -> Fraction:
        return self._coeffs.get(_PSI_KEY, Fraction(0))

    def coefficient_boundary(self, genus1_side: Iterable[int]) -> Fraction:
        return self._coeffs.get(_d_key(self.ctx, genus1_side), Fraction(0))

    def boundary_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Boundary coefficients sorted by (side size, side)."""
        items = [
            (key[1], value) for key, value in self._coeffs.items() if key[0] == "D"
        ]
        return sorted(items, key=lambda item: (len(item[0]), item[0]))

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "TautClass") -> "TautClass":
        return linear_combination(((1, self), (1, other)))

    def __neg__(self) -> "TautClass":
        return TautClass(self.ctx, {k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-other)

    def __rmul__(self, scalar: Fraction | int) -> "TautClass":
        frac = Fraction(scalar)
        return TautClass(self.ctx, {k: frac * v for k, v in self._coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.ctx == other.ctx and self._coeffs == other._coeffs

    def __hash__(self):  # pragma: no cover - mutability guard
        raise TypeError("TautClass is not hashable")

    def __repr__(self) -> str:
        if not self._coeffs:
            return "TautClass(0)"
        parts = []
        psi = self.coefficient_psi1()
        if psi:
            parts.append(f"{fraction_str(psi)}*psi1")
        for side, value in self.boundary_terms():
            label = ",".join(map(str, side)) if side else ""
            parts.append(f"{fraction_str(value)}*D({label}|..)")
        return "TautClass(" + " + ".join(parts) + ")"

    # -- normal form ------------------------------------------------------

    def reduce(self) -> "TautClass":
        """Normal form: eliminate ``psi1`` via the boundary expression.

        ``psi1`` equals the sum of ``D(S | complement)`` over all genus-one
        sides ``S`` avoiding mark 1 (with the genus-zero side of size at
        least two, i.e. ``len(S) <= T - 2``).
        """
        out = dict(self._coeffs)
        psi = out.pop(_PSI_KEY, None)
        if psi is not None:
            for key in _psi_boundary_keys(self.ctx):
                value = out.get(key)
                if value is None:
                    out[key] = psi
                else:
                    total = value + psi
                    if total:
                        out[key] = total
                    else:
                        del out[key]
        return _trusted_class(self.ctx, out)


def _trusted_class(ctx: RingContext, coeffs: dict[tuple, Fraction]) -> TautClass:
    """A class that takes ``coeffs`` as its own without checking it.

    ``coeffs`` must hold valid keys and only nonzero ``Fraction`` values, and
    the caller must not keep it.
    """
    cls = object.__new__(TautClass)
    cls.ctx = ctx
    cls._coeffs = coeffs
    return cls


@lru_cache(maxsize=32)
def _psi_boundary_keys(ctx: RingContext) -> tuple[tuple, ...]:
    """Keys of the genus-one sides in the boundary expression for ``psi1``.

    These are the subsets of the non-reference marks small enough to leave a
    genus-zero side of size at least two, i.e. of size up to ``T - 2``.
    """
    others = [m for m in ctx.marks if m != 1]
    return tuple(
        ("D", side) for size in range(ctx.t - 1) for side in combinations(others, size)
    )


# -- constructors --------------------------------------------------------


def zero_class(ctx: RingContext) -> TautClass:
    return TautClass(ctx)


def psi1(ctx: RingContext) -> TautClass:
    """The cotangent-line class at the reference mark."""
    return TautClass(ctx, {_PSI_KEY: Fraction(1)})


def boundary(ctx: RingContext, genus1_side: Iterable[int]) -> TautClass:
    """The boundary divisor with the given marks on the genus-one side."""
    return TautClass(ctx, {_d_key(ctx, genus1_side): Fraction(1)})


def linear_combination(pairs: Iterable[tuple[Fraction | int, TautClass]]) -> TautClass:
    """The class ``sum(scale * cls for scale, cls in pairs)``, summed by
    :func:`~rubbertaut.util.combine` over one integer denominator."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidArgumentError("a linear combination needs at least one class")
    ctx = pairs[0][1].ctx
    for _, cls in pairs:
        if cls.ctx != ctx:
            raise InvalidArgumentError(f"mark sets differ: {ctx.marks} vs {cls.ctx.marks}")
    return _trusted_class(ctx, combine((scale, cls._coeffs) for scale, cls in pairs))


# -- functoriality ---------------------------------------------------------


def pullback_forget(cls: TautClass, new_mark: int) -> TautClass:
    """Pull back along the map forgetting ``new_mark`` (new mark added here).

    Boundary divisors pull back to the two lifts of the new mark; ``psi1``
    picks up the comparison divisor separating marks 1 and ``new_mark``.
    """
    ctx = cls.ctx
    if new_mark in ctx.marks:
        raise InvalidArgumentError(f"mark {new_mark} already present in {ctx.marks}")
    if new_mark < 1:
        raise InvalidArgumentError(f"marks are positive integers, got {new_mark}")
    big = RingContext(tuple(sorted(ctx.marks + (new_mark,))))
    out: dict[tuple, Fraction] = {}
    psi = cls.coefficient_psi1()
    if psi:
        out[_PSI_KEY] = psi
        out[_d_key(big, [m for m in big.marks if m not in (1, new_mark)])] = -psi
    # Both lifts of a valid side are valid, and no two lifts coincide: one
    # side holds the new mark, the other does not, and neither is the
    # correction side (which would leave mark 1 alone on the genus-zero side).
    for key, value in cls._coeffs.items():
        if key != _PSI_KEY:
            out[("D", tuple(sorted(key[1] + (new_mark,))))] = value
            out[key] = value
    return _trusted_class(big, out)


def pushforward_forget(cls: TautClass, forgotten: int) -> Fraction:
    """Push a degree-one class forward along forgetting one mark (a number).

    ``psi1`` integrates to 1 over the fibers; a boundary divisor does iff it
    is the section where the forgotten mark collides with one other mark.
    """
    ctx = cls.ctx
    if forgotten not in ctx.marks:
        raise InvalidArgumentError(f"mark {forgotten} not in {ctx.marks}")
    if forgotten == 1:
        raise InvalidArgumentError("the reference mark cannot be forgotten")
    total = cls.coefficient_psi1()
    for side, value in cls.boundary_terms():
        genus0 = tuple(m for m in ctx.marks if m not in side)
        if forgotten in genus0 and len(genus0) == 2:
            total += value
    return total


def section_pushforward(
    scalar: Fraction | int, i: int, j: int, ctx: RingContext
) -> TautClass:
    """Push a number forward along the section gluing marks ``i`` and ``j``.

    The image of the section is the boundary divisor whose genus-zero side
    is exactly ``{i, j}``.
    """
    if i == j:
        raise InvalidArgumentError("section needs two distinct marks")
    for m in (i, j):
        if m not in ctx.marks:
            raise InvalidArgumentError(f"mark {m} not in {ctx.marks}")
    side = [m for m in ctx.marks if m not in (i, j)]
    return Fraction(scalar) * boundary(ctx, side)


def relabel(cls: TautClass, mapping: Mapping[int, int]) -> TautClass:
    """Apply a bijective relabeling of marks (must fix the reference mark)."""
    ctx = cls.ctx
    if sorted(mapping.keys()) != list(ctx.marks):
        raise InvalidArgumentError(f"relabeling must cover exactly {ctx.marks}")
    images = sorted(mapping.values())
    if len(set(images)) != len(images):
        raise InvalidArgumentError("relabeling must be a bijection")
    if mapping.get(1) != 1:
        raise InvalidArgumentError("relabeling must fix the reference mark 1")
    new_ctx = RingContext(tuple(images))
    # A bijection sends distinct sides to distinct sides: no key collides.
    out: dict[tuple, Fraction] = {}
    for key, value in cls._coeffs.items():
        if key == _PSI_KEY:
            out[_PSI_KEY] = value
        else:
            out[("D", tuple(sorted(mapping[m] for m in key[1])))] = value
    return _trusted_class(new_ctx, out)
