"""Degree-one tautological classes on rational-tails genus-one mark spaces.

The ambient space has one genus-one component plus rational tails, a fixed
reference mark 1, and further marks up to ``T``.  The degree-one group is
spanned by the cotangent class at mark 1 (``psi1``) and boundary divisors
``D(S | S')`` recorded by their genus-one side ``S`` (the genus-zero side
``S'`` must carry at least two marks).  A single relation expresses ``psi1``
through boundary divisors, so every class has a normal form with no ``psi1``
term; :meth:`TautClass.reduce` computes it.

A class stores one positive integer denominator and nonzero integer
numerators, keyed by the bitmask of a divisor's genus-one side (bit ``m``
for mark ``m``) or by 1, the unused bit of mark 0, for ``psi1``.  The form
is canonical, ``gcd(den, *numerators) == 1``, so equal classes hold equal
data.  Sums run through :func:`rubbertaut.util.combine_ints`; a ``Fraction``
is made only when a coefficient is read.

``str(cls)`` is the one text form of a class, e.g. ``psi_1 - 1/2*D(2|13)``:
``psi_1`` first, then the divisors in :meth:`TautClass.boundary_terms` order
as ``D(side|rest)``, and ``0`` for the zero class.  Each side's marks run
together, as in ``D(2|13)``, unless a mark of the space is 10 or more; then
commas separate them, as in ``D(1,2|12,21)``.  ``repr(cls)`` is
``TautClass(<text>)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .errors import InvalidArgumentError
from .util import check_integer, check_integers, combine_ints, fraction_str

__all__ = [
    "RingContext",
    "TautClass",
    "psi1",
    "boundary",
    "psi1_minus",
    "zero_class",
    "pullback_forget",
    "pushforward_forget",
    "section_pushforward",
    "relabel",
    "linear_combination",
]

#: The public constructor's key for ``psi1``, and the stored one.
_PSI_KEY = ("psi",)
_PSI = 1


@dataclass(frozen=True)
class RingContext:
    """Mark set of the ambient space; mark 1 is the genus-side reference."""

    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        marks = check_integers("mark", self.marks, least=1)
        if marks != tuple(sorted(set(marks))):
            raise InvalidArgumentError(f"marks must be sorted and distinct, got {self.marks}")
        if len(marks) < 2:
            raise InvalidArgumentError("need at least two marks")
        if marks[0] != 1:
            raise InvalidArgumentError("mark 1 (the reference mark) must be present")
        object.__setattr__(self, "marks", marks)

    @staticmethod
    def standard(t: int) -> "RingContext":
        """Marks ``1..t``."""
        return _context(tuple(range(1, check_integer("number of marks", t, least=2) + 1)))

    @property
    def t(self) -> int:
        return len(self.marks)


def _context(marks: tuple[int, ...]) -> RingContext:
    """The context on ``marks``, already integers from 1 up, ascending and
    at least two, built without checking them again."""
    ctx = object.__new__(RingContext)
    object.__setattr__(ctx, "marks", marks)
    return ctx


def _mask(marks: Iterable[int]) -> int:
    return sum(1 << m for m in marks)


def _ctx_marks(ctx: RingContext, marks: Iterable[int]) -> set[int]:
    """``marks`` as a set of integers, each a mark of ``ctx``."""
    if not (out := set(check_integers("mark", marks))) <= set(ctx.marks):
        raise InvalidArgumentError(f"marks {sorted(out)} are not all in {ctx.marks}")
    return out


def _d_key(ctx: RingContext, genus1_side: Iterable[int]) -> int:
    side = _ctx_marks(ctx, genus1_side)
    if len(ctx.marks) - len(side) < 2:
        raise InvalidArgumentError(f"genus-zero side of D({tuple(sorted(side))} | ...) needs at least two marks")
    return _mask(side)


def _key(ctx: RingContext, key: object) -> int:
    if key == _PSI_KEY:
        return _PSI
    if isinstance(key, tuple) and len(key) == 2 and key[0] == "D" and isinstance(key[1], tuple):
        return _d_key(ctx, key[1])
    raise InvalidArgumentError(f"class key {key!r} is neither ('psi',) nor ('D', side)")


class TautClass:
    """An exact rational combination of ``psi1`` and boundary divisors.

    ``coeffs`` maps ``("psi",)`` and ``("D", side)``, with ``side`` a tuple of
    a valid divisor's genus-one marks in any order, to rationals; any other
    key raises ``InvalidArgumentError``.  Values on one key add up.  The class
    keeps the canonical integer form of the module docstring.
    """

    __slots__ = ("ctx", "_den", "_nums")

    def __init__(self, ctx: RingContext, coeffs: Mapping[tuple, Fraction | int] | None = None):
        self.ctx = ctx
        self._den, self._nums = combine_ints(
            (Fraction(value), 1, {_key(ctx, key): 1}) for key, value in (coeffs or {}).items()
        )

    # -- inspection -----------------------------------------------------

    def coefficient_psi1(self) -> Fraction:
        return Fraction(self._nums.get(_PSI, 0), self._den)

    def coefficient_boundary(self, genus1_side: Iterable[int]) -> Fraction:
        return Fraction(self._nums.get(_d_key(self.ctx, genus1_side), 0), self._den)

    def boundary_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Boundary coefficients sorted by (side size, side)."""
        marks, top, ranked = self.ctx.marks, self.ctx.marks[-1], _ranked_sides(self.ctx)
        for mask in self._nums.keys() - ranked.keys() - {_PSI}:
            side = tuple(m for m in marks if mask >> m & 1)
            ranked[mask] = (len(side) + 1 << top + 1) - sum(1 << top - m for m in side), side
        values = {num: Fraction(num, self._den) for num in set(self._nums.values())}
        items = [(ranked[mask], values[num]) for mask, num in self._nums.items() if mask != _PSI]
        return [(key[1], value) for key, value in sorted(items, key=lambda item: item[0][0])]

    def is_zero(self) -> bool:
        return not self._nums

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "TautClass") -> "TautClass":
        if not isinstance(other, TautClass):
            return NotImplemented
        return linear_combination(((1, self), (1, other)))

    def __neg__(self) -> "TautClass":
        return _class(self.ctx, self._den, {k: -v for k, v in self._nums.items()})

    def __sub__(self, other: "TautClass") -> "TautClass":
        if not isinstance(other, TautClass):
            return NotImplemented
        return linear_combination(((1, self), (-1, other)))

    def __rmul__(self, scalar: Fraction | int) -> "TautClass":
        return _class(self.ctx, *combine_ints(((Fraction(scalar), self._den, self._nums),)))

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.ctx == other.ctx and self._den == other._den and self._nums == other._nums

    def __hash__(self):  # pragma: no cover - mutability guard
        raise TypeError("TautClass is not hashable")

    def __str__(self) -> str:
        """The text form of the module docstring, e.g. ``psi_1 - 1/2*D(2|13)``."""
        labels, text = _side_labels(self.ctx), ""
        terms = [("psi_1", self.coefficient_psi1())] if _PSI in self._nums else []
        for side, coeff in self.boundary_terms():
            if side not in labels:
                sep = "," if self.ctx.marks[-1] >= 10 else ""
                rest = sep.join(str(m) for m in self.ctx.marks if m not in side)
                labels[side] = f"D({sep.join(map(str, side))}|{rest})"
            terms.append((labels[side], coeff))
        for label, coeff in terms:
            num = coeff.numerator
            body = label if num in (1, -1) and coeff.denominator == 1 else f"{fraction_str(abs(coeff))}*{label}"
            text += ((" - " if text else "-") if num < 0 else (" + " if text else "")) + body
        return text or "0"

    def __repr__(self) -> str:
        return f"TautClass({self})"

    # -- normal form ------------------------------------------------------

    def reduce(self) -> "TautClass":
        """Normal form: eliminate ``psi1`` via the boundary expression.

        ``psi1`` equals the sum of ``D(S | complement)`` over all genus-one
        sides ``S`` avoiding mark 1 (with the genus-zero side of size at
        least two, i.e. ``len(S) <= T - 2``).
        """
        psi = self._nums.get(_PSI)
        if psi is None:
            return self
        nums = dict(self._nums)
        del nums[_PSI]
        for mask in _psi_masks(self.ctx):
            nums[mask] = nums.get(mask, 0) + psi
        if 0 in nums.values():
            nums = {mask: num for mask, num in nums.items() if num}
        # Numerators over a denominator above 1 may now share a factor with it.
        den = self._den
        return _class(self.ctx, *(combine_ints(((1, den, nums),)) if den > 1 else (1, nums)))


def _class(ctx: RingContext, den: int, nums: dict[int, int]) -> TautClass:
    """A class that takes ``den`` and ``nums``, already canonical, as its own."""
    cls = object.__new__(TautClass)
    cls.ctx, cls._den, cls._nums = ctx, den, nums
    return cls


#: Per mark set, each side mask met so far to ``(rank, side)``: the rank orders
#: sides by size, then as tuples, as mark ``m`` weighs ``2**(top - m)``.
_ranked_sides = lru_cache(maxsize=32)(lambda ctx: {})

#: Per mark set, each side printed so far to its ``D(side|rest)`` label.
_side_labels = lru_cache(maxsize=32)(lambda ctx: {})


@lru_cache(maxsize=32)
def _psi_masks(ctx: RingContext) -> tuple[int, ...]:
    """Masks of the genus-one sides in the boundary expression for ``psi1``:
    the sets of non-reference marks of size up to ``T - 2``."""
    others = [1 << m for m in ctx.marks if m != 1]
    return tuple(sum(side) for size in range(ctx.t - 1) for side in combinations(others, size))


# -- constructors --------------------------------------------------------


def zero_class(ctx: RingContext) -> TautClass:
    return _class(ctx, 1, {})


def psi1(ctx: RingContext) -> TautClass:
    """The cotangent-line class at the reference mark."""
    return _class(ctx, 1, {_PSI: 1})


def boundary(ctx: RingContext, genus1_side: Iterable[int]) -> TautClass:
    """The boundary divisor with the given marks on the genus-one side."""
    return _class(ctx, 1, {_d_key(ctx, genus1_side): 1})


def psi1_minus(ctx: RingContext, families: Iterable[tuple[Iterable[int], Iterable[int]]]) -> TautClass:
    """``psi1`` minus each boundary divisor whose genus-zero side, for some
    ``(holds, avoids)`` of ``families``, holds every mark of ``holds`` and
    none of ``avoids``."""
    full, sides = _mask(ctx.marks), []
    for holds, avoids in families:
        holds, avoids = _ctx_marks(ctx, holds), _ctx_marks(ctx, avoids)
        family = [] if holds & avoids else [full ^ _mask(holds)]
        for m in set(ctx.marks) - holds - avoids:
            family += [side ^ 1 << m for side in family]
        sides += [side for side in family if (full ^ side).bit_count() >= 2]
    return _class(ctx, 1, {_PSI: 1, **dict.fromkeys(sides, -1)})


def linear_combination(pairs: Iterable[tuple[Fraction | int, TautClass]]) -> TautClass:
    """The class ``sum(scale * cls for scale, cls in pairs)``, summed by
    :func:`~rubbertaut.util.combine_ints` over one integer denominator."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidArgumentError("a linear combination needs at least one class")
    ctx = pairs[0][1].ctx
    for _, cls in pairs:
        if cls.ctx != ctx:
            raise InvalidArgumentError(f"mark sets differ: {ctx.marks} vs {cls.ctx.marks}")
    return _class(ctx, *combine_ints((scale, cls._den, cls._nums) for scale, cls in pairs))


# -- functoriality ---------------------------------------------------------


def pullback_forget(cls: TautClass, new_mark: int) -> TautClass:
    """Pull back along the map forgetting ``new_mark`` (new mark added here).

    Boundary divisors pull back to the two lifts of the new mark; ``psi1``
    picks up the comparison divisor separating marks 1 and ``new_mark``.
    """
    ctx = cls.ctx
    if (new_mark := check_integer("mark", new_mark, least=1)) in ctx.marks:
        raise InvalidArgumentError(f"mark {new_mark} already present in {ctx.marks}")
    big = _context(tuple(sorted(ctx.marks + (new_mark,))))
    bit, nums = 1 << new_mark, cls._nums
    # Both lifts of a valid side are valid, and no two lifts coincide: one
    # side holds the new mark, the other does not, and neither is the
    # correction side (which would leave mark 1 alone on the genus-zero side).
    out = {mask | bit: value for mask, value in nums.items()} | nums
    psi = out.pop(_PSI | bit, None)
    if psi is not None:
        out[_mask(big.marks) ^ (1 << 1) ^ bit] = -psi
    return _class(big, cls._den, out)


def pushforward_forget(cls: TautClass, forgotten: int) -> Fraction:
    """Push a degree-one class forward along forgetting one mark (a number).

    ``psi1`` integrates to 1 over the fibers; a boundary divisor does iff it
    is the section where the forgotten mark collides with one other mark.
    """
    ctx = cls.ctx
    _ctx_marks(ctx, (forgotten,))
    if forgotten == 1:
        raise InvalidArgumentError("the reference mark cannot be forgotten")
    rest, nums = _mask(ctx.marks) ^ 1 << forgotten, cls._nums
    total = sum(nums.get(rest ^ 1 << other, 0) for other in ctx.marks if other != forgotten)
    return Fraction(nums.get(_PSI, 0) + total, cls._den)


def section_pushforward(scalar: Fraction | int, i: int, j: int, ctx: RingContext) -> TautClass:
    """Push a number forward along the section gluing marks ``i`` and ``j``,
    onto the boundary divisor whose genus-zero side is exactly ``{i, j}``."""
    pair = _ctx_marks(ctx, (i, j))
    if len(pair) != 2:
        raise InvalidArgumentError("section needs two distinct marks")
    side = [m for m in ctx.marks if m not in pair]
    return Fraction(scalar) * boundary(ctx, side)


@lru_cache(maxsize=32)
def _relabel_tables(marks: tuple[int, ...], images: tuple[int, ...]) -> list[list[int]]:
    """Entry ``e`` of table ``c`` is the image of the mask ``e << 12 * c``
    under the relabeling of ``marks`` to ``images``; bit 0, the ``psi1`` key,
    maps to itself.  Up to the mark cap of 11, one table holds every mark."""
    image = {0: 0, **dict(zip(marks, images))}
    top, tables = max(image) + 1, []
    for low in range(0, top, 12):
        table = [0]
        for bit in range(low, min(low + 12, top)):
            table += [entry | (1 << image[bit] if bit in image else 0) for entry in table]
        tables.append(table)
    return tables


def relabel(cls: TautClass, mapping: Mapping[int, int]) -> TautClass:
    """Apply a bijective relabeling of marks (must fix the reference mark)."""
    ctx = cls.ctx
    if sorted(keys := check_integers("mark", mapping.keys())) != list(ctx.marks):
        raise InvalidArgumentError(f"relabeling must cover exactly {ctx.marks}")
    images = check_integers("mark", mapping.values(), least=1)
    if len(set(images)) != len(images):
        raise InvalidArgumentError("relabeling must be a bijection")
    if images[keys.index(1)] != 1:
        raise InvalidArgumentError("relabeling must fix the reference mark 1")
    # A bijection sends distinct sides to distinct sides: no key collides.
    new_ctx, nums = _context(tuple(sorted(images))), cls._nums
    first, *rest = _relabel_tables(keys, images)
    moved = [first[mask & 4095] for mask in nums]
    for c, table in enumerate(rest, 1):  # marks past 11
        moved = [image | table[mask >> 12 * c & 4095] for image, mask in zip(moved, nums)]
    return _class(new_ctx, cls._den, dict(zip(moved, nums.values())))
