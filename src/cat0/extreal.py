"""Extended-real scalars for sup/inf bookkeeping.

Supremum-style formulas over finite candidate sets constantly produce
``+inf``/``-inf`` (empty sets, indicator functions, missing table rows),
so infinities are first-class values here rather than float accidents.
Finite values may be ``int``, ``float`` or ``fractions.Fraction``; exact
rational inputs therefore stay exact through sums and comparisons.

Conventions, chosen once and used everywhere:

* ``sup`` of an empty collection is ``-inf``; ``inf`` of one is ``+inf``.
* Adding opposite infinities raises ``ValueError`` instead of silently
  producing a NaN; NaN is rejected at construction.
* ``scale(0, +-inf) == 0``, the usual convex-combination convention,
  so a lambda-grid endpoint never poisons a convexity check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, float, Fraction]

_FINITE_TYPES = (int, float, Fraction)


def _as_raw(value: Union[Scalar, "ExtReal"]) -> Union[Scalar, float]:
    if isinstance(value, ExtReal):
        return value.raw
    if isinstance(value, bool) or not isinstance(value, _FINITE_TYPES):
        raise TypeError(f"not a real scalar: {value!r}")
    if isinstance(value, float) and math.isnan(value):
        raise ValueError("NaN is not an extended real")
    return value


class ExtReal:
    """A point of the extended line [-inf, +inf]; immutable and totally ordered.

    The two infinities are stored as the float infinities but all
    arithmetic that could produce a NaN is intercepted first.
    """

    __slots__ = ("_v",)

    def __init__(self, value: Union[Scalar, "ExtReal"]):
        self._v = _as_raw(value)

    @property
    def raw(self) -> Union[Scalar, float]:
        """The underlying number; ``math.inf``/``-math.inf`` when infinite."""
        return self._v

    @property
    def value(self) -> Scalar:
        """The finite value; raises if this is an infinity."""
        if not self.is_finite:
            raise ValueError(f"no finite value: {self}")
        return self._v

    @property
    def is_finite(self) -> bool:
        return not (isinstance(self._v, float) and math.isinf(self._v))

    @property
    def is_pos_inf(self) -> bool:
        return isinstance(self._v, float) and self._v == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return isinstance(self._v, float) and self._v == -math.inf

    def __add__(self, other) -> "ExtReal":
        o = ext(other)
        if (self.is_pos_inf and o.is_neg_inf) or (self.is_neg_inf and o.is_pos_inf):
            raise ValueError("indeterminate sum (+inf) + (-inf)")
        if self.is_pos_inf or o.is_pos_inf:
            return POS_INF
        if self.is_neg_inf or o.is_neg_inf:
            return NEG_INF
        return ExtReal(self._v + o._v)

    __radd__ = __add__

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self._v)

    def __sub__(self, other) -> "ExtReal":
        return self + (-ext(other))

    def __rsub__(self, other) -> "ExtReal":
        return ext(other) + (-self)

    def __lt__(self, other) -> bool:
        return self._v < _as_raw(other)

    def __le__(self, other) -> bool:
        return self._v <= _as_raw(other)

    def __gt__(self, other) -> bool:
        return self._v > _as_raw(other)

    def __ge__(self, other) -> bool:
        return self._v >= _as_raw(other)

    def __eq__(self, other) -> bool:
        try:
            return self._v == _as_raw(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    def __repr__(self) -> str:
        if self.is_pos_inf:
            return "ExtReal(+inf)"
        if self.is_neg_inf:
            return "ExtReal(-inf)"
        return f"ExtReal({self._v!r})"


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)


def ext(value: Union[Scalar, ExtReal]) -> ExtReal:
    """Coerce a number (or ExtReal) to ExtReal."""
    return value if isinstance(value, ExtReal) else ExtReal(value)


def scale(alpha: Scalar, value: Union[Scalar, ExtReal]) -> ExtReal:
    """alpha * value with the convention scale(0, +-inf) = 0.

    alpha must be finite; the convention keeps convex combinations
    (1-lam)*h(x) + lam*h(y) well defined at lam in {0, 1} when the far
    endpoint is infinite.
    """
    a = _as_raw(alpha)
    if isinstance(a, float) and math.isinf(a):
        raise ValueError("scale coefficient must be finite")
    e = ext(value)
    if a == 0:
        return ExtReal(0)
    if e.is_finite:
        return ExtReal(a * e.value)
    return POS_INF if (e.is_pos_inf == (a > 0)) else NEG_INF


def sup(values: Iterable[Union[Scalar, ExtReal]]) -> ExtReal:
    """Supremum, with sup(empty) = -inf."""
    best = None
    for v in values:
        e = ext(v)
        if best is None or e > best:
            best = e
    return NEG_INF if best is None else best


def inf(values: Iterable[Union[Scalar, ExtReal]]) -> ExtReal:
    """Infimum, with inf(empty) = +inf."""
    best = None
    for v in values:
        e = ext(v)
        if best is None or e < best:
            best = e
    return POS_INF if best is None else best


def agree(values: Sequence[ExtReal], tol: Scalar) -> bool:
    """Spread within tol when every value is finite, exact equality otherwise."""
    if all(v.is_finite for v in values):
        return max(v.value for v in values) - min(v.value for v in values) <= tol
    return all(v == values[0] for v in values)
