"""Scalar arithmetic helpers shared by the cochain and holonomy layers.

Two arithmetic modes coexist.  In float mode angles are radians stored as
Python floats.  In exact mode angles are :class:`fractions.Fraction` values
measured in turns, i.e. units of 2*pi, because 2*pi itself has no finite
rational representation.  All the algebra in this package is Z-linear, so
it never needs to know which unit is in force; only wrapping, integrality
tests and report formatting consult :func:`full_turn`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import fsum, isfinite, pi
from typing import Iterable, List, Sequence, Union

from .errors import CochainError

Scalar = Union[float, Fraction]

TWO_PI = 2.0 * pi

# The one spelling of a rational that the writer emits and the readers
# accept: an integer or "n/d" with d > 0.  Fraction() also reads exponents,
# and expanding one such as "1e10000000" alone takes seconds.
RATIONAL = re.compile(r"[-+]?[0-9]+(/0*[1-9][0-9]*)?")


def full_turn(exact: bool) -> Scalar:
    """One full turn in the active unit: 2*pi radians or Fraction(1)."""
    return Fraction(1) if exact else TWO_PI


def zero(exact: bool) -> Scalar:
    return Fraction(0) if exact else 0.0


def coerce(value, exact: bool) -> Scalar:
    """Coerce an entry value into the active mode.

    A string is read as a rational when the mode is exact or it has a "/",
    and then only in the spelling ``RATIONAL``, like "3/4" or "-2".  Exact
    mode also accepts ints and Fractions; floats are rejected because they
    carry no exact meaning.  Float mode accepts anything float() does, but
    no NaN, infinity or value too large for a float.
    """
    if isinstance(value, str) and (exact or "/" in value):
        if not RATIONAL.fullmatch(value):
            raise ValueError("rational values must be written as 'n/d' strings")
        value = Fraction(value)
    if exact:
        if isinstance(value, float):
            raise TypeError("exact mode requires rational values, got a float")
        return Fraction(value)
    try:
        x = float(value)
    except OverflowError:
        raise ValueError("value too large for a float") from None
    if not isfinite(x):
        raise ValueError(f"non-finite value {value!r}")
    return x


def exceeds(residual: Scalar, tol: float, exact: bool) -> bool:
    """Whether a residual breaches the tolerance: any nonzero residual in
    exact mode, more than ``tol`` in float mode, and NaN always."""
    return not (residual <= (0 if exact else tol))


def wrap(x: Scalar, exact: bool) -> Scalar:
    """Reduce an angle to the half-open fundamental window (-T/2, T/2]."""
    turn = full_turn(exact)
    r = x % turn
    if r > turn / 2:
        r -= turn
    return r


def wrap_distance(a: Scalar, b: Scalar, exact: bool) -> Scalar:
    """Distance between two angles modulo a full turn, in [0, T/2]."""
    return abs(wrap(a - b, exact))


def nearest_integer(x: Scalar) -> int:
    """Nearest integer; round() ties go to even, which never matters at
    the tolerances this is used with."""
    return int(round(x)) if isinstance(x, float) else int(round(Fraction(x)))


def integer_residual(x: Scalar, exact: bool) -> tuple[int, Scalar]:
    """Split an angle into (nearest multiple of a turn, absolute residual)."""
    turn = full_turn(exact)
    n = nearest_integer(x / turn)
    return n, abs(x - n * turn)


def group_sums(groups: Iterable[Sequence[Scalar]], exact: bool) -> List[Scalar]:
    """The sum of each group of terms, independent of the terms' order;
    an empty group sums to the typed zero.

    Floats use one math.fsum per group (exact up to one final rounding,
    hence stable under reordering of equal inputs; NaN passes through, an
    overflow or inf - inf raises CochainError); exact values add exactly.
    """
    if exact:
        return [sum(g) if g else Fraction(0) for g in groups]
    try:
        return list(map(fsum, groups))
    except (OverflowError, ValueError) as e:
        raise CochainError(f"float sum failed: {e}") from None
