"""Holonomy of a degree-p class over closed oriented p-complexes.

The general formula sums over descending flags.  At codimension n the
flag contributes

    sign(flag) * C^(p-n)(sigma^(p-n), (rho(sigma^p), ..., rho(sigma^(p-n))))

with the multi-index evaluated through the alternating convention, so a
repeated chart along the flag kills the term.  The same sum on a complex
with boundary is the rho-dependent local action; the difference of two
local actions is what the transgression module turns into boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Tuple

from ._scalars import Scalar, integer_residual, tree_sum, wrap
from .cochain import DeligneCochain, discrete_d
from .cover import CoveredComplex, IndexMap
from .errors import HolonomyError
from .simplicial import Simplex


class LevelSum(NamedTuple):
    """Total contribution of all flags at one codimension."""

    codim: int
    value: Scalar
    flags: int


@dataclass(frozen=True)
class HolonomyValue:
    raw: Scalar
    angle: Scalar
    levels: Tuple[LevelSum, ...]
    flag_count: int
    exact: bool

    def __repr__(self) -> str:
        return f"HolonomyValue(angle={float(self.angle)!r}, raw={float(self.raw)!r})"


def check_index_map(C: CoveredComplex, rho: IndexMap) -> None:
    """Admissibility of rho per simplex; faces inherit supersets, so the
    per-simplex check also covers every word built along flags."""
    for _, s in C.complex.all_simplices():
        a = rho(s)
        if a not in C.admissible_of(s):
            raise HolonomyError(f"index map picks inadmissible chart {a} for {s}")


def _flag_sum(c: DeligneCochain, rho: IndexMap) -> HolonomyValue:
    p = c.degree
    K = c.base.complex
    levels = []
    total_flags = 0
    level_values = []
    for n in range(p + 1):
        terms = []
        flags = K.flags(p - n)
        for flag in flags:
            word = tuple(rho(s) for s in flag.chain)
            terms.append(flag.sign * c.component(p - n, flag.chain[-1], word))
        value = tree_sum(terms, c.exact)
        levels.append(LevelSum(n, value, len(flags)))
        level_values.append(value)
        total_flags += len(flags)
    raw = tree_sum(level_values, c.exact)
    return HolonomyValue(
        raw=raw,
        angle=wrap(raw, c.exact),
        levels=tuple(levels),
        flag_count=total_flags,
        exact=c.exact,
    )


def holonomy(c: DeligneCochain, rho: IndexMap) -> HolonomyValue:
    """Holonomy over a closed oriented complex of dimension exactly p."""
    K = c.base.complex
    if not c.cocycle:
        raise HolonomyError("holonomy needs a cochain flagged as cocycle")
    if K.dim != c.degree:
        raise HolonomyError(
            f"holonomy needs a complex of dimension {c.degree}, got {K.dim}"
        )
    if not K.pseudomanifold:
        raise HolonomyError("holonomy needs an oriented pseudomanifold")
    if not K.closed:
        raise HolonomyError("holonomy needs a closed complex; use local_action")
    check_index_map(c.base, rho)
    return _flag_sum(c, rho)


def local_action(c: DeligneCochain, rho: IndexMap) -> HolonomyValue:
    """The same flag sum on a with-boundary complex; rho-dependent."""
    K = c.base.complex
    if not c.cocycle:
        raise HolonomyError("local action needs a cochain flagged as cocycle")
    if K.dim != c.degree:
        raise HolonomyError(
            f"local action needs a complex of dimension {c.degree}, got {K.dim}"
        )
    if not K.pseudomanifold:
        raise HolonomyError("local action needs an oriented pseudomanifold")
    check_index_map(c.base, rho)
    return _flag_sum(c, rho)


@dataclass(frozen=True)
class CurvatureValue:
    total: Scalar
    per_simplex: Mapping[Simplex, Scalar]
    multiple: int
    residual: Scalar
    exact: bool


def curvature_total(
    c: DeligneCochain, rho: IndexMap, tol: float = 1e-9
) -> CurvatureValue:
    """Sum of d C^p over the tops of a closed oriented (p+1)-complex.

    Each top contributes with its stored orientation.  The value per top
    must not depend on which admissible chart evaluates it; that spread is
    asserted within tol (exactly in exact mode).  For a cocycle the total
    is a multiple of a full turn; the nearest multiple and its residual
    are reported, not enforced.
    """
    K = c.base.complex
    if K.dim != c.degree + 1:
        raise HolonomyError(
            f"curvature needs a complex of dimension {c.degree + 1}, got {K.dim}"
        )
    if not K.closed:
        raise HolonomyError("curvature total needs a closed oriented complex")
    check_index_map(c.base, rho)
    threshold = 0 if c.exact else tol
    per: dict = {}
    for t in K.tops:
        values = [discrete_d(c, t, (a,)) for a in c.base.admissible_of(t)]
        gaps = [abs(v - values[0]) for v in values]
        if not all(gap <= threshold for gap in gaps):
            raise HolonomyError(
                f"curvature of {t} depends on the chart choice (spread {max(gaps)})"
            )
        per[t] = K.orientation(t) * discrete_d(c, t, (rho(t),))
    total = tree_sum([per[t] for t in K.tops], c.exact)
    multiple, residual = integer_residual(total, c.exact)
    return CurvatureValue(total, per, multiple, residual, c.exact)
