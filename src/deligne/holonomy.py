"""Holonomy of a degree-p class over closed oriented p-complexes.

The general formula sums over descending flags.  At codimension n the
flag contributes

    sign(flag) * C^(p-n)(sigma^(p-n), (rho(sigma^p), ..., rho(sigma^(p-n))))

with the multi-index evaluated through the alternating convention, so a
repeated chart along the flag kills the term.  The same sum on a complex
with boundary is the rho-dependent local action; the difference of two
local actions is what the transgression module turns into boundary data.
Both modules feed every flag sum as (sign, k, simplex, word) terms to the
cochain module's one word kernel, after one precondition check per call,
and ask ``_FlagSums`` for a local action by its index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from ._scalars import Scalar, exceeds, group_sums, integer_residual, wrap
from .cochain import DeligneCochain, Term, _differential, _unscaled, _word_sums
from .cover import CoveredComplex, IndexMap
from .errors import ChartSpreadError, HolonomyError
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


class _FlagSums:
    """The flag sums of one public call.  The constructor is the one
    precondition path (cocycle flag, dimension, oriented pseudomanifold,
    closedness on request, every index map), raising ``error`` naming ``op``;
    every sum handed back passes :meth:`finite`."""

    def __init__(
        self, c: DeligneCochain, rhos: Sequence[IndexMap], op: str, error: type,
        closed: bool = False,
    ):
        K = c.base.complex
        if not c.cocycle:
            raise error(f"{op} needs a cochain flagged as cocycle")
        if K.dim != c.degree:
            raise error(f"{op} needs a complex of dimension {c.degree}, got {K.dim}")
        if not K.pseudomanifold:
            raise error(f"{op} needs an oriented pseudomanifold")
        if closed and not K.closed:
            raise error(f"{op} needs a closed complex; use local_action")
        for rho in rhos:
            check_index_map(c.base, rho)
        self.c, self.op, self.error = c, op, error

    def __call__(self, *groups: Iterable[Term]) -> List[Scalar]:
        return [self.finite(x) for x in _word_sums(self.c, *groups)]

    def finite(self, x: Scalar) -> Scalar:
        if not (self.c.exact or isfinite(x)):
            raise self.error(f"{self.op} sum is not finite: {x}")
        return x

    def action(self, rho: IndexMap) -> HolonomyValue:
        """The local action under rho, from one flag sum per codimension
        n = 0..p."""
        c, K = self.c, self.c.base.complex

        def words(k: int) -> Iterator[Term]:
            for flag in K.flags(k):
                yield flag.sign, k, flag.chain[-1], tuple(map(rho, flag.chain))

        levels = self(*(words(c.degree - n) for n in range(c.degree + 1)))
        counts = [len(K.flags(c.degree - n)) for n in range(c.degree + 1)]
        raw = self.finite(group_sums([levels], c.exact)[0])
        level_sums = tuple(map(LevelSum, range(c.degree + 1), levels, counts))
        return HolonomyValue(raw, wrap(raw, c.exact), level_sums, sum(counts), c.exact)

    def difference(self, rho0: IndexMap, rho1: IndexMap) -> Scalar:
        """The local action under rho1 minus the one under rho0."""
        return self.finite(self.action(rho1).raw - self.action(rho0).raw)


def holonomy(c: DeligneCochain, rho: IndexMap) -> HolonomyValue:
    """Holonomy over a closed oriented complex of dimension exactly p."""
    return _FlagSums(c, (rho,), "holonomy", HolonomyError, closed=True).action(rho)


def local_action(c: DeligneCochain, rho: IndexMap) -> HolonomyValue:
    """The same flag sum on a with-boundary complex; rho-dependent."""
    return _FlagSums(c, (rho,), "local action", HolonomyError).action(rho)


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
    """Sum of the curvature (D C)^(p+1) = d C^p over the tops of a closed
    oriented (p+1)-complex.

    Each top contributes its value at chart rho(top), with its stored
    orientation.  The value per top must not depend on which admissible
    chart evaluates it; a spread beyond tol (any spread in exact mode)
    raises ChartSpreadError.  For a cocycle the total is a multiple of a
    full turn; the nearest multiple and its residual are reported, not
    enforced.
    """
    K = c.base.complex
    if K.dim != c.degree + 1:
        raise HolonomyError(
            f"curvature needs a complex of dimension {c.degree + 1}, got {K.dim}"
        )
    if not K.closed:
        raise HolonomyError("curvature total needs a closed oriented complex")
    check_index_map(c.base, rho)
    per: dict = {}
    for t, charts, values in _differential(c.base, c._rows, K.dim, c.exact):
        values = [_unscaled(x, c.scale, c.exact) for x in values]
        gaps = [abs(v - values[0]) for v in values]
        if any(exceeds(gap, tol, c.exact) for gap in gaps):
            raise ChartSpreadError(
                f"curvature of {t} depends on the chart choice (spread {max(gaps)})"
            )
        per[t] = K.orientation(t) * values[charts.index(rho(t))]
    total = group_sums([[per[t] for t in K.tops]], c.exact)[0]
    multiple, residual = integer_residual(total, c.exact)
    return CurvatureValue(total, per, multiple, residual, c.exact)
