"""Holonomy of a degree-p class over closed oriented p-complexes.

The general formula sums over descending flags.  At codimension n the
flag contributes

    sign(flag) * C^(p-n)(sigma^(p-n), (rho(sigma^p), ..., rho(sigma^(p-n))))

with the multi-index evaluated through the alternating convention, so a
repeated chart along the flag kills the term.  Flags that end at one
simplex with one chart word give one term, so the sum pairs C with an
integer chain {(simplex, word): count} that only the complex and rho fix
(Bott & Tu, *Differential Forms in Algebraic Topology*, §§8–9).
``_walk`` builds it down the face poset from the tops; under several
index maps it builds the transgression module's mixed words.  The flag
census is counted: a d-simplex has (d+1)!/(q+1)! chains to dimension q.
The same sum on a complex with boundary is the rho-dependent local
action, and every route asks ``_FlagSums`` for its sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite
from typing import List, Mapping, NamedTuple, Sequence, Tuple

from ._scalars import Scalar, exceeds, group_sums, integer_residual, wrap
from .cochain import Chain, DeligneCochain, _differential, _unscaled, _word_sums
from .cover import IndexMap
from .errors import ChartSpreadError, HolonomyError
from .simplicial import Simplex, SimplicialComplex


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


def _flag_count(tops: int, d: int, q: int) -> int:
    """The number of descending chains from ``tops`` d-simplices down to
    dimension q: (d+1)!/(q+1)! for each."""
    return tops * factorial(d + 1) // factorial(q + 1)


def _walk(K: SimplicialComplex, maps: Sequence[IndexMap], top: bool = True) -> List[Chain]:
    """The chains of K's flags under ``maps``, one per dimension from the
    tops down.  A word reads maps[0] along the flag, from the top if
    ``top`` is set and from its facet otherwise; at each simplex below the
    top it may move on to the next map, appending that chart too and
    taking the sign (-1)^(new length).  A step carries counts to the
    facets in K's face table times the incidence signs.  Words that repeat
    a chart, zero counts, and words short of the last map are left out."""
    last = len(maps) - 1
    level: Chain = {(t, (maps[0](t),) if top else ()): K.orientation(t) for t in K.tops}
    base = int(top)  # the length of a word still on maps[0]
    chains = []
    for q in range(K.dim, -1, -1):
        if q < K.dim:
            below: Chain = {}
            for (s, word), n in level.items():
                for tau, inc in K.facets(s):
                    w, m = word, inc * n
                    for rho in maps[len(word) - base:]:
                        a = rho(tau)
                        if a in w:
                            break
                        w += (a,)
                        below[tau, w] = below.get((tau, w), 0) + m
                        m = m if len(w) & 1 else -m
            level = {key: n for key, n in below.items() if n}
            base += 1
        chains.append({key: n for key, n in level.items() if len(key[1]) == base + last})
    return chains


class _FlagSums:
    """The flag sums of one public call.  The constructor is the one
    precondition path (cocycle flag, dimension, oriented pseudomanifold,
    closedness on request, each index map's cover (a map checks its charts
    when it is built), finite float data: a chain merges terms, so a NaN
    could cancel unseen), raising ``error`` naming ``op``.  Sums combined
    outside the kernel pass :meth:`finite`."""

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
        if any(rho.cover is not c.base and rho.cover != c.base for rho in rhos):
            raise error(f"{op} needs index maps made on the cochain's cover")
        if not (c.exact or all(all(map(isfinite, row)) for level in c._rows
                               for row in level.values())):
            raise error(f"{op} needs finite data; a stored value is not finite")
        self.c, self.op, self.error = c, op, error

    def finite(self, x: Scalar) -> Scalar:
        if not (self.c.exact or isfinite(x)):
            raise self.error(f"{self.op} sum is not finite: {x}")
        return x

    def action(self, rho: IndexMap) -> HolonomyValue:
        """The local action under rho, from one chain per codimension
        n = 0..p."""
        c, K = self.c, self.c.base.complex
        levels = _word_sums(c, *_walk(K, (rho,)))
        counts = [_flag_count(len(K.tops), K.dim, K.dim - n) for n in range(K.dim + 1)]
        raw = group_sums([levels], c.exact)[0]
        level_sums = tuple(map(LevelSum, range(c.degree + 1), levels, counts))
        return HolonomyValue(raw, wrap(raw, c.exact), level_sums, sum(counts), c.exact)


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
    if rho.cover is not c.base and rho.cover != c.base:
        raise HolonomyError("curvature total needs an index map made on the cochain's cover")
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
