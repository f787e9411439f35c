"""Transition functions of local actions and their boundary formulas.

Two index maps on a with-boundary complex give two local actions; their
difference is the transition function.  The boundary route computes the
same angle from mixed-index words along flags: for a flag reaching
codimension n, the word puts rho0 on the chain from sigma^(p-1) down to
sigma^(p-r) and rho1 from sigma^(p-r) down to sigma^(p-n), summed over r
with alternating sign.  Interior facets cancel pairwise, so only flags
through boundary facets survive; the census in the result shows exactly
that.

For p = 3 the composition G(rho0,rho1) + G(rho1,rho2) - G(rho0,rho2)
telescopes to zero on the nose, while the same mixed-word sum built from
the boundary surface's own flags lands in 2*pi*Z; that integer is the
degree-3 descent cocycle on the boundary, and the explicit edge/vertex
word sum evaluates the same angle mod 2*pi.  Every formula here generates
(sign, k, simplex, word) terms for the cochain module's word kernel, and
each route asks ``_FlagSums`` for a local action, or the difference of
two, by index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ._scalars import Scalar, exceeds, integer_residual, wrap, wrap_distance
from .cochain import DeligneCochain, Term
from .cover import IndexMap
from .errors import TransgressionError, TransitionToleranceError
from .holonomy import _FlagSums
from .simplicial import Flag, SimplicialComplex, boundary_restrict, facets_of


@dataclass(frozen=True)
class TransitionValue:
    raw: Scalar
    angle: Scalar
    exact: bool
    route: str
    boundary_sum: Optional[Scalar] = None
    interior_sum: Optional[Scalar] = None
    boundary_flags: int = 0
    interior_flags: int = 0
    agreement_residual: Optional[Scalar] = None


def transition_general(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap
) -> TransitionValue:
    """local_action(rho1) - local_action(rho0); the defining difference."""
    sums = _FlagSums(c, (rho0, rho1), "transition", TransgressionError)
    raw = sums.difference(rho0, rho1)
    return TransitionValue(raw=raw, angle=wrap(raw, c.exact), exact=c.exact, route="general")


def _mixed_words(
    flags: Sequence[Flag], rho0: IndexMap, rho1: IndexMap
) -> Iterator[Term]:
    """Along each flag's chain below its top, for r = 1..n: rho0 on the first
    r simplices, rho1 on the last n - r + 1, sign (-1)^(r+1)."""
    for flag in flags:
        chain = flag.chain[1:]
        target = chain[-1]
        k = len(target) - 1
        a = tuple(map(rho0, chain))
        b = tuple(map(rho1, chain))
        for r in range(1, len(chain) + 1):
            yield (-1) ** (r + 1) * flag.sign, k, target, a[:r] + b[r - 1:]


def _split_flags(K: SimplicialComplex, p: int) -> Tuple[List[Flag], List[Flag]]:
    """Flags reaching codimension >= 1, as (boundary, interior) by whether
    the codimension-1 simplex is a boundary facet."""
    flags = [flag for n in range(1, p + 1) for flag in K.flags(p - n)]
    boundary = [flag for flag in flags if flag.chain[1] in K.boundary_facets]
    return boundary, [flag for flag in flags if flag.chain[1] not in K.boundary_facets]


def transition_boundary(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap
) -> TransitionValue:
    """The mixed-word flag formula, with a boundary/interior census.

    A flag is counted as boundary when its codimension-1 simplex is a
    boundary facet.  Interior contributions cancel pairwise and are
    reported so the cancellation is visible, not assumed.
    """
    sums = _FlagSums(c, (rho0, rho1), "transition", TransgressionError)
    boundary, interior = _split_flags(c.base.complex, c.degree)
    b_sum, i_sum = sums(
        _mixed_words(boundary, rho0, rho1), _mixed_words(interior, rho0, rho1)
    )
    raw = sums.finite(b_sum + i_sum)
    return TransitionValue(
        raw=raw,
        angle=wrap(raw, c.exact),
        exact=c.exact,
        route="boundary",
        boundary_sum=b_sum,
        interior_sum=i_sum,
        boundary_flags=len(boundary),
        interior_flags=len(interior),
    )


def _edge_vertex_words(
    K: SimplicialComplex, rho0: IndexMap, rho1: IndexMap
) -> Iterator[Term]:
    """transition_p2_boundary's words over boundary edges and their vertices."""
    for e, s_e in sorted(K.boundary_facets.items()):
        yield s_e, 1, e, (rho0(e), rho1(e))
        for v, inc in facets_of(e):
            sign = s_e * inc
            yield -sign, 0, v, (rho0(e), rho0(v), rho1(v))
            yield sign, 0, v, (rho0(e), rho1(e), rho1(v))


def transition_p2_boundary(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap, tol: float = 1e-9
) -> TransitionValue:
    """The surface case written out over boundary edges and their vertices.

    Per boundary edge e with induced orientation s_e the angle picks up
    s_e * C^1(e, (rho0(e), rho1(e))), and per vertex v of e the two words
    -C^0(v, (rho0(e), rho0(v), rho1(v))) + C^0(v, (rho0(e), rho1(e), rho1(v)))
    weighted by s_e times the edge-vertex incidence.  Agreement with
    transition_general is asserted; the interior residual of the full flag
    formula is reported alongside.
    """
    if c.degree != 2:
        raise TransgressionError("the edge/vertex transition formula needs p = 2")
    sums = _FlagSums(c, (rho0, rho1), "transition", TransgressionError)
    K = c.base.complex
    _, interior = _split_flags(K, 2)
    raw, i_sum = sums(
        _edge_vertex_words(K, rho0, rho1), _mixed_words(interior, rho0, rho1)
    )
    agreement = wrap_distance(raw, sums.difference(rho0, rho1), c.exact)
    if exceeds(agreement, tol, c.exact):
        raise TransitionToleranceError(
            f"boundary formula disagrees with the defining difference by {agreement}"
        )
    return TransitionValue(
        raw=raw,
        angle=wrap(raw, c.exact),
        exact=c.exact,
        route="p2-boundary",
        boundary_sum=raw,
        interior_sum=i_sum,
        boundary_flags=len(K.boundary_facets),
        interior_flags=len(interior),
        agreement_residual=agreement,
    )


@dataclass(frozen=True)
class TripleTransgressionValue:
    telescoped: Scalar
    surface_raw: Scalar
    angle: Scalar
    integer_witness: int
    integer_residual: Scalar
    display_raw: Scalar
    display_agreement: Scalar
    exact: bool


def transgress_p3_triple(
    c: DeligneCochain,
    rho0: IndexMap,
    rho1: IndexMap,
    rho2: IndexMap,
    tol: float = 1e-9,
) -> TripleTransgressionValue:
    """Degree-3 descent data on the boundary of a 3-complex.

    Route (a): composing defining differences telescopes to zero; reported
    as a consistency value.  Route (b): the mixed-word sum over the closed
    boundary surface's own flags, composed over the three index-map pairs,
    lands in 2*pi*Z; its integer is the descent cocycle value.  The
    explicit edge/vertex word sum from the same descent computation is
    evaluated independently and must agree mod 2*pi.
    """
    if c.degree != 3:
        raise TransgressionError("triple transgression needs p = 3")
    sums = _FlagSums(c, (rho0, rho1, rho2), "transition", TransgressionError)
    K = c.base.complex
    if not K.boundary_facets:
        raise TransgressionError("triple transgression needs a nonempty boundary")

    # Below their tops, K's boundary flags are the boundary surface's own
    # flags with the same signs, so nothing needs restricting to the surface.
    boundary, _ = _split_flags(K, 3)
    a0, a1, a2 = (sums.action(rho).raw for rho in (rho0, rho1, rho2))
    s01, s12, s02, display = sums(
        _mixed_words(boundary, rho0, rho1),
        _mixed_words(boundary, rho1, rho2),
        _mixed_words(boundary, rho0, rho2),
        _display_words(boundary_restrict(K), rho0, rho1, rho2),
    )
    telescoped = sums.finite((a1 - a0) + (a2 - a1) - (a2 - a0))
    combo = sums.finite(s01 + s12 - s02)
    witness, residual = integer_residual(combo, c.exact)
    if exceeds(residual, tol, c.exact):
        raise TransitionToleranceError(
            f"surface composition missed 2-pi integrality by {residual}"
        )

    agreement = wrap_distance(display, combo, c.exact)
    if exceeds(agreement, tol, c.exact):
        raise TransitionToleranceError(
            f"edge/vertex word sum disagrees with the composition by {agreement}"
        )
    return TripleTransgressionValue(
        telescoped=telescoped,
        surface_raw=combo,
        angle=wrap(combo, c.exact),
        integer_witness=witness,
        integer_residual=residual,
        display_raw=display,
        display_agreement=agreement,
        exact=c.exact,
    )


def _display_words(
    S: SimplicialComplex, r0: IndexMap, r1: IndexMap, r2: IndexMap
) -> Iterator[Term]:
    """The written-out degree-3 descent words over (face, edge[, vertex]).

    Per flag b > e: -C^1(e, (r0(e), r1(e), r2(e))).  Per flag b > e > v:
    -C^0(v, (r0(e), r0(v), r1(v), r2(v))) + C^0(v, (r0(e), r1(e), r1(v), r2(v)))
    - C^0(v, (r0(e), r1(e), r2(e), r2(v))).
    """
    for flag in S.flags(1):
        e = flag.chain[-1]
        yield -flag.sign, 1, e, (r0(e), r1(e), r2(e))
    for flag in S.flags(0):
        _, e, v = flag.chain
        yield -flag.sign, 0, v, (r0(e), r0(v), r1(v), r2(v))
        yield flag.sign, 0, v, (r0(e), r1(e), r1(v), r2(v))
        yield -flag.sign, 0, v, (r0(e), r1(e), r2(e), r2(v))
