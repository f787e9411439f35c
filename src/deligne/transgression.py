"""Transition functions of local actions and their boundary formulas.

Two index maps on a with-boundary complex give two local actions; their
difference is the transition function.  The boundary route computes the
same angle from mixed-index words along flags: for a flag reaching
codimension n, the word puts rho0 on the chain from sigma^(p-1) down to
sigma^(p-r) and rho1 from sigma^(p-r) down to sigma^(p-n), with sign
(-1)^(r+1), for r = 1..n.  These words are the holonomy module's walk
under (rho0, rho1), started below the tops.  The two tops at an interior
facet sign it oppositely and leave the same words below it, so the chain
keeps only flags through boundary facets: the interior sum is zero before
any cochain is read, and the census counts the flags of each kind.  On a
surface the chain is the edge/vertex formula of ``transition_p2_boundary``.

For p = 3 the composition G(rho0,rho1) + G(rho1,rho2) - G(rho0,rho2)
telescopes to zero on the nose, while the same composition of mixed
chains, which live on the boundary surface, lands in 2*pi*Z; that integer
is the degree-3 descent cocycle on the boundary.  Its written-out
edge/vertex words, the walk under all three maps on that closed surface,
are the zero chain, so they are not walked; reports keep their value.
Every route asks ``_FlagSums`` for its sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ._scalars import Scalar, exceeds, integer_residual, wrap, wrap_distance, zero
from .cochain import Chain, DeligneCochain, _word_sums
from .cover import IndexMap
from .errors import TransgressionError, TransitionToleranceError
from .holonomy import _FlagSums, _flag_count, _walk
from .simplicial import SimplicialComplex


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
    raw = sums.finite(sums.action(rho1).raw - sums.action(rho0).raw)
    return TransitionValue(raw=raw, angle=wrap(raw, c.exact), exact=c.exact, route="general")


def _mixed_chain(K: SimplicialComplex, *maps: IndexMap) -> Chain:
    """The mixed words of ``maps`` along K's flags below the tops, every
    dimension in one chain."""
    return {key: n for level in _walk(K, maps, top=False) for key, n in level.items()}


def transition_boundary(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap
) -> TransitionValue:
    """The mixed-word flag formula, with a boundary/interior census.

    A flag below a top is counted as boundary when its codimension-1
    simplex is a boundary facet.  Interior flags cancel pairwise in the
    chain itself, so the interior sum is the typed zero and the census
    only counts them.
    """
    _FlagSums(c, (rho0, rho1), "transition", TransgressionError)
    K, p = c.base.complex, c.degree
    (raw,) = _word_sums(c, _mixed_chain(K, rho0, rho1))
    below = sum(_flag_count(len(K.tops), p, q) for q in range(p))
    boundary = sum(_flag_count(len(K.boundary_facets), p - 1, q) for q in range(p))
    return TransitionValue(
        raw=raw,
        angle=wrap(raw, c.exact),
        exact=c.exact,
        route="boundary",
        boundary_sum=raw,
        interior_sum=zero(c.exact),
        boundary_flags=boundary,
        interior_flags=below - boundary,
    )


def transition_p2_boundary(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap, tol: float = 1e-9
) -> TransitionValue:
    """The surface case written out over boundary edges and their vertices.

    Per boundary edge e with induced orientation s_e the angle picks up
    s_e * C^1(e, (rho0(e), rho1(e))), and per vertex v of e the two words
    -C^0(v, (rho0(e), rho0(v), rho1(v))) + C^0(v, (rho0(e), rho1(e), rho1(v)))
    weighted by s_e times the edge-vertex incidence.  These are exactly the
    words of the boundary route's chain on a surface, so this is that
    route, with boundary edges counted in place of boundary flags.
    Agreement with transition_general is asserted.
    """
    if c.degree != 2:
        raise TransgressionError("the edge/vertex transition formula needs p = 2")
    boundary = transition_boundary(c, rho0, rho1)
    return _p2_boundary(c, boundary, transition_general(c, rho0, rho1), tol)


def _p2_boundary(
    c: DeligneCochain, boundary: TransitionValue, general: TransitionValue, tol: float
) -> TransitionValue:
    """``transition_p2_boundary`` from both routes' values for one pair of
    index maps, so a caller holding them builds each chain once."""
    agreement = wrap_distance(boundary.raw, general.raw, c.exact)
    if exceeds(agreement, tol, c.exact):
        raise TransitionToleranceError(
            f"boundary formula disagrees with the defining difference by {agreement}"
        )
    return replace(
        boundary,
        route="p2-boundary",
        boundary_flags=len(c.base.complex.boundary_facets),
        agreement_residual=agreement,
    )


@dataclass(frozen=True)
class TripleTransgressionValue:
    telescoped: Scalar
    surface_raw: Scalar
    angle: Scalar
    integer_witness: int
    integer_residual: Scalar
    display_raw: Scalar  # the edge/vertex words' value: the typed zero
    display_agreement: Scalar  # its distance from surface_raw mod 2*pi
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
    as a consistency value.  Route (b): the mixed chains of the three
    index-map pairs, which keep only flags through boundary facets and so
    live on the closed boundary surface, composed, land in 2*pi*Z; the
    integer is the descent cocycle value.  The explicit edge/vertex words
    on that closed surface are the zero chain; their value and its
    distance from the composition, the integrality residual up to
    rounding, are reported and not checked again.
    """
    if c.degree != 3:
        raise TransgressionError("triple transgression needs p = 3")
    sums = _FlagSums(c, (rho0, rho1, rho2), "transition", TransgressionError)
    K = c.base.complex
    if not K.boundary_facets:
        raise TransgressionError("triple transgression needs a nonempty boundary")

    a0, a1, a2 = (sums.action(rho).raw for rho in (rho0, rho1, rho2))
    s01, s12, s02 = _word_sums(
        c,
        _mixed_chain(K, rho0, rho1),
        _mixed_chain(K, rho1, rho2),
        _mixed_chain(K, rho0, rho2),
    )
    telescoped = sums.finite((a1 - a0) + (a2 - a1) - (a2 - a0))
    combo = sums.finite(s01 + s12 - s02)
    witness, residual = integer_residual(combo, c.exact)
    if exceeds(residual, tol, c.exact):
        raise TransitionToleranceError(
            f"surface composition missed 2-pi integrality by {residual}"
        )
    display = zero(c.exact)
    return TripleTransgressionValue(
        telescoped=telescoped,
        surface_raw=combo,
        angle=wrap(combo, c.exact),
        integer_witness=witness,
        integer_residual=residual,
        display_raw=display,
        display_agreement=wrap_distance(display, combo, c.exact),
        exact=c.exact,
    )

