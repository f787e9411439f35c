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
word sum evaluates the same angle mod 2*pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ._scalars import Scalar, integer_residual, tree_sum, wrap, wrap_distance
from .cochain import DeligneCochain, restrict_cochain
from .cover import IndexMap, restrict_cover_to_boundary, restrict_index_map
from .errors import TransgressionError
from .holonomy import check_index_map, local_action
from .simplicial import facets_of


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


def _require_transition_input(c: DeligneCochain) -> None:
    K = c.base.complex
    if not c.cocycle:
        raise TransgressionError("transition needs a cochain flagged as cocycle")
    if K.dim != c.degree:
        raise TransgressionError(
            f"transition needs a complex of dimension {c.degree}, got {K.dim}"
        )
    if not K.pseudomanifold:
        raise TransgressionError("transition needs an oriented pseudomanifold")


def transition_general(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap
) -> TransitionValue:
    """local_action(rho1) - local_action(rho0); the defining difference."""
    _require_transition_input(c)
    raw = local_action(c, rho1).raw - local_action(c, rho0).raw
    return TransitionValue(raw=raw, angle=wrap(raw, c.exact), exact=c.exact, route="general")


def _mixed_terms(
    c: DeligneCochain,
    positions: Sequence,  # simplices sigma^(p-1) .. sigma^(p-n), outermost first
    rho0: IndexMap,
    rho1: IndexMap,
) -> Scalar:
    """Sum over r of the alternating mixed words along one chain."""
    n = len(positions)
    target = positions[-1]
    k = len(target) - 1
    terms = []
    for r in range(1, n + 1):
        word = tuple(rho0(positions[i]) for i in range(r)) + tuple(
            rho1(positions[i]) for i in range(r - 1, n)
        )
        terms.append((-1) ** (r + 1) * c.component(k, target, word))
    return tree_sum(terms, c.exact)


def transition_boundary(
    c: DeligneCochain, rho0: IndexMap, rho1: IndexMap
) -> TransitionValue:
    """The mixed-word flag formula, with a boundary/interior census.

    A flag is counted as boundary when its codimension-1 simplex is a
    boundary facet.  Interior contributions cancel pairwise and are
    reported so the cancellation is visible, not assumed.
    """
    _require_transition_input(c)
    check_index_map(c.base, rho0)
    check_index_map(c.base, rho1)
    p = c.degree
    K = c.base.complex
    boundary_terms: List[Scalar] = []
    interior_terms: List[Scalar] = []
    b_flags = i_flags = 0
    for n in range(1, p + 1):
        for flag in K.flags(p - n):
            value = flag.sign * _mixed_terms(c, flag.chain[1:], rho0, rho1)
            if flag.chain[1] in K.boundary_facets:
                boundary_terms.append(value)
                b_flags += 1
            else:
                interior_terms.append(value)
                i_flags += 1
    b_sum = tree_sum(boundary_terms, c.exact)
    i_sum = tree_sum(interior_terms, c.exact)
    raw = b_sum + i_sum
    return TransitionValue(
        raw=raw,
        angle=wrap(raw, c.exact),
        exact=c.exact,
        route="boundary",
        boundary_sum=b_sum,
        interior_sum=i_sum,
        boundary_flags=b_flags,
        interior_flags=i_flags,
    )


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
    _require_transition_input(c)
    check_index_map(c.base, rho0)
    check_index_map(c.base, rho1)
    K = c.base.complex
    terms: List[Scalar] = []
    count = 0
    for e, s_e in sorted(K.boundary_facets.items()):
        count += 1
        terms.append(s_e * c.component(1, e, (rho0(e), rho1(e))))
        for v, inc in facets_of(e):
            sign = s_e * inc
            terms.append(-sign * c.component(0, v, (rho0(e), rho0(v), rho1(v))))
            terms.append(sign * c.component(0, v, (rho0(e), rho1(e), rho1(v))))
    raw = tree_sum(terms, c.exact)
    general = transition_general(c, rho0, rho1)
    agreement = wrap_distance(raw, general.raw, c.exact)
    threshold = 0 if c.exact else tol
    if agreement > threshold:
        raise TransgressionError(
            f"boundary formula disagrees with the defining difference by {agreement}"
        )
    full = transition_boundary(c, rho0, rho1)
    return TransitionValue(
        raw=raw,
        angle=wrap(raw, c.exact),
        exact=c.exact,
        route="p2-boundary",
        boundary_sum=raw,
        interior_sum=full.interior_sum,
        boundary_flags=count,
        interior_flags=full.interior_flags,
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


def _surface_mixed_sum(
    cS: DeligneCochain, rho_a: IndexMap, rho_b: IndexMap
) -> Scalar:
    """Mixed-word sum whose chains start at the boundary surface's tops."""
    p = cS.degree
    S = cS.base.complex
    values: List[Scalar] = []
    for n in range(1, p + 1):
        depth = p - n
        if depth > S.dim:
            continue
        for flag in S.flags(depth):
            values.append(flag.sign * _mixed_terms(cS, flag.chain, rho_a, rho_b))
    return tree_sum(values, cS.exact)


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
    _require_transition_input(c)
    K = c.base.complex
    if not K.boundary_facets:
        raise TransgressionError("triple transgression needs a nonempty boundary")
    for rho in (rho0, rho1, rho2):
        check_index_map(c.base, rho)

    t01 = transition_general(c, rho0, rho1).raw
    t12 = transition_general(c, rho1, rho2).raw
    t02 = transition_general(c, rho0, rho2).raw
    telescoped = t01 + t12 - t02

    S_cov = restrict_cover_to_boundary(c.base)
    cS = restrict_cochain(c, S_cov)
    r0 = restrict_index_map(S_cov, rho0)
    r1 = restrict_index_map(S_cov, rho1)
    r2 = restrict_index_map(S_cov, rho2)

    combo = (
        _surface_mixed_sum(cS, r0, r1)
        + _surface_mixed_sum(cS, r1, r2)
        - _surface_mixed_sum(cS, r0, r2)
    )
    witness, residual = integer_residual(combo, c.exact)
    threshold = 0 if c.exact else tol
    if residual > threshold:
        raise TransgressionError(
            f"surface composition missed 2-pi integrality by {residual}"
        )

    display = _display_word_sum(cS, r0, r1, r2)
    agreement = wrap_distance(display, combo, c.exact)
    if agreement > threshold:
        raise TransgressionError(
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


def _display_word_sum(
    cS: DeligneCochain, r0: IndexMap, r1: IndexMap, r2: IndexMap
) -> Scalar:
    """The written-out degree-3 descent words over (face, edge[, vertex]).

    Per flag b > e: -C^1(e, (r0(e), r1(e), r2(e))).  Per flag b > e > v:
    -C^0(v, (r0(e), r0(v), r1(v), r2(v))) + C^0(v, (r0(e), r1(e), r1(v), r2(v)))
    - C^0(v, (r0(e), r1(e), r2(e), r2(v))).
    """
    S = cS.base.complex
    terms: List[Scalar] = []
    for flag in S.flags(1):
        e = flag.chain[-1]
        terms.append(-flag.sign * cS.component(1, e, (r0(e), r1(e), r2(e))))
    for flag in S.flags(0):
        e, v = flag.chain[1], flag.chain[2]
        terms.append(-flag.sign * cS.component(0, v, (r0(e), r0(v), r1(v), r2(v))))
        terms.append(flag.sign * cS.component(0, v, (r0(e), r1(e), r1(v), r2(v))))
        terms.append(-flag.sign * cS.component(0, v, (r0(e), r1(e), r2(e), r2(v))))
    return tree_sum(terms, cS.exact)
