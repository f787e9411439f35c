"""Analytic classes: chart-wise form data and its discretization.

A presentation packages, per level k, a rule producing the integrand for
``C^k(sigma, J)`` as a small polynomial expression over the geometry's
branch lifts: each term is a rational (or float) coefficient, at most one
linear factor in a specific chart's branch of a coordinate, and a constant
wedge monomial.  Everything the built-in fixtures and their cup products
build fits this shape.  Every integrand is therefore affine on each
simplex, and one rule integrates it exactly in both arithmetics: the
coefficient times the pulled-back volume (determinant over k!) times the
value of the linear factor at the simplex centroid.  A vertex is the case
k = 0 of that rule, so :func:`integrate_form` serves every level.

Unit bookkeeping: rational coefficients are in turn units and carry an
explicit count of angle factors; float coefficients are already in
radians.  A fixture parameter given in turns (``winding_function``'s
``offset``) is converted into those radians when it becomes a float
coefficient, never passed through as if it were radians already; one
given in the unit of the arithmetic (``flat_circle``'s ``theta``) is
taken as it stands.  A rational evaluation is only meaningful when a
term has a Fraction coefficient and carries exactly one angle factor in
total (an angle times an angle is not a rational number of turns); each
term is checked as it is integrated, and nowhere else.  Cup products
divide each product of two angle factors by one full turn
(:func:`turn_normalized_product`), so products of rational classes keep
one net angle factor and discretize exactly.

Cup products follow one rule, the Deligne–Beilinson product.  A
presentation of degree p enters it through two fields: ``integer_of``, its
integer Čech cocycle n = (-1)^p δC^0 in turns (a function of p + 2 chart
indices), and ``curv_of``, its curvature (p+1)-form R.  For x of degree p
and y of degree q the product has degree p + q + 1 and levels

    (x∪y)^k(s, J)       = n_x(s, J[:p+2]) · y^k(s, J[p+1:])   for k = 0..q,
    (x∪y)^(q+1+j)(s, J) = x^j(s, J) ⋆ R_y(s)                   for j = 0..p,

where ⋆ is :func:`turn_normalized_product`; its own fields are
n_x(s, J[:p+2]) · n_y(s, J[p+1:]) and R_x ⋆ R_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._scalars import TWO_PI, Scalar, coerce, group_sums
from .cochain import DeligneCochain, build_cochain
from .errors import AnalyticError
from .geometry import ChartedGeometry
from .simplicial import Simplex, determinant, parity_sort

# -- expression model ----------------------------------------------------------


@dataclass(frozen=True)
class FormTerm:
    """coeff * (branch of coords[linear]) * d(coords[wedge]).

    ``angle_power`` counts turn factors carried by a rational coefficient;
    float coefficients are radian-valued already and keep it for the
    rational-mode feasibility check only.
    """

    coeff: Scalar
    angle_power: int = 0
    linear: Optional[Tuple[int, int]] = None  # (coordinate, chart)
    wedge: Tuple[int, ...] = ()


FormExpr = Tuple[FormTerm, ...]

ZERO_EXPR: FormExpr = ()


def _wedge_join(w1: Tuple[int, ...], w2: Tuple[int, ...]) -> Optional[Tuple[Tuple[int, ...], int]]:
    srt, parity = parity_sort(w1 + w2)
    if parity == 0:
        return None
    return srt, parity


def expr_product(e1: FormExpr, e2: FormExpr) -> FormExpr:
    out: List[FormTerm] = []
    for a in e1:
        for b in e2:
            if a.linear is not None and b.linear is not None:
                raise AnalyticError("product would be quadratic in a coordinate")
            joined = _wedge_join(a.wedge, b.wedge)
            if joined is None:
                continue
            wedge, parity = joined
            out.append(
                FormTerm(
                    coeff=a.coeff * b.coeff * parity,
                    angle_power=a.angle_power + b.angle_power,
                    linear=a.linear or b.linear,
                    wedge=wedge,
                )
            )
    return tuple(out)


def expr_scale(e: FormExpr, factor: Scalar) -> FormExpr:
    if factor == 0:
        return ZERO_EXPR
    return tuple(
        FormTerm(t.coeff * factor, t.angle_power, t.linear, t.wedge)
        for t in e
    )


def turn_normalized_product(a: FormExpr, b: FormExpr) -> FormExpr:
    """Product of two angle-valued factors, divided by one full turn.

    Descent formulas for products are written in turn units; multiplying
    two radian-valued factors overcounts by exactly one turn.  Fraction
    coefficients absorb it in the angle bookkeeping, float coefficients
    numerically.
    """
    out: List[FormTerm] = []
    for t in expr_product(a, b):
        if isinstance(t.coeff, Fraction):
            out.append(FormTerm(t.coeff, t.angle_power - 1, t.linear, t.wedge))
        else:
            out.append(
                FormTerm(t.coeff / TWO_PI, t.angle_power, t.linear, t.wedge)
            )
    return tuple(out)


def _angle_count(t: FormTerm, periodic: Sequence[bool]) -> int:
    n = t.angle_power
    if t.linear is not None and periodic[t.linear[0]]:
        n += 1
    n += sum(1 for c in t.wedge if periodic[c])
    return n


def _term_value(
    t: FormTerm, geom: ChartedGeometry, x: Scalar, exact: bool
) -> Scalar:
    """One term's value, its coefficient times the geometric factor ``x``.

    Exact mode needs a Fraction coefficient and exactly one turn factor, so
    the value is rational in turns.  In float mode a Fraction coefficient
    carries ``angle_power`` turns (a float one is in radians already), and
    each periodic coordinate of the linear factor or the wedge is a lift in
    turns; every turn is worth 2*pi.
    """
    turns = _angle_count(t, geom.periodic)
    if exact:
        if not isinstance(t.coeff, Fraction):
            raise AnalyticError(
                "rational discretization needs rational fixture parameters"
            )
        if turns != 1:
            raise AnalyticError(
                "term mixes angle factors; its integral is not rational in turns"
            )
        return t.coeff * x
    if not isinstance(t.coeff, Fraction):
        turns -= t.angle_power
    return float(t.coeff) * TWO_PI ** turns * float(x)


# -- evaluation and integration --------------------------------------------------


def _rows_chart(geom: ChartedGeometry, sigma: Simplex) -> int:
    for a in sorted(geom.covered.admissible_of(sigma)):
        if geom.has_lift(a, sigma):
            return a
    raise AnalyticError(f"no chart realizes {sigma} in {geom.name}")


def integrate_form(
    expr: FormExpr,
    geom: ChartedGeometry,
    sigma: Simplex,
    exact: bool,
) -> Scalar:
    """Integral over a canonically oriented k-simplex, k >= 0.

    Each term is affine in the lifts, so its integral is exact: the
    coefficient times the geometric factor det / k! * (centroid of the
    linear factor's lift, or 1).  A vertex is the case k = 0 of the same
    rule (the empty determinant is 1, 0! = 1, and the centroid of one
    vertex is that vertex), so a 0-form is integrated by its value there.
    A term with no linear factor reads no lift on a vertex: its factor is
    1 even where no chart has a branch, as at the sphere's poles.
    """
    k = len(sigma) - 1
    parts: List[Scalar] = []
    for t in expr:
        if len(t.wedge) != k:
            raise AnalyticError(
                f"a {len(t.wedge)}-form cannot be integrated over a {k}-simplex"
            )
        factor = 1  # a constant on a vertex reads no lift
        if k or t.linear is not None:
            chart = t.linear[1] if t.linear is not None else _rows_chart(geom, sigma)
            rows = geom.lift(chart, sigma)
            det = determinant(
                [[r[c] - rows[0][c] for c in t.wedge] for r in rows[1:]]
            )
            if det == 0:
                continue
            factor = det / math.factorial(k)
            if t.linear is not None:
                factor *= sum(r[t.linear[0]] for r in rows) / len(rows)
        parts.append(_term_value(t, geom, factor, exact))
    return group_sums([parts], exact)[0]


# -- presentations ----------------------------------------------------------------

ComponentRule = Callable[[ChartedGeometry, Tuple[int, ...], Simplex], FormExpr]
IntegerRule = Callable[[ChartedGeometry, Simplex, Tuple[int, ...]], int]
CurvatureRule = Callable[[ChartedGeometry, Simplex], FormExpr]


@dataclass
class AnalyticClassPresentation:
    """Chart data of a class of the given degree over a built-in geometry.

    ``components[k]`` produces the level-k integrand for a multi-index and
    simplex.  The two optional fields are what :func:`cup_product` reads:
    ``integer_of(geom, s, J)``, with ``len(J) == degree + 2``, is the
    integer Čech cocycle (-1)^degree · δC^0(s, J) in turns, and
    ``curv_of(geom, s)`` is the curvature (degree+1)-form.  Exactness is
    read from the terms (see the module docstring), not stored.
    """

    label: str
    degree: int
    geometry: ChartedGeometry
    components: Tuple[ComponentRule, ...]
    kind: str
    integer_of: Optional[IntegerRule] = None
    curv_of: Optional[CurvatureRule] = None


def _lineage_ok(pres: AnalyticClassPresentation, geom: ChartedGeometry) -> bool:
    g: Optional[ChartedGeometry] = geom
    while g is not None:
        if g is pres.geometry:
            return True
        g = g.parent
    return False


def discretize(
    pres: AnalyticClassPresentation,
    geometry: Optional[ChartedGeometry] = None,
    quad_order: int = 8,
    exact: bool = False,
) -> DeligneCochain:
    """Sample a presentation into a cochain over a geometry's cover.

    ``geometry`` may be the presentation's own geometry (default) or any
    barycentric subdivision of it; the expressions are evaluated with the
    finer lifts.  Rational output is refused per term, where it cannot be
    exact.  ``quad_order`` is ignored (integration is exact); callers still
    pass it.
    """
    geom = geometry if geometry is not None else pres.geometry
    if not _lineage_ok(pres, geom):
        raise AnalyticError(
            f"{pres.label} is presented on {pres.geometry.name}, not on the "
            "given geometry"
        )
    p = pres.degree
    cov = geom.covered
    entries = []
    for k in range(p + 1):
        rule = pres.components[k]
        if rule is _no_component:
            continue
        length = p - k + 1
        for s in cov.complex.simplices(k):
            for J in cov.multi_indices(s, length):
                expr = rule(geom, J, s)
                if not expr:
                    continue
                val = integrate_form(expr, geom, s, exact)
                if val != 0:
                    entries.append((k, J, s, val))
    return build_cochain(cov, p, entries, exact=exact)


# -- fixture constructors -----------------------------------------------------------


def _const_term(value: Scalar, exact: bool) -> FormExpr:
    if value == 0:
        return ZERO_EXPR
    if exact:
        return (FormTerm(coerce(value, True), angle_power=1),)
    return (FormTerm(float(value)),)


def _no_component(geom, J, s) -> FormExpr:
    return ZERO_EXPR


def _integer(name: str, value) -> int:
    """``value`` if it is an int; a bool, float or string is refused."""
    if type(value) is not int:
        raise AnalyticError(f"{name} must be an integer, got {value!r}")
    return value


def winding_function(
    geom: ChartedGeometry,
    w: int,
    coord: int = 0,
    offset: Scalar = 0,
    exact: bool = False,
) -> AnalyticClassPresentation:
    """The circle-valued function winding ``w`` times around a periodic
    coordinate, with branch logs ``offset + w * theta``.

    ``offset`` is in turns in both arithmetics, like ``w * theta``: a
    rational class built with ``offset="3/7"`` and a float class built
    with ``offset=3/7`` describe the same function, whose logs differ
    only by the unit (3/7 turn versus 2*pi*3/7 radians).
    """
    w, coord = _integer("w", w), _integer("coord", coord)
    if not (0 <= coord < len(geom.periodic) and geom.periodic[coord]):
        raise AnalyticError("winding functions need a periodic coordinate")
    c = coerce(offset, exact)
    const = _const_term(c if exact else c * TWO_PI, exact)

    def comp0(g: ChartedGeometry, J, s) -> FormExpr:
        # The log branch on chart J[0].
        if w == 0:
            return const
        return const + (FormTerm(Fraction(w), linear=(coord, J[0])),)

    curv = (FormTerm(Fraction(w), wedge=(coord,)),) if w else ZERO_EXPR
    return AnalyticClassPresentation(
        label=f"winding(w={w},coord={coord})",
        degree=0,
        geometry=geom,
        components=(comp0,),
        kind="function",
        integer_of=lambda g, s, J: w * g.jump(s, coord, *J),
        curv_of=lambda g, s: curv,
    )


def flat_circle(
    geom: ChartedGeometry, theta: Scalar, exact: bool = False
) -> AnalyticClassPresentation:
    """A curvature-free degree-1 class on a circle with holonomy ``theta``:
    the whole transition log sits at one seam vertex of charts 0 and 1.

    ``theta`` is in the unit of the arithmetic: radians in float mode,
    turns in rational mode.
    """
    if geom.coords != ("theta",):
        raise AnalyticError("flat_circle lives on a circle geometry")
    th = coerce(theta, exact)
    # Seam: among vertices where both charts 0 and 1 are admissible, the
    # one whose chart-0 branch is largest.  Stable under subdivision.
    seam = None
    for v in geom.covered.complex.simplices(0):
        adm = geom.covered.admissible_of(v)
        if 0 in adm and 1 in adm:
            x = geom.vertex_value(0, v, 0)
            if seam is None or x > seam:
                seam = x
    if seam is None:
        raise AnalyticError("charts 0 and 1 never meet on this geometry")

    def comp0(g: ChartedGeometry, J, s) -> FormExpr:
        if J != (0, 1):
            return ZERO_EXPR
        if g.vertex_value(0, s, 0) != seam:
            return ZERO_EXPR
        return _const_term(th, exact)

    # The seam log is a per-vertex indicator, not an affine expression in
    # the lifts, so (-1)^p δC^0 has no chart-wise integer rule here: the
    # class sets no integer_of, and cup products refuse it in either
    # position.
    return AnalyticClassPresentation(
        label=f"flat_circle(theta={theta})",
        degree=1,
        geometry=geom,
        components=(comp0, _no_component),
        kind="line",
        curv_of=lambda g, s: ZERO_EXPR,
    )


def monopole(geom: ChartedGeometry, k: int) -> AnalyticClassPresentation:
    """Charge-k monopole on the octahedron sphere.

    Northern charts carry (k/2)(1-u) d(theta), southern ones
    -(k/2)(1+u) d(theta); the transition logs are -k times the southern
    branch of theta across the equator, zero between northern charts, and
    a constant on southern overlaps that absorbs the seam turn.  All data
    is rational in turns, so both arithmetics are available.
    """
    if geom.coords != ("theta", "u"):
        raise AnalyticError("the monopole lives on the octahedron sphere")
    k = _integer("k", k)
    half = Fraction(k, 2)

    def southern(chart: int) -> bool:
        return chart >= 4

    # Southern overlaps: branches of theta differ by an integer turn, and
    # the constant -k * (that turn count) makes the equator logs match.
    # The turn count is read off once, from any simplex both charts
    # realize (a pole vertex has no branch, but its overlaps reach an
    # equator vertex or a meridian edge that does).
    seam_turns: Dict[Tuple[int, int], Fraction] = {}
    for _, s0 in geom.covered.complex.all_simplices():
        adm = [a for a in geom.covered.admissible_of(s0) if southern(a)]
        for i0 in range(len(adm)):
            for j0 in range(i0 + 1, len(adm)):
                a0, b0 = adm[i0], adm[j0]
                if (a0, b0) in seam_turns:
                    continue
                if geom.has_lift(a0, s0) and geom.has_lift(b0, s0):
                    seam_turns[(a0, b0)] = geom.offset(s0, a0, b0)[0]

    def seam_constant(a: int, b: int) -> Fraction:
        # Opposite faces meet only at the pole, where theta has no branch;
        # their constant is a free integer choice and zero keeps the seam
        # turn concentrated on the one scanned pair that crosses it.
        sgn = 1
        if a > b:
            a, b, sgn = b, a, -1
        off = seam_turns.get((a, b), Fraction(0))
        return -Fraction(k) * off * sgn

    def comp0(g: ChartedGeometry, J, s) -> FormExpr:
        a, b = J
        if not southern(a) and not southern(b):
            return ZERO_EXPR
        if southern(a) and southern(b):
            c = seam_constant(a, b)
            if c == 0:
                return ZERO_EXPR
            return (FormTerm(c, angle_power=1),)
        # Mixed: the southern chart's branch carries the log.
        sgn = 1
        if southern(a):
            a, b, sgn = b, a, -1
        if k == 0:
            return ZERO_EXPR
        return (FormTerm(Fraction(-k * sgn), linear=(0, b)),)

    def comp1(g: ChartedGeometry, J, s) -> FormExpr:
        (a,) = J
        if k == 0:
            return ZERO_EXPR
        if southern(a):
            return (
                FormTerm(-half, wedge=(0,)),
                FormTerm(-half, linear=(1, a), wedge=(0,)),
            )
        return (
            FormTerm(half, wedge=(0,)),
            FormTerm(-half, linear=(1, a), wedge=(0,)),
        )

    def integer_of(g: ChartedGeometry, s: Simplex, J) -> int:
        a, b, c = J
        v = (s[0],)
        t_bc = integrate_form(comp0(g, (b, c), v), g, v, True)
        t_ac = integrate_form(comp0(g, (a, c), v), g, v, True)
        t_ab = integrate_form(comp0(g, (a, b), v), g, v, True)
        m = -(t_bc - t_ac + t_ab)
        if m.denominator != 1:
            raise AnalyticError("monopole transition logs lost integrality")
        return int(m)

    return AnalyticClassPresentation(
        label=f"monopole(k={k})",
        degree=1,
        geometry=geom,
        components=(comp0, comp1),
        kind="line",
        integer_of=integer_of,
        curv_of=lambda g, s: (FormTerm(half, wedge=(0, 1)),) if k else ZERO_EXPR,
    )


def torsion_class(
    geom: ChartedGeometry, q: int, w: int = 1, degree: int = 1
) -> AnalyticClassPresentation:
    """A degree-p class of order q: C^0 is (w/q) times a product of unit
    chart jumps along consecutive index pairs, one periodic coordinate per
    factor, and every higher component vanishes.  Exactly rational."""
    q, w, degree = _integer("q", q), _integer("w", w), _integer("degree", degree)
    if q <= 0:
        raise AnalyticError("torsion order must be positive")
    n_periodic = sum(1 for p_ in geom.periodic if p_)
    if degree > n_periodic:
        raise AnalyticError(
            f"a degree-{degree} torsion class needs {degree} periodic "
            f"coordinates; {geom.name} has {n_periodic}"
        )
    coords = [c for c, p_ in enumerate(geom.periodic) if p_][:degree]

    def comp0(g: ChartedGeometry, J, s) -> FormExpr:
        prod = Fraction(w, q)
        for i in range(degree):
            prod *= g.jump(s, coords[i], J[i], J[i + 1])
            if prod == 0:
                return ZERO_EXPR
        return (FormTerm(prod, angle_power=1),)

    comps: List[ComponentRule] = [comp0] + [_no_component] * degree
    return AnalyticClassPresentation(
        label=f"torsion(q={q},w={w},degree={degree})",
        degree=degree,
        geometry=geom,
        components=tuple(comps),
        kind="torsion",
    )


def zero_class(geom: ChartedGeometry, degree: int) -> AnalyticClassPresentation:
    degree = _integer("degree", degree)
    return AnalyticClassPresentation(
        label=f"zero(degree={degree})",
        degree=degree,
        geometry=geom,
        components=tuple([_no_component] * (degree + 1)),
        kind="zero",
    )


# -- cup products -------------------------------------------------------------------

_KIND_OF_DEGREE = {1: "line", 2: "gerbe", 3: "two-gerbe"}


def _need(pres: AnalyticClassPresentation, attr: str) -> None:
    if getattr(pres, attr) is None:
        raise AnalyticError(
            f"{pres.label} does not expose {attr} and cannot enter this cup"
        )


def cup_product(
    x: AnalyticClassPresentation, y: AnalyticClassPresentation
) -> AnalyticClassPresentation:
    """Deligne–Beilinson cup product; degree adds as p + q + 1.

    Levels 0..q multiply the integer cocycle of ``x`` into the components
    of ``y``; levels q+1..p+q+1 wedge the components of ``x`` with the
    curvature of ``y`` (see the module docstring).  Functions and lines
    enter in either position, so both (f∪g)∪h and f∪(g∪h) are supported.
    """
    if x.geometry is not y.geometry:
        raise AnalyticError(
            f"cup operands live on different chart systems "
            f"({x.geometry.name} vs {y.geometry.name})"
        )
    if x.kind not in ("function", "line") or y.kind not in ("function", "line"):
        raise AnalyticError(f"cup of kinds {x.kind} and {y.kind} is not supported")
    for pres in (x, y):
        _need(pres, "integer_of")
        _need(pres, "curv_of")
    p, degree = x.degree, x.degree + y.degree + 1
    n_x, n_y, R_x, R_y = x.integer_of, y.integer_of, x.curv_of, y.curv_of

    def integer_level(y_k: ComponentRule) -> ComponentRule:
        def comp(gm: ChartedGeometry, J, s) -> FormExpr:
            n = n_x(gm, s, J[: p + 2])
            if n == 0:
                return ZERO_EXPR
            return expr_scale(y_k(gm, J[p + 1 :], s), n)

        return comp

    def curvature_level(x_j: ComponentRule) -> ComponentRule:
        def comp(gm: ChartedGeometry, J, s) -> FormExpr:
            return turn_normalized_product(x_j(gm, J, s), R_y(gm, s))

        return comp

    # Turn normalization keeps every term affine with one net angle factor,
    # so the product stays exact-capable when both operands are.
    return AnalyticClassPresentation(
        label=f"({x.label})∪({y.label})",
        degree=degree,
        geometry=x.geometry,
        components=tuple(map(integer_level, y.components))
        + tuple(map(curvature_level, x.components)),
        kind=_KIND_OF_DEGREE[degree],
        integer_of=lambda gm, s, J: n_x(gm, s, J[: p + 2]) * n_y(gm, s, J[p + 1 :]),
        curv_of=lambda gm, s: turn_normalized_product(R_x(gm, s), R_y(gm, s)),
    )
