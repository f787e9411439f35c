"""Analytic presentations: fixtures, discretization, cup products."""

import math
from fractions import Fraction

import pytest

from deligne import (
    AnalyticError,
    FormTerm,
    build_cochain,
    cech_delta,
    chern_cocycle,
    cup_product,
    curvature_total,
    default_index_map,
    discretize,
    expr_product,
    expr_scale,
    flat_circle,
    holonomy,
    integrate_form,
    monopole,
    random_index_map,
    restrict_cochain,
    subdivide_geometry,
    torsion_class,
    torus2_axis_loop,
    validate_cocycle,
    winding_function,
    zero_class,
)
from deligne.analytic import turn_normalized_product
from deligne.cover import restrict_cover
from deligne._scalars import TWO_PI

from oracles import triple_cup_cochain


def loop_holonomy(c, loop):
    sub = restrict_cover(c.base, loop)
    return holonomy(restrict_cochain(c, sub), default_index_map(sub)).angle


# -- expression algebra ----------------------------------------------------------


def test_expr_product_wedge_parity_and_collapse():
    a = (FormTerm(Fraction(2), wedge=(1,)),)
    b = (FormTerm(Fraction(3), wedge=(0,)),)
    (t,) = expr_product(a, b)
    assert t.coeff == -6  # d1 ^ d0 = -(d0 ^ d1)
    assert t.wedge == (0, 1)
    assert expr_product(a, a) == ()  # repeated factor dies


def test_expr_product_refuses_quadratic_terms():
    lin = (FormTerm(Fraction(1), linear=(0, 0)),)
    with pytest.raises(AnalyticError):
        expr_product(lin, lin)


def test_expr_scale_and_sum():
    e = (FormTerm(Fraction(1, 2), angle_power=1),)
    s = expr_scale(e, Fraction(4))
    assert s[0].coeff == 2 and s[0].angle_power == 1


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name", ["torus2_4chart", "sphere_octahedron_2chart"])
def test_integrate_form_reads_a_vertex_as_its_zero_simplex_case(request, name, exact):
    g = request.getfixturevalue(name)
    # A rational coefficient in turns carries its one turn factor; a float
    # one is in radians, and theta (coordinate 0) is a lift in turns.
    coeff = Fraction(3, 7) if exact else 0.6
    unit = 1 if exact else TWO_PI
    const = (FormTerm(coeff, angle_power=1 if exact else 0),)
    branchless = 0
    for v in g.covered.complex.simplices(0):
        assert integrate_form(const, g, v, exact) == coeff
        charts = [a for a in g.covered.admissible_of(v) if g.has_lift(a, v)]
        branchless += not charts
        for a in charts:
            linear = (FormTerm(coeff, linear=(0, a)),)
            branch = g.vertex_value(a, v, 0)
            assert integrate_form(linear, g, v, exact) == coeff * unit * (
                branch if exact else float(branch)
            )
        with pytest.raises(AnalyticError, match="1-form"):
            integrate_form((FormTerm(coeff, wedge=(0,)),), g, v, exact)
    # The sphere's two poles have no branch of theta in any chart.
    assert branchless == (2 if name == "sphere_octahedron_2chart" else 0)


def test_turn_normalized_product_units():
    rational = (FormTerm(Fraction(1, 3), angle_power=1),)
    (t,) = turn_normalized_product(rational, rational)
    assert t.coeff == Fraction(1, 9)
    assert t.angle_power == 1  # 1 + 1 - 1: one net angle factor
    floaty = (FormTerm(1.5),)
    (u,) = turn_normalized_product(floaty, floaty)
    assert u.coeff == pytest.approx(2.25 / TWO_PI)


# -- fixtures: flat circle ---------------------------------------------------------


def test_flat_circle_holonomy_is_theta(circle_2arc):
    pres = flat_circle(circle_2arc, 1.0)
    c = discretize(pres)
    assert validate_cocycle(c).passed
    h = holonomy(c, default_index_map(circle_2arc.covered))
    assert h.angle == pytest.approx(1.0)


def test_flat_circle_exact_mode(circle_2arc):
    pres = flat_circle(circle_2arc, "1/3", exact=True)
    c = discretize(pres, exact=True)
    assert validate_cocycle(c).passed
    h = holonomy(c, default_index_map(circle_2arc.covered))
    assert h.angle == Fraction(1, 3)
    hr = holonomy(c, random_index_map(circle_2arc.covered, seed=17))
    assert hr.angle == Fraction(1, 3)


def test_flat_circle_survives_subdivision(circle_2arc):
    pres = flat_circle(circle_2arc, "1/3", exact=True)
    fine = subdivide_geometry(circle_2arc)
    c = discretize(pres, geometry=fine, exact=True)
    assert validate_cocycle(c).passed
    assert holonomy(c, default_index_map(fine.covered)).angle == Fraction(1, 3)


def test_flat_circle_rejects_non_circle(annulus):
    with pytest.raises(AnalyticError):
        flat_circle(annulus, 1.0)


def test_float_presentation_refuses_exact_discretization(circle_2arc):
    pres = flat_circle(circle_2arc, 1.0)
    with pytest.raises(AnalyticError):
        discretize(pres, exact=True)


# -- fixtures: winding functions ----------------------------------------------------


def test_winding_function_chern_class(circle_3arc):
    pres = winding_function(circle_3arc, 2)
    c = discretize(pres, exact=True)
    assert validate_cocycle(c).passed
    cv = curvature_total(c, default_index_map(circle_3arc.covered))
    assert cv.total == 2 and cv.multiple == 2 and cv.residual == 0
    n = chern_cocycle(c)
    assert dict(n.entries) == {((0,), (0, 2)): 2}
    assert n.value((0,), (2, 0)) == -2


def test_winding_function_degree_zero_has_no_holonomy(circle_3arc):
    c = discretize(winding_function(circle_3arc, 1), exact=True)
    validate_cocycle(c)
    from deligne import HolonomyError

    with pytest.raises(HolonomyError):
        holonomy(c, default_index_map(circle_3arc.covered))


def test_winding_function_needs_periodic_coordinate(annulus):
    with pytest.raises(AnalyticError):
        winding_function(annulus, 1, coord=1)


def test_winding_offset_keeps_rationality(torus2_4chart):
    pres = winding_function(torus2_4chart, 1, offset="3/7", exact=True)
    assert discretize(pres, exact=True).exact
    floaty = winding_function(torus2_4chart, 1, offset=0.25)
    with pytest.raises(AnalyticError, match="rational fixture parameters"):
        discretize(floaty, exact=True)


def test_float_built_class_with_exact_terms_discretizes_exactly(circle_2arc):
    c = discretize(flat_circle(circle_2arc, 0.0), exact=True)
    assert c.exact and c.degree == 1
    assert list(c.entries()) == []


def test_winding_offset_is_in_turns_in_both_modes(torus2_4chart):
    """``offset`` is a number of turns whatever the arithmetic: the float
    holonomy of the triple cup is 2*pi times the rational one."""
    g = torus2_4chart
    offset = Fraction(3, 7)

    def triple_holonomy(exact):
        f = winding_function(g, 1, coord=0, exact=exact)
        h = winding_function(g, 1, coord=1, exact=exact)
        const = winding_function(g, 0, offset=offset, exact=exact)
        c = discretize(cup_product(cup_product(f, h), const), exact=exact)
        assert validate_cocycle(c).passed
        return holonomy(c, default_index_map(g.covered)).angle

    turns = triple_holonomy(True)
    assert turns == offset  # offset * w1 * w2
    radians = triple_holonomy(False)
    assert abs(radians - TWO_PI * float(turns)) <= 1e-9


# -- fixtures: monopole ---------------------------------------------------------------


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_monopole_charge_is_curvature_and_chern(sphere_octahedron_2chart, k):
    geom = sphere_octahedron_2chart
    pres = monopole(geom, k)
    c = discretize(pres, exact=True)
    assert validate_cocycle(c).passed
    cv = curvature_total(c, default_index_map(geom.covered))
    assert cv.total == k and cv.multiple == k and cv.residual == 0
    n = chern_cocycle(c)
    if k == 0:
        assert dict(n.entries) == {}
    else:
        assert dict(n.entries) == {
            ((5,), (4, 5, 7)): k,
            ((5,), (4, 6, 7)): k,
        }


def test_monopole_float_agrees_with_exact(sphere_octahedron_2chart):
    geom = sphere_octahedron_2chart
    pres = monopole(geom, 1)
    cf = discretize(pres, quad_order=8)
    assert validate_cocycle(cf).passed
    ce = discretize(pres, exact=True)
    for k, s, J, v in ce.entries():
        got = cf.component(k, s, J)
        assert got == pytest.approx(float(v) * TWO_PI, abs=1e-9)


def test_monopole_quadrature_order_insensitive(sphere_octahedron_2chart):
    geom = sphere_octahedron_2chart
    pres = monopole(geom, 1)
    low = discretize(pres, quad_order=2)
    high = discretize(pres, quad_order=9)
    for k, s, J, v in low.entries():
        assert high.component(k, s, J) == pytest.approx(v, abs=1e-12)


# -- fixtures: torsion and zero ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,degree,angle",
    [
        ("circle-3arc", 1, Fraction(-2, 5)),
        ("torus2-4chart", 2, Fraction(2, 5)),
        ("torus3-8chart", 3, Fraction(-2, 5)),
    ],
)
def test_torsion_holonomy_frozen(request, name, degree, angle):
    geom = request.getfixturevalue(name.replace("-", "_"))
    pres = torsion_class(geom, 5, 2, degree)
    c = discretize(pres, exact=True)
    assert validate_cocycle(c).passed
    h = holonomy(c, default_index_map(geom.covered))
    assert h.angle == angle
    assert holonomy(c, random_index_map(geom.covered, seed=9)).angle == angle
    # order five: five copies close up to whole turns
    assert (5 * h.angle).denominator == 1


def test_torsion_needs_enough_periodic_coordinates(circle_3arc):
    with pytest.raises(AnalyticError):
        torsion_class(circle_3arc, 5, 2, 2)
    with pytest.raises(AnalyticError):
        torsion_class(circle_3arc, 0, 1, 1)


def test_zero_class_discretizes_empty(torus2_4chart):
    c = discretize(zero_class(torus2_4chart, 2), exact=True)
    assert list(c.entries()) == []
    assert validate_cocycle(c).passed
    assert holonomy(c, default_index_map(torus2_4chart.covered)).angle == 0


def test_discretize_lineage_check(circle_2arc, circle_3arc):
    pres = flat_circle(circle_2arc, 1.0)
    with pytest.raises(AnalyticError):
        discretize(pres, geometry=circle_3arc)


# -- cup products -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def torus_windings(request):
    g = request.getfixturevalue("torus2_4chart")
    f = winding_function(g, 1, coord=0, exact=True)
    h = winding_function(g, 1, coord=1, exact=True)
    return g, f, h


def test_cup_function_function_validates_both_modes(torus_windings):
    g, f, h = torus_windings
    fg = cup_product(f, h)
    assert fg.degree == 1 and fg.kind == "line"
    ce = discretize(fg, exact=True)
    assert validate_cocycle(ce).passed
    cf = discretize(fg)
    assert validate_cocycle(cf).passed


def test_cup_anticommutes_on_loops(torus_windings):
    g, f, h = torus_windings
    cfg = discretize(cup_product(f, h), exact=True)
    chf = discretize(cup_product(h, f), exact=True)
    validate_cocycle(cfg)
    validate_cocycle(chf)
    expected = {
        (0, 1): Fraction(-1, 4),
        (0, 3): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
        (1, 3): Fraction(-1, 4),
    }
    for (axis, at), value in expected.items():
        L = torus2_axis_loop(axis, at)
        a = loop_holonomy(cfg, L)
        b = loop_holonomy(chf, L)
        assert a == value
        assert (a + b).denominator == 1  # anticommutative mod full turns


def test_cup_degenerate_loops(torus_windings):
    g, f, h = torus_windings
    cfg = discretize(cup_product(f, h), exact=True)
    validate_cocycle(cfg)
    assert loop_holonomy(cfg, torus2_axis_loop(0, 0)) == 0
    assert loop_holonomy(cfg, torus2_axis_loop(0, 2)) == Fraction(1, 2)


def test_triple_cup_constant_surface_holonomy(torus_windings):
    g, f, h = torus_windings
    fg = cup_product(f, h)
    hconst = winding_function(g, 0, offset="3/7", exact=True)
    triple = cup_product(fg, hconst)
    assert triple.degree == 2
    ct = discretize(triple, exact=True)
    assert validate_cocycle(ct).passed
    hol = holonomy(ct, default_index_map(g.covered))
    assert hol.angle == Fraction(3, 7)  # const * w1 * w2


def test_triple_cup_matches_displayed_entries(torus_windings):
    g, f, h = torus_windings
    triple = cup_product(
        cup_product(f, h), winding_function(g, 0, offset="3/7", exact=True)
    )
    ct = discretize(triple, exact=True)
    oracle = build_cochain(
        g.covered,
        2,
        triple_cup_cochain(g.covered, g, 1, 1, Fraction(3, 7)),
        exact=True,
    )
    K = g.covered.complex
    for k in range(3):
        for s in K.simplices(k):
            for J in g.covered.multi_indices(s, 2 - k + 1):
                assert ct.component(k, s, J) == oracle.component(k, s, J)


def test_cup_line_function_and_line_line(torus3_8chart):
    g = torus3_8chart
    f = winding_function(g, 1, coord=0, exact=True)
    h = winding_function(g, 1, coord=1, exact=True)
    e = winding_function(g, 1, coord=2, exact=True)
    fg = cup_product(f, h)  # line
    lf = cup_product(fg, e)  # line cup function, degree 2
    assert lf.degree == 2
    c2 = discretize(lf, exact=True)
    assert validate_cocycle(c2).passed
    ll = cup_product(fg, cup_product(h, e))  # line cup line, degree 3
    assert ll.degree == 3
    c3 = discretize(ll, exact=True)
    assert validate_cocycle(c3).passed
    hol = holonomy(c3, default_index_map(g.covered))
    # a secondary invariant, not an integer; frozen exact value
    assert hol.angle == Fraction(1, 2)
    assert holonomy(c3, random_index_map(g.covered, seed=3)).angle == hol.angle


def test_cup_rejects_mixed_geometries(circle_2arc, circle_3arc):
    f = winding_function(circle_2arc, 1)
    h = winding_function(circle_3arc, 1)
    with pytest.raises(AnalyticError):
        cup_product(f, h)


def test_cup_rejects_unsupported_kinds(torus2_4chart, circle_2arc):
    t = torsion_class(torus2_4chart, 5, 2, 1)
    f = winding_function(torus2_4chart, 1)
    gerbe = cup_product(cup_product(f, winding_function(torus2_4chart, 1, coord=1)), f)
    zero = zero_class(torus2_4chart, 1)
    for a, b in [(t, f), (gerbe, f), (f, gerbe), (zero, f)]:
        with pytest.raises(AnalyticError, match="is not supported"):
            cup_product(a, b)
    # flat_circle is a line but has no integer cocycle rule
    flat = flat_circle(circle_2arc, "1/3", exact=True)
    g = winding_function(circle_2arc, 1)
    for a, b in [(g, flat), (flat, g)]:
        with pytest.raises(AnalyticError, match="does not expose integer_of"):
            cup_product(a, b)


def _windings(g, exact, *coords):
    return [winding_function(g, 1, coord=c, exact=exact) for c in coords]


def _function_line(g, exact):
    a, b, e = _windings(g, exact, 0, 1, 2)
    return cup_product(a, cup_product(b, e))


def _line_line(g, exact):
    a, b, e = _windings(g, exact, 0, 1, 2)
    return cup_product(cup_product(a, b), cup_product(b, e))


def _line_function(g, exact):
    const = winding_function(g, 0, offset=Fraction(3, 7), exact=exact)
    return cup_product(cup_product(*_windings(g, exact, 0, 1)), const)


# The factors and every supported cup shape, as builders of (geometry,
# exact).  Each case has vertices where p + 2 charts meet, so the integer
# cocycle is checked somewhere; winding functions have no branch at the
# sphere's poles, so the sphere carries the monopoles alone.
CUP_CONTRACT_CASES = {
    "circle-3arc": {
        "f": lambda g, x: winding_function(g, 1, exact=x),
        "f+offset": lambda g, x: winding_function(g, 2, offset=Fraction(3, 7), exact=x),
    },
    "torus2-4chart": {
        "f∪g": lambda g, x: cup_product(*_windings(g, x, 0, 1)),
        "(f∪g)∪c": _line_function,
    },
    "torus3-8chart": {"a∪(b∪e)": _function_line, "(a∪b)∪(b∪e)": _line_line},
    "sphere-octahedron-2chart": {
        "monopole(-2)": lambda g, x: monopole(g, -2),
        "monopole(1)": lambda g, x: monopole(g, 1),
    },
}


@pytest.fixture(scope="module")
def subdivided():
    cache = {}

    def get(g):
        if g.name not in cache:
            cache[g.name] = subdivide_geometry(g)
        return cache[g.name]

    return get


@pytest.mark.parametrize(
    "name,case,fine",
    [
        (name, case, fine)
        for name, cases in CUP_CONTRACT_CASES.items()
        for case in cases
        for fine in ([False] if name == "torus3-8chart" else [False, True])
    ],
)
def test_integer_of_is_the_cech_coboundary(request, subdivided, name, case, fine):
    g = request.getfixturevalue(name.replace("-", "_"))
    geom = subdivided(g) if fine else g
    build = CUP_CONTRACT_CASES[name][case]
    pres = build(g, True)
    c = discretize(pres, geom, exact=True)
    assert validate_cocycle(c).passed
    assert validate_cocycle(discretize(build(g, False), geom)).passed
    sign = (-1) ** pres.degree
    conditions = 0
    for v in geom.covered.complex.simplices(0):
        for J in geom.covered.multi_indices(v, pres.degree + 2):
            assert pres.integer_of(geom, v, J) == sign * cech_delta(c, v, J)
            conditions += 1
    assert conditions > 0


def test_curvature_form_accessors(sphere_octahedron_2chart, torus2_4chart):
    g = sphere_octahedron_2chart
    m = monopole(g, 1)
    assert m.curv_of(g, g.covered.complex.tops[0])
    assert zero_class(torus2_4chart, 1).curv_of is None
