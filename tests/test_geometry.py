"""Charted model spaces: lifts, jumps, subdivision transport."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deligne import (
    AnalyticError,
    ChartedGeometry,
    GEOMETRY_BUILDERS,
    attach_cover,
    build_complex,
    get_geometry,
    subdivide_geometry,
    torus2_axis_loop,
    torus3_plane_slice,
)
from deligne.geometry import _validate_geometry
from deligne.io import complex_to_json, cover_to_json, dumps_canonical

ALL_NAMES = sorted(GEOMETRY_BUILDERS)


def test_registry_and_cache():
    assert set(ALL_NAMES) == {
        "annulus",
        "circle-2arc",
        "circle-3arc",
        "solid-torus",
        "sphere-octahedron-2chart",
        "torus2-4chart",
        "torus3-8chart",
    }
    g1 = get_geometry("circle-2arc")
    g2 = get_geometry("circle-2arc")
    assert g1 is g2
    with pytest.raises(AnalyticError):
        get_geometry("klein-bottle")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_lift_shapes_where_defined(name):
    g = get_geometry(name)
    ncoord = len(g.coords)
    assert len(g.periodic) == ncoord
    for (chart, s), rows in g.lifts.items():
        assert chart in g.covered.admissible_of(s)
        assert len(rows) == len(s)
        assert all(len(r) == ncoord for r in rows)
        assert all(isinstance(x, Fraction) for r in rows for x in r)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_tops_are_lifted_in_every_admissible_chart(name):
    g = get_geometry(name)
    for t in g.covered.complex.tops:
        for a in g.covered.admissible_of(t):
            assert (a, t) in g.lifts


def test_lift_missing_raises(sphere_octahedron_2chart):
    g = sphere_octahedron_2chart
    K = g.covered.complex
    missing = [
        (a, v)
        for v in K.simplices(0)
        for a in g.covered.admissible_of(v)
        if (a, v) not in g.lifts
    ]
    # the two poles have no angular branch
    assert missing
    a, v = missing[0]
    with pytest.raises(AnalyticError):
        g.lift(a, v)


def test_offset_antisymmetric(circle_2arc):
    g = circle_2arc
    for (a, s) in list(g.lifts):
        for b in g.covered.admissible_of(s):
            if (b, s) not in g.lifts:
                continue
            fwd = g.offset(s, a, b)
            bwd = g.offset(s, b, a)
            assert all(x == -y for x, y in zip(fwd, bwd))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_jumps_are_integers_on_all_overlaps(name):
    g = get_geometry(name)
    periodic_coords = [i for i, p in enumerate(g.periodic) if p]
    seen_nonzero = False
    for _, s in g.covered.complex.all_simplices():
        charts = [a for a in g.covered.admissible_of(s) if (a, s) in g.lifts]
        for a in charts:
            for b in charts:
                for coord in periodic_coords:
                    n = g.jump(s, coord, a, b)
                    assert isinstance(n, int)
                    if n != 0:
                        seen_nonzero = True
    # every model here carries at least one seam
    assert seen_nonzero


def test_jump_rejects_aperiodic_coordinate(annulus):
    g = annulus
    s = g.covered.complex.tops[0]
    charts = g.covered.admissible_of(s)
    with pytest.raises(AnalyticError):
        g.jump(s, 1, charts[0], charts[0])


def test_vertex_value_reads_first_row(circle_3arc):
    g = circle_3arc
    for v in g.covered.complex.simplices(0):
        for a in g.covered.admissible_of(v):
            if (a, v) in g.lifts:
                assert g.vertex_value(a, v, 0) == g.lifts[(a, v)][0][0]


# -- loops and slices -------------------------------------------------------------


def test_torus2_axis_loops_are_subcomplexes(torus2_4chart):
    K = torus2_4chart.covered.complex
    for axis in (0, 1):
        for at in (0, 1, 2, 3):
            L = torus2_axis_loop(axis, at)
            assert L.dim == 1 and L.closed
            for t in L.tops:
                assert K.has(t)
    with pytest.raises(AnalyticError):
        torus2_axis_loop(2, 0)


def test_torus3_plane_slices_are_subcomplexes(torus3_8chart):
    K = torus3_8chart.covered.complex
    S = torus3_plane_slice(1)
    assert S.dim == 2 and S.closed
    assert S.euler_characteristic() == 0
    for t in S.tops:
        assert K.has(t)


# -- subdivision -------------------------------------------------------------------


def test_subdivide_geometry_structure(circle_2arc):
    g2 = subdivide_geometry(circle_2arc)
    K = circle_2arc.covered.complex
    K2 = g2.covered.complex
    assert len(K2.tops) == 2 * len(K.tops)
    assert g2.parent is circle_2arc
    assert g2.coords == circle_2arc.coords
    assert K2.closed


def test_subdivide_geometry_averages_lifts(circle_2arc):
    g = circle_2arc
    g2 = subdivide_geometry(g)
    K = g.covered.complex
    # pick a parent edge and one chart that lifts it
    edge = K.tops[0]
    chart = next(a for a in g.covered.admissible_of(edge) if (a, edge) in g.lifts)
    rows = g.lifts[(chart, edge)]
    midpoint = tuple((rows[0][c] + rows[1][c]) / 2 for c in range(len(g.coords)))
    # find the subdivided vertex carried by that edge
    candidates = [
        v
        for v in g2.covered.complex.simplices(0)
        if (chart, v) in g2.lifts and g2.lifts[(chart, v)][0] == midpoint
    ]
    assert candidates


def test_subdivide_geometry_twice(annulus):
    g2 = subdivide_geometry(annulus)
    g3 = subdivide_geometry(g2)
    assert len(g3.covered.complex.tops) == 6 * len(g2.covered.complex.tops)
    assert g3.parent is g2
    assert not g3.covered.complex.closed


def reference_subdivided_lifts(g, g2):
    """Naive lifts of a subdivision: every (chart, child simplex, vertex)
    averages the chart's rows of its carrier over the vertex's parent
    simplex.  Fine vertex i is the barycentre of the i-th parent simplex,
    and a child's carrier is the parent simplex of its last vertex.  Each
    (chart, carrier, parent simplex) average is computed once."""
    parents = [s for _, s in g.covered.complex.all_simplices()]
    averages = {}

    def average(a, carrier, b):
        key = (a, carrier, b)
        if key not in averages:
            crows = dict(zip(carrier, g.lifts[(a, carrier)]))
            averages[key] = tuple(
                sum(crows[v][c] for v in parents[b]) / len(parents[b])
                for c in range(len(g.coords))
            )
        return averages[key]

    out = {}
    for _, s in g2.covered.complex.all_simplices():
        carrier = parents[s[-1]]
        for a in g2.covered.admissible_of(s):
            if (a, carrier) not in g.lifts:
                continue
            out[(a, s)] = tuple(average(a, carrier, b) for b in s)
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_subdivided_lifts_match_reference(name):
    g = get_geometry(name)
    for _ in range(1 if name == "torus3-8chart" else 2):
        g2 = subdivide_geometry(g)
        ref = reference_subdivided_lifts(g, g2)
        assert list(g2.lifts) == list(ref)
        for key, rows in ref.items():
            assert g2.lifts[key] == rows
            assert all(type(x) is Fraction for r in g2.lifts[key] for x in r)
        g = g2


@pytest.mark.parametrize("name", ALL_NAMES)
def test_subdivided_cover_matches_attach_cover(name):
    """A child simplex takes its carrier's charts; the union rule over the
    child tops, each admissible where its parent top is, gives the same."""
    g = get_geometry(name)
    for _ in range(1 if name == "torus3-8chart" else 2):
        g2 = subdivide_geometry(g)
        parents = [s for _, s in g.covered.complex.all_simplices()]
        K2 = g2.covered.complex
        tops = {t: g.covered.admissible_of(parents[t[-1]]) for t in K2.tops}
        union = attach_cover(K2, g.covered.num_sets, tops)
        assert g2.covered.admissible == union.admissible
        assert g2.covered.num_sets == union.num_sets
        g = g2


# -- validation --------------------------------------------------------------------

F = Fraction
TRIANGLE = build_complex([(0, 1, 2)])
# Rows over the coprime denominators 3 and 4, so the common one is 12.
BASE = {0: (F(0), F(0)), 1: (F(1, 3), F(0)), 2: (F(1, 4), F(1, 4))}


def hand_geometry(*charts):
    """A triangle in (theta, s), theta periodic, with one chart per vertex
    row table, each lifted on every face."""
    lifts = {
        (a, s): tuple(rows[v] for v in s)
        for a, rows in enumerate(charts)
        for _, s in TRIANGLE.all_simplices()
    }
    cover = attach_cover(TRIANGLE, len(charts), {(0, 1, 2): tuple(range(len(charts)))})
    return ChartedGeometry("hand", ("theta", "s"), (True, False), cover, lifts)


def shifted(dtheta, ds=F(0), at=(0, 1, 2)):
    return {v: (r[0] + (dtheta if v in at else 0), r[1] + ds) for v, r in BASE.items()}


def test_validate_geometry_accepts_integral_offsets():
    _validate_geometry(hand_geometry(BASE, shifted(2), shifted(-1)))
    # 11/12 of a turn is the widest span that is not a full turn.
    _validate_geometry(hand_geometry({**BASE, 2: (F(11, 12), F(0))}))


def test_subdivided_hand_geometry_matches_reference():
    """BASE's denominators 3 and 4 put the child rows over 12 * lcm(1, 2, 3),
    which is not a power of two."""
    g = hand_geometry(BASE, shifted(2))
    for _ in range(2):
        g2 = subdivide_geometry(g)
        ref = reference_subdivided_lifts(g, g2)
        assert list(g2.lifts) == list(ref)
        assert all(g2.lifts[key] == rows for key, rows in ref.items())
        values = (x for rows in g2.lifts.values() for r in rows for x in r)
        assert all(type(x) is Fraction for x in values)
        g = g2


def test_subdivided_edge_lift_off_its_vertex_rows_matches_reference():
    """Edge (0, 1) in chart 1 sits one turn below the triangle's rows, so
    its children and the triangle's children through its barycentre store
    their own rows."""
    g = hand_geometry(BASE, shifted(2))
    g.lifts[(1, (0, 1))] = (shifted(1)[0], shifted(1)[1])
    _validate_geometry(g)
    for _ in range(2):
        g2 = subdivide_geometry(g)
        assert g2.lifts._rows
        ref = reference_subdivided_lifts(g, g2)
        assert list(g2.lifts) == list(ref)
        assert all(g2.lifts[key] == rows for key, rows in ref.items())
        g = g2


@pytest.mark.parametrize("name", ["annulus", "sphere-octahedron-2chart", "torus2-4chart"])
def test_subdivided_lifts_obey_the_mapping_laws(name):
    g = subdivide_geometry(subdivide_geometry(get_geometry(name)))
    lifts, C = g.lifts, g.covered
    keys = list(lifts)
    assert len(lifts) == len(keys)
    position = {s: i for i, (_, s) in enumerate(C.complex.all_simplices())}
    order = [(position[s], a) for a, s in keys]
    assert order == sorted(order) and len(set(order)) == len(order)
    probes = [(a, s) for _, s in C.complex.all_simplices() for a in range(-1, C.num_sets + 1)]
    probes += [(0, (10**6,)), (0, ()), (0, (0, 0))]
    for key in probes:
        assert (key in lifts) == (lifts.get(key) is not None)
    assert sum(key in lifts for key in probes) == len(keys)
    with pytest.raises(TypeError):
        lifts[keys[0]] = lifts[keys[0]]


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("torus2-4chart", [(132, 0), (644, 0)]),
        ("sphere-octahedron-2chart", [(48, 72), (192, 232)]),
    ],
)
def test_subdivided_lifts_store_vertex_rows(name, sizes):
    """One row per (chart, fine vertex), one per parent lift entry, and a
    row tuple per (chart, simplex) only where the vertex rows do not give
    the lift."""
    g = get_geometry(name)
    for vertex_rows, own_rows in sizes:
        parent, g = g, subdivide_geometry(g)
        assert len(g.lifts._vertex) == vertex_rows == len(parent.lifts)
        assert len(g.lifts._rows) == own_rows


def test_subdivision_validates_the_children():
    # hand_geometry skips validation; the offset is caught when subdivision
    # validates the parent.
    g = hand_geometry(BASE, shifted(F(1, 12)))
    with pytest.raises(AnalyticError) as err:
        subdivide_geometry(g)
    assert str(err.value) == "non-integral turn offset between charts 0,1 on (0,)"


def wrong_arity():
    g = hand_geometry(BASE)
    g.lifts[(0, (0, 1))] = (BASE[0],)
    return g


@pytest.mark.parametrize(
    "make, message",
    [
        (wrong_arity, "lift of (0, 1) in chart 0 has wrong arity"),
        (
            lambda: hand_geometry({**BASE, 2: (F(1), F(0))}),
            "simplex (0, 2) spans a full turn of theta in chart 0",
        ),
        (
            lambda: hand_geometry(BASE, {**shifted(1), 1: (F(-2, 3), F(0))}),
            "simplex (0, 1) spans a full turn of theta in chart 1",
        ),
        (
            lambda: hand_geometry(BASE, shifted(1, at=(0,))),
            "charts 0,1 do not differ by a constant on (0, 1)",
        ),
        (
            lambda: hand_geometry(BASE, shifted(F(1, 12))),
            "non-integral turn offset between charts 0,1 on (0,)",
        ),
        (
            lambda: hand_geometry(BASE, shifted(1, ds=F(1, 3))),
            "non-periodic coordinate s disagrees between charts 0,1 on (0,)",
        ),
        (
            lambda: hand_geometry(BASE, shifted(0, ds=F(1))),
            "non-periodic coordinate s disagrees between charts 0,1 on (0,)",
        ),
    ],
)
def test_validate_geometry_messages(make, message):
    g = make()
    with pytest.raises(AnalyticError) as err:
        _validate_geometry(g)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ALL_NAMES)
def test_subdivided_geometries_stay_valid(name):
    """The child is not validated by subdivide_geometry; it need not be."""
    g = get_geometry(name)
    for _ in range(1 if name == "torus3-8chart" else 2):
        g = subdivide_geometry(g)
        _validate_geometry(g)


def test_subdivision_of_a_malformed_parent_raises_the_validator_message():
    with pytest.raises(AnalyticError) as err:
        subdivide_geometry(wrong_arity())
    assert str(err.value) == "lift of (0, 1) in chart 0 has wrong arity"


@settings(max_examples=25, deadline=None)
@given(
    thetas=st.lists(st.integers(0, 11), min_size=3, max_size=3),
    heights=st.lists(st.fractions(-2, 2, max_denominator=6), min_size=3, max_size=3),
    offsets=st.lists(st.integers(-3, 3), max_size=3),
)
def test_valid_hand_triangle_stays_valid_under_subdivision(thetas, heights, offsets):
    """Angles in twelfths of a turn, so a span is at most 11/12; every
    further chart is the first one shifted by a whole number of turns."""
    rows = {v: (F(t, 12), h) for v, (t, h) in enumerate(zip(thetas, heights))}
    charts = [rows] + [
        {v: (r[0] + d, r[1]) for v, r in rows.items()} for d in offsets
    ]
    g = hand_geometry(*charts)
    _validate_geometry(g)
    for _ in range(2):
        g = subdivide_geometry(g)
        _validate_geometry(g)


# Digests of each shipped geometry, coarse and once subdivided (torus3
# coarse only): complex, coords, cover, lift keys in table order, lift
# values and periodicity, through the canonical JSON codec.
PINNED = {
    "annulus": ("f7b786e5084b2fb2", "c371640e63a386f8"),
    "circle-2arc": ("309858ccc135299d", "b2ec8fb114b47f62"),
    "circle-3arc": ("6ee0ef35c5223427", "9c6abf93e80e4e70"),
    "solid-torus": ("c65ccce960494a7f", "2b667b1d6c736deb"),
    "sphere-octahedron-2chart": ("2638427bc1eff7c8", "61ec91a64706a1b2"),
    "torus2-4chart": ("ba84c5b8782a1109", "039827ed351a070b"),
    "torus3-8chart": ("a1208b91fc44a806",),
}


def geometry_digest(g):
    doc = {
        "complex": complex_to_json(g.covered.complex),
        "coords": g.coords,
        "cover": cover_to_json(g.covered),
        "lifts": [[a, s, rows] for (a, s), rows in g.lifts.items()],
        "periodic": [int(p) for p in g.periodic],
    }
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_geometries_are_pinned(name):
    assert sorted(PINNED) == ALL_NAMES
    g = GEOMETRY_BUILDERS[name]()
    digests = [geometry_digest(g)]
    if len(PINNED[name]) == 2:
        digests.append(geometry_digest(subdivide_geometry(g)))
    assert tuple(digests) == PINNED[name]
