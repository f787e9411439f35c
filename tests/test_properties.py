"""Invariants of rational holonomy over random class parameters, checked
with exact equality: subdivision invariance, additivity under disjoint
union, and cut-and-reglue along two circle vertices."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from deligne import (
    IndexMap,
    build_complex,
    discretize,
    disjoint_union_cochains,
    flat_circle,
    get_geometry,
    glue_cochains,
    holonomy,
    local_action,
    random_index_map,
    restrict_cochain,
    restrict_cover,
    subdivide_geometry,
    torsion_class,
    validate_cocycle,
)
from deligne._scalars import wrap

from oracles import naive_holonomy

orders = st.integers(min_value=1, max_value=60)
weights = st.integers(min_value=-60, max_value=60)
turns = st.fractions(min_value=-3, max_value=3, max_denominator=60)
seeds = st.integers(min_value=0, max_value=10**6)


@lru_cache(maxsize=None)
def tower(name, depth):
    """A shipped geometry followed by its first ``depth`` subdivisions."""
    levels = [get_geometry(name)]
    for _ in range(depth):
        levels.append(subdivide_geometry(levels[-1]))
    return tuple(levels)


def cocycle(pres):
    c = discretize(pres, exact=True)
    assert validate_cocycle(c).passed
    return c


def angles(name, depth, build, level_seeds):
    """Holonomy of ``build(geometry)`` at each level, each under its own
    random index map; the raw sum also matches the naive oracle."""
    out = []
    for g, seed in zip(tower(name, depth), level_seeds):
        c = cocycle(build(g))
        rho = random_index_map(g.covered, seed=seed)
        h = holonomy(c, rho)
        assert h.raw == naive_holonomy(c, rho)
        out.append(h.angle)
    return out


@settings(max_examples=20, deadline=None)
@given(orders, weights, st.lists(seeds, min_size=3, max_size=3))
def test_torsion_holonomy_is_subdivision_invariant(q, w, level_seeds):
    circle = angles(
        "circle-3arc", 2, lambda g: torsion_class(g, q, w, 1), level_seeds
    )
    assert circle == [wrap(Fraction(-w, q), True)] * 3
    torus = angles(
        "torus2-4chart", 1, lambda g: torsion_class(g, q, w, 2), level_seeds
    )
    assert torus == [wrap(Fraction(w, q), True)] * 2


@settings(max_examples=20, deadline=None)
@given(turns, st.lists(seeds, min_size=3, max_size=3))
def test_flat_circle_holonomy_is_subdivision_invariant(theta, level_seeds):
    circle = angles(
        "circle-2arc", 2, lambda g: flat_circle(g, theta, exact=True), level_seeds
    )
    assert circle == [wrap(theta, True)] * 3


# Degree-1 classes on the two circles, degree-2 torsion on the torus.
circle_classes = st.one_of(
    st.builds(
        lambda q, w: torsion_class(get_geometry("circle-3arc"), q, w, 1),
        orders,
        weights,
    ),
    st.builds(
        lambda theta: flat_circle(get_geometry("circle-2arc"), theta, exact=True),
        turns,
    ),
)
torus_classes = st.builds(
    lambda q, w: torsion_class(get_geometry("torus2-4chart"), q, w, 2),
    orders,
    weights,
)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(circle_classes, circle_classes),
        st.tuples(torus_classes, torus_classes),
    ),
    seeds,
)
def test_disjoint_union_holonomy_adds(pair, seed):
    c1, c2 = (cocycle(p) for p in pair)
    parts = [holonomy(c, random_index_map(c.base, seed=seed)).angle for c in (c1, c2)]
    union, _ = disjoint_union_cochains(c1, c2)
    assert union.cocycle
    whole = holonomy(union, random_index_map(union.base, seed=seed + 1))
    assert whole.angle == wrap(parts[0] + parts[1], True)


@settings(max_examples=30, deadline=None)
@given(circle_classes, seeds, st.data())
def test_cut_and_reglue_keeps_holonomy(pres, seed, data):
    c = cocycle(pres)
    C = c.base
    K = C.complex
    rho = random_index_map(C, seed=seed)
    whole = holonomy(c, rho).raw

    # cut one edge off, keeping the parent orientations
    edges = [t if K.orientation(t) == 1 else t[::-1] for t in K.tops]
    edge = data.draw(st.sampled_from(edges))
    K1 = build_complex([t for t in edges if t != edge])
    K2 = build_complex([edge])
    pieces = []
    for Ki in (K1, K2):
        Ci = restrict_cover(C, Ki)
        ci = restrict_cochain(c, Ci)
        ri = IndexMap(Ci, rho.assignment)
        pieces.append((ci, local_action(ci, ri).raw))
    assert pieces[0][1] + pieces[1][1] == whole

    glued, _ = glue_cochains(pieces[0][0], pieces[1][0], {v: v for v in edge})
    assert glued.base.complex.closed
    rg = IndexMap(glued.base, rho.assignment)
    assert holonomy(glued, rg).raw == whole
