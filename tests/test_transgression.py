"""Transition functions: route agreement, locality, and the triple law."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deligne import (
    GEOMETRY_BUILDERS,
    DeligneCochain,
    HolonomyError,
    TransgressionError,
    attach_cover,
    build_complex,
    curvature_total,
    default_index_map,
    exact_shift,
    get_geometry,
    holonomy,
    local_action,
    random_cochain,
    random_index_map,
    restrict_cover_to_boundary,
    star_cover,
    subdivide_geometry,
    transgress_p3_triple,
    transition_boundary,
    transition_general,
    transition_p2_boundary,
    zero_cochain,
)
from deligne.holonomy import _walk
from deligne.transgression import _mixed_chain
from deligne.cochain import _word_sums, restrict_cochain
from deligne.cover import IndexMap

from oracles import (
    naive_chains,
    naive_local_levels,
    naive_transition,
    p2_boundary_words,
    p3_display_words_direct,
)


def orbit(C, p, seed, exact=True):
    b = random_cochain(C, p - 1, seed=seed, exact=exact)
    return exact_shift(zero_cochain(C, p, exact=exact), b)


@pytest.fixture(scope="module")
def annulus_cover(request):
    geom = request.getfixturevalue("annulus")
    return star_cover(geom.covered.complex)


@pytest.fixture(scope="module")
def solid_cover(request):
    geom = request.getfixturevalue("solid_torus")
    return star_cover(geom.covered.complex)


def test_routes_agree_exact_p2(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=5)
    r0 = random_index_map(C, seed=1)
    r1 = random_index_map(C, seed=2)
    g = transition_general(c, r0, r1)
    b = transition_boundary(c, r0, r1)
    assert g.raw == b.raw
    assert isinstance(g.raw, Fraction)
    assert g.route == "general" and b.route == "boundary"


def test_routes_agree_float_p2(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=6, exact=False)
    r0 = random_index_map(C, seed=3)
    r1 = random_index_map(C, seed=4)
    g = transition_general(c, r0, r1)
    b = transition_boundary(c, r0, r1)
    assert b.raw == pytest.approx(g.raw, abs=1e-10)
    assert b.raw != 0.0  # the check is not vacuous on a star cover


def test_routes_agree_exact_p3(solid_cover):
    C = solid_cover
    c = orbit(C, 3, seed=7)
    r0 = random_index_map(C, seed=5)
    r1 = random_index_map(C, seed=6)
    g = transition_general(c, r0, r1)
    b = transition_boundary(c, r0, r1)
    assert g.raw == b.raw
    assert b.raw != 0


def test_transition_against_independent_enumeration(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=8, exact=False)
    r0 = random_index_map(C, seed=7)
    r1 = random_index_map(C, seed=8)
    assert transition_general(c, r0, r1).raw == pytest.approx(
        naive_transition(c, r0, r1), abs=1e-10
    )


def test_interior_flags_cancel_for_arbitrary_data(annulus_cover):
    C = annulus_cover
    c = random_cochain(C, 2, seed=9, exact=True)
    c.cocycle = True  # probe the census on raw data
    r0 = random_index_map(C, seed=9)
    r1 = random_index_map(C, seed=10)
    b = transition_boundary(c, r0, r1)
    assert b.interior_sum == 0
    assert b.interior_flags > 0 and b.boundary_flags > 0
    K = C.complex
    assert b.boundary_flags + b.interior_flags == len(K.flags(1)) + len(K.flags(0))


def test_cech_cocycle_law_of_transitions(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=10)
    maps = [random_index_map(C, seed=s) for s in (11, 12, 13)]
    g01 = transition_boundary(c, maps[0], maps[1]).raw
    g12 = transition_boundary(c, maps[1], maps[2]).raw
    g02 = transition_boundary(c, maps[0], maps[2]).raw
    assert g01 + g12 == g02


def test_transition_requires_cocycle_and_dimension(annulus_cover):
    C = annulus_cover
    raw = random_cochain(C, 2, seed=11)
    r = random_index_map(C, seed=1)
    with pytest.raises(TransgressionError):
        transition_general(raw, r, r)
    wrong_deg = zero_cochain(C, 3)
    with pytest.raises(TransgressionError):
        transition_general(wrong_deg, r, r)


# -- boundary locality ---------------------------------------------------------


def pin_boundary(C, rho):
    S = restrict_cover_to_boundary(C)
    return {s: rho(s) for _, s in S.complex.all_simplices()}


def test_transition_depends_only_on_boundary_charts(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=12)
    r0 = random_index_map(C, seed=20)
    r1 = random_index_map(C, seed=21)
    base = transition_boundary(c, r0, r1).raw
    for bump in (1, 2):
        q0 = random_index_map(C, seed=100 + bump, frozen=pin_boundary(C, r0))
        q1 = random_index_map(C, seed=200 + bump, frozen=pin_boundary(C, r1))
        moved = {
            s
            for _, s in C.complex.all_simplices()
            if q0(s) != r0(s) or q1(s) != r1(s)
        }
        assert moved  # the perturbation is real, only interior simplices move
        assert transition_boundary(c, q0, q1).raw == base
        assert transition_general(c, q0, q1).raw == base


# -- the written-out p = 2 formula ----------------------------------------------


def test_p2_formula_matches_oracle_and_general(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=13, exact=False)
    r0 = random_index_map(C, seed=31)
    r1 = random_index_map(C, seed=32)
    v = transition_p2_boundary(c, r0, r1)
    assert v.raw == pytest.approx(p2_boundary_words(c, r0, r1), abs=1e-12)
    g = transition_general(c, r0, r1)
    assert v.agreement_residual <= 1e-9
    assert v.raw == pytest.approx(g.raw, abs=1e-9)
    assert v.route == "p2-boundary"
    assert v.boundary_flags == len(C.complex.boundary_facets)


def test_p2_formula_exact(annulus_cover):
    C = annulus_cover
    c = orbit(C, 2, seed=14)
    r0 = random_index_map(C, seed=33)
    r1 = random_index_map(C, seed=34)
    v = transition_p2_boundary(c, r0, r1)
    assert v.raw == p2_boundary_words(c, r0, r1)
    assert v.agreement_residual == 0


def test_p2_formula_degree_check(solid_cover):
    c = orbit(solid_cover, 3, seed=15)
    r = random_index_map(solid_cover, seed=1)
    with pytest.raises(TransgressionError):
        transition_p2_boundary(c, r, r)


# -- the degree-3 composition ----------------------------------------------------


def test_triple_telescopes_and_lands_on_integer(solid_cover):
    C = solid_cover
    c = orbit(C, 3, seed=16)
    r0 = random_index_map(C, seed=41)
    r1 = random_index_map(C, seed=42)
    r2 = random_index_map(C, seed=43)
    t = transgress_p3_triple(c, r0, r1, r2)
    assert t.telescoped == 0
    assert t.integer_residual == 0
    assert t.surface_raw == t.integer_witness  # whole turns, exact units
    assert t.display_agreement == 0
    assert t.exact


def test_triple_float_tolerances(solid_cover):
    C = solid_cover
    c = orbit(C, 3, seed=17, exact=False)
    r0 = random_index_map(C, seed=44)
    r1 = random_index_map(C, seed=45)
    r2 = random_index_map(C, seed=46)
    t = transgress_p3_triple(c, r0, r1, r2)
    assert abs(t.telescoped) <= 1e-10
    assert t.integer_residual <= 1e-9
    assert t.display_agreement <= 1e-9


def test_triple_rejects_junk_data(solid_cover):
    C = solid_cover
    c = random_cochain(C, 3, seed=18, exact=True)
    c.cocycle = True
    r0 = random_index_map(C, seed=47)
    r1 = random_index_map(C, seed=48)
    r2 = random_index_map(C, seed=49)
    with pytest.raises(TransgressionError):
        transgress_p3_triple(c, r0, r1, r2)


def test_triple_requires_boundary(torus3_8chart):
    C = star_cover(torus3_8chart.covered.complex)
    c = zero_cochain(C, 3, exact=True)
    r = random_index_map(C, seed=1)
    with pytest.raises(TransgressionError):
        transgress_p3_triple(c, r, r, r)


def test_triple_degree_check(annulus_cover):
    c = orbit(annulus_cover, 2, seed=19)
    r = random_index_map(annulus_cover, seed=2)
    with pytest.raises(TransgressionError):
        transgress_p3_triple(c, r, r, r)


# -- the written-out degree-3 words ----------------------------------------------


def test_display_words_match_oracle_on_open_surface(annulus_cover):
    C = annulus_cover
    c = random_cochain(C, 3, seed=21)
    r0 = random_index_map(C, seed=51)
    r1 = random_index_map(C, seed=52)
    r2 = random_index_map(C, seed=53)
    (prod,) = _word_sums(c, _mixed_chain(C.complex, r0, r1, r2))
    want = p3_display_words_direct(c, r0, r1, r2)
    assert prod == pytest.approx(want, abs=1e-12)
    assert abs(want) > 1e-3  # the open surface leaves real values behind


def test_display_words_cancel_on_closed_surface(solid_cover):
    """The three-map walk on the closed boundary surface is the zero
    chain, which is why ``transgress_p3_triple`` does not build it."""
    C = solid_cover
    raw = random_cochain(C, 3, seed=22, exact=True)
    S_cov = restrict_cover_to_boundary(C)
    cS = restrict_cochain(raw, S_cov)
    r0, r1, r2 = (
        IndexMap(S_cov, random_index_map(C, seed=s).assignment) for s in (54, 55, 56)
    )
    chain = _mixed_chain(S_cov.complex, r0, r1, r2)
    assert chain == {}
    assert _word_sums(cS, chain) == [0]


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_route_agreement_property(annulus_cover, seed):
    C = annulus_cover
    c = orbit(C, 2, seed=seed)
    r0 = random_index_map(C, seed=seed + 1)
    r1 = random_index_map(C, seed=seed + 2)
    assert transition_general(c, r0, r1).raw == transition_boundary(c, r0, r1).raw


# -- every flag sum against the oracles, and on non-finite data -------------------


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
@pytest.mark.parametrize("name", ["annulus", "solid-torus"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_flag_sums_match_oracles(name, exact, seed):
    C = star_cover(get_geometry(name).covered.complex)
    p = C.complex.dim
    r0 = random_index_map(C, seed=seed + 1)
    r1 = random_index_map(C, seed=seed + 2)
    tol = 0 if exact else 1e-12

    raw = random_cochain(C, p, seed, exact=exact)
    raw.cocycle = True  # arbitrary data: the local action is defined regardless
    got = [level.value for level in local_action(raw, r0).levels]
    want = naive_local_levels(raw, r0)
    assert len(got) == len(want) == p + 1
    assert all(abs(g - w) <= tol for g, w in zip(got, want))

    c = orbit(C, p, seed, exact=exact)
    want = naive_transition(c, r0, r1)
    for route in (transition_general, transition_boundary):
        value = route(c, r0, r1).raw
        assert type(value) is (Fraction if exact else float)
        assert abs(value - want) <= tol


@pytest.mark.parametrize("name", ["annulus", "solid-torus", "torus2-4chart"])
def test_non_finite_data_raises_in_every_flag_sum(name):
    C = star_cover(get_geometry(name).covered.complex)
    p = C.complex.dim
    entries = orbit(C, p, seed=23, exact=False).entries()
    c = DeligneCochain(C, p, {(k, s, J): math.nan for k, s, J, _ in entries}, False, True)
    maps = [random_index_map(C, seed=s) for s in (61, 62, 63)]
    if C.complex.closed:
        calls = [(HolonomyError, holonomy, 1)]
    else:
        special = transition_p2_boundary if p == 2 else transgress_p3_triple
        calls = [
            (HolonomyError, local_action, 1),
            (TransgressionError, transition_general, 2),
            (TransgressionError, transition_boundary, 2),
            (TransgressionError, special, p),
        ]
    for error, entry_point, n_maps in calls:
        with pytest.raises(error, match="not finite"):
            entry_point(c, *maps[:n_maps])


@pytest.mark.parametrize("name", ["annulus", "solid-torus"])
@pytest.mark.parametrize("every", [False, True], ids=["one slot", "every slot"])
def test_non_finite_interior_edge_raises_in_every_flag_sum(name, every):
    C = star_cover(get_geometry(name).covered.complex)
    K = C.complex
    p = K.dim
    e = next(
        e for e in K.simplices(1)
        if not any(set(e) <= set(f) for f in K.boundary_facets)
    )
    data = {(k, s, J): v for k, s, J, v in orbit(C, p, seed=24, exact=False).entries()}
    slots = list(C.multi_indices(e, p))
    for J in slots if every else slots[:1]:
        data[1, e, J] = math.nan
    c = DeligneCochain(C, p, data, False, True)
    maps = [random_index_map(C, seed=s) for s in (64, 65, 66)]
    special = transition_p2_boundary if p == 2 else transgress_p3_triple
    calls = [
        (HolonomyError, local_action, 1),
        (TransgressionError, transition_general, 2),
        (TransgressionError, transition_boundary, 2),
        (TransgressionError, special, p),
    ]
    for error, entry_point, n_maps in calls:
        with pytest.raises(error, match="not finite"):
            entry_point(c, *maps[:n_maps])


def test_every_flag_sum_refuses_a_map_made_on_another_cover():
    def chart_and_star(name):
        g = get_geometry(name)
        return g.covered, star_cover(g.covered.complex)

    torus, torus_star = chart_and_star("torus2-4chart")
    annulus, annulus_star = chart_and_star("annulus")
    solid, solid_star = chart_and_star("solid-torus")
    calls = [
        (HolonomyError, "holonomy", holonomy, torus, 2, torus_star, 1),
        (HolonomyError, "curvature total", curvature_total, torus, 1, torus_star, 1),
        (HolonomyError, "local action", local_action, annulus, 2, annulus_star, 1),
        (TransgressionError, "transition", transition_general, annulus, 2, annulus_star, 2),
        (TransgressionError, "transition", transition_boundary, annulus, 2, annulus_star, 2),
        (TransgressionError, "transition", transgress_p3_triple, solid, 3, solid_star, 3),
    ]
    for error, op, entry_point, C, p, other, n_maps in calls:
        c = zero_cochain(C, p, exact=True)
        own = [random_index_map(C, seed=s) for s in range(n_maps)]
        entry_point(c, *own)
        for i in range(n_maps):
            maps = own[:i] + [default_index_map(other)] + own[i + 1:]
            with pytest.raises(error, match=f"^{op} needs (an )?index maps? made on"):
                entry_point(c, *maps)


def test_flag_sums_read_the_maps_only_in_the_walk(monkeypatch):
    """A map's charts are checked when it is built, so holonomy and
    transition_boundary call it exactly as often as their walk does."""
    calls = [0]
    read = IndexMap.__call__

    def counted(self, sigma):
        calls[0] += 1
        return read(self, sigma)

    def reads(f, *args):
        calls[0] = 0
        f(*args)
        return calls[0]

    torus = star_cover(get_geometry("torus2-4chart").covered.complex)
    annulus = star_cover(get_geometry("annulus").covered.complex)
    c, rho = orbit(torus, 2, seed=31), random_index_map(torus, seed=32)
    d = orbit(annulus, 2, seed=33)
    r0, r1 = (random_index_map(annulus, seed=s) for s in (34, 35))
    monkeypatch.setattr(IndexMap, "__call__", counted)
    walk = reads(_walk, torus.complex, (rho,))
    assert walk > 0 and reads(holonomy, c, rho) == walk
    walk = reads(_walk, annulus.complex, (r0, r1), False)
    assert walk > 0 and reads(transition_boundary, d, r0, r1) == walk


# -- the face-poset walk against the flag definition -------------------------------


def flag_words(K, maps, top):
    """Per dimension from the top down, the word counts of K's flags read
    one by one: rho along the whole flag (one map, top), or for r = 1..n
    maps[0] on the first r simplices below the top and maps[1] from the
    r-th on, sign (-1)^(r+1) (two maps).  Words that repeat a chart and
    zero counts are dropped."""
    out = []
    for q in range(K.dim, -1, -1):
        counts = {}
        for chain, sign in naive_chains(K, q):
            if top:
                terms = [(sign, tuple(map(maps[0], chain)))]
            else:
                a, b = (tuple(map(rho, chain[1:])) for rho in maps)
                terms = [
                    ((-1) ** (r + 1) * sign, a[:r] + b[r - 1:])
                    for r in range(1, len(a) + 1)
                ]
            for n, word in terms:
                if len(set(word)) == len(word):
                    key = chain[-1], word
                    counts[key] = counts.get(key, 0) + n
        out.append({key: n for key, n in counts.items() if n})
    return out


def walk_cover(name):
    if name == "tetrahedron":
        tet = build_complex([(0, 1, 2, 3)])
        return attach_cover(tet, 12, {(0, 1, 2, 3): range(12)})
    return star_cover(get_geometry(name).covered.complex)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["annulus", "solid-torus", "torus2-4chart", "tetrahedron"])
def test_walk_matches_the_flag_definition(name, seed):
    C = walk_cover(name)
    K = C.complex
    r0, r1 = (random_index_map(C, seed=seed + i) for i in (0, 10))
    assert _walk(K, (r0,)) == flag_words(K, (r0,), top=True)
    mixed = _walk(K, (r0, r1), top=False)
    assert mixed == flag_words(K, (r0, r1), top=False)
    # Interior facets cancel: only a boundary leaves mixed words.
    assert mixed[0] == {} and any(mixed) == bool(K.boundary_facets)


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("name", list(GEOMETRY_BUILDERS))
def test_flag_census_counts_the_flags(name, depth):
    g = get_geometry(name)
    if depth:
        g = subdivide_geometry(g)
    K = g.covered.complex
    p = K.dim
    flags = [len(K.flags(q)) for q in range(p + 1)]
    facets = K.boundary_facets
    boundary = sum(f.chain[1] in facets for q in range(p) for f in K.flags(q))
    interior = sum(flags[:p]) - boundary
    for C in (g.covered, star_cover(K)):
        c = zero_cochain(C, p, exact=True)
        rho = default_index_map(C)
        value = (holonomy if K.closed else local_action)(c, rho)
        assert [level.flags for level in value.levels] == flags[::-1]
        assert value.flag_count == sum(flags)
        if K.closed:
            continue
        v = transition_boundary(c, rho, rho)
        assert (v.boundary_flags, v.interior_flags) == (boundary, interior)
        if p == 2:
            v = transition_p2_boundary(c, rho, rho)
            assert (v.boundary_flags, v.interior_flags) == (len(facets), interior)
