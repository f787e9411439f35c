"""Complex construction, boundary bookkeeping, flags, and subdivision."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from deligne import (
    ComplexError,
    barycentric_subdivide,
    build_complex,
    disjoint_union,
    glue_along_boundary,
    incidence,
    relabel_complex,
    reverse_orientation,
)
from deligne.simplicial import (
    Flag,
    boundary_restrict,
    determinant,
    facets_of,
    sort_with_parity,
)

from oracles import facet_sign, sorted_sign


def circle3():
    return build_complex([(0, 1), (1, 2), (2, 0)])


def single_tet():
    return build_complex([(0, 1, 2, 3)])


# -- primitive parities ------------------------------------------------------


def test_sort_with_parity_hand_values():
    assert sort_with_parity((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_parity((1, 0)) == ((0, 1), -1)
    assert sort_with_parity((5,)) == ((5,), 1)


def test_sort_with_parity_rejects_degenerate():
    with pytest.raises(ComplexError):
        sort_with_parity((1, 1))
    with pytest.raises(ComplexError):
        sort_with_parity(())
    with pytest.raises(ComplexError):
        sort_with_parity((0, True))


@given(st.permutations(list(range(5))))
def test_sort_with_parity_matches_selection_sort(perm):
    _, parity = sort_with_parity(tuple(perm))
    assert parity == sorted_sign(tuple(perm))


def test_facets_of_signs_and_order():
    facets = facets_of((0, 1, 2))
    assert facets == (((0, 1), 1), ((0, 2), -1), ((1, 2), 1))
    for tau, inc in facets:
        assert inc == facet_sign((0, 1, 2), tau)


# -- construction and queries ------------------------------------------------


def test_circle_counts_and_closedness():
    K = circle3()
    assert K.dim == 1
    assert K.simplices(0) == ((0,), (1,), (2,))
    assert K.simplices(1) == ((0, 1), (0, 2), (1, 2))
    assert K.euler_characteristic() == 0
    assert K.closed and K.pseudomanifold
    assert K.boundary_facets == {}
    # (2, 0) was handed in reversed, so its canonical orientation is -1
    assert K.orientation((0, 2)) == -1
    assert K.orientation((0, 1)) == 1


def test_duplicate_top_rejected():
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 2), (2, 1, 0)])


def test_build_complex_caps_the_vertices_of_a_top():
    # 2^64 faces: refused before any face is built.
    for n in (9, 64):
        with pytest.raises(ComplexError, match="at most 8"):
            build_complex([tuple(range(n))])
    K = build_complex([tuple(range(8))])
    assert K.dim == 7 and len(K.simplices(3)) == math.comb(8, 4)


def test_mixed_dimension_rejected():
    with pytest.raises(ComplexError):
        build_complex([(0, 1, 2), (3, 4)])


def test_tetrahedron_boundary():
    K = single_tet()
    assert K.euler_characteristic() == 1
    assert not K.closed
    assert set(K.boundary_facets) == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    # induced signs alternate with the omitted slot
    assert K.boundary_facets[(1, 2, 3)] == 1
    assert K.boundary_facets[(0, 2, 3)] == -1
    assert K.boundary_facets[(0, 1, 3)] == 1
    assert K.boundary_facets[(0, 1, 2)] == -1

    S = boundary_restrict(K)
    assert S.dim == 2
    assert S.euler_characteristic() == 2
    assert S.closed and S.pseudomanifold


def test_orientation_defect_detected():
    K = build_complex([(0, 1, 2), (1, 2, 3)])
    assert not K.pseudomanifold
    assert (1, 2) in K.orientation_defects
    coherent = build_complex([(0, 1, 2), (1, 3, 2)])
    assert coherent.pseudomanifold
    assert set(coherent.boundary_facets) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_incidence_values_and_orientation_sensitivity():
    K = single_tet()
    assert incidence(K, (0, 1, 2, 3), (0, 2, 3)) == -1
    assert incidence(K, (0, 1, 2, 3), (1, 2, 3)) == 1
    assert incidence(K, (0, 1, 2), (0, 1)) == 1
    # reordering either argument flips by its parity
    assert incidence(K, (1, 0, 2, 3), (0, 2, 3)) == 1
    assert incidence(K, (0, 1, 2, 3), (2, 0, 3)) == 1
    assert incidence(K, (0, 1, 2, 3), (2, 3, 0)) == -1
    assert incidence(K, (0, 1, 2, 3), (0, 1)) == 0
    with pytest.raises(ComplexError):
        incidence(K, (0, 1, 2, 3), (0, 4))


def test_boundary_of_boundary_vanishes():
    K = single_tet()
    for tau in K.simplices(1):
        total = 0
        for sigma in K.simplices(2):
            for v in K.simplices(3):
                total += incidence(K, v, sigma) * incidence(K, sigma, tau)
        assert total == 0


def test_flag_enumeration_on_triangle():
    K = build_complex([(0, 1, 2)])
    deep = K.flags(0)
    assert len(deep) == 6
    by_chain = {f.chain: f.sign for f in deep}
    assert by_chain[((0, 1, 2), (1, 2), (2,))] == 1
    assert by_chain[((0, 1, 2), (0, 2), (0,))] == 1
    assert by_chain[((0, 1, 2), (0, 1), (0,))] == -1
    assert len(K.flags(1)) == 3
    with pytest.raises(ComplexError):
        K.flags(3)


def recursive_flags(K, q):
    """Reference flag enumeration: depth-first from each top in lex order."""
    out = []

    def extend(chain, sign):
        if len(chain[-1]) - 1 == q:
            out.append((chain, sign))
            return
        for tau, inc in facets_of(chain[-1]):
            extend(chain + (tau,), sign * inc)

    for t in K.tops:
        extend((t,), K.orientation(t))
    return out


@pytest.mark.parametrize("seed", range(24))
def test_flags_match_recursive_enumeration(seed):
    rng = random.Random(seed)
    dim = seed % 4
    labels = rng.sample(range(20), dim + 1 + rng.randrange(4))
    faces = [list(f) for f in combinations(labels, dim + 1)]
    tops = rng.sample(faces, rng.randint(1, min(6, len(faces))))
    for t in tops:
        rng.shuffle(t)
    K = build_complex(tops)
    if seed % 2:
        K, _ = barycentric_subdivide(K)
    levels = list(range(dim + 1))
    rng.shuffle(levels)
    for q in levels:
        flags = K.flags(q)
        assert all(isinstance(f, Flag) for f in flags)
        assert [tuple(f) for f in flags] == recursive_flags(K, q)


@pytest.mark.parametrize("subdivided", [False, True])
def test_flag_chains_are_the_complexs_own_simplices(subdivided):
    K = build_complex([(0, 1, 2, 3), (1, 2, 3, 4)])
    if subdivided:
        K, _ = barycentric_subdivide(K)
    for q in range(K.dim + 1):
        for f in K.flags(q):
            for s in f.chain:
                k = len(s) - 1
                canon = K.simplices(k)
                assert s is canon[canon.index(s)]


def test_flags_respect_top_orientation():
    plain = build_complex([(0, 1)])
    flipped = build_complex([(1, 0)])
    signs = {f.chain: f.sign for f in plain.flags(0)}
    for f in flipped.flags(0):
        assert f.sign == -signs[f.chain]


def test_euler_characteristics_of_named_geometries(
    circle_2arc, annulus, sphere_octahedron_2chart, torus2_4chart,
    solid_torus, torus3_8chart,
):
    expected = [
        (circle_2arc, 0),
        (annulus, 0),
        (sphere_octahedron_2chart, 2),
        (torus2_4chart, 0),
        (solid_torus, 0),
        (torus3_8chart, 0),
    ]
    for geom, chi in expected:
        assert geom.covered.complex.euler_characteristic() == chi


def test_closedness_of_named_geometries(
    sphere_octahedron_2chart, torus2_4chart, annulus, solid_torus
):
    assert sphere_octahedron_2chart.covered.complex.closed
    assert torus2_4chart.covered.complex.closed
    assert not annulus.covered.complex.closed
    assert not solid_torus.covered.complex.closed


# -- derived complexes -------------------------------------------------------


def test_reverse_orientation_negates_boundary():
    K = build_complex([(0, 1, 2)])
    R = reverse_orientation(K)
    for tau, sign in K.boundary_facets.items():
        assert R.boundary_facets[tau] == -sign
    assert reverse_orientation(R).orientation((0, 1, 2)) == K.orientation((0, 1, 2))


def test_relabel_requires_injectivity():
    K = circle3()
    M = relabel_complex(K, {0: 10, 1: 11, 2: 12})
    assert M.vertices == (10, 11, 12)
    assert M.euler_characteristic() == 0
    with pytest.raises(ComplexError):
        relabel_complex(K, {0: 1})


def test_relabel_tracks_parity():
    K = build_complex([(0, 1)])
    M = relabel_complex(K, {0: 5})  # (5, 1) sorts to (1, 5) with a flip
    assert M.orientation((1, 5)) == -1


def test_disjoint_union_shifts_and_adds():
    K1 = circle3()
    K2 = build_complex([(0, 1), (1, 2), (2, 3), (3, 0)])
    U, shift = disjoint_union(K1, K2)
    assert len(U.vertices) == 7
    assert U.euler_characteristic() == 0
    assert sorted(shift) == [0, 1, 2, 3]
    assert len(set(shift.values()) & set(K1.vertices)) == 0
    assert U.closed


def test_glue_two_intervals_into_circle():
    K1 = build_complex([(0, 1), (1, 2)])
    K2 = build_complex([(0, 1), (1, 2)])
    glued, relabel = glue_along_boundary(K1, K2, {0: 2, 2: 0})
    assert glued.closed
    assert glued.euler_characteristic() == 0
    assert len(glued.vertices) == 4
    assert relabel[0] == 2 and relabel[2] == 0
    assert relabel[1] not in (0, 1, 2)


def test_glue_rejects_orientation_mismatch():
    K1 = build_complex([(0, 1), (1, 2)])
    K2 = build_complex([(0, 1), (1, 2)])
    with pytest.raises(ComplexError):
        glue_along_boundary(K1, K2, {0: 0, 2: 2})


def test_glue_rejects_bad_matching():
    K1 = build_complex([(0, 1), (1, 2)])
    K2 = build_complex([(0, 1), (1, 2)])
    with pytest.raises(ComplexError):
        glue_along_boundary(K1, K2, {7: 0})
    with pytest.raises(ComplexError):
        glue_along_boundary(K1, K2, {0: 99})
    with pytest.raises(ComplexError):
        glue_along_boundary(K1, K2, {0: 2, 1: 2})


# -- barycentric subdivision --------------------------------------------------


def test_subdivision_counts_and_invariants():
    K = single_tet()
    K2, carriers = barycentric_subdivide(K)
    assert len(K2.tops) == len(K.tops) * math.factorial(K.dim + 1)
    assert K2.euler_characteristic() == K.euler_characteristic()
    assert K2.pseudomanifold
    assert not K2.closed


def test_subdivision_preserves_closedness(torus2_4chart):
    K = torus2_4chart.covered.complex
    K2, _ = barycentric_subdivide(K)
    assert K2.closed
    assert K2.euler_characteristic() == 0
    assert len(K2.tops) == len(K.tops) * 6


def test_subdivision_carriers_cover_parents():
    K = build_complex([(0, 1, 2)])
    K2, carriers = barycentric_subdivide(K)
    # every child top is carried by the parent top, lower simplices by faces
    for t in K2.tops:
        assert carriers[t] == (0, 1, 2)
    dims = {len(c) - 1 for c in carriers.values()}
    assert dims == {0, 1, 2}
    for s, c in carriers.items():
        assert K.has(c)


def test_subdivision_boundary_commutes():
    K = build_complex([(0, 1, 2)])
    K2, _ = barycentric_subdivide(K)
    # the subdivided boundary is the subdivision of the boundary circle
    S = boundary_restrict(K2)
    assert S.closed
    assert len(S.tops) == 6
    assert S.euler_characteristic() == 0


def determinant_rule_subdivision(K):
    """Reference child tops and orientations of a barycentric subdivision.

    Every chain of faces of a top, ascending from a vertex to the top, is
    one child; its orientation is the sign of the determinant of its
    barycentres' coordinates inside the top, times the top's parity.
    """
    label = {s: i for i, (_, s) in enumerate(K.all_simplices())}
    out = {}
    for t in K.tops:

        def chains(chain):
            head = chain[-1]
            if head == t:
                yield chain
            for v in t:
                if v not in head:
                    yield from chains(chain + (tuple(sorted(head + (v,))),))

        for chain in (c for v in t for c in chains(((v,),))):
            rows = [
                [
                    Fraction(int(v in tau), len(tau)) - int(v in chain[0])
                    for v in t[1:]
                ]
                for tau in chain[1:]
            ]
            geo = 1 if len(t) == 1 else (1 if determinant(rows) > 0 else -1)
            verts = [label[tau] for tau in chain]
            if geo * K.orientation(t) == -1:
                verts[-1], verts[-2] = verts[-2], verts[-1]
            s, parity = sort_with_parity(verts)
            out[s] = parity
    return out


@pytest.mark.parametrize("seed", range(30))
def test_subdivision_orientations_match_determinant_rule(seed):
    rng = random.Random(seed)
    dim = seed % 4
    labels = rng.sample(range(20), dim + 1 + rng.randrange(4))
    faces = [list(f) for f in combinations(labels, dim + 1)]
    tops = rng.sample(faces, rng.randint(1, min(6, len(faces))))
    for t in tops:
        rng.shuffle(t)
    K = build_complex(tops)
    K2, _ = barycentric_subdivide(K)
    assert {t: K2.orientation(t) for t in K2.tops} == determinant_rule_subdivision(K)


def test_subdivided_point_boundary_keeps_orientations():
    B = boundary_restrict(build_complex([(0, 1)]))
    assert {t: B.orientation(t) for t in B.tops} == {(0,): -1, (1,): 1}
    B2, carriers = barycentric_subdivide(B)
    assert {t: B2.orientation(t) for t in B2.tops} == {(0,): -1, (1,): 1}
    assert all(carriers[t] == t for t in B2.tops)


def random_complex(rng, dim, most_tops=6):
    """Up to ``most_tops`` distinct dim-simplices on a few labels, each
    given in a shuffled vertex order."""
    labels = rng.sample(range(20), dim + 1 + rng.randrange(4))
    faces = [list(f) for f in combinations(labels, dim + 1)]
    tops = rng.sample(faces, rng.randint(1, min(most_tops, len(faces))))
    for t in tops:
        rng.shuffle(t)
    return build_complex(tops)


def permutation_subdivision(K):
    """Reference subdivision: child tops with their orientations, and the
    carrier map in the child's simplex order.

    One child top per top t and permutation of t's vertex positions, the
    order in which the chain adds them: it is the chain of sorted prefix
    sets, oriented by the permutation's parity times t's.  A child simplex
    is carried by the parent labelled by its largest label.
    """
    parents = [s for _, s in K.all_simplices()]
    label = {s: i for i, s in enumerate(parents)}
    orient = {}
    for t in K.tops:
        for perm in permutations(range(len(t))):
            prefixes = [sorted(perm[: m + 1]) for m in range(len(t))]
            child = tuple(label[tuple(t[i] for i in p)] for p in prefixes)
            orient[child] = sorted_sign(perm) * K.orientation(t)
    simplices = sorted(
        {f for c in orient for k in range(len(c)) for f in combinations(c, k + 1)},
        key=lambda s: (len(s), s),
    )
    return orient, {s: parents[s[-1]] for s in simplices}


@pytest.mark.parametrize("seed", range(30))
def test_subdivision_matches_permutation_reference(seed):
    rng = random.Random(seed)
    dim = seed % 5
    K = random_complex(rng, dim, most_tops=3 if dim == 4 else 6)
    K2, carriers = barycentric_subdivide(K)
    orient, ref_carriers = permutation_subdivision(K)
    assert list(K2.tops) == sorted(orient)
    assert {t: K2.orientation(t) for t in K2.tops} == orient
    assert list(carriers.items()) == list(ref_carriers.items())
    for L in (K, K2):
        for q in range(L.dim + 1):
            assert [tuple(f) for f in L.flags(q)] == recursive_flags(L, q)


# -- the face table -----------------------------------------------------------


@pytest.fixture(scope="module")
def shipped_complexes():
    """Every shipped geometry's complex and its first subdivision."""
    from deligne import GEOMETRY_BUILDERS, get_geometry

    out = []
    for name in GEOMETRY_BUILDERS:
        K = get_geometry(name).covered.complex
        out += [(name, K), (f"{name}/1", barycentric_subdivide(K)[0])]
    return out


def test_face_table_contract(shipped_complexes):
    for name, K in shipped_complexes:
        own = {s: s for _, s in K.all_simplices()}
        for k, s in K.all_simplices():
            pairs = list(K.facets(s))
            assert pairs == list(facets_of(s)), (name, s)
            assert all(own[f] is f and len(f) == k for f, _ in pairs), (name, s)
            assert K.has(s)
            if k < K.dim:
                assert K.orientation(s) == 1, (name, s)
            else:
                assert K.orientation(s) in (1, -1), (name, s)
        assert [t for t in K.tops if K.orientation(t) == -1], name
        top = K.tops[0]
        for bad in (top[::-1] if len(top) > 1 else (top[0] - 1,), (-1,), top + (10**6,)):
            assert not K.has(bad)
            for ask in (K.orientation, K.facets):
                with pytest.raises(ComplexError) as err:
                    ask(bad)
                assert str(err.value) == f"{bad} is not a simplex of this complex"


def test_vertices_have_no_facets():
    K = single_tet()
    assert facets_of((3,)) == ()
    assert all(list(K.facets(v)) == [] for v in K.simplices(0))
