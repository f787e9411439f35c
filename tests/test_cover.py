"""Covers, admissibility, and index maps."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from deligne import (
    CoverError,
    IndexMap,
    attach_cover,
    barycentric_subdivide,
    build_complex,
    default_index_map,
    random_index_map,
    restrict_cover,
    restrict_cover_to_boundary,
    star_cover,
)
from deligne.simplicial import boundary_restrict


def two_triangles():
    return build_complex([(0, 1, 2), (1, 3, 2)])


def test_attach_cover_union_rule():
    K = two_triangles()
    C = attach_cover(K, 3, {(0, 1, 2): (0,), (1, 2, 3): (1, 2)})
    assert C.admissible_of((0, 1, 2)) == (0,)
    assert C.admissible_of((1, 2, 3)) == (1, 2)
    # the shared edge sees both tops' charts
    assert C.admissible_of((1, 2)) == (0, 1, 2)
    assert C.admissible_of((0,)) == (0,)
    assert C.admissible_of((3,)) == (1, 2)


def per_top_union_cover(K, tops_admissible):
    """Reference union rule: every face of every top, in the order the
    tops and then (dimension, lexicographic) order first reach it, takes
    the union of the chart sets of the tops containing it."""
    admissible = {}
    for t in K.tops:
        for k in range(len(t)):
            for face in combinations(t, k + 1):
                admissible.setdefault(face, set()).update(tops_admissible[t])
    return {s: tuple(sorted(v)) for s, v in admissible.items()}


@pytest.mark.parametrize("seed", range(30))
def test_attach_cover_matches_per_top_union(seed):
    rng = random.Random(seed)
    dim = seed % 5
    labels = rng.sample(range(20), dim + 1 + rng.randrange(4))
    faces = list(combinations(labels, dim + 1))
    K = build_complex(rng.sample(faces, rng.randint(1, min(6, len(faces)))))
    for L in (K, barycentric_subdivide(K)[0]):
        num_sets = rng.randint(1, 6)
        charts = {
            t: rng.sample(range(num_sets), rng.randint(1, num_sets)) for t in L.tops
        }
        C = attach_cover(L, num_sets, charts)
        assert list(C.admissible.items()) == list(per_top_union_cover(L, charts).items())


def test_attach_cover_canonicalizes_keys_and_charts():
    K = build_complex([(0, 1, 2)])
    C = attach_cover(K, 4, {(2, 0, 1): [3, 1, 3]})
    assert C.admissible_of((0, 1, 2)) == (1, 3)


def test_attach_cover_rejections():
    K = two_triangles()
    with pytest.raises(CoverError):
        attach_cover(K, 0, {})
    with pytest.raises(CoverError):
        attach_cover(K, 2, {(0, 1, 2): (0,)})  # misses a top
    with pytest.raises(CoverError):
        attach_cover(K, 2, {(0, 1, 2): (0,), (1, 2, 3): (2,)})  # out of range
    with pytest.raises(CoverError):
        attach_cover(K, 2, {(0, 1, 2): (), (1, 2, 3): (0,)})  # empty charts
    with pytest.raises(CoverError):
        attach_cover(
            K, 2, {(0, 1, 2): (0,), (1, 2, 3): (1,), (0, 1): (0,)}
        )  # non-top key
    with pytest.raises(CoverError):
        attach_cover(K, 2, {(0, 1, 2): (0,), (2, 1, 0): (1,), (1, 2, 3): (0,)})


def test_admissible_of_unknown_simplex():
    C = star_cover(two_triangles())
    with pytest.raises(CoverError):
        C.admissible_of((7, 8))


def test_multi_indices_are_strictly_increasing():
    C = star_cover(two_triangles())
    for s in C.complex.simplices(1):
        for J in C.multi_indices(s, 2):
            assert J[0] < J[1]
            assert all(a in C.admissible_of(s) for a in J)
    # length beyond the chart count yields nothing
    assert list(C.multi_indices((0,), 5)) == []


def test_star_cover_charts_match_vertex_stars():
    K = two_triangles()
    C = star_cover(K)
    assert C.num_sets == 4
    # a vertex's chart set contains its own chart
    for i, v in enumerate(K.vertices):
        assert i in C.admissible_of((v,))
    # interior edge (1,2): both tops touch all four vertices' charts
    assert C.admissible_of((1, 2)) == (0, 1, 2, 3)
    # boundary edge (0,1): only the first triangle's vertex charts
    assert C.admissible_of((0, 1)) == (0, 1, 2)


def test_default_index_map_is_admissible_and_minimal():
    C = star_cover(two_triangles())
    rho = default_index_map(C)
    for _, s in C.complex.all_simplices():
        assert rho(s) == C.admissible_of(s)[0]


def test_make_index_map_validates():
    C = star_cover(two_triangles())
    table = {s: C.admissible_of(s)[-1] for _, s in C.complex.all_simplices()}
    rho = IndexMap(C, table)
    assert rho((1, 2)) == 3 and rho.cover is C
    del table[(0, 1)]
    with pytest.raises(CoverError, match="misses simplex"):
        IndexMap(C, table)
    table[(0, 1)] = 3  # not admissible there
    with pytest.raises(CoverError, match="not admissible"):
        IndexMap(C, table)


def test_index_map_unknown_simplex():
    C = star_cover(two_triangles())
    rho = default_index_map(C)
    with pytest.raises(CoverError):
        rho((5, 6))


def test_random_index_map_deterministic_and_admissible():
    C = star_cover(two_triangles())
    a = random_index_map(C, seed=11)
    b = random_index_map(C, seed=11)
    c = random_index_map(C, seed=12)
    assert a.assignment == b.assignment
    differs = any(a(s) != c(s) for _, s in C.complex.all_simplices())
    assert differs
    for _, s in C.complex.all_simplices():
        assert a(s) in C.admissible_of(s)


def test_random_index_map_frozen_pins():
    C = star_cover(two_triangles())
    pin = {(1, 2): 3, (0,): 0}
    rho = random_index_map(C, seed=5, frozen=pin)
    assert rho((1, 2)) == 3 and rho((0,)) == 0
    with pytest.raises(CoverError):
        random_index_map(C, seed=5, frozen={(0,): 3})


def test_random_index_map_names_a_key_that_is_no_canonical_simplex():
    C = star_cover(two_triangles())
    with pytest.raises(CoverError, match=r"\(2, 0\)"):
        random_index_map(C, seed=5, frozen={(2, 0): 0, (9, 9): 1})
    with pytest.raises(CoverError, match=r"\(9, 9\)"):
        random_index_map(C, seed=5, frozen={(0, 2): 0, (9, 9): 1})
    with pytest.raises(CoverError, match="'0'"):
        random_index_map(C, seed=5, frozen={"0": 0})


@pytest.mark.parametrize("chart", [1.7, True, "3", 1.0])
def test_attach_cover_refuses_a_chart_that_is_not_an_int(chart):
    with pytest.raises(CoverError, match="must be an int"):
        attach_cover(two_triangles(), 4, {(0, 1, 2): [chart, 2], (1, 2, 3): [1]})


@pytest.mark.parametrize("num_sets", [2.5, True, "4", 4.0])
def test_attach_cover_refuses_a_num_sets_that_is_not_an_int(num_sets):
    with pytest.raises(CoverError, match="num_sets must be an int"):
        attach_cover(two_triangles(), num_sets, {(0, 1, 2): [0], (1, 2, 3): [0]})


@pytest.mark.parametrize("chart", [1.9, True, "1", 1.0])
def test_make_index_map_refuses_a_chart_that_is_not_an_int(chart):
    C = attach_cover(two_triangles(), 2, {(0, 1, 2): (0, 1), (1, 2, 3): (0, 1)})
    assignment = {s: 1 for _, s in C.complex.all_simplices()}
    assert IndexMap(C, assignment)((0, 1)) == 1
    with pytest.raises(CoverError, match="must be an int"):
        IndexMap(C, {**assignment, (0, 1): chart})


@pytest.mark.parametrize("chart", [1.9, True, "1", 1.0])
def test_random_index_map_refuses_a_frozen_chart_that_is_not_an_int(chart):
    C = attach_cover(two_triangles(), 2, {(0, 1, 2): (0, 1), (1, 2, 3): (0, 1)})
    assert random_index_map(C, seed=5, frozen={(0, 1): 1})((0, 1)) == 1
    with pytest.raises(CoverError, match="must be an int"):
        random_index_map(C, seed=5, frozen={(0, 1): chart})


def test_restrict_cover_and_index_map():
    K = two_triangles()
    C = star_cover(K)
    B = restrict_cover_to_boundary(C)
    assert B.complex.dim == 1
    for _, s in B.complex.all_simplices():
        assert B.admissible_of(s) == C.admissible_of(s)
    rho = random_index_map(C, seed=3)
    rhoB = IndexMap(B, rho.assignment)
    for _, s in B.complex.all_simplices():
        assert rhoB(s) == rho(s)


def test_restrict_cover_rejects_foreign_subcomplex():
    C = star_cover(two_triangles())
    other = build_complex([(7, 8)])
    with pytest.raises(CoverError):
        restrict_cover(C, other)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_index_map_seed_stability(seed):
    C = star_cover(two_triangles())
    x = random_index_map(C, seed)
    y = random_index_map(C, seed)
    assert x.assignment == y.assignment
