"""Flag-sum holonomy: frozen values, oracle agreement, invariances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deligne import (
    CoverError,
    HolonomyError,
    attach_cover,
    build_cochain,
    build_complex,
    curvature_total,
    default_index_map,
    exact_shift,
    holonomy,
    local_action,
    random_cochain,
    random_index_map,
    star_cover,
    zero_cochain,
)
from deligne.cover import IndexMap
from deligne.errors import ToleranceError

from oracles import naive_holonomy

CIRCLE = build_complex([(0, 1), (1, 2), (2, 0)])
ONE_CHART = attach_cover(CIRCLE, 1, {t: (0,) for t in CIRCLE.tops})

TET_SPHERE = build_complex([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])


def test_single_chart_circle_hand_value():
    entries = [
        (1, (0,), (0, 1), 0.3),
        (1, (0,), (1, 2), 0.5),
        (1, (0,), (0, 2), -0.1),
    ]
    c = build_cochain(ONE_CHART, 1, entries)
    assert validate(c)
    h = holonomy(c, default_index_map(ONE_CHART))
    # orientation of (0,2) is -1, so its value enters negated
    assert h.raw == pytest.approx(0.9)
    assert h.angle == pytest.approx(0.9)
    assert h.flag_count == 3 + 6
    assert [lv.flags for lv in h.levels] == [3, 6]
    # the depth-0 level dies on repeated chart words
    assert h.levels[1].value == 0.0


def validate(c):
    from deligne import validate_cocycle

    return validate_cocycle(c).passed


def test_holonomy_requires_cocycle_flag():
    c = build_cochain(ONE_CHART, 1, [(1, (0,), (0, 1), 0.3)])
    with pytest.raises(HolonomyError):
        holonomy(c, default_index_map(ONE_CHART))


def test_holonomy_dimension_check():
    c = zero_cochain(ONE_CHART, 2)
    with pytest.raises(HolonomyError):
        holonomy(c, default_index_map(ONE_CHART))


def test_holonomy_needs_closed_complex():
    path = build_complex([(0, 1), (1, 2)])
    cov = star_cover(path)
    c = zero_cochain(cov, 1)
    with pytest.raises(HolonomyError):
        holonomy(c, default_index_map(cov))
    # the same flag sum is available as a local action
    v = local_action(c, default_index_map(cov))
    assert v.raw == 0.0


def test_check_index_map_rejects_inadmissible():
    C = star_cover(CIRCLE)
    table = {s: C.admissible_of(s)[0] for _, s in C.complex.all_simplices()}
    table[(0, 1)] = C.num_sets + 5
    with pytest.raises(CoverError, match="not admissible"):
        IndexMap(C, table)


def test_a_map_made_on_another_cover_is_refused_even_with_admissible_charts():
    two = attach_cover(CIRCLE, 2, {t: (0, 1) for t in CIRCLE.tops})
    c = zero_cochain(two, 1)
    rho = default_index_map(ONE_CHART)  # chart 0 everywhere, admissible in both
    with pytest.raises(HolonomyError, match="holonomy needs index maps made on"):
        holonomy(c, rho)
    # an equal cover built apart is the same cover
    same = attach_cover(CIRCLE, 2, {t: (0, 1) for t in CIRCLE.tops})
    assert same is not two
    assert holonomy(c, IndexMap(same, rho.assignment)).raw == 0


def test_holonomy_matches_naive_enumeration_float():
    C = star_cover(CIRCLE)
    b = random_cochain(C, 0, seed=14)
    c = exact_shift(zero_cochain(C, 1), b)
    assert validate(c)
    for seed in (0, 1, 2):
        rho = random_index_map(C, seed=seed)
        assert holonomy(c, rho).raw == pytest.approx(
            naive_holonomy(c, rho), abs=1e-12
        )


def test_holonomy_matches_naive_enumeration_exact(torus2_4chart):
    C = torus2_4chart.covered
    b = random_cochain(C, 1, seed=3, exact=True)
    c = exact_shift(zero_cochain(C, 2, exact=True), b)
    assert validate(c)
    rho = random_index_map(C, seed=8)
    h = holonomy(c, rho)
    assert h.raw == naive_holonomy(c, rho)
    assert isinstance(h.raw, Fraction)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rho_independence_on_gauge_orbit(seed):
    C = star_cover(CIRCLE)
    b = random_cochain(C, 0, seed=seed, exact=True)
    c = exact_shift(zero_cochain(C, 1, exact=True), b)
    assert validate(c)
    angles = {
        holonomy(c, random_index_map(C, seed=s)).angle for s in (1, 2, 3)
    }
    angles.add(holonomy(c, default_index_map(C)).angle)
    assert len(angles) == 1


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_gauge_invariance_exact(seed_c, seed_b):
    C = star_cover(CIRCLE)
    base = exact_shift(
        zero_cochain(C, 1, exact=True), random_cochain(C, 0, seed=seed_c, exact=True)
    )
    shift = random_cochain(C, 0, seed=seed_b + 10**7, exact=True)
    moved = exact_shift(base, shift)
    assert validate(base) and validate(moved)
    rho = random_index_map(C, seed=5)
    assert holonomy(base, rho).angle == holonomy(moved, rho).angle


def test_levels_decompose_raw():
    C = star_cover(CIRCLE)
    b = random_cochain(C, 0, seed=44)
    c = exact_shift(zero_cochain(C, 1), b)
    validate(c)
    h = holonomy(c, random_index_map(C, seed=2))
    assert sum(lv.value for lv in h.levels) == pytest.approx(h.raw)
    assert sum(lv.flags for lv in h.levels) == h.flag_count
    assert [lv.codim for lv in h.levels] == [0, 1]


# -- curvature -----------------------------------------------------------------


def test_curvature_of_gauge_orbit_vanishes():
    C = star_cover(TET_SPHERE)
    b = random_cochain(C, 0, seed=12, exact=True)
    c = exact_shift(zero_cochain(C, 1, exact=True), b)
    cv = curvature_total(c, default_index_map(C))
    assert cv.total == 0
    assert cv.multiple == 0 and cv.residual == 0
    assert all(v == 0 for v in cv.per_simplex.values())


def test_curvature_dimension_and_closedness_checks():
    C = star_cover(TET_SPHERE)
    with pytest.raises(HolonomyError):
        curvature_total(zero_cochain(C, 2), default_index_map(C))
    path = star_cover(build_complex([(0, 1), (1, 2)]))
    with pytest.raises(HolonomyError):
        curvature_total(zero_cochain(path, 0), default_index_map(path))


def test_curvature_detects_chart_dependence():
    cov = attach_cover(TET_SPHERE, 2, {t: (0, 1) for t in TET_SPHERE.tops})
    c = build_cochain(cov, 1, [(1, (0,), (1, 2), 1.0)])
    with pytest.raises(HolonomyError):
        curvature_total(c, default_index_map(cov))


def test_curvature_chart_spread_is_a_tolerance_error():
    cov = attach_cover(TET_SPHERE, 2, {t: (0, 1) for t in TET_SPHERE.tops})
    c = build_cochain(cov, 1, [(1, (0,), (1, 2), 1e-6), (1, (0,), (2, 3), 1e-6)])
    with pytest.raises(ToleranceError, match="spread 2e-06"):
        curvature_total(c, default_index_map(cov), tol=1.5e-6)
    assert curvature_total(c, default_index_map(cov), tol=3e-6).total == 0


def test_curvature_per_simplex_signs():
    # one-chart sphere: total curvature telescopes to zero but the
    # per-top values follow the stored orientations
    cov = attach_cover(TET_SPHERE, 1, {t: (0,) for t in TET_SPHERE.tops})
    c = build_cochain(cov, 1, [(1, (0,), (1, 2), 1.0)])
    cv = curvature_total(c, default_index_map(cov))
    assert cv.total == pytest.approx(0.0)
    nonzero = {t: v for t, v in cv.per_simplex.items() if v != 0}
    assert set(nonzero) == {(1, 2, 3), (0, 1, 2)}
