"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` and
in the captured output of any failure).  The whole module is meant to run
in well under a minute.
"""

import json
from fractions import Fraction

import pytest

from deligne import (
    IndexMap,
    build_complex,
    build_cochain,
    chern_cocycle,
    cup_product,
    curvature_total,
    default_index_map,
    discretize,
    disjoint_union_cochains,
    exact_shift,
    flat_circle,
    get_geometry,
    glue_cochains,
    holonomy,
    local_action,
    monopole,
    random_cochain,
    random_index_map,
    restrict_cochain,
    restrict_cover,
    restrict_cover_to_boundary,
    reverse_cochain,
    star_cover,
    subdivide_geometry,
    torsion_class,
    torus2_axis_loop,
    transgress_p3_triple,
    transition_boundary,
    transition_general,
    transition_p2_boundary,
    validate_cocycle,
    winding_function,
    zero_class,
    zero_cochain,
)
from deligne._scalars import TWO_PI, wrap_distance
from deligne.cli import main as cli_main
from deligne.simplicial import boundary_restrict

from oracles import triple_cup_cochain


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {status}  {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def _orbit(cover, degree, seed):
    """Random exact cocycle: a gauge shift of the (validated) zero class."""
    z = zero_cochain(cover, degree, exact=True)
    validate_cocycle(z)
    return exact_shift(z, random_cochain(cover, degree - 1, seed, exact=True, denominator=8))


def _loop_holonomy(c, loop):
    sub = restrict_cover(c.base, loop)
    return holonomy(restrict_cochain(c, sub), default_index_map(sub)).angle


# -- 1. index-map independence -------------------------------------------------------


def test_criterion_01_index_map_independence():
    worst = 0.0
    for geom_name, degree in [
        ("circle-3arc", 1),
        ("torus2-4chart", 2),
        ("torus3-8chart", 3),
    ]:
        geom = get_geometry(geom_name)
        c = discretize(torsion_class(geom, 5, 2, degree), exact=True)
        assert validate_cocycle(c).passed
        angles = {
            holonomy(c, random_index_map(geom.covered, seed)).angle
            for seed in range(100)
        }
        assert len(angles) == 1, f"{geom_name}: rational holonomy moved with rho"

    geom = get_geometry("circle-3arc")
    cf = discretize(flat_circle(geom, 0.9), quad_order=8)
    assert validate_cocycle(cf).passed
    base = holonomy(cf, default_index_map(geom.covered)).angle
    for seed in range(100):
        delta = wrap_distance(
            holonomy(cf, random_index_map(geom.covered, seed)).angle, base, False
        )
        worst = max(worst, float(delta))
    _report(
        1,
        "holonomy independent of the index map (p=1,2,3; 50 random pairs each)",
        worst <= 1e-9,
        f"float worst {worst:.2e}, rational exact",
    )


# -- 2. triangulation independence ---------------------------------------------------


def test_criterion_02_triangulation_independence():
    # Two properties, reported apart so that a failure names the one that
    # broke: the coarse and subdivided holonomies agree, and the torus
    # triple cup gives its expected value offset * w1 * w2 = 3/7 turn.
    value_gap = 0.0

    def validated_holonomy(geom, pres):
        c = discretize(pres, quad_order=8)
        assert validate_cocycle(c, tol=1e-7).passed
        return holonomy(c, default_index_map(geom.covered)).angle

    coarse = get_geometry("circle-2arc")
    fine = subdivide_geometry(coarse)
    a = validated_holonomy(coarse, flat_circle(coarse, 0.9))
    b = validated_holonomy(fine, flat_circle(fine, 0.9))
    subdivision_gap = float(wrap_distance(a, b, False))

    t2 = get_geometry("torus2-4chart")
    t2fine = subdivide_geometry(t2)
    angles = []
    for geom in (t2, t2fine):
        f = winding_function(geom, 1, coord=0)
        h = winding_function(geom, 1, coord=1)
        const = winding_function(geom, 0, offset=3.0 / 7.0)
        angles.append(
            validated_holonomy(geom, cup_product(cup_product(f, h), const))
        )
        value_gap = max(
            value_gap,
            float(wrap_distance(angles[-1], TWO_PI * 3.0 / 7.0, False)),
        )
    subdivision_gap = max(
        subdivision_gap, float(wrap_distance(angles[0], angles[1], False))
    )

    def verdict(gap):
        return f"{gap:.2e} ({'ok' if gap <= 1e-6 else 'over 1e-06'})"

    _report(
        2,
        "holonomy stable under one barycentric subdivision and equal to "
        "its expected value (quad_order 8)",
        subdivision_gap <= 1e-6 and value_gap <= 1e-6,
        f"coarse-to-fine gap {verdict(subdivision_gap)}, "
        f"gap to 2pi*3/7 {verdict(value_gap)}",
    )


# -- 3. boundary route equals the general route ---------------------------------------


def test_criterion_03_transition_routes_agree():
    trials = 0
    ann = star_cover(get_geometry("annulus").covered.complex)
    for seed in range(70):
        c = _orbit(ann, 2, seed)
        r0 = random_index_map(ann, 1000 + seed)
        r1 = random_index_map(ann, 2000 + seed)
        g = transition_general(c, r0, r1)
        b = transition_boundary(c, r0, r1)
        assert g.raw == b.raw, f"annulus seed {seed}: routes disagree"
        assert b.interior_sum == 0
        trials += 1

    st = star_cover(get_geometry("solid-torus").covered.complex)
    for seed in range(30):
        c = _orbit(st, 3, seed)
        r0 = random_index_map(st, 3000 + seed)
        r1 = random_index_map(st, 4000 + seed)
        g = transition_general(c, r0, r1)
        b = transition_boundary(c, r0, r1)
        assert g.raw == b.raw, f"solid-torus seed {seed}: routes disagree"
        assert b.interior_sum == 0
        trials += 1
    _report(
        3,
        "transition_general == transition_boundary (annulus p=2, solid torus p=3)",
        trials == 100,
        f"{trials} random cocycles, raw equality in rational mode",
    )


# -- 4. interior cancellation and boundary locality ------------------------------------


def test_criterion_04_boundary_formulas_and_locality():
    ann = star_cover(get_geometry("annulus").covered.complex)
    c = _orbit(ann, 2, seed=5)
    r0 = random_index_map(ann, 41)
    r1 = random_index_map(ann, 42)
    special = transition_p2_boundary(c, r0, r1, tol=1e-9)
    general = transition_general(c, r0, r1)
    assert special.raw == general.raw

    # Interior-only perturbations: pin every boundary simplex, rerandomize
    # the rest.  G must not move at all.
    bdry = boundary_restrict(ann.complex)
    pins = {s: r1(s) for _, s in bdry.all_simplices()}
    base = general.raw
    for seed in range(20):
        r1p = random_index_map(ann, 7000 + seed, frozen=pins)
        moved = transition_general(c, r0, r1p).raw
        assert moved == base, f"interior perturbation {seed} moved G"

    st = star_cover(get_geometry("solid-torus").covered.complex)
    c3 = _orbit(st, 3, seed=6)
    triple = transgress_p3_triple(
        c3,
        random_index_map(st, 51),
        random_index_map(st, 52),
        random_index_map(st, 53),
    )
    assert triple.display_agreement == 0
    _report(
        4,
        "boundary-only formulas match; interior rho perturbations leave G fixed",
        True,
        "p2 formula exact, 20 perturbations, p3 display words exact",
    )


# -- 5. gauge invariance ----------------------------------------------------------------


def test_criterion_05_gauge_invariance():
    trials = 0
    plan = [
        ("circle-3arc", 1, 40),
        ("torus2-4chart", 2, 40),
        ("torus3-8chart", 3, 20),
    ]
    for geom_name, degree, count in plan:
        geom = get_geometry(geom_name)
        c = discretize(torsion_class(geom, 5, 2, degree), exact=True)
        assert validate_cocycle(c).passed
        rho = default_index_map(geom.covered)
        base = holonomy(c, rho).angle
        for seed in range(count):
            b = random_cochain(
                geom.covered, degree - 1, seed, exact=True, denominator=8
            )
            shifted = exact_shift(c, b)
            assert holonomy(shifted, rho).angle == base, (
                f"{geom_name} seed {seed}: gauge shift moved the holonomy"
            )
            # vary c as well: shift twice, compare against once
            c2 = exact_shift(shifted, random_cochain(
                geom.covered, degree - 1, 900 + seed, exact=True, denominator=8
            ))
            assert holonomy(c2, rho).angle == base
            trials += 1
    _report(
        5,
        "holonomy invariant under exact_shift gauge moves",
        trials == 100,
        f"{trials} random (c, b) pairs, exact equality",
    )


# -- 6. gluing, disjoint union, orientation reversal --------------------------------------


def test_criterion_06_gluing_additivity():
    geom = get_geometry("circle-3arc")
    C = geom.covered
    rho = default_index_map(C)

    def check(exact):
        pres = torsion_class(geom, 5, 2, 1)
        c = discretize(pres, exact=True) if exact else discretize(pres, quad_order=8)
        assert validate_cocycle(c).passed
        whole = holonomy(c, rho)

        # cut along two vertices, keeping the parent orientations
        K1 = build_complex([(0, 1), (1, 2)])
        K2 = build_complex([(2, 0)])
        C1, C2 = restrict_cover(C, K1), restrict_cover(C, K2)
        c1, c2 = restrict_cochain(c, C1), restrict_cochain(c, C2)
        r1, r2 = IndexMap(C1, rho.assignment), IndexMap(C2, rho.assignment)
        pieces = local_action(c1, r1).raw + local_action(c2, r2).raw
        gap = abs(float(pieces - whole.raw))
        assert gap <= 1e-9, f"piece actions missed the holonomy by {gap}"
        if exact:
            assert pieces == whole.raw

        glued, _ = glue_cochains(c1, c2, {0: 0, 2: 2})
        assert glued.base.complex.closed
        rg = IndexMap(glued.base, rho.assignment)
        regained = holonomy(glued, rg).raw
        assert abs(float(regained - whole.raw)) <= 1e-9
        return whole

    check(exact=False)
    whole = check(exact=True)

    c = discretize(torsion_class(geom, 5, 2, 1), exact=True)
    validate_cocycle(c)
    union, _ = disjoint_union_cochains(c, c)
    u = holonomy(union, default_index_map(union.base))
    direct = holonomy(c, default_index_map(c.base))
    assert u.raw == 2 * direct.raw, "disjoint union is not exactly additive"

    rev = reverse_cochain(c)
    assert holonomy(rev, default_index_map(rev.base)).raw == -direct.raw
    _report(
        6,
        "glued action adds; disjoint union adds exactly; reversal negates",
        True,
        f"circle holonomy {whole.angle} turns recovered after cut+reglue",
    )


# -- 7. integrality of the monopole charge --------------------------------------------------


def test_criterion_07_monopole_integrality():
    geom = get_geometry("sphere-octahedron-2chart")
    rho = default_index_map(geom.covered)
    worst = 0.0
    for k in (-2, -1, 0, 1, 2):
        c = discretize(monopole(geom, k), quad_order=8)
        assert validate_cocycle(c).passed
        cv = curvature_total(c, rho)
        worst = max(worst, abs(cv.total / TWO_PI - k))
        assert cv.multiple == k

        ce = discretize(monopole(geom, k), exact=True)
        assert validate_cocycle(ce).passed
        n = chern_cocycle(ce)
        pairing = _pair_with_fundamental_class(n, geom.covered.complex, rho)
        assert pairing == k, f"chern pairing {pairing} != charge {k}"
    _report(
        7,
        "monopole curvature/2pi equals the chern pairing integer for |k| <= 2",
        worst <= 1e-6,
        f"float curvature worst |error| {worst:.2e}",
    )


def _pair_with_fundamental_class(n, K, rho):
    """Evaluate an integer vertex cocycle against the oriented sum of tops."""
    from oracles import ascending_pairing

    return ascending_pairing(lambda v, word: n.value(v, word), K, rho)


# -- 8. cup products ---------------------------------------------------------------------


def test_criterion_08_cup_products():
    geom = get_geometry("torus2-4chart")
    f = winding_function(geom, 1, coord=0, exact=True)
    h = winding_function(geom, 1, coord=1, exact=True)
    fh = discretize(cup_product(f, h), exact=True)
    hf = discretize(cup_product(h, f), exact=True)
    assert validate_cocycle(fh).passed and validate_cocycle(hf).passed

    worst_anti = 0.0
    loops = [(0, 1), (0, 3), (1, 1), (1, 3)]
    for axis, at in loops:
        loop = torus2_axis_loop(axis, at)
        a = _loop_holonomy(fh, loop)
        b = _loop_holonomy(hf, loop)
        assert (a + b) % 1 == 0, f"loop {(axis, at)}: {a} + {b} not integral"
        worst_anti = max(worst_anti, float(wrap_distance(a, -b, True)))

    const = winding_function(geom, 0, offset="3/7", exact=True)
    triple = discretize(cup_product(cup_product(f, h), const), exact=True)
    assert validate_cocycle(triple).passed
    surf = holonomy(triple, default_index_map(geom.covered)).angle
    assert surf == Fraction(3, 7), f"surface holonomy {surf} != 3/7"

    displayed = triple_cup_cochain(geom.covered, geom, 1, 1, Fraction(3, 7))
    oracle = build_cochain(geom.covered, 2, displayed, exact=True)
    assert validate_cocycle(oracle).passed
    gap = float(
        wrap_distance(
            holonomy(oracle, default_index_map(geom.covered)).angle, surf, True
        )
    )
    _report(
        8,
        "cup anticommutativity on four loops; c*w1*w2 surface law; triple formula",
        worst_anti <= 1e-6 and gap <= 1e-6,
        f"anti worst {worst_anti:.2e}, association vs displayed {gap:.2e}",
    )


# -- 9. validation throughput and corruption localization -----------------------------------


def test_criterion_09_fixture_validation_and_localization():
    fixtures = []
    circle2 = get_geometry("circle-2arc")
    circle3 = get_geometry("circle-3arc")
    torus2 = get_geometry("torus2-4chart")
    torus3 = get_geometry("torus3-8chart")
    sphere = get_geometry("sphere-octahedron-2chart")

    fixtures.append(("flat_circle", discretize(flat_circle(circle2, 0.9), quad_order=8)))
    fixtures.append(
        ("winding_function", discretize(winding_function(circle3, 2), quad_order=8))
    )
    fixtures.append(("monopole", discretize(monopole(sphere, 2), quad_order=8)))
    for degree, geom in [(1, circle3), (2, torus2), (3, torus3)]:
        fixtures.append(
            (
                f"torsion p{degree}",
                discretize(torsion_class(geom, 5, 2, degree), exact=True),
            )
        )
    fixtures.append(("zero", discretize(zero_class(circle2, 1), exact=True)))
    f = winding_function(torus2, 1, coord=0, exact=True)
    h = winding_function(torus2, 1, coord=1, exact=True)
    fixtures.append(("cup f.h", discretize(cup_product(f, h), exact=True)))

    worst = 0.0
    for name, c in fixtures:
        report = validate_cocycle(c, tol=1e-9)
        assert report.passed, f"fixture {name} fails validation"
        if not c.exact:
            worst = max(worst, max((float(v) for v in report.worst.values()), default=0.0))

    # corruption is pinned to the exact perturbed entry
    cover = star_cover(torus2.covered.complex)
    clean = _orbit(cover, 2, seed=23)
    k0, s0, J0, v0 = next(
        (k, s, J, v) for k, s, J, v in clean.entries() if k == 1
    )
    entries = [
        (k, J, s, v)
        for k, s, J, v in clean.entries()
        if (k, s, J) != (k0, s0, J0)
    ]
    entries.append((k0, J0, s0, v0 + Fraction(1, 8)))
    corrupt = build_cochain(cover, 2, entries, exact=True)
    report = validate_cocycle(corrupt)
    assert not report.passed
    assert report.failing, "corruption produced no failing conditions"
    for fail in report.failing:
        assert set(s0) <= set(fail.simplex), "failure escaped the perturbed simplex"
        assert set(J0) <= set(fail.indices), "failure escaped the perturbed charts"
    _report(
        9,
        "all shipped fixtures validate; corruption localizes to the edited entry",
        worst <= 1e-9,
        f"float worst residual {worst:.2e}, {len(report.failing)} failing conditions pinned",
    )


# -- 10. deterministic reports ----------------------------------------------------------------


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    from deligne import save_cochain, save_complex, save_cover

    K = get_geometry("torus2-4chart").covered.complex
    C = star_cover(K)
    c = _orbit(C, 2, seed=2)
    paths = [
        str(tmp_path / "k.json"),
        str(tmp_path / "c.json"),
        str(tmp_path / "x.json"),
    ]
    save_complex(K, paths[0])
    save_cover(C, paths[1])
    save_cochain(c, paths[2])

    outputs = []
    for _ in range(2):
        code = cli_main(
            ["holonomy", *paths, "--index-map", "random", "--seed", "7"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1], "holonomy report changed between runs"

    fixture_runs = []
    for _ in range(2):
        code = cli_main(
            [
                "fixture",
                "torsion",
                "--params",
                "q=5,w=2,degree=2",
                "--arithmetic",
                "rational",
            ]
        )
        assert code == 0
        fixture_runs.append(capsys.readouterr().out)
    assert fixture_runs[0] == fixture_runs[1], "fixture report changed between runs"
    json.loads(outputs[0])
    _report(
        10,
        "fixed seeds give byte-identical reports",
        True,
        f"{len(outputs[0])} byte report stable",
    )
