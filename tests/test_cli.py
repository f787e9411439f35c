"""Command-line surface: exit codes, report schema, byte determinism."""

import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import deligne
from deligne import (
    attach_cover,
    build_cochain,
    build_complex,
    default_index_map,
    exact_shift,
    get_geometry,
    load_complex,
    load_cover,
    random_cochain,
    save_cochain,
    save_complex,
    save_cover,
    save_index_map,
    star_cover,
    zero_cochain,
)
from deligne._scalars import TWO_PI
from deligne.cli import _FIXTURES, main
from deligne.io import dumps_canonical, read_json, write_canonical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def save_fixture(capsys, tmp_path, *argv):
    """Run a fixture command with --output and return the triple of paths."""
    prefix = str(tmp_path / "fx")
    code, out, _ = run(capsys, *argv, "--output", prefix)
    assert code == 0, out
    return (
        f"{prefix}.complex.json",
        f"{prefix}.cover.json",
        f"{prefix}.cochain.json",
    )


def save_orbit(tmp_path, geometry_name, degree, seed, stem):
    """Write an exact gauge-orbit cocycle over a geometry's complex."""
    K = get_geometry(geometry_name).covered.complex
    C = star_cover(K)
    c = exact_shift(
        zero_cochain(C, degree, exact=True),
        random_cochain(C, degree - 1, seed, exact=True),
    )
    paths = (
        str(tmp_path / f"{stem}.complex.json"),
        str(tmp_path / f"{stem}.cover.json"),
        str(tmp_path / f"{stem}.cochain.json"),
    )
    save_complex(K, paths[0])
    save_cover(C, paths[1])
    save_cochain(c, paths[2])
    return paths


# -- fixture and holonomy pipeline ---------------------------------------------------


def test_fixture_flat_circle_reports_validation(capsys):
    code, doc, _ = run_json(capsys, "fixture", "flat_circle", "--params", "theta=1.0")
    assert code == 0
    assert doc["command"] == "fixture"
    assert doc["fixture"]["degree"] == 1
    assert doc["fixture"]["geometry"] == "circle-2arc"
    assert doc["validation"]["passed"] is True


def test_flat_circle_holonomy_pipeline(capsys, tmp_path):
    paths = save_fixture(
        capsys, tmp_path, "fixture", "flat_circle", "--params", "theta=1.0"
    )
    code, doc, _ = run_json(capsys, "holonomy", *paths)
    assert code == 0
    assert doc["holonomy"]["units"] == "radians"
    assert abs(doc["holonomy"]["angle"] - 1.0) < 1e-12


def test_flat_circle_rational_holonomy_in_turns(capsys, tmp_path):
    paths = save_fixture(
        capsys,
        tmp_path,
        "fixture",
        "flat_circle",
        "--params",
        "theta=1/3",
        "--arithmetic",
        "rational",
    )
    code, doc, _ = run_json(capsys, "holonomy", *paths)
    assert code == 0
    assert doc["holonomy"]["units"] == "turns"
    assert doc["holonomy"]["angle"] == "1/3"


def test_fixture_request_file_with_param_override(capsys, tmp_path):
    req = tmp_path / "req.json"
    write_canonical(str(req), {"fixture": "flat_circle", "params": {"theta": 0.25}})
    code, doc, _ = run_json(capsys, "fixture", "--request", str(req))
    assert code == 0 and doc["fixture"]["degree"] == 1

    code, doc, _ = run_json(
        capsys, "fixture", "--request", str(req), "--params", "theta=0.5"
    )
    assert code == 0


def test_fraction_parameters_accepted_in_float_mode(capsys, tmp_path):
    """An "n/d" parameter works under float arithmetic as under rational;
    the offset is in turns, so the float logs are 2*pi times the rational."""
    logs = {}
    for arithmetic in ("float", "rational"):
        paths = save_fixture(
            capsys,
            tmp_path,
            "fixture",
            "winding_function",
            "--params",
            "w=0,offset=3/7",
            "--arithmetic",
            arithmetic,
        )
        logs[arithmetic] = read_json(paths[2])["entries"]
    assert len(logs["float"]) == len(logs["rational"]) > 0
    for f, r in zip(logs["float"], logs["rational"]):
        assert r["value"] == "3/7"
        assert abs(f["value"] - TWO_PI * float(Fraction(r["value"]))) <= 1e-12
    code, _, _ = run(capsys, "fixture", "flat_circle", "--params", "theta=1/3")
    assert code == 0
    code, _, err = run(capsys, "fixture", "flat_circle", "--params", "theta=1/0")
    assert code == 1 and err.startswith("deligne:")


def test_fixture_rational_refuses_float_parameter(capsys):
    code, _, err = run(
        capsys,
        "fixture",
        "flat_circle",
        "--params",
        "theta=1.0",
        "--arithmetic",
        "rational",
    )
    assert code == 1
    assert err.strip()


def test_rational_cochain_value_in_exponent_form_exits_1(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="exp")
    doc = read_json(paths[2])
    assert doc["arithmetic"] == "rational"
    doc["entries"][0]["value"] = "1e5"
    write_canonical(paths[2], doc)
    code, out, err = run(capsys, "holonomy", *paths)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "'n/d'" in err


@pytest.mark.parametrize(
    "fixture, params",
    [("flat_circle", {"theta": "1e5"}), ("winding_function", {"w": 1, "offset": "1e5"})],
)
def test_rational_request_parameter_in_exponent_form_exits_1(
    capsys, tmp_path, fixture, params
):
    req = str(tmp_path / "req.json")
    write_canonical(req, {"fixture": fixture, "params": params})
    code, out, err = run(capsys, "fixture", "--request", req, "--arithmetic", "rational")
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "'n/d'" in err


def test_cochain_value_with_zero_denominator_exits_1(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="zero")
    doc = read_json(paths[2])
    doc["entries"][0]["value"] = "1/0"
    write_canonical(paths[2], doc)
    code, out, err = run(capsys, "holonomy", *paths)
    assert code == 1 and out == ""
    assert err == "deligne: rational values must be 'n/d' strings\n"


@pytest.mark.parametrize("arithmetic", ["rational", "float"])
def test_request_parameter_with_zero_denominator_exits_1(capsys, tmp_path, arithmetic):
    req = str(tmp_path / "req.json")
    write_canonical(req, {"fixture": "flat_circle", "params": {"theta": "1/0"}})
    code, out, err = run(capsys, "fixture", "--request", req, "--arithmetic", arithmetic)
    assert code == 1 and out == ""
    assert err == "deligne: rational values must be written as 'n/d' strings\n"


@pytest.mark.parametrize("theta", ["1/0", "-3/00"])
def test_params_value_with_zero_denominator_exits_1(capsys, theta):
    code, out, err = run(capsys, "fixture", "flat_circle", "--params", f"theta={theta}")
    assert code == 1 and out == ""
    assert err == f"deligne: cannot parse parameter value {theta!r}\n"


def test_fixture_parameter_too_large_for_a_float_exits_1(capsys):
    theta = "1" + "0" * 400 + "/1"
    code, out, err = run(capsys, "fixture", "flat_circle", "--params", f"theta={theta}")
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "too large" in err


def test_monopole_rational_curvature_round_trip(capsys, tmp_path):
    paths = save_fixture(
        capsys,
        tmp_path,
        "fixture",
        "monopole",
        "--params",
        "k=2",
        "--arithmetic",
        "rational",
    )
    code, doc, _ = run_json(capsys, "curvature", *paths)
    assert code == 0
    assert doc["curvature"]["total"] == "2/1"
    assert doc["curvature"]["multiple"] == 2
    assert doc["curvature"]["units"] == "turns"


def test_shift_preserves_curvature(capsys, tmp_path):
    paths = save_fixture(
        capsys,
        tmp_path,
        "fixture",
        "monopole",
        "--params",
        "k=-1",
        "--arithmetic",
        "rational",
    )
    K = get_geometry("sphere-octahedron-2chart").covered.complex
    C = star_cover(K)
    # The saved cover is the geometry's own, not the star cover; rebuild b on it.
    from deligne import load_complex, load_cover

    K = load_complex(paths[0])
    C = load_cover(paths[1], K)
    b = random_cochain(C, 0, seed=21, exact=True, denominator=8)
    bpath = str(tmp_path / "b.json")
    save_cochain(b, bpath)
    out = str(tmp_path / "shifted.json")
    code, doc, _ = run_json(capsys, "shift", *paths, bpath, "--output", out)
    assert code == 0 and doc["files"] == [out]

    code, doc, _ = run_json(capsys, "curvature", paths[0], paths[1], out)
    assert code == 0
    assert doc["curvature"]["total"] == "-1/1"


# -- validation exit codes -------------------------------------------------------------


def test_validate_passes_on_fixture(capsys, tmp_path):
    paths = save_fixture(
        capsys, tmp_path, "fixture", "winding_function", "--params", "w=2"
    )
    code, doc, _ = run_json(capsys, "validate", *paths)
    assert code == 0
    assert doc["validation"]["passed"] is True
    assert doc["validation"]["failing"] == []


def test_validate_corrupted_cochain_localizes(capsys, tmp_path):
    paths = save_orbit(tmp_path, "torus2-4chart", 2, seed=17, stem="orb")
    code, report, _ = run_json(capsys, "validate", *paths)
    assert code == 0 and report["validation"]["passed"] is True

    doc = read_json(paths[2])
    victim = next(e for e in doc["entries"] if e["k"] == 1)
    victim["value"] = "9/8"
    write_canonical(paths[2], doc)

    code, report, _ = run_json(capsys, "validate", *paths)
    assert code == 2
    v = report["validation"]
    assert v["passed"] is False
    assert v["failing_total"] >= 1
    assert all({"level", "simplex", "indices", "residual"} <= set(f) for f in v["failing"])
    assert any(f["residual"] != "0/1" for f in v["failing"])


def test_holonomy_refuses_invalid_cochain(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=4, stem="junk")
    doc = read_json(paths[2])
    doc["entries"][0]["value"] = "9/7"
    write_canonical(paths[2], doc)
    code, report, _ = run_json(capsys, "holonomy", *paths)
    assert code == 2
    assert report["error"] == "cocycle conditions fail"
    assert "holonomy" not in report


# -- transgression --------------------------------------------------------------------


def test_transgress_routes_agree_on_annulus(capsys, tmp_path):
    paths = save_orbit(tmp_path, "annulus", 2, seed=6, stem="ann")
    code, doc, _ = run_json(
        capsys,
        "transgress",
        *paths,
        "--rho1",
        "random",
        "--seed",
        "3",
        "--boundary-formula",
    )
    assert code == 0
    assert doc["agreement_residual"] == "0/1"
    assert doc["general"]["route"] == "general"
    assert doc["boundary"]["route"] == "boundary"
    assert doc["boundary"]["interior_sum"] == "0/1"
    assert doc["boundary_formula"]["route"] == "p2-boundary"
    assert doc["general"]["raw"] == doc["boundary"]["raw"]


def test_transgress_triple_on_solid_torus(capsys, tmp_path):
    paths = save_orbit(tmp_path, "solid-torus", 3, seed=8, stem="st")
    code, doc, _ = run_json(
        capsys,
        "transgress",
        *paths,
        "--rho1",
        "random",
        "--rho2",
        "random",
        "--seed",
        "5",
    )
    assert code == 0
    t = doc["triple"]
    assert t["telescoped"] == "0/1"
    assert t["integer_residual"] == "0/1"
    assert t["display_agreement"] == "0/1"
    assert t["units"] == "turns"
    assert isinstance(t["integer_witness"], int)


def test_triple_transgression_needs_boundary(capsys, tmp_path):
    # Boundary of the 4-simplex: smallest closed oriented 3-pseudomanifold.
    K = build_complex(
        [(1, 2, 3, 4), (0, 2, 4, 3), (0, 1, 3, 4), (0, 1, 4, 2), (0, 1, 2, 3)]
    )
    C = star_cover(K)
    paths = (
        str(tmp_path / "s4.complex.json"),
        str(tmp_path / "s4.cover.json"),
        str(tmp_path / "s4.cochain.json"),
    )
    save_complex(K, paths[0])
    save_cover(C, paths[1])
    save_cochain(zero_cochain(C, 3, exact=True), paths[2])
    code, doc, err = run_json(
        capsys,
        "transgress",
        *paths,
        "--rho1",
        "random",
        "--rho2",
        "random",
        "--seed",
        "2",
    )
    assert code == 1 and doc is None
    assert err.startswith("deligne:") and "nonempty boundary" in err


def test_triple_transgression_refuses_degree_2_as_bad_input(capsys, tmp_path):
    paths = save_orbit(tmp_path, "annulus", 2, seed=6, stem="ann")
    code, out, err = run(
        capsys, "transgress", *paths, "--rho1", "random", "--rho2", "random", "--seed", "3"
    )
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "p = 3" in err


def test_boundary_formula_refuses_degree_3(capsys, tmp_path):
    paths = save_orbit(tmp_path, "solid-torus", 3, seed=8, stem="st")
    code, out, err = run(
        capsys, "transgress", *paths, "--rho1", "random", "--seed", "5", "--boundary-formula"
    )
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "--boundary-formula" in err


def test_boundary_formula_computes_each_route_once(capsys, tmp_path, monkeypatch):
    """``transgress --boundary-formula`` reuses the two routes it reports:
    one general and one boundary call, both from the CLI, so three walks
    of the face poset (two local actions and the mixed chain) and two
    precondition passes."""
    # deligne.holonomy is the function, so the modules come from sys.modules.
    cli, holonomy_module, transgression = (
        sys.modules[f"deligne.{name}"] for name in ("cli", "holonomy", "transgression")
    )
    calls = {}

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            key = f"{owner.__name__}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for module in (cli, transgression):
        count(module, "transition_general")
        count(module, "transition_boundary")
    count(holonomy_module, "_walk")
    count(transgression, "_walk")
    count(holonomy_module._FlagSums, "__init__")
    paths = save_orbit(tmp_path, "annulus", 2, seed=6, stem="ann")
    code, doc, _ = run_json(
        capsys, "transgress", *paths, "--rho1", "random", "--seed", "3", "--boundary-formula"
    )
    assert code == 0 and doc["boundary_formula"]["route"] == "p2-boundary"
    assert calls == {
        "deligne.cli.transition_general": 1,
        "deligne.cli.transition_boundary": 1,
        "deligne.holonomy._walk": 2,
        "deligne.transgression._walk": 1,
        "_FlagSums.__init__": 2,
    }


# -- cup products ----------------------------------------------------------------------


def test_cup_function_pair_on_circle(capsys):
    code, doc, _ = run_json(
        capsys,
        "cup",
        "--lhs",
        "winding_function:w=1",
        "--rhs",
        "winding_function:w=0,offset=3/7",
        "--geometry",
        "circle-3arc",
        "--arithmetic",
        "rational",
    )
    assert code == 0
    assert doc["cup"]["degree"] == 1
    assert doc["validation"]["passed"] is True


def test_cup_writes_artifact_files(capsys, tmp_path):
    prefix = str(tmp_path / "cup")
    code, doc, _ = run_json(
        capsys,
        "cup",
        "--lhs",
        "winding_function:w=1",
        "--rhs",
        "winding_function:w=1,coord=1",
        "--geometry",
        "torus2-4chart",
        "--arithmetic",
        "rational",
        "--output",
        prefix,
    )
    assert code == 0
    assert doc["cup"]["degree"] == 1
    assert len(doc["files"]) == 3
    # Files list is sorted by name: cochain, complex, cover.
    cochain_path, complex_path, cover_path = doc["files"]
    code, doc, _ = run_json(capsys, "validate", complex_path, cover_path, cochain_path)
    assert code == 0


def test_cup_rejects_unsupported_kind(capsys):
    code, _, err = run(
        capsys,
        "cup",
        "--lhs",
        "torsion:q=5",
        "--rhs",
        "winding_function:w=1",
        "--geometry",
        "circle-3arc",
    )
    assert code == 1
    assert err.strip()


# -- structural commands ----------------------------------------------------------------


def test_glue_two_intervals_into_circle(capsys, tmp_path):
    K = build_complex([(0, 1), (1, 2)])
    C = star_cover(K)
    c = zero_cochain(C, 1, exact=True)
    a = (
        str(tmp_path / "a.complex.json"),
        str(tmp_path / "a.cover.json"),
        str(tmp_path / "a.cochain.json"),
    )
    save_complex(K, a[0])
    save_cover(C, a[1])
    save_cochain(c, a[2])
    matching = str(tmp_path / "match.json")
    write_canonical(matching, {"0": 2, "2": 0})

    code, doc, _ = run_json(
        capsys, "glue", *a, *a, "--matching", matching, "--output", str(tmp_path / "g")
    )
    assert code == 0
    assert doc["glue"]["vertices"] == 4
    assert doc["glue"]["tops"] == 4
    assert doc["glue"]["seam_vertices"] == 2
    code, doc, _ = run_json(capsys, "validate", *doc["files"])
    assert code == 0


@pytest.mark.parametrize(
    "matching",
    [{"0": 2.0, "2": 0}, {"0": 2, "2": True}, {"0": 2, "2": 0, "02": 0}, {"0": 2, "+2": 0}],
)
def test_glue_refuses_non_canonical_matching(capsys, tmp_path, matching):
    K = build_complex([(0, 1), (1, 2)])
    C = star_cover(K)
    a = [str(tmp_path / f"a.{part}.json") for part in ("complex", "cover", "cochain")]
    save_complex(K, a[0])
    save_cover(C, a[1])
    save_cochain(zero_cochain(C, 1, exact=True), a[2])
    path = str(tmp_path / "match.json")
    write_canonical(path, matching)
    code, out, err = run(capsys, "glue", *a, *a, "--matching", path)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "match" in err


def test_cochain_entries_not_an_array_exits_1(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="ent")
    write_canonical(paths[2], {"degree": 1, "entries": 5})
    code, out, err = run(capsys, "validate", *paths)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "entries must be an array" in err


def test_subdivide_complex_file(capsys, tmp_path):
    src = str(tmp_path / "two.json")
    out = str(tmp_path / "fine.json")
    save_complex(build_complex([(0, 1, 2), (1, 3, 2)]), src)
    code, doc, _ = run_json(capsys, "subdivide", src, "--output", out)
    assert code == 0
    assert doc["subdivide"]["tops"] == 12
    code, doc, _ = run_json(capsys, "subdivide", out)
    assert code == 0
    assert doc["subdivide"]["tops"] == 72


def test_subdivide_geometry(capsys):
    base = get_geometry("circle-2arc").covered.complex
    code, doc, _ = run_json(capsys, "subdivide", "--geometry", "circle-2arc")
    assert code == 0
    assert doc["subdivide"]["tops"] == 2 * len(base.tops)


def test_subdivide_needs_an_argument(capsys):
    code, _, err = run(capsys, "subdivide")
    assert code == 1 and err.strip()


# -- usage errors ------------------------------------------------------------------------


def test_unknown_fixture_name(capsys):
    code, _, err = run(capsys, "fixture", "klein_bottle", "--params", "k=1")
    assert code == 1
    assert "unknown fixture" in err


def test_missing_required_parameter(capsys):
    code, _, err = run(capsys, "fixture", "monopole")
    assert code == 1
    assert "k=" in err


def test_unknown_extra_parameter(capsys):
    code, _, err = run(capsys, "fixture", "flat_circle", "--params", "theta=1.0,z=2")
    assert code == 1
    assert "unknown parameters" in err


def test_random_index_map_requires_seed(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=1, stem="c")
    code, _, err = run(capsys, "holonomy", *paths, "--index-map", "random")
    assert code == 1
    assert "--seed" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "validate", "no.json", "no.json", "no.json")
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "-1e-12", "tiny"])
def test_tolerance_must_be_finite_and_non_negative(capsys, tolerance):
    # The files do not exist: the tolerance is refused before any is read.
    argv = ["validate", "no.json", "no.json", "no.json", f"--tolerance={tolerance}"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert "--tolerance" in err and "no.json" not in err
    code, _, err = run(capsys, *argv[:-1], "--tolerance=0")
    assert code == 1 and "no.json" in err


def test_malformed_json_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad), str(bad), str(bad))
    assert code == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_float_input_exits_1(capsys, tmp_path, literal):
    paths = save_fixture(
        capsys, tmp_path, "fixture", "flat_circle", "--params", "theta=1.0"
    )
    doc = read_json(paths[2])
    doc["entries"][0]["value"] = "@"
    with open(paths[2], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc).replace('"@"', literal))
    for command in ("validate", "holonomy"):
        code, out, err = run(capsys, command, *paths)
        assert code == 1 and out == ""
        assert err.startswith("deligne:") and "Traceback" not in err


def test_float_sum_overflow_exits_1(capsys, tmp_path):
    K = build_complex([(0, 1), (1, 2), (2, 0)])
    C = star_cover(K)
    entries = [(1, (0,), (0, 1), 1e308), (1, (1,), (0, 1), -1e308)]
    c = build_cochain(C, 1, entries, exact=False)
    paths = [str(tmp_path / f"big.{part}.json") for part in ("complex", "cover", "cochain")]
    save_complex(K, paths[0])
    save_cover(C, paths[1])
    save_cochain(c, paths[2])
    for command in ("validate", "holonomy"):
        code, out, err = run(capsys, command, *paths)
        assert code == 1 and out == ""
        assert err.startswith("deligne:") and "overflow" in err
        assert "Traceback" not in err


def test_aliased_cover_key_exits_1(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="alias")
    doc = read_json(paths[1])
    doc["admissible_top"]["+0"] = doc["admissible_top"]["1"]
    write_canonical(paths[1], doc)
    code, out, err = run(capsys, "validate", *paths)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "'+0'" in err


def test_aliased_index_map_key_exits_1(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="alias")
    C = load_cover(paths[1], load_complex(paths[0]))
    rho_path = str(tmp_path / "rho.json")
    save_index_map(default_index_map(C), rho_path)
    doc = read_json(rho_path)
    doc["00/0"] = doc["0/0"]
    write_canonical(rho_path, doc)
    code, out, err = run(capsys, "holonomy", *paths, "--index-map", rho_path)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "'00/0'" in err


def _edit_doc(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return dumps_canonical(doc)

    return edit


# (file, edit of its canonical text, a word the error names); the files are
# complex, cover, cochain and index map of a circle-3arc gauge orbit.
HOSTILE_EDITS = {
    "duplicate-cover-key": (
        1,
        lambda text: text.replace('"admissible_top":{', '"admissible_top":{"0":[0],', 1),
        "duplicate object key '0'",
    ),
    "duplicate-entry-field": (
        2,
        lambda text: text.replace('"value":', '"value":"0/1","value":', 1),
        "duplicate object key 'value'",
    ),
    "bool-chart": (
        1,
        _edit_doc(lambda doc: doc["admissible_top"]["0"].append(True)),
        "must be an",
    ),
    "float-num-sets": (
        1, _edit_doc(lambda doc: doc.update(num_sets=doc["num_sets"] + 0.5)), "num_sets"
    ),
    "float-index-map-chart": (
        3, _edit_doc(lambda doc: doc.update({"0/0": float(doc["0/0"])})), "'0/0'"
    ),
    "bool-degree": (2, _edit_doc(lambda doc: doc.update(degree=True)), "degree"),
    "float-level": (
        2, _edit_doc(lambda doc: doc["entries"][0].update(k=0.0)), "entry level k"
    ),
    "huge-top": (
        0, _edit_doc(lambda doc: doc["top_simplices"].append(list(range(64)))), "64"
    ),
    "scalar-top": (
        0, _edit_doc(lambda doc: doc["top_simplices"].append(5)), "must be an array"
    ),
    "float-dim": (0, _edit_doc(lambda doc: doc.update(dim=float(doc["dim"]))), "dim"),
    **{
        f"deep-nesting-{artifact}": (which, lambda text: "[" * 100_000, "nested too deeply")
        for which, artifact in enumerate(("complex", "cover", "cochain", "index-map"))
    },
}


@pytest.mark.parametrize("case", sorted(HOSTILE_EDITS))
def test_hostile_artifact_exits_1(capsys, tmp_path, case):
    which, edit, named = HOSTILE_EDITS[case]
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="hostile")
    C = load_cover(paths[1], load_complex(paths[0]))
    rho_path = str(tmp_path / "rho.json")
    save_index_map(default_index_map(C), rho_path)
    path = [*paths, rho_path][which]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    code, out, err = run(capsys, "holonomy", *paths, "--index-map", rho_path)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and named in err


def test_unwritable_report_output_exits_1(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="out")
    code, _, err = run(capsys, "validate", *paths, "--output", str(tmp_path))
    assert code == 1
    assert err.startswith("deligne:")


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(deligne.__file__)))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import deligne.cli, sys; assert 'numpy' not in sys.modules",
        ],
        env=env,
        check=True,
        timeout=60,
    )


def _integer_parameters(build):
    """The constructor parameters annotated ``int``."""
    params = inspect.signature(build).parameters.values()
    return [p.name for p in params if p.annotation in (int, "int")]


@pytest.mark.parametrize("name", sorted(_FIXTURES))
def test_every_fixture_runs_and_refuses_fractional_integers(capsys, name):
    """Given only its required parameter, each registered fixture runs on
    its default geometry; any integer parameter given as 1.5 exits 1."""
    fx = _FIXTURES[name]
    code, doc, err = run_json(capsys, "fixture", name, "--params", f"{fx.required}=1")
    assert code == 0, err
    assert doc["fixture"]["geometry"] == fx.by_degree.get(None, fx.geometry)
    for param in _integer_parameters(fx.build):
        params = {fx.required: 1, param: 1.5}
        spec = ",".join(f"{k}={v}" for k, v in params.items())
        code, out, err = run(capsys, "fixture", name, "--params", spec)
        assert code == 1 and out == "", spec
        assert f"{param} must be an integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("winding_function", "--params", "w=1.5"),
        ("winding_function", "--params", "w=1,coord=0.5"),
        ("torsion", "--params", "q=5.9,degree=1.2"),
        ("torsion", "--params", "q=5,w=2.5"),
        ("monopole", "--params", "k=2.5"),
        ("zero", "--params", "degree=1.5"),
    ],
)
def test_fixture_refuses_non_integer_parameters(capsys, argv):
    code, out, err = run(capsys, "fixture", *argv)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and "must be an integer" in err


@pytest.mark.parametrize(
    "request_doc, named",
    [
        ({"fixture": "winding_function", "params": {"w": True}}, "w must be an integer"),
        ({"fixture": "winding_function", "params": {"w": 1, "coord": "0"}}, "coord"),
        ({"fixture": "torsion", "params": {"q": "5"}}, "q must be an integer"),
        ({"fixture": "zero", "params": {"degree": 1.0}}, "degree must be an integer"),
        ({"fixture": "torsion", "params": [5]}, "params must be an object"),
        ({"fixture": "torsion", "params": "q=5"}, "params must be an object"),
        ({"fixture": ["torsion"], "params": {"q": 5}}, "fixture must be a string"),
        ({"fixture": "torsion", "geometry": {"name": "annulus"}}, "geometry must be a string"),
        ({"fixture": "torsion", "params": {"q": 5, "degree": [2]}}, "degree must be an integer"),
    ],
)
def test_fixture_request_file_refuses_bad_params(capsys, tmp_path, request_doc, named):
    req = str(tmp_path / "req.json")
    write_canonical(req, request_doc)
    code, out, err = run(capsys, "fixture", "--request", req)
    assert code == 1 and out == ""
    assert err.startswith("deligne:") and named in err


def test_quad_order_is_gone(capsys):
    code, doc, _ = run_json(capsys, "fixture", "torsion", "--params", "q=5")
    assert code == 0 and sorted(doc["config"]) == ["arithmetic", "seed", "tolerance"]
    code, out, err = run(
        capsys, "fixture", "torsion", "--params", "q=5", "--quad-order", "8"
    )
    assert code == 1 and out == "" and "--quad-order" in err


def test_curvature_chart_spread_exits_2(capsys, tmp_path):
    K = build_complex([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])
    C = attach_cover(K, 2, {t: (0, 1) for t in K.tops})
    c = build_cochain(C, 1, [(1, (0,), (1, 2), 1e-6), (1, (0,), (2, 3), 1e-6)])
    paths = [str(tmp_path / f"sp.{part}.json") for part in ("complex", "cover", "cochain")]
    save_complex(K, paths[0])
    save_cover(C, paths[1])
    save_cochain(c, paths[2])
    code, doc, _ = run_json(capsys, "curvature", *paths, "--tolerance", "1.5e-6")
    assert code == 2
    assert doc["validation"]["passed"] is True and "curvature" not in doc
    assert "depends on the chart choice" in doc["error"]


def test_bad_parameter_syntax(capsys):
    code, _, err = run(capsys, "fixture", "flat_circle", "--params", "theta")
    assert code == 1
    assert "key=value" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err.strip()


# -- report determinism -------------------------------------------------------------------


def test_reports_byte_identical_across_runs(capsys, tmp_path):
    paths = save_orbit(tmp_path, "torus2-4chart", 2, seed=12, stem="det")
    argv = ("holonomy", *paths, "--index-map", "random", "--seed", "7")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert first.endswith("\n")


def test_fixture_report_deterministic(capsys):
    argv = ("fixture", "torsion", "--params", "q=5,w=2,degree=2", "--arithmetic", "rational")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_report_written_to_output_matches_stdout(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="rep")
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "validate", *paths, "--output", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_text_format_renders_flat_lines(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="txt")
    code, stdout, _ = run(capsys, "validate", *paths, "--format", "text")
    assert code == 0
    assert "passed: True" in stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(stdout)


def test_config_echoes(capsys, tmp_path):
    paths = save_orbit(tmp_path, "circle-3arc", 1, seed=2, stem="cfg")
    code, doc, _ = run_json(
        capsys, "validate", *paths, "--tolerance", "1e-7", "--seed", "9"
    )
    assert code == 0
    assert doc["config"]["tolerance"] == 1e-07
    assert doc["config"]["seed"] == 9
    assert doc["config"]["arithmetic"] in ("float", "rational")
