"""Canonical JSON artifacts: determinism, round-trips, schema rejection."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deligne import (
    DeligneCochain,
    SchemaError,
    build_complex,
    default_index_map,
    discretize,
    dumps_canonical,
    exact_shift,
    get_geometry,
    load_cochain,
    load_complex,
    load_cover,
    load_index_map,
    random_cochain,
    random_index_map,
    save_cochain,
    save_complex,
    save_cover,
    save_index_map,
    star_cover,
    torsion_class,
    winding_function,
    zero_cochain,
)
from deligne.errors import CochainError
from deligne.io import (
    cochain_from_json,
    complex_from_json,
    complex_to_json,
    cover_from_json,
    cover_to_json,
    dumps_cochain,
    index_map_from_json,
    index_map_to_json,
    matching_from_json,
    oriented_tuple,
    read_json,
    resolve_ref,
    scalar_from_json,
    scalar_to_json,
    write_canonical,
)

TWO_TRIS = build_complex([(0, 1, 2), (1, 3, 2)])
COVER = star_cover(TWO_TRIS)

# Tops deliberately entered with scrambled vertex orders so that some
# canonical orientations come out -1.
TET_SPHERE = build_complex([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])


# -- scalar and float formatting ---------------------------------------------------


def test_format_float_shortest_round_trip():
    for x, digits in [
        (0.1, "0.1"),
        (1.0 / 3.0, "0.3333333333333333"),
        (2.5, "2.5"),
        (-7.25, "-7.25"),
        (1e300, "1e+300"),
        (5e-324, "5e-324"),
        (1e16, "1e+16"),
        (1e-07, "1e-07"),
    ]:
        s = dumps_canonical([x])
        assert s == f"[{digits}]\n"
        assert json.loads(s)[0] == x


def test_format_float_normalizes_negative_zero():
    doc = {"a": {"b": -0.0}, "c": [-0.0]}
    assert dumps_canonical(doc) == '{"a":{"b":0.0},"c":[0.0]}\n'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_format_float_rejects_non_finite(bad):
    with pytest.raises(SchemaError):
        dumps_canonical({"x": {"y": bad}})


def test_scalar_to_json_fraction_is_string():
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_to_json(Fraction(-1, 3)) == "-1/3"
    assert scalar_to_json(Fraction(5)) == "5/1"


def test_scalar_to_json_float_stays_number():
    v = scalar_to_json(2.5)
    assert isinstance(v, float) and v == 2.5


def test_scalar_from_json_rational():
    assert scalar_from_json("3/4", exact=True) == Fraction(3, 4)
    assert scalar_from_json("-7/16", exact=True) == Fraction(-7, 16)


def test_scalar_from_json_rational_rejects_numbers():
    with pytest.raises(SchemaError):
        scalar_from_json(0.75, exact=True)


@pytest.mark.parametrize("bad", ["1e5", "1e10000000", "0.75", "3/4 ", "-", "1/0", "0/00"])
def test_scalar_from_json_rational_refuses_other_spellings(bad):
    with pytest.raises(SchemaError):
        scalar_from_json(bad, exact=True)


def test_scalar_from_json_float_accepts_ints():
    v = scalar_from_json(3, exact=False)
    assert isinstance(v, float) and v == 3.0


@pytest.mark.parametrize("bad", [True, False, "0.5", None])
def test_scalar_from_json_float_rejects_non_numbers(bad):
    with pytest.raises(SchemaError):
        scalar_from_json(bad, exact=False)


# -- canonical dumps ---------------------------------------------------------------


def test_dumps_sorted_keys_compact_trailing_newline():
    s = dumps_canonical({"b": 1, "a": [1, 2], "c": {"y": None, "x": True}})
    assert s == '{"a":[1,2],"b":1,"c":{"x":true,"y":null}}\n'


def test_dumps_fraction_becomes_quoted_string():
    assert dumps_canonical([Fraction(1, 3)]) == '["1/3"]\n'


def test_dumps_tuple_like_list():
    assert dumps_canonical((1, (2, 3))) == "[1,[2,3]]\n"


def test_dumps_float_normalization():
    assert dumps_canonical([-0.0, 0.1]) == "[0.0,0.1]\n"


def test_dumps_rejects_non_string_keys():
    with pytest.raises(SchemaError):
        dumps_canonical({1: "x"})


def test_dumps_rejects_unknown_types():
    with pytest.raises(SchemaError):
        dumps_canonical({"x": {1, 2}})


def test_dumps_rejects_nan_inside():
    with pytest.raises(SchemaError):
        dumps_canonical({"x": [float("nan")]})


def test_dumps_deterministic():
    doc = {"z": 1.5, "a": [Fraction(2, 7), "s"], "m": {"k": -0.0}}
    assert dumps_canonical(doc) == dumps_canonical(doc)


def test_dumps_string_golden_bytes():
    # Non-ASCII text stays raw UTF-8 (U+2028 included); control characters,
    # quotes and backslashes are escaped; DEL and "/" are not.
    doc = {"cup": "\u222a", "\u00e9": "\u2028", "ctl": "\x00\x1f\t\n\r\x7f", "q": '"\\/'}
    assert dumps_canonical(doc).encode("utf-8") == (
        b'{"ctl":"\\u0000\\u001f\\t\\n\\r\x7f","cup":"\xe2\x88\xaa",'
        b'"q":"\\"\\\\/","\xc3\xa9":"\xe2\x80\xa8"}\n'
    )


json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.fractions()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_docs)
def test_dumps_is_a_fixed_point_of_its_own_output(doc):
    s = dumps_canonical(doc)
    assert dumps_canonical(json.loads(s)) == s


def test_read_json_rejects_invalid_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_json(str(p))


# Each case: the artifact's canonical text, a key in it, the pair written
# again before that key, and the artifact's loader.
DUPLICATE_KEY_CASES = {
    "cover": (
        lambda: dumps_canonical(cover_to_json(COVER)),
        '"0":',
        '"0":[0,1],',
        lambda path: load_cover(path, TWO_TRIS),
    ),
    "index-map": (
        lambda: dumps_canonical(index_map_to_json(default_index_map(COVER))),
        '"0/0":',
        '"0/0":1,',
        lambda path: load_index_map(path, COVER),
    ),
    "cochain-entry": (
        lambda: dumps_cochain(random_cochain(COVER, 1, 2, exact=True)),
        '"value":',
        '"value":"1/7",',
        lambda path: load_cochain(path, COVER),
    ),
}


@pytest.mark.parametrize("artifact", sorted(DUPLICATE_KEY_CASES))
def test_read_json_rejects_duplicate_keys(tmp_path, artifact):
    text, key, repeat, load = DUPLICATE_KEY_CASES[artifact]
    p = tmp_path / "dup.json"
    p.write_text(text().replace(key, repeat + key, 1), encoding="utf-8")
    with pytest.raises(SchemaError, match=f"duplicate object key '{key[1:-2]}'"):
        load(str(p))


def test_write_canonical_ends_with_single_lf(tmp_path):
    p = tmp_path / "x.json"
    write_canonical(str(p), {"a": 1})
    raw = p.read_bytes()
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
    assert b"\r" not in raw


# -- simplex references ------------------------------------------------------------


def test_oriented_tuple_swaps_last_two_for_negative_orientation():
    # (0, 3, 2) sorts to (0, 2, 3) with parity -1.
    assert TET_SPHERE.orientation((0, 2, 3)) == -1
    assert oriented_tuple(TET_SPHERE, (0, 2, 3)) == (0, 3, 2)
    assert TET_SPHERE.orientation((1, 2, 3)) == 1
    assert oriented_tuple(TET_SPHERE, (1, 2, 3)) == (1, 2, 3)


def test_simplex_ref_round_trip():
    for dim in range(TWO_TRIS.dim + 1):
        for i, s in enumerate(TWO_TRIS.simplices(dim)):
            assert resolve_ref(TWO_TRIS, [dim, i]) == s
            assert resolve_ref(TWO_TRIS, f"{dim}/{i}", "index-map") == s
            if dim == TWO_TRIS.dim:
                assert resolve_ref(TWO_TRIS, str(i), "cover") == s


def test_simplex_ref_rejects_foreign_simplex():
    for ref, spelling in [
        ([2, 2], "entry"),
        ([3, 0], "entry"),
        ("1/5", "index-map"),
        ("3/0", "index-map"),
        ("2", "cover"),
    ]:
        with pytest.raises(SchemaError, match="out of range"):
            resolve_ref(TWO_TRIS, ref, spelling)


@pytest.mark.parametrize(
    "ref", [[1], [1, 0, 0], "1/0", [True, 0], [0, 1.0], [1, 99], [-1, 0]]
)
def test_resolve_ref_rejects_malformed(ref):
    with pytest.raises(SchemaError):
        resolve_ref(TWO_TRIS, ref)


# -- complex files -----------------------------------------------------------------


def test_complex_round_trip_preserves_orientations(tmp_path):
    p = tmp_path / "sphere.json"
    save_complex(TET_SPHERE, str(p))
    K2 = load_complex(str(p))
    assert K2.tops == TET_SPHERE.tops
    assert K2.dim == TET_SPHERE.dim
    for t in TET_SPHERE.tops:
        assert K2.orientation(t) == TET_SPHERE.orientation(t)


def test_complex_json_flags():
    doc = complex_to_json(TET_SPHERE)
    assert doc["flags"] == ["pseudomanifold", "closed"]
    open_doc = complex_to_json(TWO_TRIS)
    assert "closed" not in open_doc["flags"]


def test_complex_json_lists_oriented_tops():
    doc = complex_to_json(TET_SPHERE)
    assert [0, 3, 2] in doc["top_simplices"]


def test_complex_from_json_checks_declared_dim():
    doc = complex_to_json(TWO_TRIS)
    doc["dim"] = 3
    with pytest.raises(SchemaError):
        complex_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"top_simplices": []},
        {"top_simplices": "x"},
        [1, 2],
        None,
        # 2^64 faces: refused before the complex is built.
        {"top_simplices": [list(range(64))]},
        {"top_simplices": [5]},
        {"top_simplices": [[0, 1], "12"]},
        # A declared dim must be a JSON integer, not a bool or float equal to it.
        {"top_simplices": [[0, 1], [1, 2]], "dim": True},
        {"top_simplices": [[0, 1], [1, 2]], "dim": 1.0},
    ],
)
def test_complex_from_json_rejects_bad_documents(doc):
    with pytest.raises(SchemaError):
        complex_from_json(doc)


# -- cover files -------------------------------------------------------------------


def test_cover_round_trip(tmp_path):
    p = tmp_path / "cover.json"
    save_cover(COVER, str(p))
    C2 = load_cover(str(p), TWO_TRIS)
    assert C2.num_sets == COVER.num_sets
    for _, s in TWO_TRIS.all_simplices():
        assert C2.admissible_of(s) == COVER.admissible_of(s)


def test_cover_from_json_rejects_missing_fields():
    with pytest.raises(SchemaError):
        cover_from_json({"num_sets": 4}, TWO_TRIS)
    with pytest.raises(SchemaError):
        cover_from_json({"admissible_top": {}}, TWO_TRIS)


def test_cover_from_json_rejects_bad_keys():
    doc = cover_to_json(COVER)
    doc["admissible_top"]["x"] = [0]
    with pytest.raises(SchemaError):
        cover_from_json(doc, TWO_TRIS)


def test_cover_from_json_rejects_out_of_range_top():
    doc = cover_to_json(COVER)
    doc["admissible_top"]["9"] = [0]
    with pytest.raises(SchemaError):
        cover_from_json(doc, TWO_TRIS)


@pytest.mark.parametrize("alias", ["+0", "00", " 0", "0_0", "\u0660"])
def test_cover_from_json_rejects_aliased_top_key(alias):
    doc = cover_to_json(COVER)
    doc["admissible_top"][alias] = doc["admissible_top"]["1"]
    with pytest.raises(SchemaError):
        cover_from_json(doc, TWO_TRIS)


@pytest.mark.parametrize(
    "field,value",
    [
        ("0", [0, 1, True]),
        ("0", "123"),
        ("0", [1.0]),
        ("num_sets", 4.5),
        ("num_sets", "4"),
        ("num_sets", True),
    ],
)
def test_cover_from_json_rejects_non_integer_fields(field, value):
    doc = cover_to_json(COVER)
    if field == "num_sets":
        doc["num_sets"] = value
    else:
        doc["admissible_top"][field] = value
    with pytest.raises(SchemaError, match="must be an"):
        cover_from_json(doc, TWO_TRIS)


def test_cover_from_json_rejects_non_object_table():
    with pytest.raises(SchemaError):
        cover_from_json({"num_sets": 4, "admissible_top": [[0]]}, TWO_TRIS)


# -- index-map files ---------------------------------------------------------------


def test_index_map_round_trip(tmp_path):
    rho = random_index_map(COVER, seed=11)
    p = tmp_path / "rho.json"
    save_index_map(rho, str(p))
    rho2 = load_index_map(str(p), COVER)
    for _, s in TWO_TRIS.all_simplices():
        assert rho2(s) == rho(s)


def test_index_map_json_covers_every_dimension():
    doc = index_map_to_json(random_index_map(COVER, seed=3))
    dims = {key.split("/")[0] for key in doc}
    assert dims == {"0", "1", "2"}


@pytest.mark.parametrize("key", ["1-2", "a/b", "0/99", "0/1/2"])
def test_index_map_from_json_rejects_bad_keys(key):
    with pytest.raises(SchemaError):
        index_map_from_json({key: 0}, COVER)


@pytest.mark.parametrize("alias", ["00/0", "0/+0", "0/ 0", "-0/0"])
def test_index_map_from_json_rejects_aliased_key(alias):
    doc = index_map_to_json(default_index_map(COVER))
    doc[alias] = doc["0/0"]
    with pytest.raises(SchemaError):
        index_map_from_json(doc, COVER)


@pytest.mark.parametrize("chart", [True, "1", 1.0])
def test_index_map_from_json_rejects_non_integer_chart(chart):
    doc = index_map_to_json(default_index_map(COVER))
    doc["0/1"] = chart
    with pytest.raises(SchemaError, match="must be an integer"):
        index_map_from_json(doc, COVER)


def test_index_map_from_json_rejects_non_object():
    with pytest.raises(SchemaError):
        index_map_from_json([0, 1], COVER)


# -- cochain files -----------------------------------------------------------------


@pytest.mark.parametrize("exact", [False, True])
def test_cochain_round_trip_exact_values(tmp_path, exact):
    c = random_cochain(COVER, 2, seed=5, exact=exact)
    p = tmp_path / "c.json"
    save_cochain(c, str(p))
    c2 = load_cochain(str(p), COVER)
    assert c2.exact == exact
    assert c2.degree == c.degree
    assert sorted(c2.entries()) == sorted(c.entries())


def test_cochain_json_declares_arithmetic():
    assert json.loads(dumps_cochain(random_cochain(COVER, 1, seed=1)))["arithmetic"] == "float"
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=1, exact=True)))
    assert doc["arithmetic"] == "rational"
    assert all(isinstance(e["value"], str) for e in doc["entries"])


def test_cochain_arithmetic_defaults_to_float():
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=2)))
    del doc["arithmetic"]
    c = cochain_from_json(doc, COVER)
    assert not c.exact


def test_cochain_from_json_rejects_unknown_arithmetic():
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=2)))
    doc["arithmetic"] = "decimal"
    with pytest.raises(SchemaError):
        cochain_from_json(doc, COVER)


def test_cochain_from_json_rejects_missing_entry_fields():
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=2)))
    del doc["entries"][0]["value"]
    with pytest.raises(SchemaError):
        cochain_from_json(doc, COVER)


def test_cochain_from_json_rejects_level_simplex_mismatch():
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=2)))
    entry = next(e for e in doc["entries"] if e["k"] == 0)
    entry["simplex"] = [1, 0]
    with pytest.raises(SchemaError):
        cochain_from_json(doc, COVER)


@pytest.mark.parametrize(
    "ref, message",
    [
        ([0, 4], "out of range"),  # TWO_TRIS has 4 vertices
        ([0, -1], "out of range"),
        ([3, 0], "out of range"),
        ([-1, 0], "out of range"),
        ([0, 1.0], "is not \\[dim, index\\]"),
        ([True, 0], "is not \\[dim, index\\]"),
        ([0, 1, 2], "is not \\[dim, index\\]"),
        ("01", "is not \\[dim, index\\]"),
        ({"0": 0, "1": 1}, "is not \\[dim, index\\]"),
    ],
)
def test_cochain_from_json_rejects_bad_references(ref, message):
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=2)))
    doc["entries"][-1]["simplex"] = ref
    with pytest.raises(SchemaError, match=f"^simplex reference .* {message}$"):
        cochain_from_json(doc, COVER)


def test_cochain_from_json_rejects_missing_top_level_fields():
    with pytest.raises(SchemaError):
        cochain_from_json({"degree": 1}, COVER)
    with pytest.raises(SchemaError):
        cochain_from_json({"entries": []}, COVER)


@pytest.mark.parametrize("entries", [5, "[]", {"0": []}, None])
def test_cochain_from_json_rejects_non_array_entries(entries):
    with pytest.raises(SchemaError, match="entries must be an array"):
        cochain_from_json({"degree": 1, "entries": entries}, COVER)


def _entry_mutation(field, value):
    def mutate(doc):
        entry = next(e for e in doc["entries"] if e["k"] == 1)
        entry[field] = value(entry[field])

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(degree=True),
        lambda doc: doc.update(degree=1.0),
        _entry_mutation("k", lambda k: True),
        _entry_mutation("k", float),
        _entry_mutation("indices", lambda J: [float(a) for a in J]),
        _entry_mutation("indices", lambda J: [True]),
    ],
    ids=["degree-true", "degree-float", "k-true", "k-float", "indices-float", "indices-true"],
)
def test_cochain_from_json_rejects_non_integer_fields(mutate):
    doc = json.loads(dumps_cochain(random_cochain(COVER, 1, seed=2)))
    mutate(doc)
    with pytest.raises(SchemaError, match="must be an"):
        cochain_from_json(doc, COVER)


@pytest.mark.parametrize("exact", [False, True])
def test_cochain_values_are_written_as_scalar_to_json(exact):
    """Each written value is scalar_to_json of the entry; exact values are
    reduced, although most numerators share a factor with the scale."""
    c = random_cochain(COVER, 2, seed=3, exact=exact)
    written = [e["value"] for e in json.loads(dumps_cochain(c))["entries"]]
    assert written == [scalar_to_json(v) for *_, v in c.entries()]
    if exact:
        assert any(not v.endswith(f"/{c.scale}") for v in written)


def test_cochain_entries_sorted_canonically():
    doc = json.loads(dumps_cochain(random_cochain(COVER, 2, seed=9)))
    keys = [(e["k"], e["simplex"][1], e["indices"]) for e in doc["entries"]]
    assert keys == sorted(keys)


def test_cochain_save_bytes_stable_across_reload(tmp_path):
    c = random_cochain(COVER, 2, seed=7, exact=True)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_cochain(c, str(p1))
    save_cochain(load_cochain(str(p1), COVER), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_float_cochain_survives_byte_round_trip(tmp_path):
    c = random_cochain(COVER, 1, seed=13)
    p = tmp_path / "c.json"
    save_cochain(c, str(p))
    c2 = load_cochain(str(p), COVER)
    for (k, s, J, v), (k2, s2, J2, v2) in zip(
        sorted(c.entries()), sorted(c2.entries())
    ):
        assert (k, s, J) == (k2, s2, J2)
        assert v == v2 and isinstance(v2, float)


# -- the streamed cochain writer ---------------------------------------------------

WRITER_GEOMETRIES = ("annulus", "torus2-4chart", "solid-torus")


@st.composite
def saved_cochains(draw):
    """(cover, cochain): random, gauge-shifted or discretized, exact or
    float, on the chart or the star cover of a writer geometry."""
    geom = get_geometry(draw(st.sampled_from(WRITER_GEOMETRIES)))
    exact = draw(st.booleans())
    kind = draw(st.sampled_from(["random", "shifted", "discretized"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "discretized":
        coord = geom.periodic.index(True)
        if draw(st.booleans()):
            offset = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
            pres = winding_function(geom, draw(st.integers(-3, 3)), coord, offset, exact)
        else:
            pres = torsion_class(geom, draw(st.integers(1, 9)), draw(st.integers(-9, 9)))
        return geom.covered, discretize(pres, exact=exact)
    cover = draw(st.sampled_from([geom.covered, star_cover(geom.covered.complex)]))
    p = draw(st.integers(1, cover.complex.dim))
    denominator = draw(st.sampled_from([1, 7, 64, 360]))
    c = random_cochain(cover, p, seed, exact=exact, denominator=denominator)
    if kind == "shifted":
        c = exact_shift(c, random_cochain(cover, p - 1, seed + 1, exact=exact))
    return cover, c


@settings(max_examples=40, deadline=None)
@given(saved_cochains())
def test_saved_cochain_is_a_fixed_point_of_the_encoder(tmp_path_factory, drawn):
    cover, c = drawn
    path = tmp_path_factory.mktemp("fixed") / "c.json"
    save_cochain(c, str(path))
    text = path.read_text(encoding="utf-8")
    assert dumps_canonical(read_json(str(path))) == text
    assert text == dumps_cochain(c)
    c2 = load_cochain(str(path), cover)
    assert (list(c2.entries()), c2.scale) == (list(c.entries()), c.scale)


@pytest.mark.parametrize(
    "exact, sha256",
    [
        (True, "5e0ac6081607fc0511306eee7dbb24598da94abf7810db5326e63abc4b6c8290"),
        (False, "b845cc8d4d7661d0d85f93519b587ac62157347a1472b0b597baed32231b30f8"),
    ],
)
def test_saved_torus2_star_orbit_is_pinned(tmp_path, exact, sha256):
    """Digests taken when cochain files were still written through
    dumps_canonical, so the writer and the encoder cannot drift together."""
    cover = star_cover(get_geometry("torus2-4chart").covered.complex)
    b = random_cochain(cover, 1, 7, exact=exact)
    orbit = exact_shift(zero_cochain(cover, 2, exact=exact), b)
    path = tmp_path / "orbit.json"
    save_cochain(orbit, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_writer_keeps_the_encoders_float_rules(tmp_path):
    """-0.0 is written as 0.0, and a non-finite value is refused before the
    file is opened."""
    key = (1, (0, 1), (0,))
    c = DeligneCochain(COVER, 1, {key: -0.0}, exact=False)
    assert dumps_cochain(c) == dumps_canonical(json.loads(dumps_cochain(c)))
    assert '"value":0.0}' in dumps_cochain(c)
    path = tmp_path / "nan.json"
    with pytest.raises(SchemaError, match="^non-finite value cannot be serialized$"):
        save_cochain(DeligneCochain(COVER, 1, {key: float("nan")}, exact=False), str(path))
    assert not path.exists()


def _negated(value):
    if isinstance(value, str):
        return value[1:] if value.startswith("-") else "-" + value
    return -value


def _unreduced(value):
    if isinstance(value, str):
        n, d = value.split("/")
        return f"{3 * int(n)}/{3 * int(d)}"
    return value


def _rewritten(doc, rng):
    """doc with each entry's multi-index permuted (the value negated for
    an odd permutation), rational values unreduced, entries shuffled and
    their keys in a random order."""
    entries = []
    for e in doc["entries"]:
        order = list(range(len(e["indices"])))
        rng.shuffle(order)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        value = _unreduced(e["value"])
        e = dict(e, indices=[e["indices"][i] for i in order])
        e["value"] = _negated(value) if inversions % 2 else value
        keys = list(e)
        rng.shuffle(keys)
        entries.append({key: e[key] for key in keys})
    rng.shuffle(entries)
    return {"entries": entries, "degree": doc["degree"], "arithmetic": doc["arithmetic"]}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_non_canonical_cochain_file_loads_alike(tmp_path, exact, seed):
    cover = star_cover(get_geometry("torus2-4chart").covered.complex)
    b = random_cochain(cover, 1, 9, exact=exact)
    c = exact_shift(random_cochain(cover, 2, seed, exact=exact), b)
    canonical = tmp_path / "canonical.json"
    save_cochain(c, str(canonical))
    doc = _rewritten(read_json(str(canonical)), random.Random(seed))
    assert any(J != sorted(J) for J in (e["indices"] for e in doc["entries"]))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc, indent=2, separators=(" , ", " : ")), encoding="utf-8")
    expected = load_cochain(str(canonical), cover)
    loaded = load_cochain(str(other), cover)
    assert (list(loaded.entries()), loaded.scale) == (list(expected.entries()), expected.scale)

    # Agreeing duplicates, spelled as the writer spells them.
    doc["entries"] += read_json(str(canonical))["entries"][:5]
    other.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_cochain(str(other), cover)
    assert (list(loaded.entries()), loaded.scale) == (list(expected.entries()), expected.scale)

    first = doc["entries"][0]
    doc["entries"].append(dict(first, value=_negated(first["value"])))
    other.write_text(json.dumps(doc), encoding="utf-8")
    dim, i = first["simplex"]
    key = (first["k"], cover.complex.simplices(dim)[i], tuple(sorted(first["indices"])))
    with pytest.raises(CochainError) as err:
        load_cochain(str(other), cover)
    assert str(err.value) == f"conflicting duplicate entry at {key}"


# -- vertex matchings ---------------------------------------------------------------


def test_matching_from_json_reads_canonical_keys():
    assert matching_from_json({"0": 2, "10": 0}) == {0: 2, 10: 0}


@pytest.mark.parametrize(
    "doc",
    [
        [[0, 2]],
        {"0": 1.7},
        {"0": 2.0},
        {"0": True},
        {"0": "2"},
        {"0": 2, "00": 2},
        {"01": 2},
        {"+1": 2},
        {"-1": 2},
        {" 1": 2},
        {"1.0": 2},
    ],
)
def test_matching_from_json_rejects_bad_documents(doc):
    with pytest.raises(SchemaError):
        matching_from_json(doc)
