"""Check that a base commit and this checkout compute the same results.

Run from the root of a checkout:

    python3 tools/identity.py               # base HEAD~1
    python3 tools/identity.py --base HEAD

The base is unpacked into a temporary directory with ``git archive`` and
the working tree is copied beside it, as ``tools/ab.py`` does.  This
script then runs once per side with ``--digests``, importing ``deligne``
from that side's ``src/``, and prints one digest per (geometry, cover,
arithmetic, operation):

- lifts: for every shipped geometry and its first two subdivisions (one
  for ``torus3-8chart``), the ``lifts`` keys in order, the rows with the
  types of their values, and ``discretize`` in both arithmetics of a
  torsion class of the highest degree the geometry allows, presented on
  the coarse geometry, and on the sphere of the charge-1 monopole too (the
  torsion class raises at the sphere's poles, and is digested by its
  exception), ``discretize`` in both arithmetics of a degree-0 winding
  function with offset 3/7 turn (w = 0 and w = 1) and, on the circles, of
  ``flat_circle``, each made in the arithmetic it is discretized in, and
  ``discretize`` in both arithmetics of the cup product of two winding
  functions, around the first and the last periodic coordinate, and
  ``curvature_total`` of each cup product under the
  default and a random index map (the geometries whose dimension or
  boundary rules it out are digested by their exception);
- complexes: for every shipped geometry and its first subdivision, the
  simplices of each dimension, ``flags(q)`` for every q, ``boundary_facets``
  and the ``admissible`` table of its chart cover and of its star cover,
  every one in order;
- index maps: for the chart cover and the star cover of every shipped
  geometry, the ``assignment`` in order of ``default_index_map``, of
  ``random_index_map`` for both ``SEEDS`` and of ``random_index_map`` with
  its first top and first vertex pinned to their last admissible charts;
- geometries and covers: the chart cover of every shipped geometry, the
  chart cover of ``torus2-4chart`` subdivided once, the star covers of
  ``annulus``, ``torus2-4chart``, ``solid-torus`` and ``torus3-8chart``,
  and one tetrahedron admissible in 12 charts;
- arithmetics: rational and float;
- operations: ``random_cochain``, ``exact_shift`` (of the zero class and
  of a random cochain), ``validate_cocycle`` (on a gauge orbit and on a
  random non-cocycle), ``verify_trivialization`` (of both by the same
  shift data), ``chern_cocycle`` and ``holonomy`` (``local_action`` on a
  complex with boundary) of the orbit plus a class with integer
  transition turns, under the default index map and the random ones of
  both ``SEEDS``, and every flag-sum route on that class:
  ``transition_general``, ``transition_boundary`` and
  ``transition_p2_boundary`` between the default and the first random
  index map and between the two random ones, and
  ``transgress_p3_triple`` of all three (the routes a degree or a closed
  complex rules out are digested by their exception);
- io: the bytes ``save_cochain`` writes for the shift data, the random
  cochain, the orbit and the integer-turn class, ``entries()`` and
  ``scale`` after ``load_cochain`` of each, and the outcome of loading
  the random cochain's file, cut to its first entries, with one entry
  corrupted in each of the ways ``CORRUPTIONS`` lists.

A digest is a hash of the ``repr`` of the result, so rational results must
be equal and float results ``repr``-identical; an operation that raises
is digested by its exception.  Exit status 1 on any difference.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab import copy_worktree, unpack

SEEDS = (7, 11)  # shift data b, raw cochain c


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def digest_items(items) -> str:
    """``digest`` of a long sequence, one ``repr`` per item."""
    h = hashlib.sha256()
    for x in items:
        h.update(repr(x).encode() + b"\n")
    return h.hexdigest()[:16]


def cases():
    """(geometry, cover name, covered complex) for every case checked."""
    # deligne comes from the side under test, so only --digests imports it.
    from deligne import (
        GEOMETRY_BUILDERS,
        attach_cover,
        build_complex,
        star_cover,
        subdivide_geometry,
    )

    for name, build in GEOMETRY_BUILDERS.items():
        yield name, "charts", build().covered
    torus2 = GEOMETRY_BUILDERS["torus2-4chart"]()
    yield "torus2-4chart/1", "charts", subdivide_geometry(torus2).covered
    for name in ("annulus", "torus2-4chart", "solid-torus", "torus3-8chart"):
        yield name, "star", star_cover(GEOMETRY_BUILDERS[name]().covered.complex)
    tet = build_complex([(0, 1, 2, 3)])
    yield "tetrahedron", "12 charts", attach_cover(tet, 12, {(0, 1, 2, 3): range(12)})


def geometry_digests():
    """Yield (label, digest) for the lifts of every shipped geometry and its
    subdivisions, and for discretized classes on each."""
    from deligne import (
        GEOMETRY_BUILDERS,
        cup_product,
        curvature_total,
        default_index_map,
        discretize,
        flat_circle,
        monopole,
        random_index_map,
        subdivide_geometry,
        torsion_class,
        winding_function,
    )

    for name, build in GEOMETRY_BUILDERS.items():
        coarse = g = build()
        degree = min(sum(g.periodic), g.covered.complex.dim)
        angles = [i for i, periodic in enumerate(g.periodic) if periodic]
        # Each class is made for the arithmetic it is discretized in.
        classes = {
            "torsion": lambda exact: torsion_class(coarse, q=5, w=2, degree=degree),
            "cup": lambda exact: cup_product(
                winding_function(coarse, 1, coord=angles[0]),
                winding_function(coarse, 2, coord=angles[-1]),
            ),
        }
        for w in (0, 1):
            classes[f"winding w={w} offset"] = lambda exact, w=w: winding_function(
                coarse, w, coord=angles[0], offset="3/7" if exact else 3 / 7,
                exact=exact,
            )
        if coarse.coords == ("theta",):
            classes["flat_circle"] = lambda exact: flat_circle(
                coarse, "1/3" if exact else 0.7, exact=exact
            )
        if name == "sphere-octahedron-2chart":
            classes["monopole"] = lambda exact: monopole(coarse, 1)
        for depth in range(2 if name == "torus3-8chart" else 3):
            if depth:
                g = subdivide_geometry(g)
            label = f"{name}/{depth}"
            yield f"{label} lifts keys", digest(list(g.lifts))
            yield f"{label} lifts rows", digest(
                [(rows, {type(x).__name__ for r in rows for x in r})
                 for rows in g.lifts.values()]
            )
            for kind, make in classes.items():
                for exact in (True, False):
                    tag = f"{kind} {'rational' if exact else 'float'}"
                    c = outcome(
                        lambda: discretize(make(exact), geometry=g, exact=exact)
                    )
                    yield f"{label} discretize {tag}", digest(
                        c if isinstance(c, str) else list(c.entries())
                    )
                    if kind != "cup" or isinstance(c, str):
                        continue
                    for which, rho in (
                        ("default", default_index_map(c.base)),
                        ("random", random_index_map(c.base, SEEDS[0])),
                    ):
                        yield f"{label} curvature_total {tag} {which}", digest(
                            outcome(lambda: curvature_total(c, rho))
                        )


def complex_digests():
    """Yield (label, digest) for the face structure of every shipped
    geometry's complex and its first subdivision, and for the admissible
    tables of their chart and star covers, all in order."""
    from deligne import GEOMETRY_BUILDERS, star_cover, subdivide_geometry

    for name, build in GEOMETRY_BUILDERS.items():
        g = build()
        for depth in (0, 1):
            if depth:
                g = subdivide_geometry(g)
            K, label = g.covered.complex, f"{name}/{depth}"
            yield f"{label} levels", digest([K.simplices(k) for k in range(K.dim + 1)])
            for q in range(K.dim + 1):
                yield f"{label} flags({q})", digest_items(K.flags(q))
            yield f"{label} boundary_facets", digest(list(K.boundary_facets.items()))
            for cover_name, C in (("charts", g.covered), ("star", star_cover(K))):
                yield f"{label} admissible {cover_name}", digest_items(C.admissible.items())


def index_map_digests():
    """Yield (label, digest) for the default, random and pinned index maps
    of every shipped geometry's chart cover and star cover."""
    from deligne import GEOMETRY_BUILDERS, default_index_map, random_index_map, star_cover

    for name, build in GEOMETRY_BUILDERS.items():
        covered = build().covered
        for cover_name, C in (("charts", covered), ("star", star_cover(covered.complex))):
            K = C.complex
            pins = {s: C.admissible_of(s)[-1] for s in (K.tops[0], K.simplices(0)[0])}
            maps = {"default": default_index_map(C)}
            for seed in SEEDS:
                maps[f"random {seed}"] = random_index_map(C, seed)
            maps["pinned"] = random_index_map(C, SEEDS[0], frozen=pins)
            for which, rho in maps.items():
                yield f"{name} {cover_name} index map {which}", digest(
                    list(rho.assignment.items())
                )


def integer_turns(cover, degree: int, exact: bool):
    """A cocycle whose level 0 is f(J) turns at every vertex, f(J) =
    sum(J) mod 3 - 1, and whose other levels vanish: its Čech class is
    delta f, in general nonzero."""
    from deligne import build_cochain

    turn = 1 if exact else 2 * math.pi
    entries = [
        (0, J, v, (sum(J) % 3 - 1) * turn)
        for v in cover.complex.simplices(0)
        for J in cover.multi_indices(v, degree + 1)
    ]
    return build_cochain(cover, degree, entries, exact=exact)


def outcome(op):
    try:
        return op()
    except Exception as e:  # both sides must fail alike
        return f"{type(e).__name__}: {e}"


def _first(field, new):
    def corrupt(entries, cover):
        entries[0][field] = new(entries[0][field], cover)

    return corrupt


def _conflicting_duplicate(entries, cover):
    value = "12345/7" if isinstance(entries[0]["value"], str) else 12345.5
    entries.append(dict(entries[0], value=value))


# Each corrupts the first entry of a cochain file's entry list (a level-0
# entry, so its multi-index has at least two charts) in one way a loader
# must handle; reversed indices must load.
CORRUPTIONS = {
    "bool k": _first("k", lambda k, C: True),
    "float index": _first("indices", lambda J, C: [float(J[0])] + J[1:]),
    "1e5 value": _first("value", lambda v, C: "1e5"),
    "out-of-range ref": _first(
        "simplex", lambda ref, C: [ref[0], len(C.complex.simplices(ref[0]))]
    ),
    "reversed indices": _first("indices", lambda J, C: J[::-1]),
    "conflicting duplicate": _conflicting_duplicate,
    "repeated chart": _first("indices", lambda J, C: [J[0]] * len(J)),
    "inadmissible chart": _first("indices", lambda J, C: J[:-1] + [C.num_sets]),
}


def corrupted_loads(path: str, cover, keep: int = 64) -> dict:
    """The outcome of loading the cochain file at ``path``, cut to its
    first ``keep`` entries, once per corruption; the file is rewritten."""
    from deligne import load_cochain, read_json

    doc = read_json(path)
    doc["entries"] = doc["entries"][:keep]
    out = {}
    for name, corrupt in CORRUPTIONS.items():
        bad = copy.deepcopy(doc)
        corrupt(bad["entries"], cover)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        out[name] = outcome(lambda: list(load_cochain(path, cover).entries()))
    return out


def digests(workdir: str):
    """Yield (case label, digest) for every case, arithmetic and operation;
    cochain files are written in ``workdir``."""
    from deligne import (
        chern_cocycle,
        default_index_map,
        exact_shift,
        holonomy,
        load_cochain,
        local_action,
        random_cochain,
        random_index_map,
        save_cochain,
        tensor,
        transgress_p3_triple,
        transition_boundary,
        transition_general,
        transition_p2_boundary,
        validate_cocycle,
        verify_trivialization,
        zero_cochain,
    )

    yield from geometry_digests()
    yield from complex_digests()
    yield from index_map_digests()
    for name, cover_name, cover in cases():
        p = cover.complex.dim
        for exact in (True, False):
            label = f"{name} {cover_name} {'rational' if exact else 'float'}"
            b = random_cochain(cover, p - 1, SEEDS[0], exact=exact)
            c = random_cochain(cover, p, SEEDS[1], exact=exact)
            yield f"{label} random_cochain", digest((list(b.entries()), list(c.entries())))
            orbit = exact_shift(zero_cochain(cover, p, exact=exact), b)
            moved = exact_shift(c, b)
            yield f"{label} exact_shift", digest((list(orbit.entries()), list(moved.entries())))
            yield f"{label} validate_cocycle orbit", digest(validate_cocycle(orbit))
            yield f"{label} validate_cocycle non-cocycle", digest(validate_cocycle(c))
            yield f"{label} verify_trivialization", digest(
                (verify_trivialization(orbit, b), verify_trivialization(c, b))
            )
            cls = tensor(orbit, integer_turns(cover, p, exact))
            validate_cocycle(cls)
            yield f"{label} chern_cocycle", digest(
                outcome(lambda: sorted(chern_cocycle(cls).entries.items()))
            )
            flag_sum = holonomy if cover.complex.closed else local_action
            rho0, rho1, rho2 = (
                default_index_map(cover), *(random_index_map(cover, s) for s in SEEDS)
            )
            routes = (transition_general, transition_boundary, transition_p2_boundary)
            for which, rho in (("", rho0), (" random", rho1), (" random 2", rho2)):

                def value():
                    v = flag_sum(cls, rho)
                    return v.raw, v.angle, v.levels, v.flag_count

                yield f"{label} holonomy{which}", digest(outcome(value))
            for which, (r0, r1) in (("", (rho0, rho1)), (" random", (rho1, rho2))):
                for route in routes:
                    yield f"{label} {route.__name__}{which}", digest(
                        outcome(lambda: route(cls, r0, r1))
                    )
            yield f"{label} transgress_p3_triple", digest(
                outcome(lambda: transgress_p3_triple(cls, rho0, rho1, rho2))
            )

            path = os.path.join(workdir, "cochain.json")
            for which, x in (("b", b), ("c", c), ("orbit", orbit), ("class", cls)):
                save_cochain(x, path)
                with open(path, "rb") as fh:
                    yield f"{label} save_cochain {which}", digest(fh.read())
                y = load_cochain(path, cover)
                yield f"{label} load_cochain {which}", digest((list(y.entries()), y.scale))
            save_cochain(c, path)
            yield f"{label} load_cochain corrupted", digest(corrupted_loads(path, cover))


def side_digests(side: Path, env: dict) -> list:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digests"],
        cwd=side, env=dict(env, PYTHONPATH=str(side / "src")),
        check=True, capture_output=True, text=True,
    ).stdout
    return [line.rsplit(" ", 1) for line in out.strip().splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--digests", action="store_true",
                        help="print this interpreter's digests and exit")
    args = parser.parse_args(argv)
    if args.digests:
        with tempfile.TemporaryDirectory(prefix="identity-io-") as workdir:
            for label, d in digests(workdir):
                print(label, d, flush=True)
        return 0
    env = dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        for side in sides.values():
            side.mkdir()
        unpack(args.base, sides["base"])
        copy_worktree(sides["change"])
        rows = {}
        for name, side in sides.items():
            start = time.perf_counter()
            rows[name] = side_digests(side, env)
            print(f"{name}: {len(rows[name])} digests in "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
    same = differ = 0
    base = dict(rows["base"])
    for label, d in rows["change"]:
        if base.pop(label, None) == d:
            same += 1
            print(f"same  {label}  {d}")
        else:
            differ += 1
            print(f"DIFFERS  {label}  {d}")
    for label in base:
        differ += 1
        print(f"MISSING  {label}")
    print(f"base {args.base} against the working tree: {same} same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
