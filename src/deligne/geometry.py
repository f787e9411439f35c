"""Built-in charted geometries: complexes with per-chart branch lifts.

A charted geometry realizes every simplex affinely in coordinates, per
chart: ``lifts[(chart, simplex)]`` holds one coordinate row per vertex in
canonical vertex order.  Periodic coordinates are stored in turns, so a
chart's branch of an angle is an exact rational; non-periodic coordinates
are plain rationals.  Two charts admissible for the same simplex must
differ by a constant offset on it, integral in the periodic coordinates;
this is validated at construction and is what makes chart-jump integers
(winding data) well defined per simplex.

Lifts are keyed per (chart, simplex) because charts around a pole have
no single branch value at the pole: each polar edge carries its own
meridian-constant lift.  A built geometry stores that table as a dict.  A
subdivided one stores a row per (chart, fine vertex) and a row tuple only
for the (chart, simplex) pairs whose lift is not their vertices' rows, the
pairs near the sphere's poles; its ``lifts`` is a read-only view over both,
with the keys and rows of the full table.

One window rule: a chart's branch of a periodic coordinate is the turn
value lifted into the chart's window ``[lo, lo + width]`` (``_branch``),
or no branch at all.  One constructor: ``_charted`` takes one
``(vertices, chart)`` cell per top, orients each top positively in its
chart, attaches the cover and lifts every simplex vertex by vertex in each
admissible chart.  The grid tori, circles, annulus and solid torus are all
built by it; the sphere keeps an explicit per-simplex table, since its
poles have no vertex branch.

One validator: ``_validate_geometry`` scales a Fraction table once to
integers over its lcm L, so a full turn is L, runs every check there and
returns the scaled table.  The built geometries are validated where their
rows are made.  A subdivided geometry is not checked: its rows are averages
of its carriers' rows in the same charts, so it keeps every span bound and
constant offset of its parent, which ``subdivide_geometry`` validates since
it needs the parent's scaled table anyway.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import lcm
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .cover import CoveredComplex, attach_cover
from .errors import AnalyticError
from .simplicial import (
    Simplex,
    SimplicialComplex,
    barycentric_subdivide,
    build_complex,
    determinant,
)

Row = Tuple[Fraction, ...]
# A lift table on integers over one scale, keyed like ``lifts``.
Scaled = Dict[Tuple[int, Simplex], Tuple[Tuple[int, ...], ...]]


@dataclass
class ChartedGeometry:
    name: str
    coords: Tuple[str, ...]
    periodic: Tuple[bool, ...]
    covered: CoveredComplex
    lifts: Mapping[Tuple[int, Simplex], Tuple[Row, ...]]
    parent: Optional["ChartedGeometry"] = field(default=None, repr=False)

    def has_lift(self, chart: int, sigma: Simplex) -> bool:
        return (chart, sigma) in self.lifts

    def lift(self, chart: int, sigma: Simplex) -> Tuple[Row, ...]:
        rows = self.lifts.get((chart, sigma))
        if rows is None:
            raise AnalyticError(
                f"no branch of chart {chart} is realized on {sigma} in {self.name}"
            )
        return rows

    def vertex_value(self, chart: int, v: Simplex, coord: int) -> Fraction:
        return self.lift(chart, v)[0][coord]

    def offset(self, sigma: Simplex, a: int, b: int) -> Row:
        """Constant lift difference (chart b minus chart a) on a simplex."""
        ra = self.lift(a, sigma)
        rb = self.lift(b, sigma)
        return tuple(rb[0][c] - ra[0][c] for c in range(len(self.coords)))

    def jump(self, sigma: Simplex, coord: int, a: int, b: int) -> int:
        """Integer turn count between two branches of a periodic coordinate."""
        if not self.periodic[coord]:
            raise AnalyticError(f"coordinate {coord} of {self.name} is not periodic")
        d = self.offset(sigma, a, b)[coord]
        if d.denominator != 1:
            raise AnalyticError(
                f"charts {a},{b} differ by a non-integer turn on {sigma}"
            )
        return int(d)


class _SubdividedLifts(abc.Mapping):
    """The lifts of a subdivided geometry, read-only.

    ``vertex[(a, b)]`` is fine vertex b's row in chart a, and ``rows``
    holds the (chart, simplex) lifts that are not their vertices' rows.  A
    pair (a, s) is realized when a is admissible for s and the parent
    lifts s's carrier in chart a, that is when the carrier's barycentre
    ``s[-1]`` has a row in chart a.  Keys iterate in ``all_simplices``
    order, each simplex's admissible charts ascending.
    """

    def __init__(self, covered: CoveredComplex, vertex: Dict, rows: Dict):
        self._covered = covered
        self._vertex = vertex
        self._rows = rows

    def __contains__(self, key: object) -> bool:
        a, s = key
        return a in self._covered.admissible.get(s, ()) and (a, s[-1]) in self._vertex

    def __getitem__(self, key: Tuple[int, Simplex]) -> Tuple[Row, ...]:
        if key not in self:
            raise KeyError(key)
        a, s = key
        return self._rows.get(key) or tuple([self._vertex[a, b] for b in s])

    def __iter__(self):
        adm, vertex = self._covered.admissible, self._vertex
        for _, s in self._covered.complex.all_simplices():
            for a in adm[s]:
                if (a, s[-1]) in vertex:
                    yield a, s

    def __len__(self) -> int:
        return sum(1 for _ in self)


def _validate_geometry(g: ChartedGeometry) -> Tuple[int, Scaled]:
    """Check g's lifts; return the lcm L of their denominators and the
    table on integers over L, so a full turn is L.  Each distinct row
    object is scaled once, and a row the table shares stays one tuple.

    Every lift has its simplex's arity.  Offsets between coexisting charts
    must be constant per simplex and integral (turns) in periodic
    coordinates; each branch must span less than a full turn so no simplex
    straddles a cut.  A span fails at ``max - min >= L``, an offset is
    integral when ``d % L == 0``, and constancy and agreement are int
    compares.
    """
    rows_by_id = {id(r): r for rows in g.lifts.values() for r in rows}
    L = lcm(*{x.denominator for r in rows_by_id.values() for x in r})
    scaled = {
        i: tuple(x.numerator * (L // x.denominator) for x in r)
        for i, r in rows_by_id.items()
    }
    ints = {key: tuple(scaled[id(r)] for r in rows) for key, rows in g.lifts.items()}
    ncoord = len(g.coords)
    periodic = [c for c in range(ncoord) if g.periodic[c]]
    for _, s in g.covered.complex.all_simplices():
        charts = [a for a in g.covered.admissible_of(s) if (a, s) in ints]
        for a in charts:
            rows = ints[(a, s)]
            if len(rows) != len(s):
                raise AnalyticError(f"lift of {s} in chart {a} has wrong arity")
            columns = list(zip(*rows))
            for c in periodic:
                if max(columns[c]) - min(columns[c]) >= L:
                    raise AnalyticError(
                        f"simplex {s} spans a full turn of {g.coords[c]} "
                        f"in chart {a}"
                    )
        for i in range(len(charts)):
            for j in range(i + 1, len(charts)):
                a, b = charts[i], charts[j]
                diffs = {
                    tuple(y - x for x, y in zip(ra, rb))
                    for ra, rb in zip(ints[(a, s)], ints[(b, s)])
                }
                if len(diffs) != 1:
                    raise AnalyticError(
                        f"charts {a},{b} do not differ by a constant on {s}"
                    )
                d = next(iter(diffs))
                for c in range(ncoord):
                    if g.periodic[c] and d[c] % L:
                        raise AnalyticError(
                            f"non-integral turn offset between charts {a},{b} on {s}"
                        )
                    if not g.periodic[c] and d[c] != 0:
                        raise AnalyticError(
                            f"non-periodic coordinate {g.coords[c]} disagrees "
                            f"between charts {a},{b} on {s}"
                        )
    return L, ints


def _oriented(verts: Sequence[int], rows_by_vertex: Mapping[int, Row]) -> Tuple[int, ...]:
    """Return the vertex tuple, reordered so its chart realization is
    positively oriented; degenerate realizations are rejected."""
    vs = list(verts)
    rows = [rows_by_vertex[v] for v in vs]
    mat = [
        [rows[i][c] - rows[0][c] for c in range(len(rows[0]))]
        for i in range(1, len(vs))
    ]
    d = determinant(mat)
    if d == 0:
        raise AnalyticError(f"degenerate realization of {tuple(verts)}")
    if d < 0:
        vs[-1], vs[-2] = vs[-2], vs[-1]
    return tuple(vs)


def _branch(x: Fraction, lo: Fraction, width: Fraction) -> Optional[Fraction]:
    """The branch of the turn value ``x`` in the chart window
    ``[lo, lo + width]``, or None when the window misses it."""
    if x < lo:
        x += 1
    return x if lo <= x <= lo + width else None


def _charted(
    name: str,
    coords: Tuple[str, ...],
    periodic: Tuple[bool, ...],
    num_sets: int,
    cells: Sequence[Tuple[Sequence[int], int]],
    vlift: Callable[[int, int], Tuple[Optional[Fraction], ...]],
) -> ChartedGeometry:
    """The geometry with one top per ``(vertices, chart)`` cell, oriented
    positively in its chart and admissible there only.  Every simplex is
    lifted vertex by vertex, ``vlift(chart, vertex)``, in each of its
    admissible charts; a coordinate ``vlift`` leaves None has no branch.
    Each (chart, vertex) row is lifted once and shared by every simplex."""
    vlift = cache(vlift)

    def rows(a: int, s: Sequence[int]) -> Tuple[Row, ...]:
        out = tuple(vlift(a, v) for v in s)
        if any(x is None for r in out for x in r):
            raise AnalyticError(f"chart {a} has no branch at a vertex of {tuple(s)}")
        return out

    admissible = {
        _oriented(verts, dict(zip(verts, rows(a, verts)))): (a,) for verts, a in cells
    }
    cov = attach_cover(build_complex(list(admissible)), num_sets, admissible)
    lifts = {
        (a, s): rows(a, s)
        for _, s in cov.complex.all_simplices()
        for a in cov.admissible_of(s)
    }
    g = ChartedGeometry(name, coords, periodic, cov, lifts)
    _validate_geometry(g)
    return g


# -- grid tori ----------------------------------------------------------------

_GRID = 4


def _grid_vertex(*idx: int) -> int:
    """Label of a point of the periodic grid, row-major, indices mod _GRID."""
    out = 0
    for i in idx:
        out = out * _GRID + i % _GRID
    return out


def _torus_geometry(d: int, name: str) -> ChartedGeometry:
    """The Kuhn triangulation of the d-torus grid.  Each axis has two
    half-turn windows; a cell's chart is the bit string of its windows."""
    n, half = _GRID, Fraction(1, 2)

    def vlift(chart: int, v: int) -> Tuple[Optional[Fraction], ...]:
        return tuple(
            _branch(Fraction(v // n**e % n, n), Fraction((chart >> e) & 1, 2), half)
            for e in reversed(range(d))
        )

    cells = []
    for cell in product(range(n), repeat=d):
        chart = sum((i * 2 // n) << (d - 1 - a) for a, i in enumerate(cell))
        for perm in permutations(range(d)):
            path = [cell]
            for axis in perm:
                path.append(tuple(i + (a == axis) for a, i in enumerate(path[-1])))
            cells.append(([_grid_vertex(*p) for p in path], chart))
    coords = tuple(f"theta{a + 1}" for a in range(d))
    return _charted(name, coords, (True,) * d, 2**d, cells, vlift)


def torus2_axis_loop(axis: int, at: int) -> SimplicialComplex:
    """A grid axis loop of the 2-torus, oriented in the positive direction."""
    if axis not in (0, 1):
        raise AnalyticError("torus2 axis must be 0 or 1")

    def vid(t: int) -> int:
        return _grid_vertex(t, at) if axis == 0 else _grid_vertex(at, t)

    return build_complex([(vid(t), vid(t + 1)) for t in range(_GRID)])


def torus3_plane_slice(at: int) -> SimplicialComplex:
    """The (theta1, theta2) subtorus of the 3-torus grid at height ``at``,
    oriented positively; a closed 2-subcomplex of the Kuhn triangulation."""
    tops = []
    for i, j in product(range(_GRID), repeat=2):
        a, b, c, e = (
            _grid_vertex(i + di, j + dj, at)
            for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))
        )
        tops += [(a, b, c), (a, c, e)]
    return build_complex(tops)


# -- circle, annulus, solid torus -----------------------------------------------


def circle_geometry(arcs: int, pts: int, name: str) -> ChartedGeometry:
    """``pts`` equally spaced points; edge v runs to v + 1 in chart
    ``v * arcs // pts``, and chart a is the window ``[a / arcs, (a + 1) / arcs]``."""
    width = Fraction(1, arcs)
    cells = [((v, (v + 1) % pts), v * arcs // pts) for v in range(pts)]
    return _charted(
        name,
        ("theta",),
        (True,),
        arcs,
        cells,
        lambda a, v: (_branch(Fraction(v, pts), a * width, width),),
    )


def annulus_geometry() -> ChartedGeometry:
    """S^1 x [0,1]: inner ring labels 0..3, outer 4..7, four arc charts."""
    n, width = 4, Fraction(1, 4)

    def vlift(chart: int, v: int) -> Tuple[Optional[Fraction], ...]:
        return (_branch(Fraction(v % n, n), chart * width, width), Fraction(v // n))

    cells = []
    for j in range(n):
        i0, i1, o0, o1 = j, (j + 1) % n, n + j, n + (j + 1) % n
        cells += [((i0, i1, o1), j), ((i0, o1, o0), j)]
    return _charted("annulus", ("theta", "s"), (True, False), n, cells, vlift)


_DISC_XY: Tuple[Tuple[Fraction, Fraction], ...] = (
    (Fraction(0), Fraction(0)),  # center
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
)


def solid_torus_geometry() -> ChartedGeometry:
    """D^2 x S^1: a 5-vertex disc times a 4-segment circle, prism-split.

    Coordinates (x, y, theta); only theta is periodic.  One chart per ring
    segment.  The boundary is a 4 x 4 grid torus of 32 triangles.
    """
    n, width = 4, Fraction(1, 4)

    def vlift(chart: int, v: int) -> Tuple[Optional[Fraction], ...]:
        ring, d = divmod(v, 5)
        return (*_DISC_XY[d], _branch(Fraction(ring, n), chart * width, width))

    cells = []
    for ring in range(n):
        for d in range(n):
            tri = (0, 1 + d, 1 + (d + 1) % n)
            lo = [5 * ring + k for k in tri]
            hi = [5 * ((ring + 1) % n) + k for k in tri]
            cells += [
                ((lo[0], lo[1], lo[2], hi[2]), ring),
                ((lo[0], lo[1], hi[1], hi[2]), ring),
                ((lo[0], hi[0], hi[1], hi[2]), ring),
            ]
    return _charted(
        "solid-torus", ("x", "y", "theta"), (False, False, True), n, cells, vlift
    )


# -- sphere (octahedron, face charts) ------------------------------------------


def sphere_octahedron_geometry() -> ChartedGeometry:
    """The octahedron sphere in (theta, u) with u the height coordinate.

    Charts 0..3 are the northern faces, 4..7 the southern ones.  Polar
    edges carry meridian-constant branches, so the lift table is genuinely
    per-simplex: no chart has a branch value at a pole vertex.
    """
    lifts: Dict[Tuple[int, Simplex], Tuple[Row, ...]] = {}

    def put(chart: int, rows_by_vertex: Mapping[int, Row]) -> None:
        s = tuple(sorted(rows_by_vertex))
        lifts[(chart, s)] = tuple(rows_by_vertex[v] for v in s)

    admissible = {}
    for i in range(4):
        lo, hi, mid = Fraction(i, 4), Fraction(i + 1, 4), Fraction(2 * i + 1, 8)
        a, b = 1 + i, 1 + (i + 1) % 4
        A, B = (lo, Fraction(0)), (hi, Fraction(0))
        # North pole 0 and south pole 5.
        for chart, pole, u in ((i, 0, Fraction(1)), (4 + i, 5, Fraction(-1))):
            face = {pole: (mid, u), a: A, b: B}
            admissible[_oriented((pole, a, b), face)] = (chart,)
            put(chart, face)
            # Meridian edges: the branch along each polar edge is the
            # edge's own constant angle, not the face's interior value.
            put(chart, {pole: (lo, u), a: A})
            put(chart, {pole: (hi, u), b: B})
            put(chart, {a: A, b: B})
            put(chart, {a: A})
            put(chart, {b: B})
    cov = attach_cover(build_complex(list(admissible)), 8, admissible)
    g = ChartedGeometry(
        "sphere-octahedron-2chart", ("theta", "u"), (True, False), cov, lifts
    )
    _validate_geometry(g)
    return g


# -- registry and subdivision ---------------------------------------------------

GEOMETRY_BUILDERS: Dict[str, Callable[[], ChartedGeometry]] = {
    "circle-2arc": lambda: circle_geometry(2, 4, "circle-2arc"),
    "circle-3arc": lambda: circle_geometry(3, 3, "circle-3arc"),
    "torus2-4chart": lambda: _torus_geometry(2, "torus2-4chart"),
    "torus3-8chart": lambda: _torus_geometry(3, "torus3-8chart"),
    "sphere-octahedron-2chart": sphere_octahedron_geometry,
    "annulus": annulus_geometry,
    "solid-torus": solid_torus_geometry,
}

_GEOMETRY_CACHE: Dict[str, ChartedGeometry] = {}


def get_geometry(name: str) -> ChartedGeometry:
    if name not in GEOMETRY_BUILDERS:
        raise AnalyticError(
            f"unknown geometry {name!r}; known: {sorted(GEOMETRY_BUILDERS)}"
        )
    if name not in _GEOMETRY_CACHE:
        _GEOMETRY_CACHE[name] = GEOMETRY_BUILDERS[name]()
    return _GEOMETRY_CACHE[name]


def subdivide_geometry(g: ChartedGeometry) -> ChartedGeometry:
    """Barycentric subdivision with carrier-based branch lifts.

    A child simplex inherits the admissible charts of its carrier: the tops
    containing it are the children of the parent tops containing its
    carrier, so this is the union rule of ``attach_cover``, whose covers
    obey it.  Its row at fine vertex b, the barycentre of the parent
    simplex τ_b, averages its carrier's rows over τ_b, staying inside a
    single branch.  Parent simplices without a branch (pole vertices)
    propagate their missing entries, which is harmless exactly where it
    happens.

    The child stores fine vertex b's row in chart a, the average of the
    parent's own lift of τ_b, once per parent lift entry (Munkres,
    *Elements of Algebraic Topology*, section 15), and a row tuple only for
    the child simplices whose carrier's average over some τ_b is not that
    row: the ones around the sphere's poles.  The parent is validated,
    which scales its table once to integers over its common denominator L;
    an average over m parent rows is then an integer sum over the one
    child scale ``L2 = L * lcm(1..dim+1)``, so averages compare as
    integers, and each distinct numerator becomes one ``Fraction(n, L2)``.

    The child is valid because its parent is, so it is not checked again:

    - Spans: a child simplex's rows in chart a are convex combinations of
      its carrier's rows in chart a, so no child spans more than its
      carrier.
    - Offsets: for two charts a and b on the carrier, the same weights
      apply to rows that differ by the constant d, so the children differ
      by exactly d.
    - Charts and arity: each child's charts are its carrier's, and its
      arity holds by construction.
    """
    L, ints = _validate_geometry(g)
    K2, carriers = barycentric_subdivide(g.covered.complex)
    adm = {s: g.covered.admissible_of(c) for s, c in carriers.items()}
    cov2 = CoveredComplex(K2, g.covered.num_sets, adm)
    L2 = L * lcm(*range(1, K2.dim + 2))
    value = cache(lambda n: Fraction(n, L2))
    label = {tau: b for b, (_, tau) in enumerate(g.covered.complex.all_simplices())}

    def average(rows: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        """Numerators over L2 of the mean of rows over L."""
        w = L2 // (L * len(rows))
        return tuple(w * sum(col) for col in zip(*rows))

    vertex_ints = {(a, label[tau]): average(rows) for (a, tau), rows in ints.items()}
    vertex = {key: tuple(map(value, r)) for key, r in vertex_ints.items()}
    # carrier -> chart -> {fine vertex b: the carrier-averaged row, where it
    # is not b's vertex row}
    differs: Dict[Simplex, Dict[int, Dict[int, Row]]] = {}
    for (a, c), crows in ints.items():
        at = dict(zip(c, crows))
        for k in range(1, len(c)):
            for tau in combinations(c, k):
                b = label[tau]
                mean = average([at[v] for v in tau])
                if vertex_ints.get((a, b)) != mean:
                    differs.setdefault(c, {}).setdefault(a, {})[b] = tuple(map(value, mean))
    rows = {}
    for s, c in carriers.items():
        for a, own in differs.get(c, {}).items():
            if a in adm[s] and not own.keys().isdisjoint(s):
                rows[(a, s)] = tuple([own.get(b) or vertex[a, b] for b in s])
    lifts = _SubdividedLifts(cov2, vertex, rows)
    return ChartedGeometry(g.name, g.coords, g.periodic, cov2, lifts, parent=g)
