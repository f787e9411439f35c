"""Built-in charted geometries: complexes with per-chart branch lifts.

A charted geometry realizes every simplex affinely in coordinates, per
chart: ``lifts[(chart, simplex)]`` holds one coordinate row per vertex in
canonical vertex order.  Periodic coordinates are stored in turns, so a
chart's branch of an angle is an exact rational; non-periodic coordinates
are plain rationals.  Two charts admissible for the same simplex must
differ by a constant offset on it, integral in the periodic coordinates;
this is validated at construction and is what makes chart-jump integers
(winding data) well defined per simplex.

Lifts are keyed per (chart, simplex) rather than per (chart, vertex)
because charts around a pole have no single branch value at the pole:
each polar edge carries its own meridian-constant lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .cover import CoveredComplex, attach_cover
from .errors import AnalyticError
from .simplicial import (
    Simplex,
    SimplicialComplex,
    barycentric_subdivide,
    build_complex,
    determinant,
    sort_with_parity,
)

Row = Tuple[Fraction, ...]


@dataclass
class ChartedGeometry:
    name: str
    coords: Tuple[str, ...]
    periodic: Tuple[bool, ...]
    covered: CoveredComplex
    lifts: Mapping[Tuple[int, Simplex], Tuple[Row, ...]]
    parent: Optional["ChartedGeometry"] = field(default=None, repr=False)

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


def _integer_rows(
    lifts: Mapping[Tuple[int, Simplex], Tuple[Row, ...]]
) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
    """The lcm L of all row denominators of a lift table, and every
    distinct row object (keyed by ``id``) scaled once to integers over L."""
    rows_by_id = {id(r): r for rows in lifts.values() for r in rows}
    L = lcm(*{x.denominator for r in rows_by_id.values() for x in r})
    return L, {
        i: tuple(x.numerator * (L // x.denominator) for x in r)
        for i, r in rows_by_id.items()
    }


def _validate_geometry(g: ChartedGeometry) -> None:
    """Check every admissible lift of every simplex, on integers.

    Offsets between coexisting charts must be constant per simplex and
    integral (turns) in periodic coordinates; each branch must span less
    than a full turn so no simplex straddles a cut.  All rows are scaled
    once to integers over the common denominator L of the table, so a full
    turn is L: a span fails at ``max - min >= L``, an offset is integral
    when ``d % L == 0``, and constancy and agreement are int compares.
    """
    ncoord = len(g.coords)
    L, scaled = _integer_rows(g.lifts)
    periodic = [c for c in range(ncoord) if g.periodic[c]]
    for _, s in g.covered.complex.all_simplices():
        charts = [a for a in g.covered.admissible_of(s) if (a, s) in g.lifts]
        ints = {}
        for a in charts:
            rows = g.lifts[(a, s)]
            if len(rows) != len(s):
                raise AnalyticError(f"lift of {s} in chart {a} has wrong arity")
            rows = ints[a] = [scaled[id(r)] for r in rows]
            for c in periodic:
                if max(r[c] for r in rows) - min(r[c] for r in rows) >= L:
                    raise AnalyticError(
                        f"simplex {s} spans a full turn of {g.coords[c]} "
                        f"in chart {a}"
                    )
        for i in range(len(charts)):
            for j in range(i + 1, len(charts)):
                a, b = charts[i], charts[j]
                ra, rb = ints[a], ints[b]
                diffs = {
                    tuple(rb[t][c] - ra[t][c] for c in range(ncoord))
                    for t in range(len(s))
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


def _hierarchical_lift_table(
    K: SimplicialComplex,
    cov: CoveredComplex,
    vlift: Callable[[int, int], Optional[Row]],
) -> Dict[Tuple[int, Simplex], Tuple[Row, ...]]:
    table: Dict[Tuple[int, Simplex], Tuple[Row, ...]] = {}
    for _, s in K.all_simplices():
        for a in cov.admissible_of(s):
            rows = tuple(vlift(a, v) for v in s)
            if any(r is None for r in rows):
                raise AnalyticError(f"chart {a} has no branch at a vertex of {s}")
            table[(a, s)] = rows
    return table


# -- grid tori ----------------------------------------------------------------

_GRID = 4


def _torus_geometry(d: int, name: str) -> ChartedGeometry:
    n = _GRID

    def vid(idx: Sequence[int]) -> int:
        out = 0
        for a in range(d):
            out = out * n + (idx[a] % n)
        return out

    def window_bit(i: int) -> int:
        return 0 if i < n // 2 else 1

    def chart_of_cell(idx: Sequence[int]) -> int:
        out = 0
        for a in range(d):
            out = out * 2 + window_bit(idx[a])
        return out

    def chart_bits(chart: int) -> Tuple[int, ...]:
        bits = []
        for _ in range(d):
            bits.append(chart % 2)
            chart //= 2
        return tuple(reversed(bits))

    def vlift(chart: int, v: int) -> Optional[Row]:
        bits = chart_bits(chart)
        out = []
        rest = v
        idxs = []
        for _ in range(d):
            idxs.append(rest % n)
            rest //= n
        idxs.reverse()
        for a in range(d):
            x = Fraction(idxs[a], n)
            lo = Fraction(bits[a], 2)
            if x < lo:
                x += 1
            if not lo <= x <= lo + Fraction(1, 2):
                return None
            out.append(x)
        return tuple(out)

    cells = []

    def gen(prefix):
        if len(prefix) == d:
            cells.append(tuple(prefix))
            return
        for i in range(n):
            gen(prefix + [i])

    gen([])

    tops = []
    tops_admissible = {}
    for cell in cells:
        chart = chart_of_cell(cell)
        for perm in permutations(range(d)):
            path = [tuple(cell)]
            for axis in perm:
                prev = path[-1]
                path.append(tuple(prev[a] + (1 if a == axis else 0) for a in range(d)))
            labels = [vid(p) for p in path]
            rows = {lab: vlift(chart, lab) for lab in labels}
            top = _oriented(labels, rows)
            tops.append(top)
            tops_admissible[top] = (chart,)
    K = build_complex(tops)
    cov = attach_cover(K, 2 ** d, tops_admissible)
    lifts = _hierarchical_lift_table(K, cov, vlift)
    g = ChartedGeometry(
        name=name,
        coords=tuple(f"theta{a + 1}" for a in range(d)),
        periodic=tuple(True for _ in range(d)),
        covered=cov,
        lifts=lifts,
    )
    _validate_geometry(g)
    return g


def torus2_geometry() -> ChartedGeometry:
    return _torus_geometry(2, "torus2-4chart")


def torus3_geometry() -> ChartedGeometry:
    return _torus_geometry(3, "torus3-8chart")


def torus2_axis_loop(axis: int, at: int) -> SimplicialComplex:
    """A grid axis loop of the 2-torus, oriented in the positive direction."""
    n = _GRID
    if axis not in (0, 1):
        raise AnalyticError("torus2 axis must be 0 or 1")

    def vid(i, j):
        return (i % n) * n + (j % n)

    edges = []
    for t in range(n):
        if axis == 0:
            edges.append((vid(t, at), vid(t + 1, at)))
        else:
            edges.append((vid(at, t), vid(at, t + 1)))
    return build_complex(edges)


def torus3_plane_slice(at: int) -> SimplicialComplex:
    """The (theta1, theta2) subtorus of the 3-torus grid at height ``at``,
    oriented positively; a closed 2-subcomplex of the Kuhn triangulation."""
    n = _GRID

    def vid(i, j, k):
        return ((i % n) * n + (j % n)) * n + (k % n)

    tops = []
    for i in range(n):
        for j in range(n):
            a = vid(i, j, at)
            b = vid(i + 1, j, at)
            c = vid(i + 1, j + 1, at)
            e = vid(i, j + 1, at)
            tops.append((a, b, c))
            tops.append((a, c, e))
    return build_complex(tops)


# -- circles ------------------------------------------------------------------


def circle_geometry(arcs: int, name: str) -> ChartedGeometry:
    if arcs == 2:
        pts = 4
        edge_chart = {(0, 1): 0, (1, 2): 0, (2, 3): 1, (3, 0): 1}
        windows = {0: Fraction(0), 1: Fraction(1, 2)}
    elif arcs == 3:
        pts = 3
        edge_chart = {(0, 1): 0, (1, 2): 1, (2, 0): 2}
        windows = {a: Fraction(a, 3) for a in range(3)}
    else:
        raise AnalyticError("circle geometries have 2 or 3 arcs")
    width = Fraction(1, 2) if arcs == 2 else Fraction(1, 3)

    def vlift(chart: int, v: int) -> Optional[Row]:
        x = Fraction(v, pts)
        lo = windows[chart]
        if x < lo:
            x += 1
        if not lo <= x <= lo + width:
            return None
        return (x,)

    tops = list(edge_chart)
    K = build_complex(tops)
    cov = attach_cover(K, arcs, {e: (c,) for e, c in edge_chart.items()})
    lifts = _hierarchical_lift_table(K, cov, vlift)
    g = ChartedGeometry(
        name=name,
        coords=("theta",),
        periodic=(True,),
        covered=cov,
        lifts=lifts,
    )
    _validate_geometry(g)
    return g


# -- annulus ------------------------------------------------------------------


def annulus_geometry() -> ChartedGeometry:
    """S^1 x [0,1]: inner ring labels 0..3, outer 4..7, four arc charts."""
    n = 4

    def inner(j):
        return j % n

    def outer(j):
        return 4 + (j % n)

    def vlift(chart: int, v: int) -> Optional[Row]:
        j = v % 4
        s = Fraction(0) if v < 4 else Fraction(1)
        x = Fraction(j, n)
        lo = Fraction(chart, n)
        if x < lo:
            x += 1
        if not lo <= x <= lo + Fraction(1, n):
            return None
        return (x, s)

    tops = []
    tops_admissible = {}
    for j in range(n):
        rows = {
            inner(j): vlift(j, inner(j)),
            inner(j + 1): vlift(j, inner(j + 1)),
            outer(j): vlift(j, outer(j)),
            outer(j + 1): vlift(j, outer(j + 1)),
        }
        t1 = _oriented((inner(j), inner(j + 1), outer(j + 1)), rows)
        t2 = _oriented((inner(j), outer(j + 1), outer(j)), rows)
        tops.extend([t1, t2])
        tops_admissible[t1] = (j,)
        tops_admissible[t2] = (j,)
    K = build_complex(tops)
    cov = attach_cover(K, n, tops_admissible)
    lifts = _hierarchical_lift_table(K, cov, vlift)
    g = ChartedGeometry(
        name="annulus",
        coords=("theta", "s"),
        periodic=(True, False),
        covered=cov,
        lifts=lifts,
    )
    _validate_geometry(g)
    return g


# -- solid torus ---------------------------------------------------------------


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
    n = 4

    def label(ring: int, d: int) -> int:
        return 5 * (ring % n) + d

    def vlift(chart: int, v: int) -> Optional[Row]:
        ring, d = divmod(v, 5)
        t = Fraction(ring, n)
        lo = Fraction(chart, n)
        if t < lo:
            t += 1
        if not lo <= t <= lo + Fraction(1, n):
            return None
        x, y = _DISC_XY[d]
        return (x, y, t)

    disc_triangles = [(0, 1 + d, 1 + (d + 1) % n) for d in range(n)]
    tops = []
    tops_admissible = {}
    for ring in range(n):
        for (A, B, C) in disc_triangles:
            bottom = [label(ring, A), label(ring, B), label(ring, C)]
            top = [label(ring + 1, A), label(ring + 1, B), label(ring + 1, C)]
            prism = [
                (bottom[0], bottom[1], bottom[2], top[2]),
                (bottom[0], bottom[1], top[1], top[2]),
                (bottom[0], top[0], top[1], top[2]),
            ]
            for tet in prism:
                rows = {v: vlift(ring, v) for v in tet}
                t = _oriented(tet, rows)
                tops.append(t)
                tops_admissible[t] = (ring,)
    K = build_complex(tops)
    cov = attach_cover(K, n, tops_admissible)
    lifts = _hierarchical_lift_table(K, cov, vlift)
    g = ChartedGeometry(
        name="solid-torus",
        coords=("x", "y", "theta"),
        periodic=(False, False, True),
        covered=cov,
        lifts=lifts,
    )
    _validate_geometry(g)
    return g


# -- sphere (octahedron, face charts) ------------------------------------------


def sphere_octahedron_geometry() -> ChartedGeometry:
    """The octahedron sphere in (theta, u) with u the height coordinate.

    Charts 0..3 are the northern faces, 4..7 the southern ones.  Polar
    edges carry meridian-constant branches, so the lift table is genuinely
    per-simplex: no chart has a branch value at a pole vertex.
    """
    N, S = 0, 5
    E = [1, 2, 3, 4]

    def th(i: int) -> Fraction:
        return Fraction(i, 4)

    lifts: Dict[Tuple[int, Simplex], Tuple[Row, ...]] = {}

    def put(chart: int, verts: Sequence[int], rows_by_vertex: Mapping[int, Row]):
        s, _ = sort_with_parity(tuple(verts))
        lifts[(chart, s)] = tuple(rows_by_vertex[v] for v in s)

    tops = []
    tops_admissible = {}
    for i in range(4):
        lo, hi, mid = th(i), th(i + 1), Fraction(2 * i + 1, 8)
        for southern in (False, True):
            chart = (4 + i) if southern else i
            u_pole = Fraction(-1) if southern else Fraction(1)
            pole = S if southern else N
            a, b = E[i], E[(i + 1) % 4]
            rows = {
                pole: (mid, u_pole),
                a: (lo, Fraction(0)),
                b: (hi, Fraction(0)),
            }
            face = _oriented((pole, a, b), rows)
            tops.append(face)
            tops_admissible[face] = (chart,)
            put(chart, face, rows)
            # Meridian edges: the branch along each polar edge is the
            # edge's own constant angle, not the face's interior value.
            put(chart, (pole, a), {pole: (lo, u_pole), a: (lo, Fraction(0))})
            put(chart, (pole, b), {pole: (hi, u_pole), b: (hi, Fraction(0))})
            put(chart, (a, b), {a: (lo, Fraction(0)), b: (hi, Fraction(0))})
            put(chart, (a,), {a: (lo, Fraction(0))})
            put(chart, (b,), {b: (hi, Fraction(0))})

    K = build_complex(tops)
    cov = attach_cover(K, 8, tops_admissible)
    g = ChartedGeometry(
        name="sphere-octahedron-2chart",
        coords=("theta", "u"),
        periodic=(True, False),
        covered=cov,
        lifts=lifts,
    )
    _validate_geometry(g)
    return g


# -- registry and subdivision ---------------------------------------------------

GEOMETRY_BUILDERS: Dict[str, Callable[[], ChartedGeometry]] = {
    "circle-2arc": lambda: circle_geometry(2, "circle-2arc"),
    "circle-3arc": lambda: circle_geometry(3, "circle-3arc"),
    "torus2-4chart": torus2_geometry,
    "torus3-8chart": torus3_geometry,
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

    A child simplex inherits the admissible charts of its parent top; its
    lifts average the parent rows of its carrier, staying inside a single
    branch.  Parent simplices without a branch (pole vertices) propagate
    their missing entries, which is harmless exactly where it happens.

    A fine vertex's row depends only on the chart and the carrier whose
    rows it averages, so it is computed once per (chart, carrier) and the
    same row tuple is shared by every child simplex with that carrier
    (Munkres, *Elements of Algebraic Topology*, section 15).  The average
    is an integer sum of the parent rows scaled over their common
    denominator L, made one ``Fraction`` per coordinate.  The result is
    validated like any other geometry.
    """
    K = g.covered.complex
    K2, carriers = barycentric_subdivide(K)
    tops_admissible = {t: g.covered.admissible_of(carriers[t]) for t in K2.tops}
    cov2 = attach_cover(K2, g.covered.num_sets, tops_admissible)

    lifts: Dict[Tuple[int, Simplex], Tuple[Row, ...]] = {}
    bary: Dict[Tuple[int, Simplex, int], Row] = {}
    L, scaled = _integer_rows(g.lifts)
    ncoord = len(g.coords)
    for _, s in K2.all_simplices():
        carrier = carriers[s]
        for a in cov2.admissible_of(s):
            parent_rows = g.lifts.get((a, carrier))
            if parent_rows is None:
                continue
            rows: List[Row] = []
            for b in s:
                row = bary.get((a, carrier, b))
                if row is None:
                    tau = [
                        scaled[id(parent_rows[carrier.index(v)])]
                        for v in carriers[(b,)]
                    ]
                    row = bary[(a, carrier, b)] = tuple(
                        Fraction(sum(r[c] for r in tau), L * len(tau))
                        for c in range(ncoord)
                    )
                rows.append(row)
            lifts[(a, s)] = tuple(rows)
    g2 = ChartedGeometry(
        name=g.name,
        coords=g.coords,
        periodic=g.periodic,
        covered=cov2,
        lifts=lifts,
        parent=g,
    )
    _validate_geometry(g2)
    return g2
