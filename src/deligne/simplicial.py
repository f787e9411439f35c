"""Finite simplicial complexes with oriented tops and flag enumeration.

A complex is built from its top-dimensional simplices, each given as a
tuple of integer vertex labels whose order fixes its orientation.  All
simplices are stored canonically (vertices ascending); a top keeps a
parity in {+1, -1} recording how the given orientation compares with the
canonical one, and a lower face reads +1.  Orientation of a face only
ever matters when it is a top of its own complex, e.g. after
:func:`boundary_restrict`, which installs the induced parities.

Incidence numbers between canonical simplices follow the standard rule
inc(sigma, tau) = (-1)^j where j is the position of the omitted vertex in
sigma (:func:`facets_of`).  One face table, built from the tops down,
holds each simplex's facets as the level below's own objects.  A flag
sign is the product of the top's parity with the incidence numbers along
the chain; flag enumeration is lexicographic and cached, so sums over
flags are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import lt
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from .errors import ComplexError

Simplex = Tuple[int, ...]

# Most vertices a top simplex may have.  One top on n vertices has 2^n - 1
# faces and n! flags, so the cap is checked before any face is built; 8
# allows every dimension up to 7.
MAX_TOP_VERTICES = 8

# _SIGNS[n]: the incidences of an n-vertex simplex's facets in ``combinations``
# order, which omits position n - 1 first; a vertex has none.
_SIGNS = ((), ()) + tuple(
    tuple((-1) ** j for j in range(n - 1, -1, -1)) for n in range(2, MAX_TOP_VERTICES + 1)
)


def parity_sort(items: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Sort a tuple, returning the sign of the sorting permutation.

    The sign is 0 when an entry repeats: an alternating function vanishes
    there.  This is the one inversion count behind every orientation and
    multi-index parity in the package.  An ascending tuple, the common
    case, is returned as it is with sign +1.
    """
    if all(map(lt, items, items[1:])):
        return tuple(items), 1
    n = len(items)
    inversions = 0
    for i in range(n):
        a = items[i]
        for j in range(i + 1, n):
            if a > items[j]:
                inversions += 1
            elif a == items[j]:
                return tuple(sorted(items)), 0
    return tuple(sorted(items)), -1 if inversions % 2 else 1


def sort_with_parity(verts: Sequence[int]) -> Tuple[Simplex, int]:
    """Sort a vertex tuple, returning the permutation parity as +-1.

    Raises on repeated labels; a degenerate simplex has no orientation.
    """
    if not verts:
        raise ComplexError("empty vertex tuple is not a simplex")
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ComplexError(f"vertex labels must be integers, got {v!r}")
    s, parity = parity_sort(verts)
    if parity == 0:
        raise ComplexError(f"repeated vertex label in simplex {tuple(verts)}")
    return s, parity


def facets_of(sigma: Simplex) -> Tuple[Tuple[Simplex, int], ...]:
    """Facets of a canonical simplex with incidence signs, in lex order.

    Omitting position j contributes (-1)^j; omitting later positions gives
    lexicographically earlier facets, as ``combinations`` lists them.  A
    vertex has no facets.
    """
    return tuple(zip(combinations(sigma, len(sigma) - 1), _SIGNS[len(sigma)]))


class Flag(NamedTuple):
    """A descending chain of simplices, top first, with its total sign."""

    chain: Tuple[Simplex, ...]
    sign: int


class SimplicialComplex:
    """Immutable complex; use :func:`build_complex` to construct one."""

    def __init__(self, tops: Sequence[Simplex], orient: Mapping[Simplex, int]):
        # Internal constructor: tops must already be canonical and distinct.
        self._by_dim: Dict[int, Tuple[Simplex, ...]] = {}
        self._orient: Dict[Simplex, int] = {}
        self._flag_cache: Dict[int, Tuple[Flag, ...]] = {}

        if tops:
            dims = {len(t) - 1 for t in tops}
            if len(dims) > 1:
                raise ComplexError("top simplices must share one dimension")
            self.dim = dims.pop()
        else:
            self.dim = -1

        for t in tops:
            if t in self._orient:
                raise ComplexError(f"duplicate top simplex {t}")
            self._orient[t] = orient[t]

        # The face table, from the tops down: each level is the facets of
        # the level above, and each simplex keeps its own.
        self._facets: Dict[Simplex, Tuple[Simplex, ...]] = {}
        level: Iterable[Simplex] = tops
        for k in range(self.dim, 0, -1):
            below: Dict[Simplex, Simplex] = {}
            for s in level:
                self._facets[s] = tuple([below.setdefault(f, f) for f in combinations(s, k)])
            self._by_dim[k] = tuple(sorted(level))
            level = below
        self._facets.update(dict.fromkeys(level, ()))
        self._by_dim[0] = tuple(sorted(level))

        self.tops: Tuple[Simplex, ...] = self._by_dim.get(self.dim, ())
        self._analyze_boundary()

    # -- structure ---------------------------------------------------------

    def _analyze_boundary(self) -> None:
        self.boundary_facets: Dict[Simplex, int] = {}
        self.pseudomanifold = True
        self.orientation_defects: Tuple[Simplex, ...] = ()
        if self.dim <= 0:
            # Points: no facets, closed by convention when nonempty.
            self.closed = self.dim == 0
            return
        incident: Dict[Simplex, List[int]] = {}
        facets, signs = self._facets, _SIGNS[self.dim + 1]
        for t in self.tops:
            ot = self._orient[t]
            for tau, inc in zip(facets[t], signs):
                incident.setdefault(tau, []).append(ot * inc)
        defects = []
        for tau in self._by_dim[self.dim - 1]:
            signs = incident.get(tau, [])
            if len(signs) == 1:
                self.boundary_facets[tau] = signs[0]
            elif len(signs) == 2:
                if signs[0] + signs[1] != 0:
                    defects.append(tau)
            else:
                self.pseudomanifold = False
                defects.append(tau)
        if defects and self.pseudomanifold:
            self.pseudomanifold = False
        self.orientation_defects = tuple(sorted(defects))
        self.closed = self.pseudomanifold and not self.boundary_facets

    # -- queries -----------------------------------------------------------

    def simplices(self, k: int) -> Tuple[Simplex, ...]:
        if k < 0 or k > self.dim:
            return ()
        return self._by_dim[k]

    def all_simplices(self) -> Iterable[Tuple[int, Simplex]]:
        for k in range(self.dim + 1):
            for s in self._by_dim[k]:
                yield k, s

    def has(self, sigma: Simplex) -> bool:
        return sigma in self._facets

    def orientation(self, sigma: Simplex) -> int:
        """Stored parity of a canonical simplex; tops may carry -1, and
        every lower face reads +1."""
        if sigma not in self._facets:
            raise ComplexError(f"{sigma} is not a simplex of this complex")
        return self._orient.get(sigma, 1)

    def facets(self, sigma: Simplex) -> Iterator[Tuple[Simplex, int]]:
        """The (facet, incidence) pairs of ``facets_of(sigma)``, read from
        the face table; each facet is this complex's own object."""
        try:
            return zip(self._facets[sigma], _SIGNS[len(sigma)])
        except KeyError:
            raise ComplexError(f"{sigma} is not a simplex of this complex") from None

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(v for (v,) in self.simplices(0))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(self._by_dim[k]) for k in range(self.dim + 1))

    # -- flags -------------------------------------------------------------

    def flags(self, q: int) -> Tuple[Flag, ...]:
        """All descending chains from a top down to dimension q.

        The sign of a chain is the top's parity times the product of the
        incidence numbers of its steps.  Order is lexicographic in the
        chain, which fixes summation order everywhere downstream.  Level
        q extends each chain of the cached level q + 1 by the facets of
        its last simplex, read from the face table in facet order, so
        every flag shares this complex's own simplex objects.
        """
        if q < 0 or q > self.dim:
            raise ComplexError(f"flag depth {q} out of range for dim {self.dim}")
        if q not in self._flag_cache:
            if q == self.dim:
                out = [Flag((t,), self._orient[t]) for t in self.tops]
            else:
                facets, signs, new = self._facets, _SIGNS[q + 2], tuple.__new__
                out = [
                    new(Flag, (chain + (tau,), sign * inc))
                    for chain, sign in self.flags(q + 1)
                    for tau, inc in zip(facets[chain[-1]], signs)
                ]
            self._flag_cache[q] = tuple(out)
        return self._flag_cache[q]

    def __repr__(self) -> str:
        counts = ",".join(str(len(self._by_dim[k])) for k in range(self.dim + 1))
        return f"SimplicialComplex(dim={self.dim}, counts=[{counts}])"


def build_complex(tops: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Build a complex from oriented top simplices.

    Each top is a tuple of distinct integer labels, at most
    ``MAX_TOP_VERTICES`` of them; tuple order fixes its orientation.  Two
    tops with the same vertex set are rejected even if their orientations
    differ.
    """
    canonical: List[Simplex] = []
    orient: Dict[Simplex, int] = {}
    for t in tops:
        t = tuple(t)
        if len(t) > MAX_TOP_VERTICES:
            raise ComplexError(
                f"a top simplex has {len(t)} vertices; at most "
                f"{MAX_TOP_VERTICES} are allowed"
            )
        s, parity = sort_with_parity(t)
        if s in orient:
            raise ComplexError(f"duplicate top simplex {s}")
        canonical.append(s)
        orient[s] = parity
    canonical.sort()
    return SimplicialComplex(canonical, orient)


def incidence(K: SimplicialComplex, sigma: Sequence[int], tau: Sequence[int]) -> int:
    """Incidence number of two oriented simplices of K, or 0.

    Both tuples are interpreted with the orientation their ordering gives;
    the result is the canonical incidence times both parities.
    """
    s, ps = sort_with_parity(tuple(sigma))
    t, pt = sort_with_parity(tuple(tau))
    if not (K.has(s) and K.has(t)):
        raise ComplexError("incidence arguments must be simplices of K")
    if len(s) - len(t) != 1:
        return 0
    for face, inc in facets_of(s):
        if face == t:
            return inc * ps * pt
    return 0


# -- derived complexes ------------------------------------------------------


def boundary_restrict(K: SimplicialComplex) -> SimplicialComplex:
    """The boundary of K as a complex with induced orientations.

    A closed complex yields the empty complex.
    """
    if K.dim < 1:
        raise ComplexError("boundary restriction needs dimension >= 1")
    if not K.pseudomanifold:
        raise ComplexError("boundary restriction needs an oriented pseudomanifold")
    tops = sorted(K.boundary_facets)
    orient = {tau: K.boundary_facets[tau] for tau in tops}
    return SimplicialComplex(tops, orient)


def reverse_orientation(K: SimplicialComplex) -> SimplicialComplex:
    if K.dim < 1:
        raise ComplexError("cannot reverse orientation in dimension < 1")
    orient = {t: -K.orientation(t) for t in K.tops}
    return SimplicialComplex(list(K.tops), orient)


def relabel_complex(
    K: SimplicialComplex, mapping: Mapping[int, int]
) -> SimplicialComplex:
    """Rename vertices by an injective map; missing labels stay fixed."""
    image = {}
    tops = []
    orient = {}
    for v in K.vertices:
        w = mapping.get(v, v)
        if w in image:
            raise ComplexError(f"relabeling collapses {image[w]} and {v}")
        image[w] = v
    for t in K.tops:
        renamed = tuple(mapping.get(v, v) for v in t)
        s, parity = sort_with_parity(renamed)
        tops.append(s)
        orient[s] = parity * K.orientation(t)
    tops.sort()
    return SimplicialComplex(tops, orient)


def disjoint_union(
    K1: SimplicialComplex, K2: SimplicialComplex
) -> Tuple[SimplicialComplex, Dict[int, int]]:
    """Union after shifting K2's labels clear of K1's; returns the shift map."""
    if K1.dim != K2.dim:
        raise ComplexError("disjoint union needs equal dimensions")
    offset = max(K1.vertices, default=-1) + 1 - min(K2.vertices, default=0)
    shift = {v: v + offset for v in K2.vertices}
    K2r = relabel_complex(K2, shift)
    tops = list(K1.tops) + list(K2r.tops)
    orient = {t: K1.orientation(t) for t in K1.tops}
    orient.update({t: K2r.orientation(t) for t in K2r.tops})
    return SimplicialComplex(sorted(tops), orient), shift


def glue_along_boundary(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    matching: Mapping[int, int],
) -> Tuple[SimplicialComplex, Dict[int, int]]:
    """Glue K2 onto K1 by identifying K2 vertices via ``matching``.

    The matched boundary pieces must be isomorphic with opposite induced
    orientations; this is enforced by requiring the glued complex to be an
    oriented pseudomanifold.  Unmatched K2 vertices are moved to fresh
    labels.  Returns the glued complex and the full relabeling applied to
    K2, for transporting covers and cochains.
    """
    if K1.dim != K2.dim:
        raise ComplexError("glued pieces must share a dimension")
    k2_verts = set(K2.vertices)
    for v, w in matching.items():
        if v not in k2_verts:
            raise ComplexError(f"matching key {v} is not a vertex of K2")
        if (w,) not in K1.simplices(0):
            raise ComplexError(f"matching value {w} is not a vertex of K1")
    if len(set(matching.values())) != len(matching):
        raise ComplexError("matching must be injective")

    fresh = max(max(K1.vertices, default=-1), max(matching.values(), default=-1)) + 1
    relabel: Dict[int, int] = dict(matching)
    for v in K2.vertices:
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1
    K2r = relabel_complex(K2, relabel)

    tops = list(K1.tops)
    orient = {t: K1.orientation(t) for t in K1.tops}
    for t in K2r.tops:
        if t in orient:
            raise ComplexError(f"glued pieces overlap on top simplex {t}")
        tops.append(t)
        orient[t] = K2r.orientation(t)
    K = SimplicialComplex(sorted(tops), orient)
    if not K.pseudomanifold:
        raise ComplexError(
            "gluing produced a non-manifold or orientation mismatch at "
            f"{K.orientation_defects[:4]}"
        )
    return K, relabel


# -- barycentric subdivision -------------------------------------------------


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix by Gaussian elimination."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def barycentric_subdivide(
    K: SimplicialComplex,
) -> Tuple[SimplicialComplex, Dict[Simplex, Simplex]]:
    """First barycentric subdivision plus the carrier map.

    Each simplex of K gets a barycenter vertex, labeled in order of
    (dimension, lexicographic position), so the vertices of any chain are
    automatically ascending.  A child top is a flag of K down to a vertex
    read bottom-up, canonical as built (Munkres, *Elements of Algebraic
    Topology*, section 15).  A flag that drops positions perm[d], ...,
    perm[1] of a top in turn has sign (-1)^(d(d+1)/2) times perm's parity
    times the top's.  Perm's parity is the chain's barycentric orientation,
    as its barycentre matrix is that permutation matrix times a
    lower-triangular one with positive diagonal; so (-1)^(d(d+1)/2) times
    the flag's sign makes subdivision preserve the fundamental class.  The
    carrier of a child simplex is the smallest parent simplex containing
    it, i.e. the largest chain element among its vertices; the carrier map
    is keyed in the child complex's simplex order.
    """
    if K.dim < 0:
        raise ComplexError("cannot subdivide the empty complex")
    parents = [s for _, s in K.all_simplices()]
    label = {s: i for i, s in enumerate(parents)}
    # K's flags down to a vertex, from the tops down the face table, each
    # as its labels bottom-up, its last simplex and its sign.
    flags = [((label[t],), t, K.orientation(t)) for t in K.tops]
    for _ in range(K.dim):
        flags = [
            ((label[f],) + labels, f, parity * inc)
            for labels, s, parity in flags
            for f, inc in K.facets(s)
        ]
    sign = (-1) ** (K.dim * (K.dim + 1) // 2)
    orient = {labels: sign * parity for labels, _, parity in flags}
    del flags
    K2 = SimplicialComplex(sorted(orient), orient)
    return K2, {s: parents[s[-1]] for _, s in K2.all_simplices()}
