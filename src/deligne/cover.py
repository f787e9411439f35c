"""Combinatorial good covers and chart index maps.

A cover assigns to every top simplex a nonempty set of chart indices; a
lower simplex is admissible for the union of the sets of the tops that
contain it.  This encodes "the closed simplex lies inside the chart" and
makes admissibility monotone under taking faces, which is what every
multi-index in a cochain relies on.

An index map picks one admissible chart per simplex of one cover and
carries that cover.  It is checked once, when it is built; an operation
then only asks that the map was made on its cochain's cover.  Holonomy
and transgression values must not depend on the pick; that independence
is a theorem, not an assumption, and the test suite exercises it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import CoverError
from .simplicial import Simplex, SimplicialComplex, sort_with_parity


@dataclass(frozen=True)
class CoveredComplex:
    """A complex together with per-simplex admissible chart sets."""

    complex: SimplicialComplex
    num_sets: int
    admissible: Mapping[Simplex, Tuple[int, ...]]

    def admissible_of(self, sigma: Simplex) -> Tuple[int, ...]:
        try:
            return self.admissible[sigma]
        except KeyError:
            raise CoverError(f"{sigma} is not a simplex of the covered complex")

    def multi_indices(self, sigma: Simplex, length: int) -> Iterable[Tuple[int, ...]]:
        """Strictly increasing admissible multi-indices of a given length."""
        return combinations(self.admissible_of(sigma), length)


def _chart(a: object, what: str) -> int:
    """``a`` if it is an int (a chart index or count); a bool, float or string
    is refused."""
    if type(a) is not int:
        raise CoverError(f"{what} must be an int, got {a!r}")
    return a


def attach_cover(
    K: SimplicialComplex,
    num_sets: int,
    tops_admissible: Mapping[Tuple[int, ...], Iterable[int]],
) -> CoveredComplex:
    """Attach a cover given per-top chart sets; faces get the union rule."""
    if _chart(num_sets, "num_sets") < 1:
        raise CoverError("a cover needs at least one set")
    canon: Dict[Simplex, Tuple[int, ...]] = {}
    for key, charts in tops_admissible.items():
        s, _ = sort_with_parity(tuple(key))
        cs = tuple(sorted({_chart(a, f"chart of top {s}") for a in charts}))
        if not cs:
            raise CoverError(f"top simplex {s} has an empty chart set")
        if cs[0] < 0 or cs[-1] >= num_sets:
            raise CoverError(f"chart index out of range for top {s}: {cs}")
        if s in canon:
            raise CoverError(f"duplicate cover assignment for top {s}")
        canon[s] = cs
    missing = [t for t in K.tops if t not in canon]
    if missing:
        raise CoverError(f"cover misses top simplices, e.g. {missing[0]}")
    tops = set(K.tops)
    extra = [t for t in canon if t not in tops]
    if extra:
        raise CoverError(f"cover assigns charts to non-top simplex {extra[0]}")

    # Down the face table: a face takes its cofacets' charts and the place of
    # the first top containing it, where its lexicographically first cofacet
    # lies; ties go in (dimension, lexicographic) order.
    charts = {t: set(canon[t]) for t in K.tops}
    first = {t: i for i, t in enumerate(K.tops)}
    for k in range(K.dim, 0, -1):
        for s in K.simplices(k):
            for f, _ in K.facets(s):
                if f in charts:
                    charts[f] |= charts[s]
                else:
                    charts[f], first[f] = set(charts[s]), first[s]
    order = sorted((s for _, s in K.all_simplices()), key=first.__getitem__)
    return CoveredComplex(K, num_sets, {s: tuple(sorted(charts[s])) for s in order})


def star_cover(K: SimplicialComplex) -> CoveredComplex:
    """One chart per vertex, each top admissible in its vertices' charts.

    Chart numbers are positions in the sorted vertex list.  Every simplex
    ends up with as many charts as vertices of adjacent tops, so overlaps
    of three and more sets are plentiful; this is the cover of choice for
    randomized combinatorial checks.
    """
    position = {v: i for i, v in enumerate(K.vertices)}
    return attach_cover(
        K, len(position), {t: tuple(position[v] for v in t) for t in K.tops}
    )


@dataclass(frozen=True)
class IndexMap:
    """One admissible chart per simplex of ``cover``; callable on canonical
    simplices.  Building one is its one check: every simplex of the cover's
    complex needs an int chart admissible there, or CoverError is raised.
    Faces inherit their cofaces' charts, so this also covers every word
    built along flags.  The map keeps the charts of the cover's simplices
    only, in their order, so ``IndexMap(sub, rho.assignment)`` restricts
    rho to a subcover."""

    cover: CoveredComplex = field(repr=False)
    assignment: Mapping[Simplex, int]

    def __post_init__(self) -> None:
        C, assignment = self.cover, self.assignment
        table: Dict[Simplex, int] = {}
        for _, s in C.complex.all_simplices():
            if s not in assignment:
                raise CoverError(f"index map misses simplex {s}")
            a = table[s] = assignment[s]
            if type(a) is not int or a not in C.admissible_of(s):
                _chart(a, f"chart of {s}")  # messages are formatted on failure only
                raise CoverError(f"chart {a} is not admissible for {s}")
        object.__setattr__(self, "assignment", table)

    def __call__(self, sigma: Simplex) -> int:
        try:
            return self.assignment[sigma]
        except KeyError:
            raise CoverError(f"index map does not cover {sigma}")


def default_index_map(C: CoveredComplex) -> IndexMap:
    return IndexMap(C, {s: C.admissible_of(s)[0] for _, s in C.complex.all_simplices()})


def random_index_map(
    C: CoveredComplex,
    seed: int,
    frozen: Optional[Mapping[Simplex, int]] = None,
) -> IndexMap:
    """Uniform admissible pick per simplex, deterministic in the seed.

    ``frozen`` pins chosen simplices, given as canonical simplices of C,
    to fixed charts; useful for perturbing an index map away from a region
    that must stay put.  A pinned simplex draws nothing.
    """
    frozen = dict(frozen or {})
    for s in frozen:
        if type(s) is not tuple or not C.complex.has(s):
            raise CoverError(f"frozen key {s!r} is not a canonical simplex of the complex")
    rng = random.Random(seed)
    table: Dict[Simplex, int] = {}
    for k, s in C.complex.all_simplices():
        if s in frozen:
            table[s] = frozen[s]
        else:
            adm = C.admissible_of(s)
            table[s] = adm[rng.randrange(len(adm))]
    return IndexMap(C, table)


def restrict_cover(C: CoveredComplex, sub: SimplicialComplex) -> CoveredComplex:
    """Inherit admissibility verbatim on a subcomplex of C's complex."""
    table: Dict[Simplex, Tuple[int, ...]] = {}
    for k, s in sub.all_simplices():
        if not C.complex.has(s):
            raise CoverError(f"{s} is not a simplex of the ambient complex")
        table[s] = C.admissible_of(s)
    return CoveredComplex(sub, C.num_sets, table)


def restrict_cover_to_boundary(C: CoveredComplex) -> CoveredComplex:
    from .simplicial import boundary_restrict

    return restrict_cover(C, boundary_restrict(C.complex))

