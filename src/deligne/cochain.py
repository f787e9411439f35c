"""Discrete degree-p cochains and the operations that make them classes.

A cochain of degree p stores components C^k for k = 0..p.  C^k maps a
k-simplex together with a strictly increasing multi-index of p-k+1
admissible charts to a value: C^0 holds logarithm lifts at vertices, C^k
for k >= 1 holds the integral of the k-form component over the simplex in
its canonical (ascending-vertex) orientation.  Evaluation at arbitrary
simplex orderings and multi-index orderings is totally antisymmetric;
repeated charts give 0.

The two differentials are the Čech delta (alternating omission of chart
indices) and the discrete exterior d (incidence-weighted sum over facets).
The cocycle conditions use the fixed sign convention

    delta C^k = (-1)^(p-k) * d C^(k-1)    for k = 1..p,

with level 0 replaced by integrality: delta C^0 must land in 2*pi*Z.

Whole-cochain passes (validation, the gauge move, trivialization and
Chern class extraction) evaluate both differentials with one per-simplex
kernel on canonical keys: dropping one index from an increasing
multi-index keeps it increasing, and the facets of a canonical simplex
are canonical, so no key is ever sorted.  For a k-simplex s with m
admissible charts and multi-indices J of length n, the kernel reads the
values of X^k over the (n-1)-subsets of the charts once, one dict lookup
per stored slot, into a list followed by its negations.  An omission
template for (m, n), built once per pass, has one row per J: an
itemgetter that picks the terms (-1)^j X(J without J[j]) from that list,
so (delta X)(s, J) is the sum of one row.  (d Y^(k-1))(s, J) reads each
facet's values over the same J as columns and sums them row by row.
``cech_delta`` and ``discrete_d`` evaluate one slot term by term.

An exact cochain stores Python-int numerators over one ``scale``, the lcm
of its entries' reduced denominators, and every operation returns that
canonical form.  Whole-cochain passes sum the stored ints in place; two
cochains are rescaled only when their scales differ.  A Fraction is built
only for a value handed out or a nonzero residual.  Float mode stores
floats over scale 1 and sums each row with one math.fsum, which rounds
the exact sum of its terms once.  A row holds the same multiset of terms
as the term-by-term evaluators, in the same order, so float results are
bit-identical to theirs.  The flag sums' word kernel sums its terms the
same way, with one parity sort per chart word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isfinite, lcm
from operator import add, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ._scalars import TWO_PI, Scalar, coerce, exceeds, group_sums, tree_sum, zero
from .cover import CoveredComplex, attach_cover
from .errors import CochainError
from .simplicial import (
    Simplex,
    SimplicialComplex,
    disjoint_union,
    facets_of,
    glue_along_boundary,
    parity_sort,
    reverse_orientation,
    sort_with_parity,
)

MultiIndex = Tuple[int, ...]
Key = Tuple[int, Simplex, MultiIndex]
Values = Mapping[Key, Scalar]
Term = Tuple[int, int, Simplex, Sequence[int]]  # (sign, k, simplex, chart word)


class DeligneCochain:
    """Sparse cochain; missing entries are 0.  Use :func:`build_cochain`.

    ``data`` maps canonical keys to nonzero values over ``scale``: in exact
    mode Python-int numerators, the entry being ``Fraction(n, scale)`` with
    ``scale`` the lcm of the entries' reduced denominators (1 when there
    are none); in float mode floats over scale 1.  Any other scale or value
    type raises :class:`CochainError`.
    """

    def __init__(
        self,
        base: CoveredComplex,
        degree: int,
        data: Dict[Key, Scalar],
        exact: bool,
        cocycle: bool = False,
        scale: int = 1,
    ):
        if exact:
            if type(scale) is not int or scale < 1:
                raise CochainError(f"exact cochain scale must be an int >= 1, got {scale!r}")
            if not set(map(type, data.values())) <= {int}:
                raise CochainError("exact cochain data must be int numerators over scale")
        elif scale != 1:
            raise CochainError(f"float cochain scale must be 1, got {scale!r}")
        self.base = base
        self.degree = degree
        self._data = data
        self.exact = exact
        self.cocycle = cocycle
        self.scale = scale

    def component(self, k: int, sigma: Sequence[int], indices: Sequence[int]) -> Scalar:
        """Evaluate C^k with antisymmetry in both arguments."""
        s, ps = sort_with_parity(tuple(sigma))
        idx, pi = parity_sort(tuple(indices))
        if pi == 0:
            return zero(self.exact)
        value = self._data.get((k, s, idx))
        if value is None:
            return zero(self.exact)
        return _unscaled(ps * pi * value, self.scale, self.exact)

    def stored(self) -> Iterator[Tuple[int, Simplex, MultiIndex, Scalar]]:
        """Stored nonzero entries in canonical (k, simplex, indices) order,
        as stored: int numerators over ``scale`` in exact mode, floats in
        float mode."""
        data = self._data
        for key in sorted(data):
            yield (*key, data[key])

    def entries(self) -> Iterable[Tuple[int, Simplex, MultiIndex, Scalar]]:
        """Stored nonzero entries in canonical (k, simplex, indices) order.

        Exact mode builds one Fraction per distinct numerator per call."""
        if not self.exact:
            yield from self.stored()
            return
        scale = self.scale
        made: Dict[int, Fraction] = {}
        for k, s, J, n in self.stored():
            value = made.get(n)
            if value is None:
                value = made[n] = Fraction(n, scale)
            yield k, s, J, value

    def __len__(self) -> int:
        """The number of stored nonzero entries."""
        return len(self._data)

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return (
            f"DeligneCochain(degree={self.degree}, entries={len(self._data)}, "
            f"{mode}, cocycle={self.cocycle})"
        )


def build_cochain(
    base: CoveredComplex,
    degree: int,
    entries: Iterable[Tuple[int, Sequence[int], Sequence[int], object]],
    exact: bool = False,
) -> DeligneCochain:
    """Build a cochain from (k, multi-index, simplex, value) entries.

    Indices and simplices may arrive in any order; the sorting parities
    are absorbed into the stored value.  Exact zeros are dropped, so the
    empty entry list is the zero cochain.  Conflicting duplicates raise.
    """
    if exact:
        return _build(
            base, degree, entries, exact, lambda raw: coerce(raw, True).as_integer_ratio()
        )
    return _build(base, degree, entries, exact, lambda raw: (coerce(raw, False), 1))


def _build(
    base: CoveredComplex,
    degree: int,
    entries: Iterable[Tuple[int, Sequence[int], Sequence[int], object]],
    exact: bool,
    pair: Optional[Callable[[object], Tuple[Scalar, int]]] = None,
) -> DeligneCochain:
    """The one per-entry check path of :func:`build_cochain` and the
    cochain file reader.  An entry's value is a pair (n, d), or ``pair``
    makes one of it: a reduced numerator and denominator in exact mode,
    (float, 1) in float mode, so no Fraction is needed."""
    if degree < 0:
        raise CochainError("cochain degree must be nonnegative")
    data: Dict[Key, object] = {}  # (n, d) pairs, then the stored values
    for k, indices, simplex, raw in entries:
        if not 0 <= k <= degree:
            raise CochainError(f"component level {k} outside 0..{degree}")
        s, ps = sort_with_parity(tuple(simplex))
        if len(s) - 1 != k:
            raise CochainError(f"simplex {s} is not {k}-dimensional")
        if len(indices) != degree - k + 1:
            raise CochainError(
                f"level-{k} multi-index must have length {degree - k + 1}, "
                f"got {tuple(indices)}"
            )
        n, d = raw if pair is None else pair(raw)
        idx, pi = parity_sort(tuple(indices))
        if pi == 0:
            if n != 0:
                raise CochainError(
                    f"repeated chart index {tuple(indices)} with nonzero value"
                )
            continue
        _admit(base, data, (k, s, idx), (ps * pi * n, d))
    for key in [key for key, (n, _) in data.items() if n == 0]:
        del data[key]
    scale = lcm(*{d for _, d in data.values()})
    for key, (n, d) in data.items():
        data[key] = n * (scale // d) if exact else n
    return DeligneCochain(base, degree, data, exact, scale=scale)


def _admit(base: CoveredComplex, data: Dict[Key, object], key: Key, value: object) -> None:
    """Store value at a canonical key whose charts are admissible for its
    simplex on base; a different value already there is a conflict."""
    _, s, idx = key
    adm = base.admissible_of(s)
    for a in idx:
        if a not in adm:
            raise CochainError(f"chart {a} is not admissible for {s}")
    if key in data and data[key] != value:
        raise CochainError(f"conflicting duplicate entry at {key}")
    data[key] = value


def _canonical(c: DeligneCochain) -> DeligneCochain:
    """c with its exact scale and numerators divided by their gcd, which
    leaves the scale at the lcm of the reduced denominators."""
    if c.exact:
        g = gcd(c.scale, *c._data.values())
        if g > 1:
            c._data = {key: n // g for key, n in c._data.items()}
            c.scale //= g
    return c


def zero_cochain(base: CoveredComplex, degree: int, exact: bool = False) -> DeligneCochain:
    return DeligneCochain(base, degree, {}, exact, cocycle=True)


# -- differentials -----------------------------------------------------------


def _scaled(*cochains: DeligneCochain) -> Tuple[List[Values], int]:
    """Kernel input: one value map per cochain over one common scale.

    Each stored map is passed through as it is unless the cochains' scales
    differ; then exact entries are rescaled to the lcm of the scales for
    this call.  Float maps are always passed through over 1.
    """
    scale = lcm(*(c.scale for c in cochains))
    maps = [
        c._data
        if c.scale == scale
        else {key: n * (scale // c.scale) for key, n in c._data.items()}
        for c in cochains
    ]
    return maps, scale


def _unscaled(x: Scalar, scale: int, exact: bool) -> Scalar:
    """A kernel value back in the cochain's scalar type."""
    return Fraction(x, scale) if exact else x


def _residual(gap: Scalar, scale: int, exact: bool) -> Scalar:
    """|gap| from kernel units; exact mode builds a Fraction only if nonzero."""
    r = abs(gap)
    return Fraction(r, scale) if exact and r else r


def _omissions(m: int, n: int) -> List[itemgetter]:
    """The Čech delta's template for m charts and multi-indices of length
    n >= 2: row r belongs to the r-th n-subset J of range(m) in
    combinations order.  It picks, from the values over the (n-1)-subsets
    of range(m) in combinations order followed by their negations, the
    terms (-1)^j X(J without J[j]) for j = 0..n-1, in that order.

    ``combinations(J, n - 1)`` omits J[n-1] first, hence the reversal."""
    rank = {K: i for i, K in enumerate(combinations(range(m), n - 1))}.__getitem__
    N = comb(m, n - 1)
    offsets = [N * ((n - 1 - i) & 1) for i in range(n)]
    rows = []
    for J in combinations(range(m), n):
        row = list(map(add, map(rank, combinations(J, n - 1)), offsets))
        row.reverse()
        rows.append(itemgetter(*row))
    return rows


def _coboundaries(
    base: CoveredComplex,
    k: int,
    n: int,
    xv: Optional[Values],
    yv: Optional[Values],
    exact: bool,
) -> Iterator[Tuple[Simplex, List[MultiIndex], Optional[List[Scalar]], Optional[List[Scalar]]]]:
    """Kernel: (s, Js, delta, d) for each canonical k-simplex s with at
    least n admissible charts.

    Js are its increasing admissible n-tuples in combinations order;
    delta[r] = (delta X^k)(s, Js[r]) over the value map ``xv`` and
    d[r] = (d Y^(k-1))(s, Js[r]) over ``yv``, each None where its map is.
    X's values over s are read once, one lookup per (n-1)-tuple, and each
    delta is one sum of a template row over them; Y's values are read
    once per facet and n-tuple.  Every sum takes its terms in the order
    of the alternating and the facet sum.  The templates live as long as
    the generator."""
    templates: Dict[int, List[itemgetter]] = {}
    for s in base.complex.simplices(k):
        charts = base.admissible_of(s)
        m = len(charts)
        if m < n:
            continue
        Js = list(combinations(charts, n))
        delta = d = None
        if xv is not None:
            get = xv.get
            terms = [get((k, s, K), 0) for K in combinations(charts, n - 1)]
            terms += [-x for x in terms]
            rows = templates.get(m)
            if rows is None:
                rows = templates[m] = _omissions(m, n)
            delta = group_sums([row(terms) for row in rows], exact)
        if yv is not None:
            get = yv.get
            columns = [[sign * get((k - 1, f, J), 0) for J in Js] for f, sign in facets_of(s)]
            d = group_sums(zip(*columns), exact)
        yield s, Js, delta, d


def _word_sums(c: DeligneCochain, *groups: Iterable[Term]) -> List[Scalar]:
    """Kernel: per group of (sign, k, s, word) terms with s canonical and the
    word in any order, the sum of sign * C^k(s, word) in c's scalar type.
    All groups read the stored values over c's scale."""
    exact, scale = c.exact, c.scale
    get = c._data.get
    sums = []
    for terms in groups:
        out = []
        for sign, k, s, word in terms:
            idx, parity = parity_sort(word)
            if parity:
                out.append(sign * parity * get((k, s, idx), 0))
        sums.append(_unscaled(tree_sum(out, exact), scale, exact))
    return sums


def cech_delta(c: DeligneCochain, sigma: Sequence[int], indices: Sequence[int]) -> Scalar:
    """(delta C^k)(sigma, indices), k = dim sigma, |indices| = stored + 1."""
    s, ps = sort_with_parity(tuple(sigma))
    J, pj = parity_sort(tuple(indices))
    if pj == 0:
        return zero(c.exact)
    get, k = c._data.get, len(s) - 1
    terms = [(-1 if j & 1 else 1) * get((k, s, J[:j] + J[j + 1:]), 0) for j in range(len(J))]
    return _unscaled(ps * pj * tree_sum(terms, c.exact), c.scale, c.exact)


def discrete_d(c: DeligneCochain, sigma: Sequence[int], indices: Sequence[int]) -> Scalar:
    """(d C^(k-1))(sigma, indices) for a k-simplex sigma, via facets.

    The facet values are taken in canonical orientation; incidence signs
    carry the orientation bookkeeping.  Admissibility of the indices for
    the facets follows from admissibility for sigma.
    """
    s, ps = sort_with_parity(tuple(sigma))
    if len(s) < 2:
        raise CochainError(f"discrete_d needs a simplex of dimension >= 1, got {s}")
    J, pj = parity_sort(tuple(indices))
    if pj == 0:
        return zero(c.exact)
    get, k = c._data.get, len(s) - 1
    terms = [sign * get((k - 1, f, J), 0) for f, sign in facets_of(s)]
    return _unscaled(ps * pj * tree_sum(terms, c.exact), c.scale, c.exact)


def _nearest_turns(
    delta: List[Scalar], scale: int, exact: bool
) -> Optional[List[Tuple[Optional[int], Scalar]]]:
    """(n, |x / turn - n|) for each kernel level-0 value x of one simplex:
    the nearest whole turn and the residual in turns.  None in exact mode
    when one pass of ``x % scale`` finds every x a whole number of turns.

    Exact mode reads x as turns over ``scale`` and rounds half to even, as
    round() does on a Fraction; the residual is 0 or a Fraction.  Float
    mode has the arithmetic of ``integer_residual``, then divides by 2pi;
    a non-finite x has no nearest n and keeps its size as the residual.
    """
    out = []
    if exact:
        if not any(map(scale.__rmod__, delta)):
            return None
        for x in delta:
            n, r = divmod(x, scale)
            if 2 * r > scale or (2 * r == scale and n % 2):
                n += 1
            out.append((n, _residual(x - n * scale, scale, exact)))
        return out
    for x in delta:
        if isfinite(x):
            n = round(x / TWO_PI)
            out.append((n, abs(x - n * TWO_PI) / TWO_PI))
        else:
            out.append((None, abs(x) / TWO_PI))
    return out


def _worse(residual: Scalar, top: Scalar) -> bool:
    """Whether residual replaces top as the worst: NaN wins and then stays."""
    return not (residual <= top) and top == top


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class FailedCondition:
    level: int
    simplex: Simplex
    indices: MultiIndex
    residual: Scalar
    witness: Optional[int] = None


@dataclass(frozen=True)
class CocycleReport:
    degree: int
    exact: bool
    tolerance: float
    worst: Mapping[int, Scalar]
    checked: Mapping[int, int]
    failing: Tuple[FailedCondition, ...]

    @property
    def passed(self) -> bool:
        return not self.failing


def validate_cocycle(c: DeligneCochain, tol: float = 1e-9) -> CocycleReport:
    """Check integrality at level 0 and the sign-fixed gluing at k = 1..p.

    In exact mode the residual threshold is zero regardless of ``tol``.
    Passing sets the cochain's ``cocycle`` flag; failing clears it.
    """
    p = c.degree
    exact = c.exact
    values, scale = c._data, c.scale
    worst: Dict[int, Scalar] = {}
    checked: Dict[int, int] = {}
    failing: List[FailedCondition] = []

    # Level 0 residuals are measured in turns: |delta C^0 / 2pi - n|.
    count = 0
    top = zero(exact)
    for v, Js, delta, _ in _coboundaries(c.base, 0, p + 2, values, None, exact):
        count += len(Js)
        turns = _nearest_turns(delta, scale, exact)
        if turns is None:  # every condition holds exactly
            continue
        for J, (n, residual) in zip(Js, turns):
            if not residual:  # neither the worst nor a breach
                continue
            if _worse(residual, top):
                top = residual
            if exceeds(residual, tol, exact):
                failing.append(FailedCondition(0, v, J, residual, n))
    worst[0] = top
    checked[0] = count

    for k in range(1, p + 1):
        count = 0
        top = zero(exact)
        sign = (-1) ** (p - k)
        for s, Js, delta, d in _coboundaries(c.base, k, p - k + 2, values, values, exact):
            count += len(Js)
            for J, x, y in zip(Js, delta, d):
                gap = x - sign * y
                if not gap:
                    continue
                residual = _residual(gap, scale, exact)
                if _worse(residual, top):
                    top = residual
                if exceeds(residual, tol, exact):
                    failing.append(FailedCondition(k, s, J, residual))
        worst[k] = top
        checked[k] = count

    report = CocycleReport(
        degree=p,
        exact=c.exact,
        tolerance=tol,
        worst=worst,
        checked=checked,
        failing=tuple(failing),
    )
    c.cocycle = report.passed
    return report


# -- algebra -----------------------------------------------------------------


def _require_same_base(a: DeligneCochain, b: DeligneCochain) -> None:
    if a.base is not b.base and a.base != b.base:
        raise CochainError("cochains live on different covered complexes")
    if a.exact != b.exact:
        raise CochainError("cannot mix exact and float cochains")


def tensor(c1: DeligneCochain, c2: DeligneCochain) -> DeligneCochain:
    """Componentwise sum: the log/integral picture of the tensor product."""
    _require_same_base(c1, c2)
    if c1.degree != c2.degree:
        raise CochainError("tensor needs equal degrees")
    (v1, v2), scale = _scaled(c1, c2)
    data = dict(v1)
    for key, v in v2.items():
        s = data.get(key)
        total = v if s is None else s + v
        if total == 0:
            data.pop(key, None)
        else:
            data[key] = total
    cocycle = c1.cocycle and c2.cocycle
    out = DeligneCochain(c1.base, c1.degree, data, c1.exact, cocycle, scale)
    return _canonical(out)


def dual(c: DeligneCochain) -> DeligneCochain:
    data = {k: -v for k, v in c._data.items()}
    return DeligneCochain(c.base, c.degree, data, c.exact, c.cocycle, c.scale)


def _shifted(
    base: CoveredComplex, cv: Values, bv: Values, exact: bool, p: int, k: int
) -> Iterator[Tuple[Simplex, List[MultiIndex], List[Scalar]]]:
    """Kernel: (s, Js, values) per k-simplex s with values[r] the level-k
    entry of c + D(b) at (s, Js[r]), from the value maps of c and b, with
    b^p treated as 0; each is (c + delta b) +- d b, in that order."""
    n = p - k + 1
    odd = (p - k) & 1
    get = cv.get
    xv = bv if k < p else None
    yv = bv if k >= 1 else None
    for s, Js, delta, d in _coboundaries(base, k, n, xv, yv, exact):
        values = [get((k, s, J), 0) for J in Js]
        if delta is not None:
            values = [v + x for v, x in zip(values, delta)]
        if d is not None:
            if odd:
                values = [v - y for v, y in zip(values, d)]
            else:
                values = [v + y for v, y in zip(values, d)]
        yield s, Js, values


def exact_shift(c: DeligneCochain, b: DeligneCochain) -> DeligneCochain:
    """c + D(b): the gauge orbit move.  Preserves the cocycle flag."""
    _require_same_base(c, b)
    if c.degree < 1 or b.degree != c.degree - 1:
        raise CochainError("exact_shift needs deg(b) = deg(c) - 1 >= 0")
    p = c.degree
    exact = c.exact
    (cv, bv), scale = _scaled(c, b)
    data: Dict[Key, Scalar] = {}
    for k in range(0, p + 1):
        for s, Js, values in _shifted(c.base, cv, bv, exact, p, k):
            for J, v in zip(Js, values):
                if v != 0:
                    data[(k, s, J)] = v
    return _canonical(DeligneCochain(c.base, p, data, exact, c.cocycle, scale))


@dataclass(frozen=True)
class TrivializationReport:
    degree: int
    exact: bool
    tolerance: float
    lower_worst: Mapping[int, Scalar]
    lower_failing: Tuple[FailedCondition, ...]
    top_residuals: Mapping[Simplex, Scalar]
    top_spread: Scalar
    is_trivial: bool


def verify_trivialization(
    c: DeligneCochain, b: DeligneCochain, tol: float = 1e-9
) -> TrivializationReport:
    """Check c = D(b) level by level; report top-level obstruction data.

    Levels k < p must match exactly (within tol); the top level residual
    r(sigma^p, alpha) = c^p - d b^(p-1) is reported per top simplex at its
    first admissible chart, together with the worst spread over charts.
    The candidate trivializes c iff every residual passes.
    """
    _require_same_base(c, b)
    if c.degree < 1 or b.degree != c.degree - 1:
        raise CochainError("trivialization candidate must have degree p - 1")
    p = c.degree
    exact = c.exact
    (cv, bv), scale = _scaled(c, b)
    lower_worst: Dict[int, Scalar] = {}
    lower_failing: List[FailedCondition] = []
    for k in range(0, p):
        top = zero(exact)
        for s, Js, shifted in _shifted(c.base, {}, bv, exact, p, k):  # D(b) alone
            for J, x in zip(Js, shifted):
                residual = _residual(cv.get((k, s, J), 0) - x, scale, exact)
                if _worse(residual, top):
                    top = residual
                if exceeds(residual, tol, exact):
                    lower_failing.append(FailedCondition(k, s, J, residual))
        lower_worst[k] = top

    top_residuals: Dict[Simplex, Scalar] = {}
    spread = zero(exact)
    ok = not lower_failing
    for s, Js, _, d in _coboundaries(c.base, p, 1, None, bv, exact):
        values = [
            _unscaled(cv.get((p, s, J), 0) - y, scale, exact) for J, y in zip(Js, d)
        ]
        top_residuals[s] = values[0]
        for v in values:
            gap = abs(v - values[0])
            if _worse(gap, spread):
                spread = gap
            if exceeds(abs(v), tol, exact):
                ok = False
    return TrivializationReport(
        degree=p,
        exact=c.exact,
        tolerance=tol,
        lower_worst=lower_worst,
        lower_failing=tuple(lower_failing),
        top_residuals=top_residuals,
        top_spread=spread,
        is_trivial=ok,
    )


# -- integer class extraction -------------------------------------------------


@dataclass(frozen=True)
class IntegerCechCocycle:
    """Integer Čech cocycle of multi-index length p+2 on the vertex set."""

    base: CoveredComplex
    length: int
    entries: Mapping[Tuple[Simplex, MultiIndex], int] = field(default_factory=dict)

    def value(self, v: Sequence[int], indices: Sequence[int]) -> int:
        idx, pi = parity_sort(tuple(indices))
        if pi == 0:
            return 0
        return pi * self.entries.get((tuple(v), idx), 0)


def chern_cocycle(c: DeligneCochain, tol: float = 1e-9) -> IntegerCechCocycle:
    """Round delta C^0 / 2pi to the integer Čech cocycle of the class.

    Requires the cocycle flag; raises on any integrality residual beyond
    tol (beyond exact zero in exact mode).  The closedness delta n = 0 is
    verified exactly in integer arithmetic.
    """
    if not c.cocycle:
        raise CochainError("chern_cocycle requires a cochain flagged as cocycle")
    p = c.degree
    exact = c.exact
    values, scale = c._data, c.scale
    entries: Dict[Tuple[Simplex, MultiIndex], int] = {}
    for v, Js, delta, _ in _coboundaries(c.base, 0, p + 2, values, None, exact):
        turns = _nearest_turns(delta, scale, exact)
        if turns is None:  # whole turns x / scale, no residual
            entries.update(((v, J), x // scale) for J, x in zip(Js, delta) if x)
            continue
        for J, (n, residual) in zip(Js, turns):
            if exceeds(residual, tol, exact):
                raise CochainError(
                    f"integrality violation at {v} {J}: residual {residual} turns"
                )
            if n != 0:
                entries[(v, J)] = n
    cocycle = IntegerCechCocycle(c.base, p + 2, entries)
    numbers = {(0, v, J): n for (v, J), n in entries.items()}
    for v, Js, delta, _ in _coboundaries(c.base, 0, p + 3, numbers, None, True):
        for J, x in zip(Js, delta):
            if x != 0:
                raise CochainError(f"rounded cocycle is not closed at {v} {J}")
    return cocycle


def restrict_cochain(c: DeligneCochain, sub: CoveredComplex) -> DeligneCochain:
    """Restriction to a subcomplex cover: keep entries whose simplex survives.

    The degree is unchanged; components above the subcomplex dimension
    simply have no simplices to live on.  A restricted cocycle stays a
    cocycle, so the flag is carried over.
    """
    data = {
        (k, s, J): v
        for (k, s, J), v in c._data.items()
        if sub.complex.has(s)
    }
    return _canonical(DeligneCochain(sub, c.degree, data, c.exact, c.cocycle, c.scale))


def reverse_cochain(c: DeligneCochain) -> DeligneCochain:
    """The same data over the orientation-reversed complex.

    Values are stored against canonical vertex order, so they transfer
    verbatim; only the top parities flip.  Cocycle conditions are computed
    in canonical order too, hence the flag survives.
    """
    K2 = reverse_orientation(c.base.complex)
    cov2 = attach_cover(
        K2, c.base.num_sets, {t: c.base.admissible_of(t) for t in K2.tops}
    )
    return DeligneCochain(cov2, c.degree, dict(c._data), c.exact, c.cocycle, c.scale)


def _transport(
    c1: DeligneCochain,
    c2: DeligneCochain,
    K: SimplicialComplex,
    relabel: Mapping[int, int],
) -> DeligneCochain:
    """c1 and c2 together on K, which holds c1's complex and c2's relabeled
    by ``relabel``: c2's tops keep their charts and its entries move with
    the parity of the relabeling.  Chart indices are shared; a cocycle
    only if both are.  The stored values move over the lcm of the two
    scales, which is the canonical scale of their union."""

    def moved(s: Simplex) -> Tuple[Simplex, int]:
        return sort_with_parity(tuple(relabel.get(v, v) for v in s))

    admissible = {t: c1.base.admissible_of(t) for t in c1.base.complex.tops}
    for t in c2.base.complex.tops:
        admissible[moved(t)[0]] = c2.base.admissible_of(t)
    cover = attach_cover(K, max(c1.base.num_sets, c2.base.num_sets), admissible)
    (v1, v2), scale = _scaled(c1, c2)
    data: Dict[Key, Scalar] = {}
    for key in sorted(v1):
        _admit(cover, data, key, v1[key])
    for k, s, J in sorted(v2):
        s2, parity = moved(s)
        _admit(cover, data, (k, s2, J), parity * v2[(k, s, J)])
    cocycle = c1.cocycle and c2.cocycle
    return DeligneCochain(cover, c1.degree, data, c1.exact, cocycle, scale)


def disjoint_union_cochains(
    c1: DeligneCochain, c2: DeligneCochain
) -> Tuple[DeligneCochain, Dict[int, int]]:
    """Cochain on the disjoint union; returns the label shift applied to
    the second complex.  Chart indices must refer to one shared cover
    numbering, as flags never mix the two pieces."""
    if c1.degree != c2.degree or c1.exact != c2.exact:
        raise CochainError("disjoint union needs matching degree and arithmetic")
    K, shift = disjoint_union(c1.base.complex, c2.base.complex)
    return _transport(c1, c2, K, shift), shift


def glue_cochains(
    c1: DeligneCochain,
    c2: DeligneCochain,
    matching: Mapping[int, int],
) -> Tuple[DeligneCochain, Dict[int, int]]:
    """Glue along matched boundary vertices (second complex's labels as
    keys).  Both cochains must use one shared cover numbering, and their
    data must agree exactly on the identified seam; returns the glued
    cochain and the relabeling applied to the second complex."""
    if c1.degree != c2.degree or c1.exact != c2.exact:
        raise CochainError("glued cochains need matching degree and arithmetic")
    if c1.base.num_sets != c2.base.num_sets:
        raise CochainError("glued cochains must share a cover numbering")
    K, relabel = glue_along_boundary(c1.base.complex, c2.base.complex, matching)
    try:
        return _transport(c1, c2, K, relabel), relabel
    except CochainError as e:
        raise CochainError(f"seam data disagrees: {e}") from None


def random_cochain(
    base: CoveredComplex,
    degree: int,
    seed: int,
    exact: bool = False,
    denominator: int = 64,
) -> DeligneCochain:
    """A dense pseudorandom cochain, reproducible from the seed.

    Not a cocycle in general; meant as shift data b or as raw material for
    corruption tests.  One value is drawn per admissible slot, levels and
    simplices in ascending order.  Exact mode draws an integer numerator
    in [-denominator, denominator] and stores it over ``denominator``,
    which must be an int >= 1; float mode draws radians in (-pi, pi).
    Draws of 0 are dropped."""
    import random as _random

    if degree < 0:
        raise CochainError("cochain degree must be nonnegative")
    if type(denominator) is not int or denominator < 1:
        raise CochainError(f"denominator must be an int >= 1, got {denominator!r}")
    rng = _random.Random(seed)
    data: Dict[Key, Scalar] = {}
    K = base.complex
    for k in range(min(degree, K.dim) + 1):
        length = degree - k + 1
        for s in K.simplices(k):
            for J in base.multi_indices(s, length):
                if exact:
                    val: Scalar = rng.randrange(-denominator, denominator + 1)
                else:
                    val = rng.uniform(-3.141592653589793, 3.141592653589793)
                if val != 0:
                    data[(k, s, J)] = val
    scale = denominator if exact else 1
    return _canonical(DeligneCochain(base, degree, data, exact, scale=scale))
