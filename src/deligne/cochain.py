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
They make up the total differential D, which takes a cochain X of degree
q to one of degree q + 1 under the fixed sign convention

    (D X)^k = delta X^k + (-1)^(q+1-k) * d X^(k-1)    for k = 0..q+1,

a term being left out where its level is.  A degree-p cochain C is a
cocycle when (D C)^k = 0 for k = 1..p and (D C)^0 = delta C^0 lies in
2*pi*Z; (D C)^(p+1) = d C^p is its curvature.

Storage is one value row per (k, s) that holds an entry: a list of the
values of C^k at the canonical k-simplex s over the multi-indices
``combinations(admissible(s), p - k + 1)``, in that order, so the slots of
a row are sorted by multi-index.  An int 0 in a slot means "no entry";
the kernels store ``v or 0``, so a result of 0 is no entry, while a float
handed to the constructor (even -0.0 or NaN) stays one.  No key is stored
per entry; :func:`_slot` maps a sorted multi-index to its slot when a
single value is wanted.  A row is never changed in place once a cochain
holds it, so cochains may share rows.

Whole-cochain passes read D from one per-simplex kernel that yields a
level of Y + D X, simplex by simplex: the gauge move c + D b, validation
D C, trivialization c - D b, Chern class extraction (D C)^0 and the
closedness of its integers, and the curvature (D C)^(p+1).  The kernel
reads rows: dropping one index from an increasing multi-index keeps it
increasing, and the facets of a canonical simplex are canonical, so no
key is ever sorted or looked up.  For a k-simplex s with m admissible
charts and multi-indices J of length n, the values of X^k over the
(n-1)-subsets of the charts are s's own row, followed by their
negations.  An omission template for (m, n), built once per pass, has one
row per J: an itemgetter that picks the terms (-1)^j X(J without J[j]), so
(delta X)(s, J) is the sum of one template row.  (d X^(k-1))(s, J) reads
each facet's row as a column: the slots of s's n-subsets among the
facet's, found once per pass for each pattern of s's chart positions
among the facet's charts.  The columns are summed row by row.
``cech_delta`` and ``discrete_d`` evaluate one slot term by term; they
are the references the kernel is tested against.

An exact cochain stores Python-int numerators over one ``scale``, the lcm
of its entries' reduced denominators, and every operation returns that
canonical form.  Whole-cochain passes sum the stored ints in place; two
cochains are rescaled only when their scales differ.  A Fraction is built
only for a value handed out or a nonzero residual.  Float mode stores
floats over scale 1 and sums each row with one math.fsum, which rounds
the exact sum of its terms once.  A row holds the same multiset of terms
as the term-by-term evaluators, in the same order, so float results are
bit-identical to theirs.  The flag sums' word kernel pairs a cochain with
an integer chain {(simplex, chart word): count}: one parity sort per key,
and the value enters its group |count| times, so a float group still
rounds the exact sum of one term per flag once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, gcd, isfinite, lcm
from operator import add, itemgetter, neg, sub
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ._scalars import TWO_PI, Scalar, coerce, exceeds, group_sums, zero
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
Level = Dict[Simplex, List]  # s -> its row of one level
Rows = List[Level]  # one Level per k = 0..p
Chain = Dict[Tuple[Simplex, Tuple[int, ...]], int]  # (simplex, chart word) -> count


class DeligneCochain:
    """Sparse cochain; missing entries are 0.  Use :func:`build_cochain`.

    ``data`` maps canonical keys (k, s, J) to values over ``scale``: in
    exact mode Python-int numerators, the entry being ``Fraction(n, scale)``
    with ``scale`` the lcm of the entries' reduced denominators (1 when
    there are none); in float mode floats over scale 1.  Any other scale or
    value type raises :class:`CochainError`, and so does a key whose charts
    are not increasing and admissible for its simplex.

    The cochain keeps no keys: each entry moves into the value row of its
    (k, s), at J's slot (see the module docstring).  An int 0 is no entry.
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
        rows = _no_rows(degree)
        for key, value in data.items():
            _admit(base, rows, key, value)
        self.base = base
        self.degree = degree
        self._rows = rows
        self.exact = exact
        self.cocycle = cocycle
        self.scale = scale

    def component(self, k: int, sigma: Sequence[int], indices: Sequence[int]) -> Scalar:
        """Evaluate C^k with antisymmetry in both arguments."""
        s, ps = sort_with_parity(tuple(sigma))
        idx, pi = parity_sort(tuple(indices))
        value = _value(self, k, s, idx) if pi else 0
        if not (value or type(value) is float):
            return zero(self.exact)
        return _unscaled(ps * pi * value, self.scale, self.exact)

    def stored(self) -> Iterator[Tuple[int, Simplex, MultiIndex, Scalar]]:
        """Stored entries in canonical (k, simplex, indices) order, as
        stored: int numerators over ``scale`` in exact mode, floats in
        float mode."""
        return _entries(self.base, self._rows)

    def entries(self) -> Iterable[Tuple[int, Simplex, MultiIndex, Scalar]]:
        """Stored entries in canonical (k, simplex, indices) order.

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
        """The number of stored entries."""
        return sum(1 for _ in self.stored())

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return (
            f"DeligneCochain(degree={self.degree}, entries={len(self)}, "
            f"{mode}, cocycle={self.cocycle})"
        )


def _cochain(
    base: CoveredComplex,
    degree: int,
    rows: Rows,
    exact: bool,
    cocycle: bool = False,
    scale: int = 1,
) -> DeligneCochain:
    """A cochain over rows that a kernel built, in the constructor's form."""
    c = object.__new__(DeligneCochain)
    c.base, c.degree, c._rows = base, degree, rows
    c.exact, c.cocycle, c.scale = exact, cocycle, scale
    return c


def _no_rows(degree: int) -> Rows:
    return [{} for _ in range(degree + 1)]


def _entries(
    base: CoveredComplex, rows: Rows
) -> Iterator[Tuple[int, Simplex, MultiIndex, Scalar]]:
    """The entries of rows in canonical (k, s, J) order."""
    for k, level in enumerate(rows):
        n = len(rows) - k
        for s in sorted(level):
            for J, v in zip(combinations(base.admissible_of(s), n), level[s]):
                if v or type(v) is float:
                    yield k, s, J, v


def _slot(charts: Tuple[int, ...], J: MultiIndex) -> Optional[int]:
    """J's position in ``combinations(charts, len(J))``, for sorted charts;
    None unless J is strictly increasing over them.

    The lexicographic rank of positions q_0 < ... < q_(n-1) among the
    n-subsets of range(m) is C(m, n) - 1 - sum_i C(m - 1 - q_i, n - i)."""
    m, n = len(charts), len(J)
    slot = comb(m, n) - 1
    q = -1
    try:
        for a in J:
            q = charts.index(a, q + 1)
            slot -= comb(m - 1 - q, n)
            n -= 1
    except ValueError:
        return None
    return slot


def _value(c: DeligneCochain, k: int, s: Simplex, J: MultiIndex) -> Scalar:
    """The stored value at canonical (k, s, J) over c's scale; 0 where
    there is no entry."""
    if 0 <= k <= c.degree and len(J) == c.degree - k + 1:
        row = c._rows[k].get(s)
        if row is not None:
            slot = _slot(c.base.admissible_of(s), J)
            if slot is not None:
                return row[slot]
    return 0


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
    rows = _no_rows(degree)  # (n, d) pairs, then the stored values
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
        _admit(base, rows, (k, s, idx), (ps * pi * n, d))
    scale = lcm(
        *{x[1] for level in rows for row in level.values() for x in row if x and x[0]}
    )
    for level in rows:
        for s, row in list(level.items()):
            values = []
            for x in row:
                n, d = x or (0, 1)
                values.append(n * (scale // d) if exact else n or 0)
            if any(values):
                level[s] = values
            else:
                del level[s]
    return _cochain(base, degree, rows, exact, scale=scale)


def _admit(base: CoveredComplex, rows: Rows, key: Key, value: object) -> None:
    """Store value at a canonical key whose charts are admissible for its
    simplex on base; a different value already there is a conflict.  An
    int 0 is no entry and is not stored."""
    k, s, idx = key
    if not (0 <= k < len(rows) and len(s) == k + 1 and len(idx) == len(rows) - k):
        raise CochainError(f"{key} is not a key of a degree-{len(rows) - 1} cochain")
    charts = base.admissible_of(s)
    slot = _slot(charts, idx)
    if slot is None:
        for a in idx:
            if a not in charts:
                raise CochainError(f"chart {a} is not admissible for {s}")
        raise CochainError(f"multi-index {idx} is not increasing")
    if not (value or type(value) is float):
        return
    row = rows[k].get(s)
    if row is None:
        row = rows[k][s] = [0] * comb(len(charts), len(idx))
    old = row[slot]
    if (old or type(old) is float) and old != value:
        raise CochainError(f"conflicting duplicate entry at {key}")
    row[slot] = value


def _canonical(c: DeligneCochain) -> DeligneCochain:
    """c with its exact scale and numerators divided by their gcd, which
    leaves the scale at the lcm of the reduced denominators."""
    if c.exact:
        g = gcd(c.scale, *(n for level in c._rows for row in level.values() for n in row))
        if g > 1:
            c._rows = [
                {s: [n // g for n in row] for s, row in level.items()} for level in c._rows
            ]
            c.scale //= g
    return c


def zero_cochain(base: CoveredComplex, degree: int, exact: bool = False) -> DeligneCochain:
    return _cochain(base, degree, _no_rows(degree), exact, cocycle=True)


# -- differentials -----------------------------------------------------------


def _scaled(*cochains: DeligneCochain) -> Tuple[List[Rows], int]:
    """Kernel input: the rows of each cochain over one common scale.

    Each cochain's rows are passed through as they are unless the
    cochains' scales differ; then exact rows are rescaled to the lcm of the
    scales for this call.  Float rows are always passed through over 1.
    """
    scale = lcm(*(c.scale for c in cochains))
    out = []
    for c in cochains:
        f = scale // c.scale
        out.append(
            c._rows
            if f == 1
            else [{s: [n * f for n in row] for s, row in level.items()} for level in c._rows]
        )
    return out, scale


def _unscaled(x: Scalar, scale: int, exact: bool) -> Scalar:
    """A kernel value back in the cochain's scalar type."""
    return Fraction(x, scale) if exact else x


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


def _picks(pattern: Tuple[int, Tuple[int, ...]], n: int) -> Tuple[int, ...]:
    """For a chart set at ``positions`` among a wider set of ``size``
    charts, ``pattern = (size, positions)``: the slots of its n-subsets
    among the wider set's, in combinations order."""
    size, positions = pattern
    wider = tuple(range(size))
    return tuple(_slot(wider, J) for J in combinations(positions, n))


def _differential(
    base: CoveredComplex, xs: Rows, k: int, exact: bool, ys: Optional[Level] = None
) -> Iterator[Tuple[Simplex, Tuple[int, ...], List[Scalar]]]:
    """Kernel: (s, charts, values) for each canonical k-simplex s with at
    least n admissible charts, where values[r] is level k of Y + D X at the
    r-th multi-index ``combinations(charts, n)``.

    X has degree q = len(xs) - 1 and the rows ``xs``, so n = q - k + 2; Y
    has the level-k rows ``ys``, and is left out when ``ys`` is None.  Each
    value is (Y + delta X^k) +- d X^(k-1), in that order, each term left
    out where its level is.  delta's terms are s's own row, and each delta
    is one sum of a template row over them; d's terms are the rows of the
    facets in the face table, read through their picks.  Every sum takes
    its terms in the order of the alternating and the facet sum.
    Templates and picks live as long as the generator."""
    q = len(xs) - 1
    n = q - k + 2
    xv = xs[k] if k <= q else None
    yv = xs[k - 1] if k >= 1 else None
    odd = (q + 1 - k) & 1
    z = 0 if exact else 0.0  # the sum of terms that are all int 0
    templates: Dict[int, List[itemgetter]] = {}
    picks: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
    for s in base.complex.simplices(k):
        charts = base.admissible_of(s)
        m = len(charts)
        if m < n:
            continue
        N = comb(m, n)
        values = None if ys is None else ys.get(s) or [0] * N
        if xv is not None:
            row = xv.get(s)
            if row is None:
                delta = [z] * N
            else:
                terms = row + list(map(neg, row))
                rows = templates.get(m)
                if rows is None:
                    rows = templates[m] = _omissions(m, n)
                delta = group_sums([t(terms) for t in rows], exact)
            values = delta if values is None else list(map(add, values, delta))
        if yv is not None:
            zeros = [0] * N
            columns = []
            for f, sign in base.complex.facets(s):
                row = yv.get(f)
                if row is None:
                    columns.append(zeros)
                    continue
                wider = base.admissible_of(f)
                if wider != charts:
                    pattern = (len(wider), tuple(map(wider.index, charts)))
                    pick = picks.get(pattern)
                    if pick is None:
                        pick = picks[pattern] = _picks(pattern, n)
                    row = list(map(row.__getitem__, pick))
                columns.append(row if sign > 0 else list(map(neg, row)))
            if all(column is zeros for column in columns):
                d = [z] * N
            else:
                d = group_sums(zip(*columns), exact)
            if values is None:  # k = q + 1, where d has the sign +
                values = d
            else:
                values = list(map(sub if odd else add, values, d))
        yield s, charts, values


def _word_sums(c: DeligneCochain, *chains: Chain) -> List[Scalar]:
    """Kernel: per chain {(s, word): count} with s canonical and the word in
    any order, the sum of count * C^k(s, word), k = dim s, in c's scalar
    type; each value enters |count| times, and a value of 0 is skipped."""
    exact, scale, rows, charts = c.exact, c.scale, c._rows, c.base.admissible_of
    outs = []
    for chain in chains:
        out = []
        for (s, word), n in chain.items():
            row = rows[len(s) - 1].get(s)
            if row is None:
                continue
            idx, parity = parity_sort(word)
            slot = _slot(charts(s), idx)  # None for a repeated chart
            if slot is not None and row[slot]:
                x = row[slot]
                out += [x if parity * n > 0 else -x] * abs(n)
        outs.append(out)
    return [_unscaled(x, scale, exact) for x in group_sums(outs, exact)]


def cech_delta(c: DeligneCochain, sigma: Sequence[int], indices: Sequence[int]) -> Scalar:
    """(delta C^k)(sigma, indices), k = dim sigma, |indices| = stored + 1."""
    s, ps = sort_with_parity(tuple(sigma))
    J, pj = parity_sort(tuple(indices))
    if pj == 0:
        return zero(c.exact)
    k = len(s) - 1
    terms = [(-1 if j & 1 else 1) * _value(c, k, s, J[:j] + J[j + 1:]) for j in range(len(J))]
    return _unscaled(ps * pj * group_sums([terms], c.exact)[0], c.scale, c.exact)


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
    k = len(s) - 1
    terms = [sign * _value(c, k - 1, f, J) for f, sign in facets_of(s)]
    return _unscaled(ps * pj * group_sums([terms], c.exact)[0], c.scale, c.exact)


def _nearest_turns(
    delta: List[Scalar], scale: int, exact: bool
) -> Optional[List[Tuple[Optional[int], Scalar]]]:
    """(n, x / turn - n) for each kernel level-0 value x of one simplex:
    the nearest whole turn and the gap to it in kernel units, whose size
    over ``scale`` is the residual in turns.  None in exact mode when one
    pass of ``x % scale`` finds every x a whole number of turns.

    Exact mode reads x as turns over ``scale`` and rounds half to even, as
    round() does on a Fraction.  Float mode has the arithmetic of
    ``integer_residual``, then divides by 2pi; a non-finite x has no
    nearest n and keeps its size.
    """
    out = []
    if exact:
        if not any(map(scale.__rmod__, delta)):
            return None
        for x in delta:
            n, r = divmod(x, scale)
            if 2 * r > scale or (2 * r == scale and n % 2):
                n += 1
            out.append((n, x - n * scale))
        return out
    for x in delta:
        if isfinite(x):
            n = round(x / TWO_PI)
            out.append((n, (x - n * TWO_PI) / TWO_PI))
        else:
            out.append((None, x / TWO_PI))
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
    """Check D C: integrality of (D C)^0 and (D C)^k = 0 for k = 1..p.

    In exact mode the residual threshold is zero regardless of ``tol``.
    Passing sets the cochain's ``cocycle`` flag; failing clears it.
    """
    p = c.degree
    exact = c.exact
    rows, scale = c._rows, c.scale
    worst: Dict[int, Scalar] = {}
    checked: Dict[int, int] = {}
    failing: List[FailedCondition] = []
    for k in range(p + 1):
        count = 0
        top = 0 if exact else 0.0  # the worst |gap|, in kernel units
        for s, charts, gaps in _differential(c.base, rows, k, exact):
            count += len(gaps)
            if not any(gaps):  # every condition holds exactly
                continue
            witnesses = repeat(None)
            if k == 0:  # residuals in turns: |delta C^0 / 2pi - n|
                turns = _nearest_turns(gaps, scale, exact)
                if turns is None:  # every condition holds exactly
                    continue
                witnesses, gaps = zip(*turns)
            for J, n, gap in zip(combinations(charts, p - k + 2), witnesses, gaps):
                if not gap:  # neither the worst nor a breach
                    continue
                residual = abs(gap)
                if _worse(residual, top):
                    top = residual
                if exceeds(residual, tol, exact):
                    residual = _unscaled(residual, scale, exact)
                    failing.append(FailedCondition(k, s, J, residual, n))
        worst[k] = _unscaled(top, scale, exact)
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
    """Componentwise sum: the log/integral picture of the tensor product.
    A slot c2 has no entry at keeps c1's value as it is; any other slot
    holds the sum, which is no entry if it equals 0."""
    _require_same_base(c1, c2)
    if c1.degree != c2.degree:
        raise CochainError("tensor needs equal degrees")
    (r1, r2), scale = _scaled(c1, c2)
    rows = []
    for l1, l2 in zip(r1, r2):
        level = dict(l1)
        for s, row in l2.items():
            own = level.get(s) or [0] * len(row)
            total = [
                ((x + y) or 0) if y or type(y) is float else x for x, y in zip(own, row)
            ]
            if any(v or type(v) is float for v in total):
                level[s] = total
            else:
                level.pop(s, None)
        rows.append(level)
    cocycle = c1.cocycle and c2.cocycle
    return _canonical(_cochain(c1.base, c1.degree, rows, c1.exact, cocycle, scale))


def dual(c: DeligneCochain) -> DeligneCochain:
    rows = [{s: [-v for v in row] for s, row in level.items()} for level in c._rows]
    return _cochain(c.base, c.degree, rows, c.exact, c.cocycle, c.scale)


def exact_shift(c: DeligneCochain, b: DeligneCochain) -> DeligneCochain:
    """c + D(b): the gauge orbit move.  Preserves the cocycle flag."""
    _require_same_base(c, b)
    if c.degree < 1 or b.degree != c.degree - 1:
        raise CochainError("exact_shift needs deg(b) = deg(c) - 1 >= 0")
    p = c.degree
    exact = c.exact
    (cv, bv), scale = _scaled(c, b)
    rows = _no_rows(p)
    for k, level in enumerate(rows):
        for s, _, values in _differential(c.base, bv, k, exact, cv[k]):
            row = [v or 0 for v in values]
            if any(row):
                level[s] = row
    return _canonical(_cochain(c.base, p, rows, exact, c.cocycle, scale))


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
    top_residuals: Dict[Simplex, Scalar] = {}
    spread = 0 if exact else 0.0  # in kernel units, like the worst |gap| below the top
    ok = True
    for k in range(p + 1):
        top = 0 if exact else 0.0
        own = cv[k]
        for s, charts, shifted in _differential(c.base, bv, k, exact):
            gaps = list(map(sub, own.get(s) or [0] * len(shifted), shifted))
            if k == p:  # one slot per chart
                top_residuals[s] = _unscaled(gaps[0], scale, exact)
                for gap in gaps:
                    if _worse(abs(gap - gaps[0]), spread):
                        spread = abs(gap - gaps[0])
                    if exceeds(abs(gap), tol, exact):
                        ok = False
                continue
            for J, gap in zip(combinations(charts, p - k + 1), gaps):
                residual = abs(gap)
                if _worse(residual, top):
                    top = residual
                if exceeds(residual, tol, exact):
                    residual = _unscaled(residual, scale, exact)
                    lower_failing.append(FailedCondition(k, s, J, residual))
        if k < p:
            lower_worst[k] = _unscaled(top, scale, exact)
    return TrivializationReport(
        degree=p,
        exact=c.exact,
        tolerance=tol,
        lower_worst=lower_worst,
        lower_failing=tuple(lower_failing),
        top_residuals=top_residuals,
        top_spread=_unscaled(spread, scale, exact),
        is_trivial=ok and not lower_failing,
    )


# -- integer class extraction -------------------------------------------------


@dataclass(frozen=True)
class IntegerCechCocycle:
    """Integer Čech cocycle of multi-index length p+2 on the vertex set."""

    base: CoveredComplex
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
    scale = c.scale
    entries: Dict[Tuple[Simplex, MultiIndex], int] = {}
    numbers: Level = {}  # the integers as level-0 rows
    for v, charts, delta in _differential(c.base, c._rows, 0, exact):
        turns = _nearest_turns(delta, scale, exact)
        if turns is None:  # whole turns x / scale, no residual
            ns = [x // scale for x in delta]
        else:
            ns = []
            for J, (n, gap) in zip(combinations(charts, p + 2), turns):
                if exceeds(abs(gap), tol, exact):
                    residual = _unscaled(abs(gap), scale, exact)
                    raise CochainError(
                        f"integrality violation at {v} {J}: residual {residual} turns"
                    )
                ns.append(n)
        if any(ns):
            numbers[v] = ns
            entries.update(((v, J), n) for J, n in zip(combinations(charts, p + 2), ns) if n)
    cocycle = IntegerCechCocycle(c.base, entries)
    # delta n = D n for the integers n as level 0 of a degree-(p+1) cochain
    for v, charts, delta in _differential(c.base, [numbers, *_no_rows(p)], 0, True):
        for J, x in zip(combinations(charts, p + 3), delta):
            if x != 0:
                raise CochainError(f"rounded cocycle is not closed at {v} {J}")
    return cocycle


def restrict_cochain(c: DeligneCochain, sub: CoveredComplex) -> DeligneCochain:
    """Restriction to a subcomplex cover: keep the rows whose simplex
    survives, which must keep its charts there.

    The degree is unchanged; components above the subcomplex dimension
    simply have no simplices to live on.  A restricted cocycle stays a
    cocycle, so the flag is carried over.
    """
    rows = [{s: row for s, row in level.items() if sub.complex.has(s)} for level in c._rows]
    for s in (s for level in rows for s in level):
        if sub.admissible_of(s) != c.base.admissible_of(s):
            raise CochainError(f"{s} has other charts on the subcomplex cover")
    return _canonical(_cochain(sub, c.degree, rows, c.exact, c.cocycle, c.scale))


def reverse_cochain(c: DeligneCochain) -> DeligneCochain:
    """The same data over the orientation-reversed complex.

    The reversed complex has the same simplices and each keeps its charts,
    so the rows, stored against canonical vertex order, transfer verbatim;
    only the top parities flip.  Cocycle conditions are computed in
    canonical order too, hence the flag survives.
    """
    K2 = reverse_orientation(c.base.complex)
    cov2 = CoveredComplex(K2, c.base.num_sets, c.base.admissible)
    rows = [dict(level) for level in c._rows]
    return _cochain(cov2, c.degree, rows, c.exact, c.cocycle, c.scale)


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
    (r1, r2), scale = _scaled(c1, c2)
    rows = _no_rows(c1.degree)
    for k, s, J, v in _entries(c1.base, r1):
        _admit(cover, rows, (k, s, J), v)
    for k, s, J, v in _entries(c2.base, r2):
        s2, parity = moved(s)
        _admit(cover, rows, (k, s2, J), parity * v)
    cocycle = c1.cocycle and c2.cocycle
    return _cochain(cover, c1.degree, rows, c1.exact, cocycle, scale)


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
    simplices in ascending order, each row in slot order.  Exact mode
    draws an integer numerator in [-denominator, denominator] and stores it
    over ``denominator``, which must be an int >= 1; float mode draws
    radians in (-pi, pi).  Draws of 0 are no entries."""
    import random as _random

    if degree < 0:
        raise CochainError("cochain degree must be nonnegative")
    if type(denominator) is not int or denominator < 1:
        raise CochainError(f"denominator must be an int >= 1, got {denominator!r}")
    rng = _random.Random(seed)
    randrange, uniform = rng.randrange, rng.uniform
    rows = _no_rows(degree)
    K = base.complex
    for k in range(min(degree, K.dim) + 1):
        n = degree - k + 1
        level = rows[k]
        for s in K.simplices(k):
            slots = range(comb(len(base.admissible_of(s)), n))
            if exact:
                row = [randrange(-denominator, denominator + 1) for _ in slots]
            else:
                row = [uniform(-3.141592653589793, 3.141592653589793) or 0 for _ in slots]
            if any(row):
                level[s] = row
    scale = denominator if exact else 1
    return _canonical(_cochain(base, degree, rows, exact, scale=scale))
