"""Route agreement as identities between integer chains.

A gauge orbit satisfies <D b, X> = <b, D^T X>, so an identity between
flag-sum routes that holds on every gauge orbit is an identity
D^T X = 0 between chains that only the complex and the index maps fix.
``d_transpose`` transposes the convention of ``cochain.py``'s docstring,
(D X)^k = delta X^k + (-1)^(q+1-k) d X^(k-1) for X of degree q = p - 1,
and is checked against the library's own D before any identity is read
from it.
"""

from itertools import combinations

import pytest

from deligne import (
    GEOMETRY_BUILDERS,
    exact_shift,
    get_geometry,
    random_cochain,
    random_index_map,
    star_cover,
    subdivide_geometry,
    zero_cochain,
)
from deligne.cochain import _word_sums
from deligne.holonomy import _walk
from deligne.simplicial import parity_sort
from deligne.transgression import _mixed_chain


def d_transpose(K, chain, p):
    """D^T of a degree-p chain {(simplex, word): count} on K.

    delta^T sends (s, w) to (s, w without w[j]) with sign (-1)^j where
    dim s <= p - 1, and d^T sends (s, w) to (t, w) for each facet t of s
    with sign inc * (-1)^(p-k), k = dim s >= 1.  Each key is canonicalised
    by ``parity_sort``, and zero counts are left out."""
    out = {}

    def put(s, word, n):
        word, parity = parity_sort(word)
        if parity:
            out[s, word] = out.get((s, word), 0) + parity * n

    for (s, word), n in chain.items():
        k = len(s) - 1
        if k <= p - 1:
            for j in range(len(word)):
                put(s, word[:j] + word[j + 1:], -n if j & 1 else n)
        if k >= 1:
            sign = -1 if (p - k) & 1 else 1
            for t, inc in K.facets(s):
                put(t, word, sign * inc * n)
    return {key: n for key, n in out.items() if n}


def combine(*terms):
    """The chain sum of (sign, chain) pairs, zero counts left out."""
    out = {}
    for sign, chain in terms:
        for key, n in chain.items():
            out[key] = out.get(key, 0) + sign * n
    return {key: n for key, n in out.items() if n}


def holonomy_chain(K, rho):
    """N_rho: the flag words of rho from the tops, every dimension."""
    return combine(*((1, level) for level in _walk(K, (rho,))))


# The star cover of the subdivided solid torus takes about 2 s and is left
# out; torus3-8chart is taken coarse only.
CASES = [
    (name, fine, cover)
    for name in sorted(GEOMETRY_BUILDERS)
    for fine in (False, True)
    for cover in ("chart", "star")
    if not (fine and name == "torus3-8chart")
    and (name, fine, cover) != ("solid-torus", True, "star")
]


def _case_id(case):
    name, fine, cover = case
    return f"{name}-{'fine' if fine else 'coarse'}-{cover}"


@pytest.fixture(scope="module")
def case(request):
    name, fine, cover = request.param
    geom = get_geometry(name)
    if fine:
        geom = subdivide_geometry(geom)
    C = geom.covered if cover == "chart" else star_cover(geom.covered.complex)
    K = C.complex
    rho0, rho1 = (random_index_map(C, seed) for seed in (5, 6))
    return C, K, K.dim, rho0, rho1


def _cases(closed):
    return pytest.mark.parametrize(
        "case",
        [c for c in CASES if get_geometry(c[0]).covered.complex.closed is closed],
        indirect=True,
        ids=_case_id,
    )


@pytest.mark.parametrize("case", CASES, indirect=True, ids=_case_id)
def test_transpose_is_adjoint_to_the_library_D(case):
    C, K, p, rho0, rho1 = case
    b = random_cochain(C, p - 1, seed=7, exact=True)
    Db = exact_shift(zero_cochain(C, p, exact=True), b)
    chains = [holonomy_chain(K, rho0), holonomy_chain(K, rho1)]
    if not K.closed:
        chains.append(_mixed_chain(K, rho0, rho1))
    for N in chains:
        assert _word_sums(Db, N) == _word_sums(b, d_transpose(K, N, p))


@_cases(closed=True)
def test_holonomy_chain_is_a_cycle_on_closed_complexes(case):
    C, K, p, rho0, rho1 = case
    for rho in (rho0, rho1):
        assert d_transpose(K, holonomy_chain(K, rho), p) == {}


@_cases(closed=False)
def test_routes_agree_as_chains_on_complexes_with_boundary(case):
    """D^T (N_rho1 - N_rho0 - B_rho0rho1) = 0, B the boundary route's
    mixed chain: the general and the boundary transition agree on every
    gauge orbit."""
    C, K, p, rho0, rho1 = case
    X = combine(
        (1, holonomy_chain(K, rho1)),
        (-1, holonomy_chain(K, rho0)),
        (-1, _mixed_chain(K, rho0, rho1)),
    )
    assert d_transpose(K, X, p) == {}


@_cases(closed=False)
def test_holonomy_chain_boundary_lies_on_the_boundary(case):
    C, K, p, rho0, rho1 = case
    on_boundary = {
        face
        for t in K.boundary_facets
        for r in range(1, len(t) + 1)
        for face in combinations(t, r)
    }
    for rho in (rho0, rho1):
        boundary = d_transpose(K, holonomy_chain(K, rho), p)
        assert boundary
        assert {s for s, _ in boundary} <= on_boundary
