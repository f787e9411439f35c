"""Canonical JSON artifacts: complexes, covers, index maps, cochains and
vertex matchings.

One encoding rule writes every artifact and every CLI report:
:func:`dumps_canonical` normalises the document (string keys only,
``Fraction`` to ``"n/d"``, tuples to lists, ``-0.0`` to ``0.0``; a
non-finite float or an unknown type is a :class:`SchemaError`) and hands it
to the stdlib encoder with sorted keys, compact separators, UTF-8 text and
no NaN, plus one LF.  Floats come out as their shortest round-tripping
digits.

Simplices below the tops are never serialized.  A file names a simplex by
its index into ``K.simplices(dim)``, the lexicographically sorted simplex
list of that dimension, so files only make sense next to their complex
file.  Three spellings exist, one per artifact, and :func:`resolve_ref`
reads them all: the cover's ``admissible_top`` key ``"i"`` (a top), the
index map's key ``"dim/i"`` and the cochain entry's ``[dim, i]``.  Only the
writer's spelling is read back, so no two keys can name one simplex.

Rational values travel as ``"n/d"`` strings under ``"arithmetic":
"rational"``; float files say ``"arithmetic": "float"``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Dict, Tuple

from ._scalars import RATIONAL, Scalar
from .cochain import DeligneCochain, build_cochain
from .cover import CoveredComplex, IndexMap, attach_cover, make_index_map
from .errors import DeligneError
from .simplicial import Simplex, SimplicialComplex, build_complex


class SchemaError(DeligneError):
    """An artifact file does not match its schema."""


# Most vertices a top simplex of a complex file may have.  One top on n
# vertices has 2^n faces and n! flags, so the cap is checked before the
# complex is built; 8 allows every dimension up to 7.
MAX_TOP_VERTICES = 8


# -- canonical serialization -----------------------------------------------------


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def scalar_from_json(v, exact: bool) -> Scalar:
    if exact:
        if not (isinstance(v, str) and RATIONAL.fullmatch(v)):
            raise SchemaError("rational values must be 'n/d' strings")
        return Fraction(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("float values must be JSON numbers")
    x = float(v)
    if not math.isfinite(x):
        raise SchemaError(f"non-finite value {v!r}")
    return x


def _plain(o):
    """``o`` as the JSON types the stdlib encoder writes canonically."""
    if isinstance(o, dict):
        if not all(isinstance(k, str) for k in o):
            raise SchemaError("object keys must be strings")
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(x) for x in o]
    if isinstance(o, float):
        if not math.isfinite(o):
            raise SchemaError("non-finite value cannot be serialized")
        return 0.0 if o == 0.0 else o
    if isinstance(o, Fraction):
        return f"{o.numerator}/{o.denominator}"
    if o is None or isinstance(o, (str, int)):
        return o
    raise SchemaError(f"cannot serialize {type(o).__name__}")


def dumps_canonical(obj) -> str:
    return json.dumps(
        _plain(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    ) + "\n"


def write_canonical(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(obj))


def read_json(path: str):
    """Parse a JSON file; the non-standard NaN/Infinity literals and a key
    repeated within one object are refused."""

    def refuse(literal: str):
        raise SchemaError(f"{path}: non-finite literal {literal} is not allowed")

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise SchemaError(f"{path}: duplicate object key {key!r}")
                seen.add(key)
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=refuse, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: not valid JSON ({e})") from None


def _json_int(v, what: str) -> int:
    """``v`` if it is a JSON integer; a bool, float or string is refused."""
    if type(v) is not int:
        raise SchemaError(f"{what} must be an integer, got {v!r}")
    return v


def _json_ints(v, what: str) -> Tuple[int, ...]:
    """``v`` as a tuple if it is an array of JSON integers."""
    if type(v) is not list or not all(type(x) is int for x in v):
        raise SchemaError(f"{what} must be an array of integers, got {v!r}")
    return tuple(v)


# -- simplex references -----------------------------------------------------------


def oriented_tuple(K: SimplicialComplex, s: Simplex) -> Tuple[int, ...]:
    if K.orientation(s) == 1 or len(s) < 2:
        return s
    t = list(s)
    t[-1], t[-2] = t[-2], t[-1]
    return tuple(t)


# How each artifact names a simplex: its message label and the written form.
_SPELLINGS = {
    "entry": ("simplex reference", "[dim, index]"),
    "index-map": ("index-map key", "dim/index"),
    "cover": ("admissible_top key", "an index"),
}
_DECIMAL = re.compile("0|[1-9][0-9]*")


def resolve_ref(K: SimplicialComplex, ref, spelling: str = "entry") -> Simplex:
    """The simplex ``K.simplices(dim)[i]`` that a reference names: ``[dim, i]``
    for a cochain ``"entry"``, ``"dim/i"`` for an ``"index-map"`` key, ``"i"``
    of a top for a ``"cover"`` key.  Keys must be canonical decimals (no sign,
    no leading zero, ASCII digits), so distinct keys name distinct simplices.
    """
    label, form = _SPELLINGS[spelling]
    if spelling == "entry":
        ints = isinstance(ref, (list, tuple)) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in ref
        )
        parts = list(ref) if ints else []
    else:
        tokens = (ref if spelling == "index-map" else f"{K.dim}/{ref}").split("/")
        parts = [int(t) for t in tokens] if all(map(_DECIMAL.fullmatch, tokens)) else []
    if len(parts) != 2:
        raise SchemaError(f"{label} {ref!r} is not {form}")
    dim, idx = parts
    table = K.simplices(dim)
    if not 0 <= idx < len(table):
        raise SchemaError(f"{label} {ref!r} out of range")
    return table[idx]


# -- complex files -----------------------------------------------------------------


def complex_to_json(K: SimplicialComplex) -> dict:
    flags = []
    if K.pseudomanifold:
        flags.append("pseudomanifold")
    if K.closed:
        flags.append("closed")
    return {
        "dim": K.dim,
        "top_simplices": [list(oriented_tuple(K, t)) for t in K.tops],
        "flags": flags,
    }


def complex_from_json(doc) -> SimplicialComplex:
    if not isinstance(doc, dict) or "top_simplices" not in doc:
        raise SchemaError("complex file needs a top_simplices array")
    tops = doc["top_simplices"]
    if not isinstance(tops, list) or not tops:
        raise SchemaError("top_simplices must be a non-empty array")
    for t in tops:
        if not isinstance(t, list):
            raise SchemaError(f"a top simplex must be an array, got {t!r}")
        if len(t) > MAX_TOP_VERTICES:
            raise SchemaError(
                f"a top simplex has {len(t)} vertices; at most "
                f"{MAX_TOP_VERTICES} are allowed"
            )
    K = build_complex([tuple(t) for t in tops])
    if "dim" in doc and _json_int(doc["dim"], "dim") != K.dim:
        raise SchemaError(f"declared dim {doc['dim']} but tops have dim {K.dim}")
    return K


def save_complex(K: SimplicialComplex, path: str) -> None:
    write_canonical(path, complex_to_json(K))


def load_complex(path: str) -> SimplicialComplex:
    return complex_from_json(read_json(path))


# -- cover files --------------------------------------------------------------------


def cover_to_json(C: CoveredComplex) -> dict:
    return {
        "num_sets": C.num_sets,
        "admissible_top": {
            str(i): sorted(C.admissible_of(t)) for i, t in enumerate(C.complex.tops)
        },
    }


def cover_from_json(doc, K: SimplicialComplex) -> CoveredComplex:
    if not isinstance(doc, dict) or "num_sets" not in doc or "admissible_top" not in doc:
        raise SchemaError("cover file needs num_sets and admissible_top")
    table = doc["admissible_top"]
    if not isinstance(table, dict):
        raise SchemaError("admissible_top must be an object")
    mapping = {
        resolve_ref(K, key, "cover"): _json_ints(charts, f"charts of top {key!r}")
        for key, charts in table.items()
    }
    return attach_cover(K, _json_int(doc["num_sets"], "num_sets"), mapping)


def save_cover(C: CoveredComplex, path: str) -> None:
    write_canonical(path, cover_to_json(C))


def load_cover(path: str, K: SimplicialComplex) -> CoveredComplex:
    return cover_from_json(read_json(path), K)


# -- index-map files ------------------------------------------------------------------


def index_map_to_json(rho: IndexMap, C: CoveredComplex) -> dict:
    K = C.complex
    out = {}
    for dim in range(K.dim + 1):
        for i, s in enumerate(K.simplices(dim)):
            out[f"{dim}/{i}"] = rho(s)
    return out


def index_map_from_json(doc, C: CoveredComplex) -> IndexMap:
    if not isinstance(doc, dict):
        raise SchemaError("index-map file must be an object")
    assignment = {
        resolve_ref(C.complex, key, "index-map"): _json_int(chart, f"chart of {key!r}")
        for key, chart in doc.items()
    }
    return make_index_map(C, assignment)


def save_index_map(rho: IndexMap, C: CoveredComplex, path: str) -> None:
    write_canonical(path, index_map_to_json(rho, C))


def load_index_map(path: str, C: CoveredComplex) -> IndexMap:
    return index_map_from_json(read_json(path), C)


# -- cochain files ---------------------------------------------------------------------


def cochain_to_json(c: DeligneCochain) -> dict:
    K = c.base.complex
    index_of = {
        k: {s: i for i, s in enumerate(K.simplices(k))} for k in range(K.dim + 1)
    }
    scale = c.scale

    def value(n: int) -> str:
        # scalar_to_json's "n/d" of the stored numerator over the scale,
        # reduced by one gcd, without building a Fraction.
        g = math.gcd(n, scale)
        return f"{n // g}/{scale // g}"

    written = value if c.exact else float
    entries = [
        {
            "k": k,
            "simplex": [k, index_of[k][s]],
            "indices": list(J),
            "value": written(v),
        }
        for k, s, J, v in c.stored()
    ]
    return {
        "arithmetic": "rational" if c.exact else "float",
        "degree": c.degree,
        "entries": entries,
    }


def cochain_from_json(doc, C: CoveredComplex) -> DeligneCochain:
    if not isinstance(doc, dict) or "degree" not in doc or "entries" not in doc:
        raise SchemaError("cochain file needs degree and entries")
    arithmetic = doc.get("arithmetic", "float")
    if arithmetic not in ("float", "rational"):
        raise SchemaError(f"unknown arithmetic {arithmetic!r}")
    exact = arithmetic == "rational"
    if type(doc["entries"]) is not list:
        kind = type(doc["entries"]).__name__
        raise SchemaError(f"cochain entries must be an array, got {kind}")
    K = C.complex
    entries = []
    for e in doc["entries"]:
        if not isinstance(e, dict) or not {"k", "simplex", "indices", "value"} <= set(e):
            raise SchemaError(f"bad cochain entry {e!r}")
        k = _json_int(e["k"], "entry level k")
        s = resolve_ref(K, e["simplex"])
        if len(s) - 1 != k:
            raise SchemaError(
                f"entry level {k} does not match its simplex dimension {len(s) - 1}"
            )
        J = _json_ints(e["indices"], "entry indices")
        entries.append((k, J, s, scalar_from_json(e["value"], exact)))
    return build_cochain(C, _json_int(doc["degree"], "degree"), entries, exact=exact)


def save_cochain(c: DeligneCochain, path: str) -> None:
    write_canonical(path, cochain_to_json(c))


def load_cochain(path: str, C: CoveredComplex) -> DeligneCochain:
    return cochain_from_json(read_json(path), C)


# -- vertex matchings ------------------------------------------------------------------


def matching_from_json(doc) -> Dict[int, int]:
    """A gluing's vertex matching: canonical-decimal keys (vertices of the
    second complex) to JSON integers (vertices of the first)."""
    if not isinstance(doc, dict):
        raise SchemaError("matching file must map K2 vertices to K1 vertices")
    for key in doc:
        if not _DECIMAL.fullmatch(key):
            raise SchemaError(f"matching key {key!r} is not a canonical decimal")
    return {int(key): _json_int(val, f"match of vertex {key}") for key, val in doc.items()}
