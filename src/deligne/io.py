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

Cochain files are the large artifacts, so they skip the document:
:func:`dumps_cochain` streams the canonical text straight from the stored
values, one short string per entry, and a test holds it to
``dumps_canonical`` of its own parse byte for byte.  The reader checks the
schema of every entry, then hands the builder's one check path each value
as an integer pair (``"n/d"`` read with ``int``, a float over 1), each
reference as one index into ``K.simplices(dim)`` and each multi-index as
written; only a multi-index that does not ascend is sorted, so any valid
file loads, and a canonical one without sorting.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Dict, Tuple

from ._scalars import RATIONAL, Scalar
from .cochain import DeligneCochain, _build
from .cover import CoveredComplex, IndexMap, attach_cover
from .errors import DeligneError
from .simplicial import MAX_TOP_VERTICES, Simplex, SimplicialComplex, build_complex


class SchemaError(DeligneError):
    """An artifact file does not match its schema."""


# -- canonical serialization -----------------------------------------------------


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _ratio_from_json(v) -> Tuple[int, int]:
    """A rational file value ``"n/d"`` as reduced ints (n, d), read with int."""
    if not (isinstance(v, str) and RATIONAL.fullmatch(v)):
        raise SchemaError("rational values must be 'n/d' strings")
    n, _, d = v.partition("/")
    n, d = int(n), int(d or 1)
    g = math.gcd(n, d)
    return n // g, d // g


def scalar_from_json(v, exact: bool) -> Scalar:
    if exact:
        return Fraction(*_ratio_from_json(v))
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
    _write_text(path, dumps_canonical(obj))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_json(path: str):
    """Parse a JSON file; NaN/Infinity literals, a key repeated within one
    object and nesting too deep for the parser are refused."""

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
        except RecursionError:
            raise SchemaError(f"{path}: not valid JSON (nested too deeply)") from None


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
    if spelling == "entry" and type(ref) is list and len(ref) == 2:
        dim, idx = ref  # the common case, read before any message is built
        table = K.simplices(dim) if type(dim) is int else ()
        if type(idx) is int and 0 <= idx < len(table):
            return table[idx]
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


def index_map_to_json(rho: IndexMap) -> dict:
    K = rho.cover.complex
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
    return IndexMap(C, assignment)


def save_index_map(rho: IndexMap, path: str) -> None:
    write_canonical(path, index_map_to_json(rho))


def load_index_map(path: str, C: CoveredComplex) -> IndexMap:
    return index_map_from_json(read_json(path), C)


# -- cochain files ---------------------------------------------------------------------


def dumps_cochain(c: DeligneCochain) -> str:
    """The canonical text of a cochain file, written entry by entry from
    ``c.stored()``: what :func:`dumps_canonical` gives for the document
    ``{"arithmetic", "degree", "entries"}``, without building it.  An exact
    value is ``"n/d"`` from the stored numerator over the scale, reduced by
    one gcd; a float is its shortest repr, with ``-0.0`` written as ``0.0``
    and a non-finite value refused."""
    K = c.base.complex
    index_of = {
        s: i for k in range(K.dim + 1) for i, s in enumerate(K.simplices(k))
    }
    scale = c.scale

    def ratio(n: int) -> str:
        g = math.gcd(n, scale)
        return f'"{n // g}/{scale // g}"'

    def real(x) -> str:
        x = float(x)
        if not math.isfinite(x):
            raise SchemaError("non-finite value cannot be serialized")
        return repr(x) if x else "0.0"

    value = ratio if c.exact else real
    rows = ",".join(
        f'{{"indices":[{",".join(map(str, J))}],"k":{k},'
        f'"simplex":[{k},{index_of[s]}],"value":{value(v)}}}'
        for k, s, J, v in c.stored()
    )
    arithmetic = "rational" if c.exact else "float"
    return f'{{"arithmetic":"{arithmetic}","degree":{c.degree},"entries":[{rows}]}}\n'


_ENTRY_FIELDS = frozenset({"k", "simplex", "indices", "value"})


def cochain_from_json(doc, C: CoveredComplex) -> DeligneCochain:
    """Every entry passes the schema checks here before any passes the
    builder's; values reach the builder as (n, d) pairs."""
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
        if not isinstance(e, dict) or not _ENTRY_FIELDS <= e.keys():
            raise SchemaError(f"bad cochain entry {e!r}")
        k = _json_int(e["k"], "entry level k")
        s = resolve_ref(K, e["simplex"])
        if len(s) - 1 != k:
            raise SchemaError(
                f"entry level {k} does not match its simplex dimension {len(s) - 1}"
            )
        J = _json_ints(e["indices"], "entry indices")
        v = e["value"]
        pair = _ratio_from_json(v) if exact else (scalar_from_json(v, False), 1)
        entries.append((k, J, s, pair))
    return _build(C, _json_int(doc["degree"], "degree"), entries, exact)


def save_cochain(c: DeligneCochain, path: str) -> None:
    _write_text(path, dumps_cochain(c))


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
