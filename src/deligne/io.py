"""Canonical JSON artifacts: complexes, covers, index maps, cochains.

Serialization is deterministic: object keys sorted, floats printed as their
shortest round-tripping digits, LF newlines, compact separators.  Simplices below the
tops are never serialized; a cochain entry references its simplex as
``[dim, index]`` into the lexicographically sorted simplex list of that
dimension, so files only make sense next to their complex file.

Rational values travel as ``"n/d"`` strings under ``"arithmetic":
"rational"``; float files say ``"arithmetic": "float"``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, Tuple

from ._scalars import Scalar
from .cochain import DeligneCochain, build_cochain
from .cover import CoveredComplex, IndexMap, attach_cover, make_index_map
from .errors import DeligneError
from .simplicial import Simplex, SimplicialComplex, build_complex


class SchemaError(DeligneError):
    """An artifact file does not match its schema."""


# -- canonical serialization -----------------------------------------------------


def format_float(x: float) -> str:
    # repr of a float is the shortest digit string that round-trips.
    if math.isnan(x) or math.isinf(x):
        raise SchemaError("non-finite value cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return repr(x)


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def scalar_from_json(v, exact: bool) -> Scalar:
    if exact:
        if not isinstance(v, str):
            raise SchemaError("rational values must be 'n/d' strings")
        return Fraction(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("float values must be JSON numbers")
    x = float(v)
    if not math.isfinite(x):
        raise SchemaError(f"non-finite value {v!r}")
    return x


def dumps_canonical(obj) -> str:
    out: List[str] = []

    def emit(o):
        if o is None or o is True or o is False:
            out.append("null" if o is None else "true" if o else "false")
        elif isinstance(o, str):
            out.append(json.dumps(o, ensure_ascii=False))
        elif isinstance(o, int):
            out.append(str(o))
        elif isinstance(o, float):
            out.append(format_float(o))
        elif isinstance(o, Fraction):
            emit(f"{o.numerator}/{o.denominator}")
        elif isinstance(o, (list, tuple)):
            out.append("[")
            for i, x in enumerate(o):
                if i:
                    out.append(",")
                emit(x)
            out.append("]")
        elif isinstance(o, dict):
            out.append("{")
            keys = list(o.keys())
            if any(not isinstance(k, str) for k in keys):
                raise SchemaError("object keys must be strings")
            for i, k in enumerate(sorted(keys)):
                if i:
                    out.append(",")
                out.append(json.dumps(k, ensure_ascii=False))
                out.append(":")
                emit(o[k])
            out.append("}")
        else:
            raise SchemaError(f"cannot serialize {type(o).__name__}")

    emit(obj)
    out.append("\n")
    return "".join(out)


def write_canonical(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(obj))


def read_json(path: str):
    """Parse a JSON file; the non-standard NaN/Infinity literals are refused."""

    def refuse(literal: str):
        raise SchemaError(f"{path}: non-finite literal {literal} is not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=refuse)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: not valid JSON ({e})") from None


# -- simplex references -----------------------------------------------------------


def sorted_tops(K: SimplicialComplex) -> List[Simplex]:
    return sorted(K.tops)


def oriented_tuple(K: SimplicialComplex, s: Simplex) -> Tuple[int, ...]:
    if K.orientation(s) == 1 or len(s) < 2:
        return s
    t = list(s)
    t[-1], t[-2] = t[-2], t[-1]
    return tuple(t)


def simplex_table(K: SimplicialComplex, dim: int) -> List[Simplex]:
    return list(K.simplices(dim))


def simplex_ref(K: SimplicialComplex, s: Simplex) -> List[int]:
    dim = len(s) - 1
    table = simplex_table(K, dim)
    try:
        return [dim, table.index(s)]
    except ValueError:
        raise SchemaError(f"simplex {s} is not in the complex") from None


def resolve_ref(K: SimplicialComplex, ref) -> Simplex:
    if (
        not isinstance(ref, (list, tuple))
        or len(ref) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in ref)
    ):
        raise SchemaError(f"bad simplex reference {ref!r}")
    dim, idx = ref
    table = K.simplices(dim)
    if not 0 <= idx < len(table):
        raise SchemaError(f"simplex reference {ref!r} out of range")
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
        "top_simplices": [list(oriented_tuple(K, t)) for t in sorted_tops(K)],
        "flags": flags,
    }


def complex_from_json(doc) -> SimplicialComplex:
    if not isinstance(doc, dict) or "top_simplices" not in doc:
        raise SchemaError("complex file needs a top_simplices array")
    tops = doc["top_simplices"]
    if not isinstance(tops, list) or not tops:
        raise SchemaError("top_simplices must be a non-empty array")
    K = build_complex([tuple(t) for t in tops])
    if "dim" in doc and doc["dim"] != K.dim:
        raise SchemaError(f"declared dim {doc['dim']} but tops have dim {K.dim}")
    return K


def save_complex(K: SimplicialComplex, path: str) -> None:
    write_canonical(path, complex_to_json(K))


def load_complex(path: str) -> SimplicialComplex:
    return complex_from_json(read_json(path))


# -- cover files --------------------------------------------------------------------


def cover_to_json(C: CoveredComplex) -> dict:
    tops = sorted_tops(C.complex)
    return {
        "num_sets": C.num_sets,
        "admissible_top": {
            str(i): sorted(C.admissible_of(t)) for i, t in enumerate(tops)
        },
    }


def cover_from_json(doc, K: SimplicialComplex) -> CoveredComplex:
    if not isinstance(doc, dict) or "num_sets" not in doc or "admissible_top" not in doc:
        raise SchemaError("cover file needs num_sets and admissible_top")
    tops = sorted_tops(K)
    table = doc["admissible_top"]
    if not isinstance(table, dict):
        raise SchemaError("admissible_top must be an object")
    mapping = {}
    for key, charts in table.items():
        try:
            i = int(key)
        except ValueError:
            raise SchemaError(f"admissible_top key {key!r} is not an index") from None
        if not 0 <= i < len(tops):
            raise SchemaError(f"admissible_top index {i} out of range")
        mapping[tops[i]] = tuple(charts)
    return attach_cover(K, doc["num_sets"], mapping)


def save_cover(C: CoveredComplex, path: str) -> None:
    write_canonical(path, cover_to_json(C))


def load_cover(path: str, K: SimplicialComplex) -> CoveredComplex:
    return cover_from_json(read_json(path), K)


# -- index-map files ------------------------------------------------------------------


def index_map_to_json(rho: IndexMap, C: CoveredComplex) -> dict:
    K = C.complex
    out = {}
    for dim in range(K.dim + 1):
        for i, s in enumerate(simplex_table(K, dim)):
            out[f"{dim}/{i}"] = rho(s)
    return out


def index_map_from_json(doc, C: CoveredComplex) -> IndexMap:
    if not isinstance(doc, dict):
        raise SchemaError("index-map file must be an object")
    K = C.complex
    assignment = {}
    for key, chart in doc.items():
        parts = key.split("/")
        if len(parts) != 2:
            raise SchemaError(f"index-map key {key!r} is not dim/index")
        try:
            dim, idx = int(parts[0]), int(parts[1])
        except ValueError:
            raise SchemaError(f"index-map key {key!r} is not dim/index") from None
        table = K.simplices(dim)
        if not 0 <= idx < len(table):
            raise SchemaError(f"index-map key {key!r} out of range")
        assignment[table[idx]] = chart
    return make_index_map(C, assignment)


def save_index_map(rho: IndexMap, C: CoveredComplex, path: str) -> None:
    write_canonical(path, index_map_to_json(rho, C))


def load_index_map(path: str, C: CoveredComplex) -> IndexMap:
    return index_map_from_json(read_json(path), C)


# -- cochain files ---------------------------------------------------------------------


def cochain_to_json(c: DeligneCochain) -> dict:
    K = c.base.complex
    tables = {k: simplex_table(K, k) for k in range(K.dim + 1)}
    index_of = {
        k: {s: i for i, s in enumerate(table)} for k, table in tables.items()
    }
    entries = []
    for k, s, J, v in c.entries():
        entries.append(
            {
                "k": k,
                "simplex": [k, index_of[k][s]],
                "indices": list(J),
                "value": scalar_to_json(v),
            }
        )
    entries.sort(key=lambda e: (e["k"], e["simplex"][1], e["indices"]))
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
    K = C.complex
    entries = []
    for e in doc["entries"]:
        if not isinstance(e, dict) or not {"k", "simplex", "indices", "value"} <= set(e):
            raise SchemaError(f"bad cochain entry {e!r}")
        k = e["k"]
        s = resolve_ref(K, e["simplex"])
        if len(s) - 1 != k:
            raise SchemaError(
                f"entry level {k} does not match its simplex dimension {len(s) - 1}"
            )
        J = tuple(e["indices"])
        entries.append((k, J, s, scalar_from_json(e["value"], exact)))
    return build_cochain(C, doc["degree"], entries, exact=exact)


def save_cochain(c: DeligneCochain, path: str) -> None:
    write_canonical(path, cochain_to_json(c))


def load_cochain(path: str, C: CoveredComplex) -> DeligneCochain:
    return cochain_from_json(read_json(path), C)
