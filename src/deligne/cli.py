"""Batch front end over the library operations.

Every subcommand is a thin shell: load artifacts, call one or two module
operations, emit a canonical-JSON report (or ``--format text``).  Exit
status: 0 on success, 2 when a tolerance check fails, 1 on usage or
schema errors.  Reports are byte-identical for identical inputs, config,
and seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._scalars import wrap_distance
from .analytic import (
    AnalyticClassPresentation,
    cup_product,
    discretize,
    flat_circle,
    monopole,
    torsion_class,
    winding_function,
    zero_class,
)
from .cochain import glue_cochains, exact_shift, validate_cocycle
from .cover import default_index_map, random_index_map
from .errors import DeligneError, HolonomyError, ToleranceError
from .geometry import (
    ChartedGeometry,
    get_geometry,
    subdivide_geometry,
)
from .holonomy import curvature_total, holonomy
from .io import (
    SchemaError,
    dumps_canonical,
    load_cochain,
    load_complex,
    load_cover,
    load_index_map,
    read_json,
    save_cochain,
    save_complex,
    save_cover,
    scalar_to_json,
)
from .simplicial import barycentric_subdivide
from .transgression import (
    transgress_p3_triple,
    transition_boundary,
    transition_general,
    transition_p2_boundary,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


class _ToleranceFailure(Exception):
    def __init__(self, report: dict):
        super().__init__("tolerance breach")
        self.report = report


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=1e-9)
    common.add_argument(
        "--quad-order",
        type=int,
        default=8,
        help=(
            "an integer >= 1, echoed under config; integration is exact, so "
            "it has no effect on values"
        ),
    )
    common.add_argument("--seed", type=int, default=None)
    common.add_argument(
        "--arithmetic", choices=("float", "rational"), default="float"
    )
    common.add_argument("--output", default=None)
    common.add_argument("--format", choices=("json", "text"), default="json")

    p = _Parser(prog="deligne", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", parents=[common])
    v.add_argument("complex")
    v.add_argument("cover")
    v.add_argument("cochain")

    h = sub.add_parser("holonomy", parents=[common])
    h.add_argument("complex")
    h.add_argument("cover")
    h.add_argument("cochain")
    h.add_argument("--index-map", default="default")

    t = sub.add_parser("transgress", parents=[common])
    t.add_argument("complex")
    t.add_argument("cover")
    t.add_argument("cochain")
    t.add_argument("--rho0", default="default")
    t.add_argument("--rho1", default="default")
    t.add_argument("--rho2", default=None)
    t.add_argument("--boundary-formula", action="store_true")

    cu = sub.add_parser("cup", parents=[common])
    cu.add_argument("--lhs", required=True)
    cu.add_argument("--rhs", required=True)
    cu.add_argument("--geometry", required=True)

    f = sub.add_parser("fixture", parents=[common])
    f.add_argument("name", nargs="?", default=None)
    f.add_argument(
        "--params",
        action="append",
        default=[],
        help=(
            "fixture parameters as key=value pairs, comma-separated and "
            "repeatable. flat_circle: theta, in radians under float "
            "arithmetic and in turns under rational. winding_function: w, "
            "coord, and offset, in turns under both arithmetics. monopole: "
            "k. torsion: q, w, degree. zero: degree."
        ),
    )
    f.add_argument("--geometry", default=None)
    f.add_argument("--request", default=None)

    s = sub.add_parser("shift", parents=[common])
    s.add_argument("complex")
    s.add_argument("cover")
    s.add_argument("cochain")
    s.add_argument("shift_by")

    c = sub.add_parser("curvature", parents=[common])
    c.add_argument("complex")
    c.add_argument("cover")
    c.add_argument("cochain")
    c.add_argument("--index-map", default="default")

    g = sub.add_parser("glue", parents=[common])
    g.add_argument("complex1")
    g.add_argument("cover1")
    g.add_argument("cochain1")
    g.add_argument("complex2")
    g.add_argument("cover2")
    g.add_argument("cochain2")
    g.add_argument("--matching", required=True)

    d = sub.add_parser("subdivide", parents=[common])
    d.add_argument("complex", nargs="?", default=None)
    d.add_argument("--geometry", default=None)

    return p


# -- helpers -------------------------------------------------------------------------


def _config_dict(args) -> dict:
    return {
        "arithmetic": args.arithmetic,
        "quad_order": args.quad_order,
        "seed": 0 if args.seed is None else args.seed,
        "tolerance": args.tolerance,
    }


def _check_quad_order(value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _UsageError(f"quad_order must be an integer >= 1, got {value!r}")


def _load_triple(args):
    K = load_complex(args.complex)
    C = load_cover(args.cover, K)
    c = load_cochain(args.cochain, C)
    return K, C, c


def _validated(c, args) -> dict:
    report = validate_cocycle(c, tol=args.tolerance)
    doc = _validation_dict(report)
    if not report.passed:
        raise _ToleranceFailure(
            {"validation": doc, "error": "cocycle conditions fail"}
        )
    return doc


def _validation_dict(report) -> dict:
    return {
        "arithmetic": "rational" if report.exact else "float",
        "checked": {str(k): n for k, n in sorted(report.checked.items())},
        "degree": report.degree,
        "failing": [
            {
                "indices": list(f.indices),
                "level": f.level,
                "residual": scalar_to_json(f.residual),
                "simplex": list(f.simplex),
            }
            for f in report.failing[:32]
        ],
        "failing_total": len(report.failing),
        "passed": report.passed,
        "worst": {str(k): scalar_to_json(v) for k, v in sorted(report.worst.items())},
    }


def _resolve_index_map(spec: str, C, args, stream: int = 0):
    if spec == "default":
        return default_index_map(C)
    if spec == "random":
        if args.seed is None:
            raise _UsageError("--index-map random requires an explicit --seed")
        return random_index_map(C, 3 * args.seed + stream)
    return load_index_map(spec, C)


def _holonomy_dict(value) -> dict:
    return {
        "angle": scalar_to_json(value.angle),
        "flag_count": value.flag_count,
        "levels": [
            {
                "codim": lv.codim,
                "flags": lv.flags,
                "value": scalar_to_json(lv.value),
            }
            for lv in value.levels
        ],
        "raw": scalar_to_json(value.raw),
        "units": "turns" if value.exact else "radians",
    }


def _transition_dict(value) -> dict:
    doc = {
        "angle": scalar_to_json(value.angle),
        "raw": scalar_to_json(value.raw),
        "route": value.route,
        "units": "turns" if value.exact else "radians",
    }
    if value.route != "general":
        doc["boundary_flags"] = value.boundary_flags
        doc["boundary_sum"] = scalar_to_json(value.boundary_sum)
        doc["interior_flags"] = value.interior_flags
        doc["interior_sum"] = scalar_to_json(value.interior_sum)
        if value.agreement_residual is not None:
            doc["agreement_residual"] = scalar_to_json(value.agreement_residual)
    return doc


def _breach(residual, tol: float, exact: bool) -> bool:
    return residual != 0 if exact else float(residual) > tol


def _parse_params(chunks: List[str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise _UsageError(f"parameter {item!r} is not key=value")
            key, raw = item.split("=", 1)
            out[key.strip()] = _parse_value(raw.strip())
    return out


def _parse_value(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    if "/" in raw:
        try:
            Fraction(raw)
            return raw  # kept as a string; coerced by the fixture
        except ValueError:
            pass
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(f"cannot parse parameter value {raw!r}")


_FIXTURE_DEFAULT_GEOMETRY = {
    "flat_circle": "circle-2arc",
    "winding_function": "circle-3arc",
    "monopole": "sphere-octahedron-2chart",
    "zero": "circle-2arc",
}


def _torsion_default_geometry(degree: int) -> str:
    return {1: "circle-3arc", 2: "torus2-4chart", 3: "torus3-8chart"}.get(
        degree, "torus3-8chart"
    )


def build_fixture(
    name: str,
    geometry: Optional[str],
    params: Dict[str, object],
    exact: bool,
) -> Tuple[AnalyticClassPresentation, ChartedGeometry]:
    """Shared fixture factory for the fixture and cup subcommands."""
    params = dict(params)
    if name == "torsion":
        degree = int(params.get("degree", 1))
        geom_name = geometry or _torsion_default_geometry(degree)
    else:
        if name not in _FIXTURE_DEFAULT_GEOMETRY:
            raise _UsageError(
                f"unknown fixture {name!r}; known: flat_circle, "
                "winding_function, monopole, torsion, zero"
            )
        geom_name = geometry or _FIXTURE_DEFAULT_GEOMETRY[name]
    geom = get_geometry(geom_name)
    if name == "flat_circle":
        if "theta" not in params:
            raise _UsageError("flat_circle needs --params theta=...")
        pres = flat_circle(geom, params.pop("theta"), exact=exact)
    elif name == "winding_function":
        if "w" not in params:
            raise _UsageError("winding_function needs --params w=...")
        pres = winding_function(
            geom,
            params.pop("w"),
            coord=int(params.pop("coord", 0)),
            offset=params.pop("offset", 0),
            exact=exact,
        )
    elif name == "monopole":
        if "k" not in params:
            raise _UsageError("monopole needs --params k=...")
        pres = monopole(geom, params.pop("k"))
    elif name == "torsion":
        if "q" not in params:
            raise _UsageError("torsion needs --params q=...")
        pres = torsion_class(
            geom,
            params.pop("q"),
            int(params.pop("w", 1)),
            int(params.pop("degree", 1)),
        )
    else:  # zero
        if "degree" not in params:
            raise _UsageError("zero needs --params degree=...")
        pres = zero_class(geom, int(params.pop("degree")))
    if params:
        raise _UsageError(f"unknown parameters for {name}: {sorted(params)}")
    return pres, geom


def _parse_operand(spec: str) -> Tuple[str, Dict[str, object]]:
    if ":" in spec:
        name, rest = spec.split(":", 1)
        return name, _parse_params([rest])
    return spec, {}


def _write_geometry_files(geom: ChartedGeometry, prefix: str) -> List[str]:
    paths = [f"{prefix}.complex.json", f"{prefix}.cover.json"]
    save_complex(geom.covered.complex, paths[0])
    save_cover(geom.covered, paths[1])
    return paths


# -- commands ------------------------------------------------------------------------


def _cmd_validate(args) -> Tuple[int, dict]:
    _, _, c = _load_triple(args)
    report = validate_cocycle(c, tol=args.tolerance)
    doc = _validation_dict(report)
    return (0 if report.passed else 2), {"validation": doc}


def _cmd_holonomy(args) -> Tuple[int, dict]:
    _, C, c = _load_triple(args)
    validation = _validated(c, args)
    rho = _resolve_index_map(args.index_map, C, args)
    value = holonomy(c, rho)
    return 0, {"holonomy": _holonomy_dict(value), "validation": validation}


def _cmd_transgress(args) -> Tuple[int, dict]:
    _, C, c = _load_triple(args)
    if args.boundary_formula and c.degree != 2:
        raise _UsageError(f"--boundary-formula needs a degree-2 cochain, got {c.degree}")
    validation = _validated(c, args)
    rho0 = _resolve_index_map(args.rho0, C, args, stream=0)
    rho1 = _resolve_index_map(args.rho1, C, args, stream=1)
    result: dict = {"validation": validation}
    if args.rho2 is not None:
        rho2 = _resolve_index_map(args.rho2, C, args, stream=2)
        try:
            triple = transgress_p3_triple(c, rho0, rho1, rho2, tol=args.tolerance)
        except ToleranceError as e:
            raise _ToleranceFailure(dict(result, error=str(e))) from None
        result["triple"] = {
            "display_agreement": scalar_to_json(triple.display_agreement),
            "display_raw": scalar_to_json(triple.display_raw),
            "integer_residual": scalar_to_json(triple.integer_residual),
            "integer_witness": triple.integer_witness,
            "surface_angle": scalar_to_json(triple.angle),
            "surface_raw": scalar_to_json(triple.surface_raw),
            "telescoped": scalar_to_json(triple.telescoped),
            "units": "turns" if triple.exact else "radians",
        }
        return 0, result
    general = transition_general(c, rho0, rho1)
    boundary = transition_boundary(c, rho0, rho1)
    residual = wrap_distance(general.raw, boundary.raw, c.exact)
    result["general"] = _transition_dict(general)
    result["boundary"] = _transition_dict(boundary)
    result["agreement_residual"] = scalar_to_json(residual)
    if args.boundary_formula:
        try:
            special = transition_p2_boundary(c, rho0, rho1, tol=args.tolerance)
        except ToleranceError as e:
            raise _ToleranceFailure(dict(result, error=str(e))) from None
        result["boundary_formula"] = _transition_dict(special)
    if _breach(residual, args.tolerance, c.exact):
        raise _ToleranceFailure(
            dict(result, error="boundary route disagrees with the general route")
        )
    return 0, result


def _cmd_cup(args) -> Tuple[int, dict]:
    exact = args.arithmetic == "rational"
    lname, lparams = _parse_operand(args.lhs)
    rname, rparams = _parse_operand(args.rhs)
    lhs, geom = build_fixture(lname, args.geometry, lparams, exact)
    rhs, _ = build_fixture(rname, args.geometry, rparams, exact)
    product = cup_product(lhs, rhs)
    cochain = discretize(product, exact=exact)
    report = validate_cocycle(cochain, tol=args.tolerance)
    result = {
        "cup": {
            "degree": product.degree,
            "entries": sum(1 for _ in cochain.entries()),
            "geometry": geom.name,
            "kind": product.kind,
            "label": product.label,
        },
        "validation": _validation_dict(report),
    }
    if args.output:
        paths = _write_geometry_files(geom, args.output)
        cpath = f"{args.output}.cochain.json"
        save_cochain(cochain, cpath)
        result["files"] = sorted(paths + [cpath])
    return (0 if report.passed else 2), result


def _cmd_fixture(args) -> Tuple[int, dict]:
    exact = args.arithmetic == "rational"
    name = args.name
    geometry = args.geometry
    params = _parse_params(args.params)
    if args.request is not None:
        doc = read_json(args.request)
        if not isinstance(doc, dict) or "fixture" not in doc:
            raise SchemaError("fixture request file needs a fixture name")
        name = doc["fixture"]
        geometry = doc.get("geometry", geometry)
        params = {**doc.get("params", {}), **params}
        if "quad_order" in doc:
            _check_quad_order(doc["quad_order"])
    if name is None:
        raise _UsageError("fixture needs a name or --request file")
    pres, geom = build_fixture(name, geometry, params, exact)
    cochain = discretize(pres, exact=exact)
    report = validate_cocycle(cochain, tol=args.tolerance)
    result = {
        "fixture": {
            "degree": pres.degree,
            "entries": sum(1 for _ in cochain.entries()),
            "geometry": geom.name,
            "label": pres.label,
        },
        "validation": _validation_dict(report),
    }
    if args.output:
        paths = _write_geometry_files(geom, args.output)
        cpath = f"{args.output}.cochain.json"
        save_cochain(cochain, cpath)
        result["files"] = sorted(paths + [cpath])
    return (0 if report.passed else 2), result


def _cmd_shift(args) -> Tuple[int, dict]:
    _, C, c = _load_triple(args)
    b = load_cochain(args.shift_by, C)
    shifted = exact_shift(c, b)
    result = {
        "shift": {
            "degree": shifted.degree,
            "entries": sum(1 for _ in shifted.entries()),
        }
    }
    if args.output:
        save_cochain(shifted, args.output)
        result["files"] = [args.output]
    return 0, result


def _cmd_curvature(args) -> Tuple[int, dict]:
    K, C, c = _load_triple(args)
    validation = _validated(c, args)
    rho = _resolve_index_map(args.index_map, C, args)
    if K.dim != c.degree + 1 or not K.closed:
        raise _UsageError(
            "curvature totals need a closed complex of dimension degree+1"
        )
    try:
        value = curvature_total(c, rho, tol=args.tolerance)
    except HolonomyError as e:
        raise _ToleranceFailure(
            {"error": str(e), "validation": validation}
        ) from None
    result = {
        "curvature": {
            "multiple": value.multiple,
            "residual": scalar_to_json(value.residual),
            "total": scalar_to_json(value.total),
            "units": "turns" if value.exact else "radians",
        },
        "validation": validation,
    }
    return 0, result


def _cmd_glue(args) -> Tuple[int, dict]:
    K1 = load_complex(args.complex1)
    C1 = load_cover(args.cover1, K1)
    c1 = load_cochain(args.cochain1, C1)
    K2 = load_complex(args.complex2)
    C2 = load_cover(args.cover2, K2)
    c2 = load_cochain(args.cochain2, C2)
    doc = read_json(args.matching)
    if not isinstance(doc, dict):
        raise SchemaError("matching file must map K2 vertices to K1 vertices")
    matching = {}
    for key, val in doc.items():
        try:
            matching[int(key)] = int(val)
        except (TypeError, ValueError):
            raise SchemaError(f"bad matching pair {key!r}: {val!r}") from None
    glued, relabel = glue_cochains(c1, c2, matching)
    K = glued.base.complex
    result = {
        "glue": {
            "dim": K.dim,
            "entries": sum(1 for _ in glued.entries()),
            "seam_vertices": len(matching),
            "tops": len(K.tops),
            "vertices": len(K.vertices),
        }
    }
    if args.output:
        paths = [
            f"{args.output}.complex.json",
            f"{args.output}.cover.json",
            f"{args.output}.cochain.json",
        ]
        save_complex(K, paths[0])
        save_cover(glued.base, paths[1])
        save_cochain(glued, paths[2])
        result["files"] = paths
    return 0, result


def _cmd_subdivide(args) -> Tuple[int, dict]:
    if args.geometry is not None:
        geom = get_geometry(args.geometry)
        fine = subdivide_geometry(geom)
        K2 = fine.covered.complex
        result = {
            "subdivide": {
                "geometry": args.geometry,
                "tops": len(K2.tops),
                "vertices": len(K2.vertices),
            }
        }
        if args.output:
            result["files"] = _write_geometry_files(fine, args.output)
        return 0, result
    if args.complex is None:
        raise _UsageError("subdivide needs a complex file or --geometry")
    K = load_complex(args.complex)
    K2, _ = barycentric_subdivide(K)
    result = {
        "subdivide": {
            "tops": len(K2.tops),
            "vertices": len(K2.vertices),
        }
    }
    if args.output:
        save_complex(K2, args.output)
        result["files"] = [args.output]
    return 0, result


_COMMANDS = {
    "validate": _cmd_validate,
    "holonomy": _cmd_holonomy,
    "transgress": _cmd_transgress,
    "cup": _cmd_cup,
    "fixture": _cmd_fixture,
    "shift": _cmd_shift,
    "curvature": _cmd_curvature,
    "glue": _cmd_glue,
    "subdivide": _cmd_subdivide,
}


def _render_text(doc: dict, indent: str = "") -> str:
    lines: List[str] = []

    def walk(obj, prefix):
        if isinstance(obj, dict):
            for key in sorted(obj):
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{prefix}{key}:")
                    walk(val, prefix + "  ")
                else:
                    lines.append(f"{prefix}{key}: {val}")
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                if isinstance(val, (dict, list)):
                    lines.append(f"{prefix}- [{i}]")
                    walk(val, prefix + "  ")
                else:
                    lines.append(f"{prefix}- {val}")

    walk(doc, indent)
    return "\n".join(lines) + "\n"


def _emit(doc: dict, args) -> None:
    if args.format == "text":
        payload = _render_text(doc)
    else:
        payload = dumps_canonical(doc)
    sys.stdout.write(payload)
    if args.output and args.command in ("validate", "holonomy", "transgress", "curvature"):
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"deligne: {e}", file=sys.stderr)
        return 1
    envelope = {"command": args.command, "config": _config_dict(args)}
    try:
        _check_quad_order(args.quad_order)
        try:
            code, result = _COMMANDS[args.command](args)
            envelope.update(result)
        except _ToleranceFailure as e:
            envelope.update(e.report)
            code = 2
        _emit(envelope, args)
    except (
        _UsageError, DeligneError, OSError, TypeError, ValueError, ZeroDivisionError
    ) as e:
        # TypeError covers float data handed to rational arithmetic, and
        # ZeroDivisionError an "n/0" string read as a Fraction.
        print(f"deligne: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
