"""Batch front end over the library operations.

Every subcommand is a thin shell: load artifacts, call the library, write
its results into a canonical-JSON report (or ``--format text``).  Exit
status: 0 on success, 2 when a tolerance check fails (the library raises
a ToleranceError, or a reported validation fails), 1 on usage or schema
errors.  Reports are byte-identical for identical inputs, config, and
seed.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ._scalars import RATIONAL, exceeds, wrap_distance
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
from .cochain import DeligneCochain, glue_cochains, exact_shift, validate_cocycle
from .cover import CoveredComplex, default_index_map, random_index_map
from .errors import DeligneError, ToleranceError
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
    matching_from_json,
    read_json,
    save_cochain,
    save_complex,
    save_cover,
    scalar_to_json,
)
from .simplicial import barycentric_subdivide
from .transgression import (
    _p2_boundary,
    transgress_p3_triple,
    transition_boundary,
    transition_general,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=1e-9)
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
        "seed": 0 if args.seed is None else args.seed,
        "tolerance": args.tolerance,
    }


def _load(complex_path: str, cover_path: str, cochain_path: str) -> DeligneCochain:
    """The cochain of an artifact triple; its cover and complex hang off it."""
    K = load_complex(complex_path)
    return load_cochain(cochain_path, load_cover(cover_path, K))


def _validation(c: DeligneCochain, args) -> dict:
    report = validate_cocycle(c, tol=args.tolerance)
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


def _validated(c: DeligneCochain, args, report: dict) -> None:
    """Report c's validation; a cochain that fails it goes no further."""
    report["validation"] = _validation(c, args)
    if not report["validation"]["passed"]:
        raise ToleranceError("cocycle conditions fail")


def _resolve_index_map(spec: str, C: CoveredComplex, args, stream: int = 0):
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
    if RATIONAL.fullmatch(raw):
        return raw  # kept as a string; coerced by the fixture
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(f"cannot parse parameter value {raw!r}")


class _Fixture(NamedTuple):
    build: Callable[..., AnalyticClassPresentation]
    required: str
    geometry: str
    # Default geometry by the "degree" parameter (None: not given).
    by_degree: Mapping[object, str] = {}


_FIXTURES = {
    "flat_circle": _Fixture(flat_circle, "theta", "circle-2arc"),
    "winding_function": _Fixture(winding_function, "w", "circle-3arc"),
    "monopole": _Fixture(monopole, "k", "sphere-octahedron-2chart"),
    "torsion": _Fixture(
        torsion_class,
        "q",
        "torus3-8chart",
        {None: "circle-3arc", 1: "circle-3arc", 2: "torus2-4chart"},
    ),
    "zero": _Fixture(zero_class, "degree", "circle-2arc"),
}


def build_fixture(
    name: str,
    params: Dict[str, object],
    geometry: Optional[str],
    exact: bool,
) -> Tuple[AnalyticClassPresentation, ChartedGeometry]:
    """Shared fixture factory for the fixture and cup subcommands: the
    parameters are the constructor's keywords, arithmetic aside."""
    if name not in _FIXTURES:
        raise _UsageError(f"unknown fixture {name!r}; known: {', '.join(_FIXTURES)}")
    fx = _FIXTURES[name]
    if fx.required not in params:
        raise _UsageError(f"{name} needs --params {fx.required}=...")
    accepted = inspect.signature(fx.build).parameters
    unknown = sorted(k for k in params if k not in accepted or k in ("geom", "exact"))
    if unknown:
        raise _UsageError(f"unknown parameters for {name}: {unknown}")
    # A degree that is not an int counts as not given; the constructor refuses it.
    degree = params.get("degree")
    default = fx.by_degree.get(degree if type(degree) is int else None, fx.geometry)
    geom = get_geometry(geometry or default)
    if "exact" in accepted:
        params = dict(params, exact=exact)
    return fx.build(geom, **params), geom


def _parse_operand(spec: str) -> Tuple[str, Dict[str, object]]:
    if ":" in spec:
        name, rest = spec.split(":", 1)
        return name, _parse_params([rest])
    return spec, {}


def _write_artifacts(
    prefix: str, C: CoveredComplex, c: Optional[DeligneCochain] = None
) -> List[str]:
    """Save C's complex and cover, and c if given, as ``prefix.<part>.json``."""
    paths = [f"{prefix}.complex.json", f"{prefix}.cover.json"]
    save_complex(C.complex, paths[0])
    save_cover(C, paths[1])
    if c is not None:
        paths.append(f"{prefix}.cochain.json")
        save_cochain(c, paths[2])
    return paths


def _report_class(
    pres: AnalyticClassPresentation, geom: ChartedGeometry, key: str, args, report: dict
) -> None:
    """Discretize a class, report it under ``key`` with its validation, and
    save its artifacts under --output."""
    cochain = discretize(pres, exact=args.arithmetic == "rational")
    report[key] = {
        "degree": pres.degree,
        "entries": len(cochain),
        "geometry": geom.name,
        "label": pres.label,
    }
    report["validation"] = _validation(cochain, args)
    if args.output:
        report["files"] = sorted(_write_artifacts(args.output, geom.covered, cochain))


# -- commands ------------------------------------------------------------------------


def _cmd_validate(args, report: dict) -> None:
    report["validation"] = _validation(_load(args.complex, args.cover, args.cochain), args)


def _cmd_holonomy(args, report: dict) -> None:
    c = _load(args.complex, args.cover, args.cochain)
    _validated(c, args, report)
    rho = _resolve_index_map(args.index_map, c.base, args)
    report["holonomy"] = _holonomy_dict(holonomy(c, rho))


def _cmd_transgress(args, report: dict) -> None:
    c = _load(args.complex, args.cover, args.cochain)
    if args.boundary_formula and c.degree != 2:
        raise _UsageError(f"--boundary-formula needs a degree-2 cochain, got {c.degree}")
    _validated(c, args, report)
    rho0 = _resolve_index_map(args.rho0, c.base, args, stream=0)
    rho1 = _resolve_index_map(args.rho1, c.base, args, stream=1)
    if args.rho2 is not None:
        rho2 = _resolve_index_map(args.rho2, c.base, args, stream=2)
        triple = transgress_p3_triple(c, rho0, rho1, rho2, tol=args.tolerance)
        report["triple"] = {
            "display_agreement": scalar_to_json(triple.display_agreement),
            "display_raw": scalar_to_json(triple.display_raw),
            "integer_residual": scalar_to_json(triple.integer_residual),
            "integer_witness": triple.integer_witness,
            "surface_angle": scalar_to_json(triple.angle),
            "surface_raw": scalar_to_json(triple.surface_raw),
            "telescoped": scalar_to_json(triple.telescoped),
            "units": "turns" if triple.exact else "radians",
        }
        return
    general = transition_general(c, rho0, rho1)
    boundary = transition_boundary(c, rho0, rho1)
    residual = wrap_distance(general.raw, boundary.raw, c.exact)
    report["general"] = _transition_dict(general)
    report["boundary"] = _transition_dict(boundary)
    report["agreement_residual"] = scalar_to_json(residual)
    if args.boundary_formula:
        special = _p2_boundary(c, boundary, general, args.tolerance)
        report["boundary_formula"] = _transition_dict(special)
    if exceeds(residual, args.tolerance, c.exact):
        raise ToleranceError("boundary route disagrees with the general route")


def _cmd_cup(args, report: dict) -> None:
    exact = args.arithmetic == "rational"
    lhs, geom = build_fixture(*_parse_operand(args.lhs), args.geometry, exact)
    rhs, _ = build_fixture(*_parse_operand(args.rhs), args.geometry, exact)
    product = cup_product(lhs, rhs)
    _report_class(product, geom, "cup", args, report)
    report["cup"]["kind"] = product.kind


def _cmd_fixture(args, report: dict) -> None:
    name, geometry, params = args.name, args.geometry, _parse_params(args.params)
    if args.request is not None:
        doc = read_json(args.request)
        if not isinstance(doc, dict) or "fixture" not in doc:
            raise SchemaError("fixture request file needs a fixture name")
        if not isinstance(doc.get("params", {}), dict):
            raise SchemaError("fixture request params must be an object")
        for key in ("fixture", "geometry"):
            if doc.get(key) is not None and not isinstance(doc[key], str):
                raise SchemaError(f"fixture request {key} must be a string")
        name = doc["fixture"]
        geometry = doc.get("geometry", geometry)
        params = {**doc.get("params", {}), **params}
    if name is None:
        raise _UsageError("fixture needs a name or --request file")
    pres, geom = build_fixture(name, params, geometry, args.arithmetic == "rational")
    _report_class(pres, geom, "fixture", args, report)


def _cmd_shift(args, report: dict) -> None:
    c = _load(args.complex, args.cover, args.cochain)
    shifted = exact_shift(c, load_cochain(args.shift_by, c.base))
    report["shift"] = {
        "degree": shifted.degree,
        "entries": len(shifted),
    }
    if args.output:
        save_cochain(shifted, args.output)
        report["files"] = [args.output]


def _cmd_curvature(args, report: dict) -> None:
    c = _load(args.complex, args.cover, args.cochain)
    _validated(c, args, report)
    rho = _resolve_index_map(args.index_map, c.base, args)
    value = curvature_total(c, rho, tol=args.tolerance)
    report["curvature"] = {
        "multiple": value.multiple,
        "residual": scalar_to_json(value.residual),
        "total": scalar_to_json(value.total),
        "units": "turns" if value.exact else "radians",
    }


def _cmd_glue(args, report: dict) -> None:
    c1 = _load(args.complex1, args.cover1, args.cochain1)
    c2 = _load(args.complex2, args.cover2, args.cochain2)
    matching = matching_from_json(read_json(args.matching))
    glued, _ = glue_cochains(c1, c2, matching)
    K = glued.base.complex
    report["glue"] = {
        "dim": K.dim,
        "entries": len(glued),
        "seam_vertices": len(matching),
        "tops": len(K.tops),
        "vertices": len(K.vertices),
    }
    if args.output:
        report["files"] = _write_artifacts(args.output, glued.base, glued)


def _cmd_subdivide(args, report: dict) -> None:
    if args.geometry is not None:
        fine = subdivide_geometry(get_geometry(args.geometry))
        K2 = fine.covered.complex
        report["subdivide"] = {
            "geometry": args.geometry,
            "tops": len(K2.tops),
            "vertices": len(K2.vertices),
        }
        if args.output:
            report["files"] = _write_artifacts(args.output, fine.covered)
        return
    if args.complex is None:
        raise _UsageError("subdivide needs a complex file or --geometry")
    K2, _ = barycentric_subdivide(load_complex(args.complex))
    report["subdivide"] = {
        "tops": len(K2.tops),
        "vertices": len(K2.vertices),
    }
    if args.output:
        save_complex(K2, args.output)
        report["files"] = [args.output]


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
        if not 0 <= args.tolerance < math.inf:
            raise _UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    except _UsageError as e:
        print(f"deligne: {e}", file=sys.stderr)
        return 1
    report = {"command": args.command, "config": _config_dict(args)}
    try:
        try:
            _COMMANDS[args.command](args, report)
            code = 0 if report.get("validation", {}).get("passed", True) else 2
        except ToleranceError as e:
            report["error"] = str(e)
            code = 2
        _emit(report, args)
    except (_UsageError, DeligneError, OSError, TypeError, ValueError) as e:
        # TypeError covers float data handed to rational arithmetic.
        print(f"deligne: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
