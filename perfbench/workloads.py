"""The four benchmark workloads, each a closed loop with one client.

A workload object does its set-up in ``__init__`` and one op per call of
``op(i, tracer)``; the next op starts when the last one returns.  Every op
checks its result against a reference and raises ``Mismatch`` when it
misses.  All inputs derive from the seed given to the constructor: the
set-up draws from one stream, the ops from another, so the same seed
gives the same inputs op for op.

Each call into ``deligne`` sits inside a span named ``<layer>.<function>``
after the module it lives in.  With ``NULL_TRACER`` the spans cost one
method call each and record nothing.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

from deligne import (
    GEOMETRY_BUILDERS,
    cup_product,
    default_index_map,
    discretize,
    exact_shift,
    holonomy,
    load_cochain,
    random_cochain,
    random_index_map,
    save_cochain,
    save_complex,
    save_cover,
    star_cover,
    subdivide_geometry,
    torsion_class,
    transgress_p3_triple,
    transition_boundary,
    transition_general,
    validate_cocycle,
    winding_function,
    zero_cochain,
)
import deligne.cli


class Mismatch(Exception):
    """An op returned something other than its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _streams(name: str, seed: int) -> Tuple[random.Random, random.Random]:
    return random.Random(f"{name}/setup/{seed}"), random.Random(f"{name}/ops/{seed}")


def _draw(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _slots(cover, degree: int) -> int:
    """(simplex, multi-index) slots a degree-p cochain has on the cover."""
    K = cover.complex
    return sum(
        sum(1 for _ in cover.multi_indices(s, degree - k + 1))
        for k in range(degree + 1)
        for s in K.simplices(k)
    )


def _validated(t, c) -> None:
    with t.span("cochain.validate_cocycle") as sp:
        report = validate_cocycle(c)
    sp.counts["conditions"] = sum(report.checked.values())
    expect(report.passed, "set-up class fails its cocycle conditions")


def _warm_flags(t, K) -> None:
    for q in range(K.dim + 1):
        with t.span("simplicial.flags") as sp:
            flags = K.flags(q)
        sp.counts["flags"] = len(flags)


class ClosedHolonomy:
    """Holonomy of a torsion class on the twice-subdivided 2-torus."""

    name = "closed-holonomy"
    angle = Fraction(2, 5)  # w/q of torsion_class(q=5, w=2)

    def __init__(self, seed: int, t, workdir: str):
        _, self.rng = _streams(self.name, seed)
        with t.span("geometry.build"):
            coarse = GEOMETRY_BUILDERS["torus2-4chart"]()
        fine = coarse
        for _ in range(2):
            with t.span("geometry.subdivide_geometry") as sp:
                fine = subdivide_geometry(fine)
            sp.counts["tops"] = len(fine.covered.complex.tops)
        pres = torsion_class(coarse, q=5, w=2, degree=2)
        with t.span("analytic.discretize") as sp:
            self.c = discretize(pres, geometry=fine, exact=True)
        _validated(t, self.c)
        self.cover = fine.covered
        _warm_flags(t, self.cover.complex)

    def op(self, i: int, t) -> None:
        s = _draw(self.rng)
        with t.span("cover.random_index_map"):
            rho = random_index_map(self.cover, s)
        with t.span("holonomy.holonomy") as sp:
            value = holonomy(self.c, rho)
        sp.counts["flags"] = value.flag_count
        expect(value.angle == self.angle, f"holonomy {value.angle} != {self.angle}")


class BoundaryTransition:
    """Transition functions and the p=3 triple on the star-covered solid torus."""

    name = "boundary-transition"

    def __init__(self, seed: int, t, workdir: str):
        setup_rng, self.rng = _streams(self.name, seed)
        with t.span("geometry.build"):
            geom = GEOMETRY_BUILDERS["solid-torus"]()
        with t.span("cover.star_cover"):
            self.cover = star_cover(geom.covered.complex)
        zero = zero_cochain(self.cover, 3, exact=True)
        with t.span("cochain.random_cochain"):
            b = random_cochain(self.cover, 2, _draw(setup_rng), exact=True)
        with t.span("cochain.exact_shift") as sp:
            self.c = exact_shift(zero, b)
        if t.enabled:
            sp.counts["slots"] = _slots(self.cover, 3)
        _validated(t, self.c)
        _warm_flags(t, self.cover.complex)

    def _rho(self, t):
        s = _draw(self.rng)
        with t.span("cover.random_index_map"):
            return random_index_map(self.cover, s)

    def op(self, i: int, t) -> None:
        rho0, rho1 = self._rho(t), self._rho(t)
        with t.span("transgression.transition_general"):
            general = transition_general(self.c, rho0, rho1)
        with t.span("transgression.transition_boundary") as sp:
            boundary = transition_boundary(self.c, rho0, rho1)
        sp.counts["flags"] = boundary.boundary_flags + boundary.interior_flags
        sp.counts["interior_flags"] = boundary.interior_flags
        expect(general.raw == boundary.raw, "the two transition routes disagree")
        expect(boundary.interior_sum == 0, "interior flags do not cancel")
        if i % 4 == 3:
            rho2 = self._rho(t)
            with t.span("transgression.transgress_p3_triple"):
                triple = transgress_p3_triple(self.c, rho0, rho1, rho2)
            expect(triple.telescoped == 0, "triple does not telescope")
            expect(triple.integer_residual == 0, "triple misses integrality")
            expect(triple.display_agreement == 0, "edge/vertex words disagree")


class GaugeWrites:
    """Build, check and persist a fresh gauge shift of the zero class per op."""

    name = "gauge-writes"

    def __init__(self, seed: int, t, workdir: str):
        _, self.rng = _streams(self.name, seed)
        with t.span("geometry.build"):
            geom = GEOMETRY_BUILDERS["torus2-4chart"]()
        with t.span("cover.star_cover"):
            self.cover = star_cover(geom.covered.complex)
        self.c = zero_cochain(self.cover, 2, exact=True)
        _validated(t, self.c)
        _warm_flags(t, self.cover.complex)
        self.rho = default_index_map(self.cover)
        self.slots = _slots(self.cover, 2)
        self.path = os.path.join(workdir, "gauge.cochain.json")

    def op(self, i: int, t) -> None:
        s = _draw(self.rng)
        with t.span("cochain.random_cochain"):
            b = random_cochain(self.cover, 1, s, exact=True)
        with t.span("cochain.exact_shift") as sp:
            shifted = exact_shift(self.c, b)
        saved = list(shifted.entries())
        sp.counts.update(slots=self.slots, entries=len(saved))
        with t.span("cochain.validate_cocycle") as sp:
            report = validate_cocycle(shifted)
        sp.counts["conditions"] = sum(report.checked.values())
        expect(report.passed, "shifted class fails its cocycle conditions")
        with t.span("io.save_cochain") as sp:
            save_cochain(shifted, self.path)
        size = os.path.getsize(self.path)
        sp.counts["bytes"] = size
        with t.span("io.load_cochain") as sp:
            loaded = load_cochain(self.path, self.cover)
        sp.counts["bytes"] = size
        expect(list(loaded.entries()) == saved, "loaded entries differ from saved")
        with t.span("holonomy.holonomy") as sp:
            value = holonomy(shifted, self.rho)
        sp.counts["flags"] = value.flag_count
        expect(value.angle == 0, f"holonomy of an exact class is {value.angle}")


class CliBatch:
    """One ``python -m deligne.cli`` process per op, four commands in turn."""

    name = "cli-batch"
    commands = ("cup", "curvature", "holonomy", "transgress")

    def __init__(self, seed: int, t, workdir: str):
        setup_rng, ops_rng = _streams(self.name, seed)
        self.workdir = workdir
        self.seeds = [ops_rng.randrange(1000) for _ in range(8)]
        torus = GEOMETRY_BUILDERS["torus2-4chart"]()
        with t.span("analytic.discretize"):
            torsion = discretize(torsion_class(torus, q=5, w=2, degree=2), exact=True)
        self.torsion = self._save(t, "torsion", torsion)
        annulus = GEOMETRY_BUILDERS["annulus"]()
        cover = star_cover(annulus.covered.complex)
        with t.span("cochain.random_cochain"):
            b = random_cochain(cover, 1, _draw(setup_rng), exact=True)
        with t.span("cochain.exact_shift"):
            orbit = exact_shift(zero_cochain(cover, 2, exact=True), b)
        self.orbit = self._save(t, "orbit", orbit)
        self.cup_prefix = os.path.join(workdir, "cup")
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(deligne.__file__)))
        # Byte-code caching on, as for a user: the first process writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.first_stdout: Dict[Tuple[str, ...], bytes] = {}
        self.torus = torus

    def _save(self, t, stem: str, c) -> List[str]:
        paths = [os.path.join(self.workdir, f"{stem}.{part}.json") for part in ("complex", "cover", "cochain")]
        with t.span("io.save_cochain"):
            save_complex(c.base.complex, paths[0])
            save_cover(c.base, paths[1])
            save_cochain(c, paths[2])
        return paths

    def argv(self, i: int) -> Tuple[str, ...]:
        command = self.commands[i % 4]
        seed = str(self.seeds[(i // 4) % 8])
        cup = [f"{self.cup_prefix}.{part}.json" for part in ("complex", "cover", "cochain")]
        return {
            "cup": (
                "cup",
                "--lhs", "winding_function:w=1",
                "--rhs", "winding_function:w=1,coord=1",
                "--geometry", "torus2-4chart",
                "--output", self.cup_prefix,
            ),
            "curvature": ("curvature", *cup),
            "holonomy": ("holonomy", *self.torsion, "--index-map", "random", "--seed", seed),
            "transgress": (
                "transgress", *self.orbit,
                "--rho0", "random", "--rho1", "random", "--seed", seed,
                "--boundary-formula",
            ),
        }[command]

    def check(self, argv: Tuple[str, ...], code: int, out: bytes) -> None:
        expect(code == 0, f"{argv[0]} exited {code}")
        doc = json.loads(out)
        command = argv[0]
        if command == "cup":
            expect(doc["validation"]["passed"] is True, "cup class fails validation")
        elif command == "curvature":
            expect(doc["curvature"]["multiple"] == 1, "curvature multiple is not 1")
            expect(abs(doc["curvature"]["residual"]) <= 1e-9, "curvature residual too large")
        elif command == "holonomy":
            expect(doc["holonomy"]["angle"] == "2/5", "torsion holonomy is not 2/5")
        else:
            expect(doc["agreement_residual"] == "0/1", "transition routes disagree")
        first = self.first_stdout.setdefault(argv, out)
        expect(out == first, f"{command} output differs from its first run")

    def op(self, i: int, t) -> None:
        argv = self.argv(i)
        with t.span(f"cli.process.{argv[0]}"):
            proc = subprocess.run(
                [sys.executable, "-m", "deligne.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=self.env,
                timeout=60,
            )
        self.check(argv, proc.returncode, proc.stdout)

    def probe(self, i: int, t) -> None:
        """Traced run only: the same call in-process, and the fixed costs."""
        argv = self.argv(i)
        buf = _io.StringIO()
        with t.span(f"cli.main.{argv[0]}"), contextlib.redirect_stdout(buf):
            code = deligne.cli.main(list(argv))
        self.check(argv, code, buf.getvalue().encode("utf-8"))
        for name, code_ in (("cli.interpreter", "pass"), ("cli.import", "import deligne.cli")):
            with t.span(name):
                subprocess.run([sys.executable, "-c", code_], env=self.env, check=True, timeout=60)
        lhs = winding_function(self.torus, 1, coord=0)
        rhs = winding_function(self.torus, 1, coord=1)
        with t.span("analytic.discretize.float"):
            discretize(cup_product(lhs, rhs), quad_order=8, exact=False)


WORKLOADS = {w.name: w for w in (ClosedHolonomy, BoundaryTransition, GaugeWrites, CliBatch)}
