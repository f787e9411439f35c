"""Benchmark harness for ``deligne``: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-holonomy --seed 1 --seconds 20 --trace 0

``--workload`` names one workload from ``BENCHMARK.json`` or ``all``.
The harness imports ``deligne`` from the checkout's own ``src/`` and exits
with status 1 when that is missing.  Every workload is a closed loop with
one client: the next op starts when the last one finishes, and every op is
checked against its reference.  An op that raises, exits non-zero or
misses its reference counts as failed; nothing is skipped or retried.

``--trace 0`` sets the workload up several times, half before the ops and
half after them (``setup_s`` is their median), runs ops for ``--seconds``
and for at least ``MIN_OPS`` ops with tracing off, and prints the
end-to-end metrics.  ``--trace 1`` is the separate traced run: it records a
span around every call the harness makes into ``deligne`` and derives the
per-layer metrics from them.  Each per-layer metric is measured on the
workload whose ops or set-up exercise that layer (its home workload), so
the traced run sets up and runs all four workloads, giving the named one
two shares of the time.  On the named workload it alternates blocks of
four traced and four untraced ops, whose median latencies give
``trace.overhead_ratio``.  The spans are written to
``perfbench/out/spans-<workload>-<seed>.jsonl``.  Run one harness at a time
in a checkout: runs share the work files under ``perfbench/out/``.

The table before it prints every metric with its unit and its base
(sample count, flags, slots, bytes).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``metrics`` holds the metrics ``BENCHMARK.json`` declares for
the run's kind.  The declared end-to-end set is ``setup_s`` and
``peak_rss_mb``.  The op latencies and ``ops_per_s`` are printed but not
declared: on a shared host whose speed drifts by up to 1.8x over tens of
seconds, their quartile spread over ten runs reaches 0.3 to 0.45, beyond
any bound a regression gate can use.  The traced run declares the named
workload's untraced and traced op p50 instead, without a bound.
``fail_ratio`` is 0 on a correct program; failures are in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from spans import NULL_TRACER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
SETUP_REPEATS = 4
# Ops an end-to-end run makes at least, so ten samples lie beyond op_p90_ms
# even when the host runs slow and --seconds alone would give fewer.
MIN_OPS = 100
# Ops per block when the traced run alternates traced and untraced ops:
# one full cycle of the workloads that vary their op with i % 4.
BLOCK = 4

Metric = Tuple[float, str, str]  # value, unit, note (sample count or base)


def load_program():
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "deligne" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no deligne package under {src}")
    sys.path.insert(0, str(src))
    import deligne

    if Path(deligne.__file__).resolve().parent != (src / "deligne").resolve():
        raise SystemExit(f"perfbench: deligne imported from {deligne.__file__}")
    import workloads

    return workloads


class Loop:
    """Latencies and failures of one closed-loop op sequence."""

    def __init__(self):
        self.latencies: Dict[bool, List[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.wall = 0.0

    def fail(self, where: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


def run_ops(state, seconds: float, min_ops: int, tracer_for: Callable, loop: Loop) -> None:
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        t = tracer_for(i)
        t.op_id = f"{state.name}:{i}"
        loop.attempted += 1
        t0 = perf_counter()
        try:
            with t.span("op"):
                state.op(i, t)
        except Exception as exc:  # every kind of failure counts against the op
            loop.fail(f"{state.name} op {i}", exc)
        loop.latencies[t.enabled].append(perf_counter() - t0)
        if t.enabled and hasattr(state, "probe"):
            try:
                state.probe(i, t)
            except Exception as exc:
                loop.fail(f"{state.name} probe {i}", exc)
        i += 1
    loop.wall = perf_counter() - start


def percentile_90(xs: List[float]) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def end_to_end(wl, name: str, seed: int, seconds: float, setups: int = SETUP_REPEATS,
               min_ops: int = MIN_OPS) -> Tuple[Dict[str, Metric], Loop]:
    cls = wl.WORKLOADS[name]
    WORKDIR.mkdir(exist_ok=True)
    times = []

    def set_up():
        gc.collect()
        t0 = perf_counter()
        state = cls(seed, NULL_TRACER, str(WORKDIR))
        times.append(perf_counter() - t0)
        return state

    # Half the set-ups run before the ops and half after them.  Host speed
    # drifts over tens of seconds; sampling both ends of the run moves
    # setup_s part way on such a drift instead of all or nothing.
    for _ in range(setups - setups // 2):
        state = None
        state = set_up()
    gc.collect()
    loop = Loop()
    run_ops(state, seconds, min_ops, lambda i: NULL_TRACER, loop)
    state = None
    for _ in range(setups // 2):
        set_up()
    lat = sorted(x * 1e3 for x in loop.latencies[False])
    n = len(lat)
    p90 = percentile_90(lat)
    beyond = sum(1 for x in lat if x > p90)
    metrics = {
        "setup_s": (statistics.median(times), "s", f"median of {setups} set-ups"),
        "op_p50_ms": (statistics.median(lat), "ms", f"n={n}"),
        "op_p90_ms": (p90, "ms", f"n={n}, {beyond} beyond"),
        "ops_per_s": (loop.attempted / loop.wall, "1/s", f"{loop.attempted} ops in {loop.wall:.2f} s"),
        "fail_ratio": (loop.failed / loop.attempted, "ratio", f"{loop.failed}/{loop.attempted}"),
        "peak_rss_mb": (peak_rss_mb(children=name == "cli-batch"), "MB",
                        "children" if name == "cli-batch" else "harness process"),
    }
    return metrics, loop


def traced_run(wl, name: str, seed: int, seconds: float,
               min_ops: int = 2 * BLOCK) -> Tuple[Dict[str, Metric], Loop]:
    WORKDIR.mkdir(exist_ok=True)
    order = [name] + [w for w in wl.WORKLOADS if w != name]
    share = seconds / (len(order) + 1)
    tracers: Dict[str, Tracer] = {}
    loop = Loop()
    overhead_loop = None
    for w in order:
        tracer = tracers[w] = Tracer(w)
        tracer.op_id = "setup"
        gc.collect()
        state = wl.WORKLOADS[w](seed, tracer, str(WORKDIR))
        gc.collect()
        if w == name:
            overhead_loop = Loop()
            run_ops(state, 2 * share, min_ops,
                    lambda i: tracer if (i // BLOCK) % 2 else NULL_TRACER, overhead_loop)
            sub = overhead_loop
        else:
            sub = Loop()
            run_ops(state, share, min_ops, lambda i: tracer, sub)
        loop.attempted += sub.attempted
        loop.failed += sub.failed
        loop.errors += sub.errors
        state = None
    with open(WORKDIR / f"spans-{name}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for w in order:
            tracers[w].write(fh)
    traced = statistics.median(overhead_loop.latencies[True]) * 1e3
    plain = statistics.median(overhead_loop.latencies[False]) * 1e3
    metrics = layer_metrics(tracers)
    metrics["trace.untraced_op_p50_ms"] = (plain, "ms", f"n={len(overhead_loop.latencies[False])}, {name}")
    metrics["trace.traced_op_p50_ms"] = (traced, "ms", f"n={len(overhead_loop.latencies[True])}, {name}")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio", f"{name}: traced / untraced op p50")
    return metrics, loop


def layer_metrics(tracers) -> Dict[str, Metric]:
    """Per-layer metrics, each from the spans of its home workload."""

    def spans(workload: str, span: str, setup: bool = False):
        return [s for s in tracers[workload].spans
                if s.name == span and (s.op == "setup") == setup]

    def counted(ss, key: str) -> list:
        # A call that raised left its span without counts.
        return [s.counts[key] for s in ss if key in s.counts]

    def p50(workload: str, span: str) -> Tuple[float, int]:
        xs = [s.ms for s in spans(workload, span)]
        return statistics.median(xs), len(xs)

    def setup_total(workload: str, span: str) -> Tuple[float, list]:
        ss = spans(workload, span, setup=True)
        return sum(s.ms for s in ss), ss

    m: Dict[str, Metric] = {}
    ch, bt, gw, cli = "closed-holonomy", "boundary-transition", "gauge-writes", "cli-batch"

    ms, ss = setup_total(ch, "geometry.subdivide_geometry")
    tops = counted(ss, "tops")[-1]
    m["geometry.subdivide_geometry.ms"] = (ms, "ms", f"{len(ss)} passes, {tops} tops at the end")
    m["geometry.subdivide_geometry.tops"] = (tops, "count", ch)
    ms, ss = setup_total(ch, "simplicial.flags")
    flags = sum(counted(ss, "flags"))
    m["simplicial.flags.ms"] = (ms, "ms", f"{flags} flags over {len(ss)} depths")
    m["simplicial.flags.count"] = (flags, "count", ch)
    ms, ss = setup_total(ch, "analytic.discretize")
    m["analytic.discretize.ms"] = (ms, "ms", f"rational, {ch} set-up")

    v, n = p50(ch, "cover.random_index_map")
    m["cover.random_index_map.p50_ms"] = (v, "ms", f"n={n}, {ch}")

    v, n = p50(ch, "holonomy.holonomy")
    # Self time equals the duration while the harness records only leaf
    # spans; it parts from it once spans inside the program exist.
    selfs = tracers[ch].self_ms()
    hol = spans(ch, "holonomy.holonomy")
    flags = counted(hol, "flags")[-1]
    m["holonomy.holonomy.p50_ms"] = (v, "ms", f"n={n}, {ch}")
    m["holonomy.holonomy.self_ms"] = (statistics.median(selfs[s.id] for s in hol), "ms", f"n={n}")
    m["holonomy.holonomy.flags"] = (flags, "count", "flag_count per call")
    m["holonomy.holonomy.us_per_flag"] = (v * 1e3 / flags, "us", f"p50 over {flags} flags")

    v, n = p50(bt, "transgression.transition_general")
    m["transgression.transition_general.p50_ms"] = (v, "ms", f"n={n}, {bt}")
    v, n = p50(bt, "transgression.transition_boundary")
    tb = spans(bt, "transgression.transition_boundary")
    flags = counted(tb, "flags")[-1]
    interior = counted(tb, "interior_flags")[-1]
    m["transgression.transition_boundary.p50_ms"] = (v, "ms", f"n={n}")
    m["transgression.transition_boundary.flags"] = (flags, "count", "boundary + interior")
    m["transgression.transition_boundary.us_per_flag"] = (v * 1e3 / flags, "us", f"p50 over {flags} flags")
    m["transgression.transition_boundary.interior_share"] = (
        interior / flags, "ratio", f"{interior} interior of {flags} flags")
    v, n = p50(bt, "transgression.transgress_p3_triple")
    m["transgression.transgress_p3_triple.p50_ms"] = (v, "ms", f"n={n}")

    v, n = p50(gw, "cochain.random_cochain")
    m["cochain.random_cochain.p50_ms"] = (v, "ms", f"n={n}, {gw}")
    v, n = p50(gw, "cochain.exact_shift")
    es = spans(gw, "cochain.exact_shift")
    slots = counted(es, "slots")[-1]
    written = counted(es, "entries")
    m["cochain.exact_shift.p50_ms"] = (v, "ms", f"n={n}")
    m["cochain.exact_shift.slots"] = (slots, "count", "slots evaluated per call")
    m["cochain.exact_shift.us_per_slot"] = (v * 1e3 / slots, "us", f"p50 over {slots} slots")
    m["cochain.exact_shift.nonzero_ratio"] = (
        sum(written) / (slots * len(written)), "ratio",
        f"{sum(written)} entries written / {slots * len(written)} slots")
    v, n = p50(gw, "cochain.validate_cocycle")
    conditions = counted(spans(gw, "cochain.validate_cocycle"), "conditions")[-1]
    m["cochain.validate_cocycle.p50_ms"] = (v, "ms", f"n={n}")
    m["cochain.validate_cocycle.conditions"] = (conditions, "count", "report.checked total")
    m["cochain.validate_cocycle.us_per_condition"] = (
        v * 1e3 / conditions, "us", f"p50 over {conditions} conditions")

    size = statistics.median(counted(spans(gw, "io.save_cochain"), "bytes"))
    m["io.cochain.bytes"] = (size, "bytes", "median file size")
    for op in ("save", "load"):
        v, n = p50(gw, f"io.{op}_cochain")
        m[f"io.{op}_cochain.p50_ms"] = (v, "ms", f"n={n}, {gw}")
        m[f"io.{op}_cochain.mb_per_s"] = (size / 1e6 / (v / 1e3), "MB/s", f"{size:.0f} bytes per call")

    interp, n = p50(cli, "cli.interpreter")
    imported, n_imp = p50(cli, "cli.import")
    m["cli.interpreter_ms"] = (interp, "ms", f"n={n}, python -c pass")
    m["cli.import_ms"] = (imported - interp, "ms", f"n={n_imp}, import deligne.cli minus interpreter")
    for command in ("cup", "curvature", "holonomy", "transgress"):
        v, n = p50(cli, f"cli.main.{command}")
        m[f"cli.main.{command}.p50_ms"] = (v, "ms", f"n={n}, in-process")
    v, n = p50(cli, "analytic.discretize.float")
    m["analytic.discretize.float_ms"] = (v, "ms", f"n={n}, cup at quad_order 8")
    return m


def report(title: str, metrics: Dict[str, Metric], loop: Loop) -> None:
    print(title)
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:<50} {value:>14.6g} {unit:<6} {note}")
    print(f"  attempted {loop.attempted}, failed {loop.failed}")
    for err in loop.errors:
        print(f"  error: {err}", file=sys.stderr)


def result_line(metrics: Dict[str, Metric], loop: Loop, names: List[str]) -> dict:
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }


def declared(kind: str) -> List[str]:
    """Metric names of one kind, in the order ``BENCHMARK.json`` lists them."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = load_program()
    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)} or all")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    lines = {}
    for name in names:
        if args.trace:
            metrics, loop = traced_run(wl, name, args.seed, args.seconds)
        else:
            metrics, loop = end_to_end(wl, name, args.seed, args.seconds)
        report(f"{name} seed={args.seed} trace={args.trace} (closed loop, 1 client)", metrics, loop)
        lines[name] = result_line(metrics, loop, declared(kind))
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "workloads": {k: r["metrics"] for k, r in lines.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
