"""Paired A/B of benchmark workloads: a base commit against this checkout.

Run from the root of a checkout:

    python3 tools/ab.py --workload boundary-transition --pairs 10
    python3 tools/ab.py --workload all --pairs 10

``--workload all`` runs the pairs of every workload ``BENCHMARK.json``
declares, one workload after the other, on the same two trees.

The base (``HEAD~1`` unless ``--base`` names another revision) is unpacked
into a temporary directory with ``git archive <base> | tar -x``.  The change
is the working tree as it stands, copied beside it: its tracked and
untracked files that git does not ignore.  Both sides thus run from fresh
directories of the same depth; the in-process ``peak_rss_mb`` moves by
about 0.1 MB with where a tree lies.  Both sides' ``src/`` and
``perfbench/`` are byte-compiled first, so neither side's first run
compiles.  Then each pair runs ``perfbench/run.py --workload W --trace 0``
once per side, the side that goes first alternating from pair to pair, so
a drift in host speed falls on both sides alike.  Every run uses the
command and ``run_seconds`` that ``BENCHMARK.json`` declares and one fixed
seed, so its numbers are taken as the benchmark takes them.

Printed: each pair's ``setup_s``, ``peak_rss_mb`` and ``op_p50_ms`` for
base and change, then one summary row per workload with, for each metric,
the median on both sides, the base's interquartile range, the number of
pairs in which the change is better and a verdict.  The verdict of an
``end_to_end`` metric of ``BENCHMARK.json`` applies its ``bound``, read as
a fraction of the base median, in this order:

- ``gain``: the change is better in at least 9 of 10 pairs, and its median
  beats the base median by more than the base IQR;
- ``worse``: the change median is worse than the base median by more than
  the bound; when the base IQR is over the bound too, the label reads
  ``worse (base IQR x% of median, over bound)``, since host drift alone
  can then move the medians that far;
- ``unresolved``: the base IQR exceeds the bound times the base median,
  unless every change run beats every base run;
- ``no worse`` otherwise.

``op_p50_ms`` is not gated and gets no verdict.  The checkout itself is
not touched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "peak_rss_mb", "op_p50_ms")
SEED = 1


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_worktree(dest: Path) -> None:
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file may be deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def warm(side: Path, env: dict) -> None:
    dirs = [str(side / "src"), str(side / "perfbench")]
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", *dirs],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )


def benchmark_command(spec: dict, workload: str) -> list:
    command = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
    return command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(spec["run_seconds"]), "--trace", "0"]


def run(side: Path, command: list, env: dict) -> dict:
    out = subprocess.run(
        command, cwd=side, env=env, check=True, capture_output=True, text=True,
    ).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"ab: {side} failed {result['failed']} ops")
    # The report's metric lines read "  name  value  unit  note".
    rows = [row for row in map(str.split, lines[:-1]) if row and row[0] in METRICS]
    return {row[0]: float(row[1]) for row in rows}


def iqr(xs) -> float:
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def run_pairs(workload: str, command: list, sides: dict, pairs: int, env: dict) -> list:
    """Alternated base/change runs of one workload; prints each pair."""
    rows = []
    print(f"{workload}: {' '.join(command[1:])}")
    print("pair  " + "  ".join(f"base {m}  change {m}" for m in METRICS))
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        row = {name: run(sides[name], command, env) for name in order}
        rows.append(row)
        cells = (f"{row[side][m]:>{len(side) + len(m) + 1}.4f}"
                 for m in METRICS for side in ("base", "change"))
        print(f"{i:>4}  " + "  ".join(cells), flush=True)
    return rows


def verdict(b: list, c: list, wins: int, bound: float) -> str:
    """gain, worse, unresolved or no worse for base runs b and change runs
    c of one metric, both signed so that lower is better, where the change
    is lower in ``wins`` pairs and ``bound`` is the metric's relative bound."""
    mb, mc, spread = statistics.median(b), statistics.median(c), iqr(b)
    if 10 * wins >= 9 * len(b) and mb - mc > spread:
        return "gain"
    noisy = spread > bound * abs(mb)
    if mc - mb > bound * abs(mb):
        if noisy:
            return f"worse (base IQR {spread / abs(mb):.0%} of median, over bound)"
        return "worse"
    if noisy and max(c) >= min(b):
        return "unresolved"
    return "no worse"


def summary(workload: str, rows: list, gates: dict) -> str:
    """One row: per metric the medians, the base IQR, the change's wins and
    the verdict under the metric's end-to-end gate, if it has one."""
    cells = []
    for m in METRICS:
        b = [r["base"][m] for r in rows]
        c = [r["change"][m] for r in rows]
        mb, mc = statistics.median(b), statistics.median(c)
        gate = gates.get(m)
        sign = -1 if gate and gate["better"] == "higher" else 1
        b, c = [sign * x for x in b], [sign * y for y in c]
        wins = sum(1 for x, y in zip(b, c) if y < x)
        label = verdict(b, c, wins, gate["bound"]) if gate else "not gated"
        cells.append(f"{m} {mb:.4f} -> {mc:.4f} ({mc / mb - 1:+.1%}, base IQR "
                     f"{iqr(b):.4f}, better in {wins}/{len(rows)}): {label}")
    return f"{workload}: " + "; ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {names} or 'all'")
    workloads = names if args.workload == "all" else [args.workload]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    results = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        for side in sides.values():
            side.mkdir()
        unpack(args.base, sides["base"])
        copy_worktree(sides["change"])
        for side in sides.values():
            warm(side, env)
        print(f"base {args.base} against the working tree")
        for w in workloads:
            command = benchmark_command(spec, w)
            results[w] = run_pairs(w, command, sides, args.pairs, env)
    gates = {g["name"]: g for g in spec["end_to_end"]}
    for w, rows in results.items():
        print(summary(w, rows, gates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
