"""Committed mutation checks: each mutant must make its named tests fail.

Run from the root of a checkout:

    python3 tools/mutants.py

Each entry of ``MUTANTS`` gives a file, an exact old text, the new text
that replaces it, and the test ids that must fail once it is applied; or
it marks the mutant as equivalent and says why no test can tell it from
the program.  For each entry that is not equivalent, the working tree is
copied into a temporary directory as ``tools/ab.py`` copies it (tracked and
untracked files that git does not ignore), the named tests are run there
and must pass, the mutant is applied and the same tests are run again:
the mutant is caught when every one of them fails.  An equivalent entry
is only checked for its old text.  The checkout itself is not touched.

Exit status 1 when a mutant that is not equivalent is missed, when a
named test does not pass before the mutant, or when an old text is not
found exactly once in its file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

from ab import ROOT, copy_worktree


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    must_fail: Tuple[str, ...] = ()
    equivalent: str = ""  # the reason, for a mutant no test can catch


_IDENTITIES = "tests/test_chain_identities.py::"
_CLOSED = _IDENTITIES + "test_holonomy_chain_is_a_cycle_on_closed_complexes"
_ROUTES = _IDENTITIES + "test_routes_agree_as_chains_on_complexes_with_boundary"
_WALK = "tests/test_transgression.py::test_walk_matches_the_flag_definition"

MUTANTS = (
    Mutant(
        "term-value-fraction-check",
        "src/deligne/analytic.py",
        """        if not isinstance(t.coeff, Fraction):
            raise AnalyticError(
                "rational discretization needs rational fixture parameters"
            )
""",
        "",
        ("tests/test_analytic.py::test_winding_offset_keeps_rationality",),
    ),
    Mutant(
        "read-json-recursion-catch",
        "src/deligne/io.py",
        """        except RecursionError:
            raise SchemaError(f"{path}: not valid JSON (nested too deeply)") from None
""",
        "",
        tuple(
            f"tests/test_cli.py::test_hostile_artifact_exits_1[deep-nesting-{artifact}]"
            for artifact in ("complex", "cover", "cochain", "index-map")
        ),
    ),
    Mutant(
        "walk-incidence-sign",
        "src/deligne/holonomy.py",
        "w, m = word, inc * n",
        "w, m = word, n",
        (
            f"{_CLOSED}[torus2-4chart-coarse-star]",
            f"{_ROUTES}[annulus-coarse-star]",
            f"{_ROUTES}[solid-torus-coarse-star]",
        ),
    ),
    Mutant(
        "walk-switch-sign",
        "src/deligne/holonomy.py",
        "                        m = m if len(w) & 1 else -m\n",
        "",
        (f"{_ROUTES}[annulus-coarse-star]", f"{_ROUTES}[solid-torus-coarse-star]"),
    ),
    # Equivalent for every pairing: a word with a repeated chart, and every
    # extension of it, evaluates to 0, so no flag sum and no D^T identity
    # sees it.  Only the comparison of the chains with the flag definition
    # does.
    Mutant(
        "walk-repeated-chart",
        "src/deligne/holonomy.py",
        """                        if a in w:
                            break
""",
        "",
        tuple(
            f"{_WALK}[{case}]"
            for case in ("annulus-1", "solid-torus-1", "torus2-4chart-1", "tetrahedron-1")
        ),
    ),
    Mutant(
        "omissions-j-order",
        "src/deligne/cochain.py",
        "        row.reverse()\n",
        "",
        equivalent=(
            "a row keeps the same multiset of terms, and a group sum does "
            "not depend on the order of its terms (one math.fsum, or an "
            "exact sum)"
        ),
    ),
)


def run_tests(tree: Path, ids: Tuple[str, ...]) -> dict:
    """The outcome, PASSED, FAILED or ERROR, of each test id run in
    ``tree``; an id that did not run is absent."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    ).stdout
    outcomes = {}
    for line in out.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ", 1)[0].strip()] = status
    return outcomes


def check(m: Mutant) -> str:
    """'caught', 'equivalent' or the reason the entry fails."""
    text = (ROOT / m.path).read_text(encoding="utf-8")
    count = text.count(m.old)
    if count != 1:
        return f"old text found {count} times in {m.path}"
    if m.equivalent:
        return "equivalent"
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_worktree(tree)
        before = run_tests(tree, m.must_fail)
        unready = [i for i in m.must_fail if before.get(i) != "PASSED"]
        if unready:
            return f"does not pass unmutated: {', '.join(unready)}"
        (tree / m.path).write_text(text.replace(m.old, m.new), encoding="utf-8")
        after = run_tests(tree, m.must_fail)
    missed = [i for i in m.must_fail if after.get(i) not in ("FAILED", "ERROR")]
    return f"missed by {', '.join(missed)}" if missed else "caught"


def main() -> int:
    start = time.perf_counter()
    outcomes = []
    for m in MUTANTS:
        outcomes.append(check(m))
        note = f" ({m.equivalent})" if m.equivalent else ""
        print(f"{m.name}: {outcomes[-1]}{note}", flush=True)
    caught, equivalent = outcomes.count("caught"), outcomes.count("equivalent")
    bad = len(outcomes) - caught - equivalent
    print(f"{caught} caught, {bad} not, {equivalent} equivalent, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
