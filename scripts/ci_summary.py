#!/usr/bin/env python3
"""Summary lines that make a change in certnn's outputs or work show per commit.

Usage, from the repository root, after scripts/run_case_study.py:

    PYTHONPATH=src python3 scripts/ci_summary.py case_study_out

Prints, one per line:
- the case study's k*, MILP node count and nodes per reach step;
- its region count, and the sha256 of certificate.json, r_eq.json and of the
  CSV files regions.csv, trajectory.csv and r_as.csv;
- the LpModel.solve calls of one untraced set_algebra pass (LQR and
  admissible invariant set of 8 plants), split into the fixpoint's cut tests,
  the redundancy prune's row tests and the emptiness checks, and of one
  untraced case_study pass (4 CLI verifies), each followed by the HiGHS
  simplex iterations of those solves, split the same way;
- the branch-and-bound nodes of one untraced range_bnb pass (20
  output-range queries: 5 nets, 4 directions each);
- one "name = value" line per entry of certnn/tolerances.py.
"""

import collections
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from certnn import lp, tolerances  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def case_study_lines(out: Path):
    cert = json.loads((out / "certificate.json").read_text())
    s = cert["stability"]
    yield f"case study: k_star {s['k_star']} milp_nodes {cert['milp_nodes']} reach_nodes {s['reach_nodes']}"
    yield f"certificate.json sha256: {sha256(out / 'certificate.json')}"
    yield f"case study: regions {len(json.loads((out / 'regions.json').read_text()))}"
    for name in ("r_eq.json", "regions.csv", "trajectory.csv", "r_as.csv"):
        yield f"{name} sha256: {sha256(out / name)}"


# The set-algebra LPs by the function that solves them: LpModel.maxima runs the
# fixpoint's cut tests, polytope._prune the row tests of the redundancy prune,
# and remove_redundant and max_positively_invariant their emptiness checks.
SET_CALLERS = {
    "maxima": "fixpoint cut tests",
    "_prune": "prune tests",
    "remove_redundant": "emptiness",
    "max_positively_invariant": "emptiness",
}


def lp_count_lines():
    solve = lp.LpModel.solve
    calls, iterations = collections.Counter(), collections.Counter()

    def counting(model):
        caller = sys._getframe(1).f_code.co_name
        out = solve(model)
        calls[caller] += 1
        iterations[caller] += model._highs.getInfo().simplex_iteration_count
        return out

    def by_caller(counts):
        split = collections.Counter()
        for caller, n in counts.items():
            split[SET_CALLERS.get(caller, caller)] += n
        names = dict.fromkeys([*SET_CALLERS.values(), *split])  # any other caller by its name
        return f"{counts.total()} (" + ", ".join(f"{split[name]} {name}" for name in names) + ")"

    lp.LpModel.solve = counting
    try:
        for op in workloads.set_ops():
            op.run()
        yield f"set_algebra pass: LpModel.solve calls {by_caller(calls)}"
        yield f"set_algebra pass: simplex iterations {by_caller(iterations)}"
        calls.clear()
        iterations.clear()
        with tempfile.TemporaryDirectory() as work:
            for op in workloads.case_ops(Path(work)):
                op.run()
        yield f"case_study pass: LpModel.solve calls {calls.total()}"
        yield f"case_study pass: simplex iterations {iterations.total()}"
    finally:
        lp.LpModel.solve = solve


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    lines = [
        *case_study_lines(Path(sys.argv[1])),
        *lp_count_lines(),
        f"range_bnb pass: milp nodes {sum(op.run().nodes for op in workloads.range_ops())}",
        *(f"{n} = {v!r}" for n, v in vars(tolerances).items() if n.isupper()),
    ]
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
