#!/usr/bin/env python3
"""Summary lines that make a change in certnn's outputs or work show per commit.

Usage, from the repository root, after scripts/run_case_study.py:

    PYTHONPATH=src python3 scripts/ci_summary.py case_study_out

Prints, one per line:
- the case study's k*, MILP node count and nodes per reach step;
- its region count, and the sha256 of certificate.json, r_eq.json and of the
  CSV files regions.csv, trajectory.csv and r_as.csv;
- the LpModel.solve calls of one untraced set_algebra pass (LQR and
  admissible invariant set of 8 plants) and of one untraced case_study pass
  (4 CLI verifies);
- the branch-and-bound nodes of one untraced range_bnb pass (20
  output-range queries: 5 nets, 4 directions each);
- one "name = value" line per entry of certnn/tolerances.py.
"""

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


def lp_count_lines():
    solve, calls = lp.LpModel.solve, 0

    def counting(model):
        nonlocal calls
        calls += 1
        return solve(model)

    lp.LpModel.solve = counting
    try:
        for op in workloads.set_ops():
            op.run()
        yield f"set_algebra pass: LpModel.solve calls {calls}"
        calls = 0
        with tempfile.TemporaryDirectory() as work:
            for op in workloads.case_ops(Path(work)):
                op.run()
        yield f"case_study pass: LpModel.solve calls {calls}"
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
