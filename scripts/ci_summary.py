#!/usr/bin/env python3
"""Summary lines that make a change in certnn's outputs or work show per commit.

Usage, from the repository root, after scripts/run_case_study.py:

    PYTHONPATH=src python3 scripts/ci_summary.py case_study_out

Prints, one per line:
- the case study's k*, MILP node count and nodes per reach step;
- the size of a fresh encoding's closed-loop relaxation at k*: columns,
  rows and binaries, so that a change to the encoding shows (verify's reach
  search also carries X_1_out's rows at the states before x_k*);
- its region count, and the sha256 of certificate.json, r_eq.json,
  trajectory.csv and of every vertex CSV (regions.csv and the five sets of
  certnn sets), then the vertex count of each vertex CSV, so that a lost
  vertex shows as a count and not only as a changed hash;
- the LpModel.solve calls of one untraced set_algebra pass (LQR and
  admissible invariant set of 8 plants), split into the fixpoint's cut tests,
  the redundancy prune's row tests and the emptiness checks, and of one
  untraced case_study pass (4 CLI verifies), split into the box LPs (the
  support LPs of X_in that bound x0), the pre-activation bound LPs, the
  branch-and-bound nodes and the set LPs (R_eq and R_as); each is followed
  by the HiGHS simplex iterations of those solves, split the same way, and
  by the LpModel loads of the pass; an LP of any other purpose is counted
  under the purpose's own name;
- the sha256 over the F and g bytes of the 8 invariant sets of that
  set_algebra pass, in op order, so that a shortcut that changes a row shows
  as a changed hash and not only as a changed LP count;
- the branch-and-bound nodes of one untraced range_bnb pass (20
  output-range queries: 5 nets, 4 directions each);
- the verdict, k*, MILP node count and nodes per reach step of five
  imitation loops of tests/helpers.py (random ReLU controllers fitted to the
  saturated LQR: one hidden layer of 8 neurons, seeds 0 and 2, of 16, seeds
  2 and 0, and two hidden layers of 8, seed 0), so that a change to how
  tight the encoder's bounds are shows even where the case study's nodes do
  not move; the last two have the largest reach searches, so the rows that
  verify adds at the states before x_k show most there; a loop whose
  one-step invariance fails has no k* and no reach steps;
- the verdict, reason and MILP node count of the 6-state imitation loop
  (helpers.set_plant_loop: set-algebra plant 0, 16 neurons, seed 0, from
  X_in = R_K), whose invariance fails: its verdict is settled before any
  reach search;
- after each imitation loop's line, the LpModel.solve calls of its verify,
  split as on the case_study pass;
- one "name = value" line per entry of certnn/tolerances.py.

Every LP count is a difference of certnn.lp.WORK, the ledger in which each
LpModel load and solve counts itself, a solve under the purpose that its
caller names.
"""

import collections
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import helpers  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

from certnn import lp, tolerances  # noqa: E402
from certnn.control import system_from_json  # noqa: E402
from certnn.milp import ClosedLoopEncoding  # noqa: E402
from certnn.network import ReluNetwork  # noqa: E402
from certnn.polytope import Polytope  # noqa: E402
from certnn.verify import verify_stability  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the vertex CSVs the case study writes: certnn regions, then certnn sets
VERTEX_CSVS = ("regions.csv", "r_as.csv", "r_eq.csv", "r_lqr.csv", "x1_out.csv", "xk_out.csv")


def case_study_lines(out: Path):
    cert = json.loads((out / "certificate.json").read_text())
    s = cert["stability"]
    yield f"case study: k_star {s['k_star']} milp_nodes {cert['milp_nodes']} reach_nodes {s['reach_nodes']}"
    if s["k_star"] is not None:
        system, _ = system_from_json(json.loads((out / "system.json").read_text()))
        net = ReluNetwork.load(out / "network.json")
        X_in = Polytope.from_json(json.loads((out / "xin.json").read_text()))
        m = ClosedLoopEncoding(system, net, X_in).model(s["k_star"], np.ones(system.n_x))
        yield (
            f"case study: relaxation at k_star: columns {m.c.size} rows {m.A_ub.shape[0]}"
            f" binaries {m.binaries.size}"
        )
    yield f"certificate.json sha256: {sha256(out / 'certificate.json')}"
    yield f"case study: regions {len(json.loads((out / 'regions.json').read_text()))}"
    for name in ("r_eq.json", "trajectory.csv", *VERTEX_CSVS):
        yield f"{name} sha256: {sha256(out / name)}"
    for name in VERTEX_CSVS:
        yield f"{name} vertices: {len((out / name).read_text().splitlines()) - 1}"


# The labels of the LP purposes (see certnn.lp.WORK) on each pass, in print
# order; an LP of any other purpose is printed under the purpose's name.
SET_LABELS = {"cut test": "fixpoint cut tests", "prune test": "prune tests", "emptiness": "emptiness"}
CASE_LABELS = {
    "box": "box LPs",
    "bound": "bound LPs",
    "node": "BnB nodes",
    "cut test": "set LPs",
    "prune test": "set LPs",
    "emptiness": "set LPs",
}


def by_purpose(work, kind: str, labels: dict) -> str:
    """work's count of kind ("solves" or "iterations") as "total (n label, ...)"."""
    split = collections.Counter()
    for key, n in work.items():
        if key != "loads" and key[1] == kind:
            split[labels.get(key[0], key[0])] += n
    names = dict.fromkeys([*labels.values(), *split])
    return f"{split.total()} (" + ", ".join(f"{split[name]} {name}" for name in names) + ")"


# (hidden widths, seed) of the imitation loops whose verify is summarized
IMITATION_LOOPS = (([8], 0), ([8], 2), ([16], 2), ([16], 0), ([8, 8], 0))


def verified(loop):
    """verify_stability on loop at k_max = 10, and the split of its LPs by purpose."""
    start = lp.WORK.copy()
    cert = verify_stability(**loop, k_max=10)
    return cert, f"LpModel.solve calls {by_purpose(lp.WORK - start, 'solves', CASE_LABELS)}"


def imitation_lines():
    for widths, seed in IMITATION_LOOPS:
        cert, lps = verified(helpers.imitation_loop(widths, seed))
        s = cert.stability
        name = f"imitation loop widths {widths} seed {seed}"
        yield (
            f"{name}: {cert.verdict} k_star {s.k_star}"
            f" milp_nodes {cert.milp_nodes} reach_nodes {s.reach_nodes}"
        )
        yield f"{name}: {lps}"
    cert, lps = verified(helpers.set_plant_loop(0, [16], 0))
    name = "6-state imitation loop widths [16] seed 0"
    yield f"{name}: {cert.verdict} ({cert.reason}) milp_nodes {cert.milp_nodes}"
    yield f"{name}: {lps}"


def lp_count_lines():
    def lines(workload, work, labels):
        yield f"{workload} pass: LpModel.solve calls {by_purpose(work, 'solves', labels)}"
        yield f"{workload} pass: simplex iterations {by_purpose(work, 'iterations', labels)}"
        yield f"{workload} pass: LpModel loads {work['loads']}"

    start = lp.WORK.copy()
    sets = hashlib.sha256()
    for op in workloads.set_ops():
        R = op.run()[1]
        sets.update(R.F.tobytes() + R.g.tobytes())
    yield from lines("set_algebra", lp.WORK - start, SET_LABELS)
    yield f"set_algebra pass: invariant sets sha256 {sets.hexdigest()}"
    start = lp.WORK.copy()
    with tempfile.TemporaryDirectory() as work:
        for op in workloads.case_ops(Path(work)):
            op.run()
    yield from lines("case_study", lp.WORK - start, CASE_LABELS)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    lines = [
        *case_study_lines(Path(sys.argv[1])),
        *imitation_lines(),
        *lp_count_lines(),
        f"range_bnb pass: milp nodes {sum(op.run().nodes for op in workloads.range_ops())}",
        *(f"{n} = {v!r}" for n, v in vars(tolerances).items() if n.isupper()),
    ]
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
