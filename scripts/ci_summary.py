#!/usr/bin/env python3
"""Summary lines that make a change in certnn's outputs or work show per commit.

Usage, from the repository root, after scripts/run_case_study.py:

    PYTHONPATH=src python3 scripts/ci_summary.py case_study_out

Prints, one per line:
- the case study's k*, MILP node count and nodes per reach step;
- the size of its closed-loop relaxation at k*: columns, rows and binaries,
  so that a change to the encoding shows;
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
  by the LpModel loads of the pass;
- the sha256 over the F and g bytes of the 8 invariant sets of that
  set_algebra pass, in op order, so that a shortcut that changes a row shows
  as a changed hash and not only as a changed LP count;
- the branch-and-bound nodes of one untraced range_bnb pass (20
  output-range queries: 5 nets, 4 directions each);
- the verdict, k*, MILP node count and nodes per reach step of three
  imitation loops of tests/helpers.py (random ReLU controllers fitted to the
  saturated LQR: one hidden layer of 8 neurons, seeds 0 and 2, and of 16,
  seed 2), so that a change to how tight the encoder's bounds are shows
  even where the case study's nodes do not move; a loop whose one-step
  invariance fails has no k* and no reach steps;
- the verdict, reason and MILP node count of the 6-state imitation loop
  (helpers.set_plant_loop: set-algebra plant 0, 16 neurons, seed 0, from
  X_in = R_K), whose invariance fails: its verdict is settled before any
  reach search;
- one "name = value" line per entry of certnn/tolerances.py.

Exits 1 after printing them when a caller named in CASE_CALLERS solves no LP
on the case_study pass, or the fixpoint's cut tests or the prune's row tests
count 0 on the set_algebra pass, as when a caller was renamed: its LPs would
be counted under another name without a word.
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


# (hidden widths, seed) of the imitation loops whose verify is summarized
IMITATION_LOOPS = (([8], 0), ([8], 2), ([16], 2))


def imitation_lines():
    for widths, seed in IMITATION_LOOPS:
        cert = verify_stability(**helpers.imitation_loop(widths, seed), k_max=10)
        s = cert.stability
        yield (
            f"imitation loop widths {widths} seed {seed}: {cert.verdict} k_star {s.k_star}"
            f" milp_nodes {cert.milp_nodes} reach_nodes {s.reach_nodes}"
        )
    cert = verify_stability(**helpers.set_plant_loop(0, [16], 0), k_max=10)
    yield (
        f"6-state imitation loop widths [16] seed 0: {cert.verdict} ({cert.reason})"
        f" milp_nodes {cert.milp_nodes}"
    )


# The set-algebra LPs by the function that solves them: LpModel.maxima runs the
# fixpoint's cut tests, polytope._prune the row tests of the redundancy prune,
# and remove_redundant and max_positively_invariant their emptiness checks.
SET_CALLERS = {
    "maxima": "fixpoint cut tests",
    "_prune": "prune tests",
    "remove_redundant": "emptiness",
    "max_positively_invariant": "emptiness",
}
# every set_algebra pass solves these; the emptiness checks run only for a set
# with a negative offset, and the workload has none
SET_REQUIRED = ("fixpoint cut tests", "prune tests")


# The case-study LPs by the function that solves them, or that calls
# LpModel.maxima to: milp.ClosedLoopEncoding.__init__ boxes X_in (the only
# __init__ that calls maxima), milp.ClosedLoopEncoding._encode_network bounds
# a network copy, and solve_milp's _push solves a branch-and-bound node; every
# other LP is a set LP (R_eq, R_as).
CASE_CALLERS = {
    "__init__": "box LPs",
    "_encode_network": "bound LPs",
    "_push": "BnB nodes",
}


def _set_caller(callers):
    return SET_CALLERS.get(callers[0], callers[0])


def _case_caller(callers):
    return next((CASE_CALLERS[c] for c in callers if c in CASE_CALLERS), "set LPs")


def lp_count_lines(missing: list):
    """The LP count lines; appends to missing each SET_REQUIRED and CASE_CALLERS count of 0."""
    solve, init = lp.LpModel.solve, lp.LpModel.__init__
    calls, iterations = collections.Counter(), collections.Counter()
    loads = 0

    def counting(model):
        callers = sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name
        out = solve(model)
        calls[callers] += 1
        iterations[callers] += model._highs.getInfo().simplex_iteration_count
        return out

    def loading(model, *args, **kwargs):
        nonlocal loads
        loads += 1
        init(model, *args, **kwargs)

    def by_caller(counts, name, names):
        split = collections.Counter()
        for callers, n in counts.items():
            split[name(callers)] += n
        names = dict.fromkeys([*names, *split])  # any other caller by its name
        return f"{counts.total()} (" + ", ".join(f"{split[name]} {name}" for name in names) + ")"

    def lines(workload, name, names):
        yield f"{workload} pass: LpModel.solve calls {by_caller(calls, name, names)}"
        yield f"{workload} pass: simplex iterations {by_caller(iterations, name, names)}"
        yield f"{workload} pass: LpModel loads {loads}"

    lp.LpModel.solve, lp.LpModel.__init__ = counting, loading
    try:
        sets = hashlib.sha256()
        for op in workloads.set_ops():
            R = op.run()[1]
            sets.update(R.F.tobytes() + R.g.tobytes())
        yield from lines("set_algebra", _set_caller, SET_CALLERS.values())
        yield f"set_algebra pass: invariant sets sha256 {sets.hexdigest()}"
        seen = {_set_caller(callers) for callers in calls}
        missing += [f"set_algebra {name}" for name in SET_REQUIRED if name not in seen]
        calls.clear()
        iterations.clear()
        loads = 0
        with tempfile.TemporaryDirectory() as work:
            for op in workloads.case_ops(Path(work)):
                op.run()
        yield from lines("case_study", _case_caller, [*CASE_CALLERS.values(), "set LPs"])
        seen = {_case_caller(callers) for callers in calls}
        missing += [f"case_study {name}" for name in CASE_CALLERS.values() if name not in seen]
    finally:
        lp.LpModel.solve, lp.LpModel.__init__ = solve, init


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    missing = []
    lines = [
        *case_study_lines(Path(sys.argv[1])),
        *imitation_lines(),
        *lp_count_lines(missing),
        f"range_bnb pass: milp nodes {sum(op.run().nodes for op in workloads.range_ops())}",
        *(f"{n} = {v!r}" for n, v in vars(tolerances).items() if n.isupper()),
    ]
    print(*lines, sep="\n")
    if missing:
        print(f"error: a pass counts 0 LPs for {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
