#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the stored answers every op is checked against.

Run from the repository root:  python3 perfbench/make_reference.py

Inputs come from workloads.GEN_SEED.  Where an independent solver exists the
reference is computed with it rather than with certnn:

- range_bnb: scipy.optimize.milp on the same big-M model, plus the best
  of 10^4 sampled inputs;
- case_study: scipy.optimize.milp for the U_star and X_1_out facet values;
  verdict, exit code and k* come from one certnn run;
- set_algebra: the LQR gain from scipy.linalg.solve_discrete_are; the set
  from one certnn run, accepted only after LP checks that it contains the
  origin, is positively invariant and satisfies the constraints.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import solve_discrete_are  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint  # noqa: E402
from scipy.optimize import milp as scipy_milp  # noqa: E402

import workloads as wl  # noqa: E402
from certnn import milp  # noqa: E402
from certnn.control import LtiSystem  # noqa: E402
from certnn.network import ReluNetwork  # noqa: E402
from certnn.polytope import Polytope  # noqa: E402

N_SAMPLES = 10_000


def milp_value(m: milp.MilpModel) -> float:
    """max c.x of a certnn model, solved by scipy's own MILP solver."""
    constraints = [LinearConstraint(m.A_ub, -np.inf, m.b_ub)]
    if m.A_eq.size:
        constraints.append(LinearConstraint(m.A_eq, m.b_eq, m.b_eq))
    integrality = np.zeros(m.c.size)
    integrality[m.binaries] = 1
    res = scipy_milp(
        -m.c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(m.lb, m.ub),
        options={"mip_rel_gap": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"scipy milp failed: {res.message}")
    return float(-res.fun)


def case_reference() -> dict:
    ops = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ops_ = wl.case_ops(work)
        net = ReluNetwork.load(work / "network.json")
        system = LtiSystem(wl.CASE_A, wl.CASE_B)
        for i, op in enumerate(ops_):
            X_in = Polytope.from_json(json.loads((work / f"xin{i}.json").read_text()))
            U = Polytope.box([-1.0], [1.0])
            answer = op.run()
            got = wl.read_certificate(answer)
            got["U_star"] = [milp_value(milp.encode_output_range(net, X_in, d)) for d in U.F]
            got["X_1_out"] = [milp_value(milp.encode_reach(system, net, X_in, 1, d)) for d in X_in.F]
            if wl.check_case(got, answer) is not None:
                raise RuntimeError(f"case_study {op.key}: certnn disagrees with scipy milp")
            ops.append(got)
            print(f"case_study {op.key}: {got['verdict']} k*={got['k_star']} nodes={got['nodes']}")
    return {"scales": wl.case_scales(), "ops": ops}


def range_reference() -> dict:
    rng = np.random.default_rng([wl.GEN_SEED, 2])
    X = wl.range_box()
    ops = []
    for n, net in enumerate(wl.range_nets()):
        samples = rng.uniform(-1.0, 1.0, size=(N_SAMPLES, wl.RANGE_N_X))
        outputs = np.array([net.eval(x) for x in samples])
        for d in wl.range_directions():
            value = milp_value(milp.encode_output_range(net, X, d))
            ops.append({"milp": value, "sampled_max": float(np.max(outputs @ d))})
            print(f"range_bnb net{n} {d}: {value:.9f}")
    return {"ops": ops}


def set_reference() -> dict:
    ops = []
    for i, p in enumerate(wl.set_plants()):
        A, B = p["system"].A, p["system"].B
        P = solve_discrete_are(A, B, p["Q"], p["R"])
        K = np.linalg.solve(p["R"] + B.T @ P @ B, B.T @ P @ A)
        _, R = wl.set_ops()[i].run()
        reason = wl.set_properties_hold(p, K, R.F, R.g)
        if reason:
            raise RuntimeError(f"set_algebra plant{i}: {reason}")
        ops.append({"K": K.tolist(), "F": R.F.tolist(), "g": R.g.tolist()})
        print(f"set_algebra plant{i}: n_x={A.shape[0]} rows={R.nrows}")
    return {"ops": ops}


def main() -> int:
    ref = {"gen_seed": wl.GEN_SEED}
    for name, make in (
        ("case_study", case_reference),
        ("range_bnb", range_reference),
        ("set_algebra", set_reference),
    ):
        ref[name] = make()
        ref[name]["input_fingerprint"] = wl.input_fingerprint(name)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
