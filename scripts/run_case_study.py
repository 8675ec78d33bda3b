#!/usr/bin/env python3
"""End-to-end demonstration on the rotating double-integrator case study.

Builds the plant and constraint files, synthesizes a saturated-LQR
controller, runs the full certification pipeline, exports the certification
sets, and simulates a batch of closed-loop trajectories.  Outputs land in
--out-dir (default: case_study_out/).  Exits with the exit code of the
first command that fails (verify exits 2 on a verdict short of certified),
or 0 when every command succeeds.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from certnn.cli import main as cli_main
from certnn.control import LtiSystem, lqr
from certnn.network import synth_satlqr
from certnn.polytope import Polytope

A = np.array([[0.5403, -0.8415], [0.8415, 0.5403]])
B = np.array([[-0.4597], [0.8415]])
Q = 2.0 * np.eye(2)
R = np.array([[1.0]])

# initial set: a 10-facet inner approximation of the certifiable region,
# scaled slightly inward so the printed 4-decimal facet data stays invariant
C_IN = np.array(
    [
        [0.0707, -0.9975],
        [-0.1509, -0.9885],
        [-0.8011, -0.5984],
        [-0.9797, 0.2004],
        [0.8776, -0.4795],
        [0.9797, -0.2004],
        [0.8012, 0.5984],
        [0.1509, 0.9885],
        [-0.0707, 0.9975],
        [-0.8776, 0.4754],
    ]
)
c_IN = 0.999 * np.array(
    [3.0297, 2.9401, 3.5051, 3.2918, 3.3082, 3.2918, 3.5051, 2.9401, 3.0297, 3.3082]
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="case_study_out")
    ap.add_argument("--kmax", type=int, default=10)
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    system = {
        "A": A.tolist(),
        "B": B.tolist(),
        "X": Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json(),
        "U_box": {"lb": [-1.0], "ub": [1.0]},
        "Q": Q.tolist(),
        "R": R.tolist(),
    }
    sys_path = out / "system.json"
    sys_path.write_text(json.dumps(system, indent=1))

    K = lqr(LtiSystem(A, B), Q, R).K
    print(f"LQR gain K = {np.array2string(K, precision=6)}")
    net = synth_satlqr(K, [-1.0], [1.0])
    net_path = out / "network.json"
    net.save(net_path)

    xin_path = out / "xin.json"
    xin_path.write_text(json.dumps(Polytope(C_IN, c_IN).to_json(), indent=1))

    common = ["--system", str(sys_path), "--network", str(net_path), "--out-dir", str(out)]
    xin = ["--xin", str(xin_path)]
    codes = []
    for command, extra in (
        ("verify", [*xin, "--kmax", str(args.kmax)]),
        ("sets", [*xin, "--kmax", str(args.kmax)]),
        ("regions", xin),
        ("simulate", ["--x0", "2.0,-1.5", "--steps", "60"]),
    ):
        print(f"\n== {command} ==")
        codes.append(cli_main([command, *common, *extra]))
        print(f"exit code: {codes[-1]}")
    if codes[-1] == 0:
        last = (out / "trajectory.csv").read_text().strip().splitlines()[-1].split(",")
        print(f"final state after 60 steps: ({float(last[1]):.2e}, {float(last[2]):.2e})")
    print(f"\nall outputs written to {out}/")
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    raise SystemExit(main())
