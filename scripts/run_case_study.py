#!/usr/bin/env python3
"""End-to-end demonstration on the rotating double-integrator case study.

Writes the benchmark's case-study files (perfbench/workloads.py): the plant
and constraint file, the saturated-LQR controller, and X_in files of which
xin0.json is the certified X_in and xin1..3.json are the benchmark's inward
scalings.  Then runs the full certification pipeline on xin0.json, exports
the certification sets, and simulates a closed-loop trajectory.  Outputs
land in --out-dir (default: case_study_out/).  Exits with the exit code of
the first command that fails (verify exits 2 on a verdict short of
certified), or 0 when every command succeeds.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from certnn.cli import main as cli_main  # noqa: E402
from certnn.control import LtiSystem, lqr  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="case_study_out")
    ap.add_argument("--kmax", type=int, default=10)
    args = ap.parse_args()
    out = Path(args.out_dir)
    xin_path = workloads.write_case_inputs(out)[0]
    sys_path, net_path = out / "system.json", out / "network.json"
    K = lqr(LtiSystem(workloads.CASE_A, workloads.CASE_B), workloads.CASE_Q, workloads.CASE_R).K
    print(f"LQR gain K = {np.array2string(K, precision=6)}")

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
