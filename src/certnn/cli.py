"""Command-line front end.

Subcommands: verify | retrofit | saturate | regions | simulate | sets.
Inputs are JSON files (system, network, initial-set polytope); outputs are
JSON and CSV files in --out-dir.  Exit codes: 0 when the certificate verdict
is a stability certificate, 2 when verification fails, 1 on bad arguments,
I/O or validation errors and on any certnn error (one "error:" line on
stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from certnn import control, verify
from certnn.errors import CertnnError
from certnn.network import ReluNetwork, retrofit_lqr, saturate
from certnn.polytope import Polytope, json_array, vertices_2d
from certnn.regions import enumerate_regions


class ConfigError(CertnnError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError, so they exit 1 instead of argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse(path: str, parse):
    """parse applied to the JSON object in path; a missing key or a bad value names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("the top level must be a JSON object")
        return parse(data)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field '{exc.args[0]}'") from exc
    except (ValueError, CertnnError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise ConfigError(f"{path}: {exc}") from exc


def _load_inputs(args, need_xin=True):
    sys_obj, aux = _parse(args.system, control.system_from_json)
    n_x, n_u = sys_obj.n_x, sys_obj.n_u

    def network(data):
        net = ReluNetwork.from_json(data)
        if (net.n_x, net.n_u) != (n_x, n_u):
            raise ValueError(f"network is {net.n_x}->{net.n_u} but plant expects {n_x}->{n_u}")
        return net

    def initial_set(data):
        xin = Polytope.from_json(data)
        if xin.dim != n_x:
            raise ValueError(f"X_in dimension {xin.dim} does not match state size {n_x}")
        return xin

    net = _parse(args.network, network)
    xin = _parse(args.xin, initial_set) if need_xin else None
    return sys_obj, aux, net, xin


def _write_json(path: Path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def _write_csv(path: Path, header, rows):
    """One header line, then one line per row; floats are written with _fmt."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_fmt(c) if isinstance(c, float) else c for c in row] for row in rows)


def _reference_gain(args, sys_obj, aux):
    if args.k_source == "lqr":
        if aux["Q"] is None or aux["R"] is None:
            raise ConfigError("k-source 'lqr' needs Q and R in the system file")
        return control.lqr(sys_obj, aux["Q"], aux["R"]).K

    def gain(data):
        K = json_array(data["K"], "K")
        if np.atleast_2d(K).shape != (sys_obj.n_u, sys_obj.n_x):
            raise ValueError(f"K has shape {K.shape}, expected ({sys_obj.n_u}, {sys_obj.n_x})")
        return K

    return _parse(args.k_source, gain)


def cmd_verify(args) -> int:
    sys_obj, aux, net, xin = _load_inputs(args)
    K_ref = None
    if aux["Q"] is not None and aux["R"] is not None:
        K_ref = control.lqr(sys_obj, aux["Q"], aux["R"]).K
    cert = verify.verify_stability(
        sys_obj, net, xin, aux["X"], aux["U"], k_max=args.kmax, K_ref=K_ref
    )
    out = Path(args.out_dir)
    _write_json(out / "certificate.json", cert.to_json())
    print(f"verdict: {cert.verdict}" + (f" ({cert.reason})" if cert.reason else ""))
    if cert.stability and cert.stability.k_star is not None:
        print(f"k_star: {cert.stability.k_star}")
    print(f"milp nodes: {cert.milp_nodes}")
    return 0 if cert.certified else 2


def cmd_retrofit(args) -> int:
    sys_obj, aux, net, _ = _load_inputs(args, need_xin=False)
    K = _reference_gain(args, sys_obj, aux)
    new_net, cost = retrofit_lqr(net, K)
    out = Path(args.out_dir)
    _write_json(out / "network_retrofit.json", new_net.to_json())
    print(f"retrofit cost: {_fmt(cost)}")
    return 0


def cmd_saturate(args) -> int:
    sys_obj, aux, net, _ = _load_inputs(args, need_xin=False)
    if aux["U_box"] is None:
        raise ConfigError("saturate needs box input constraints (U_box) in the system file")
    lb, ub = aux["U_box"]
    out = Path(args.out_dir)
    _write_json(out / "network_saturated.json", saturate(net, lb, ub).to_json())
    return 0


def cmd_regions(args) -> int:
    sys_obj, aux, net, xin = _load_inputs(args)
    regions = enumerate_regions(net, xin)
    out = Path(args.out_dir)
    _write_json(
        out / "regions.json",
        [
            {
                "pattern": [np.asarray(g).tolist() for g in r.pattern],
                "polytope": r.polytope.to_json(),
            }
            for r in regions
        ],
    )
    corners = [] if net.n_x != 2 else [
        [i, *v] for i, r in enumerate(regions) for v in vertices_2d(r.polytope)
    ]
    _write_csv(out / "regions.csv", ["region", "x1", "x2"], corners)
    print(f"regions: {len(regions)}")
    return 0


def cmd_simulate(args) -> int:
    sys_obj, aux, net, _ = _load_inputs(args, need_xin=False)
    try:
        x0 = json_array([float(v) for v in args.x0.split(",")], "--x0")
    except ValueError:
        raise ConfigError(f"--x0 must be comma-separated finite numbers: {args.x0!r}") from None
    if x0.size != sys_obj.n_x:
        raise ConfigError(f"--x0 has {x0.size} entries, expected {sys_obj.n_x}")
    traj = control.simulate(sys_obj, net, x0, args.steps)
    out = Path(args.out_dir)
    n_x, n_u = sys_obj.n_x, sys_obj.n_u
    header = ["step", *(f"x{i + 1}" for i in range(n_x)), *(f"u{i + 1}" for i in range(n_u))]
    inputs = [*traj.inputs, [""] * n_u]  # the last state has no input
    rows = [[k, *x, *u] for k, (x, u) in enumerate(zip(traj.states, inputs))]
    _write_csv(out / "trajectory.csv", header, rows)
    return 0


def cmd_sets(args) -> int:
    sys_obj, aux, net, xin = _load_inputs(args)
    if aux["Q"] is None or aux["R"] is None:
        raise ConfigError("sets needs Q and R in the system file")
    K = control.lqr(sys_obj, aux["Q"], aux["R"]).K
    out = Path(args.out_dir)
    r_lqr = control.lqr_admissible_set(sys_obj, K, aux["X"], aux["U"])
    cert = verify.verify_stability(
        sys_obj, net, xin, aux["X"], aux["U"], k_max=args.kmax, K_ref=K
    )
    named = {"r_lqr": r_lqr, "x1_out": cert.X_1_out}
    if cert.stability is not None:
        named["r_eq"] = cert.stability.R_eq
        named["r_as"] = cert.stability.R_as
        named["xk_out"] = cert.stability.X_k_out
    for name, poly in named.items():
        if poly is None:
            continue
        _write_json(out / f"{name}.json", poly.to_json())
        verts = vertices_2d(poly) if poly.dim == 2 else []
        _write_csv(out / f"{name}.csv", [f"x{i + 1}" for i in range(poly.dim)], verts)
    print(f"verdict: {cert.verdict}")
    return 0 if cert.certified else 2


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="certnn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, xin=True):
        sp.add_argument("--system", required=True, help="system JSON file")
        sp.add_argument("--network", required=True, help="network JSON file")
        if xin:
            sp.add_argument("--xin", required=True, help="initial-set polytope JSON file")
        sp.add_argument("--out-dir", default=".", help="output directory")

    def certification(sp):
        sp.add_argument("--kmax", type=_positive_int, default=25, help="largest reach horizon searched")

    sp = sub.add_parser("verify", help="run the full certification pipeline")
    common(sp)
    certification(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("retrofit", help="retrofit the output layer to a reference gain")
    common(sp, xin=False)
    sp.add_argument("--k-source", default="lqr", help="'lqr' or a JSON file with {\"K\": [[...]]}")
    sp.set_defaults(func=cmd_retrofit)

    sp = sub.add_parser("saturate", help="clamp the network output to the input box")
    common(sp, xin=False)
    sp.set_defaults(func=cmd_saturate)

    sp = sub.add_parser("regions", help="enumerate activation regions inside X_in")
    common(sp)
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("simulate", help="roll out the closed loop from x0")
    common(sp, xin=False)
    sp.add_argument("--x0", required=True, help="comma-separated initial state")
    sp.add_argument("--steps", type=_positive_int, default=50)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sets", help="compute and export the certification sets")
    common(sp)
    certification(sp)
    sp.set_defaults(func=cmd_sets)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:  # a file or directory that cannot be read or written
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    except (CertnnError, ValueError, KeyError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
