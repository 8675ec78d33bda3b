"""Workload inputs, operations and answer checks for the certnn benchmark.

Every workload is a fixed list of operations built from ``GEN_SEED``; the
stored reference answers in ``reference.json`` were computed from the same
inputs by ``make_reference.py``.  The benchmark's ``--seed`` argument only
orders the operations within each pass, so any seed runs the same work and
checks it against the same references.

Each operation is a zero-argument callable that returns an answer; the
matching ``check`` function compares an answer with the reference and
returns ``None`` when it is correct or a one-line reason when it is not.
``fingerprint`` reduces an answer to the values a traced and an untraced run
must agree on (including node counts).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from certnn import cli, control, milp
from certnn.network import ReluNetwork, synth_satlqr
from certnn.polytope import Polytope

GEN_SEED = 0
VALUE_TOL = 1e-6
SET_TOL = 1e-7

# Rotating double integrator of the case study: plant, weights, constraints
# and the published 10-facet initial set.
CASE_A = np.array([[0.5403, -0.8415], [0.8415, 0.5403]])
CASE_B = np.array([[-0.4597], [0.8415]])
CASE_Q = 2.0 * np.eye(2)
CASE_R = np.array([[1.0]])
CASE_C_IN = np.array(
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
CASE_c_IN = np.array(
    [3.0297, 2.9401, 3.5051, 3.2918, 3.3082, 3.2918, 3.5051, 2.9401, 3.0297, 3.3082]
)
CASE_PUBLISHED_SCALE = 0.999
CASE_KMAX = 10
CASE_N_SCALED = 3

RANGE_N_X = 3
RANGE_N_U = 2
RANGE_WIDTHS = ([8], [16], [32], [12, 12], [16, 16])

SET_N_PLANTS = 8


@dataclass
class Op:
    """One benchmark operation: ``run()`` returns the answer to check."""

    key: str
    run: Callable[[], object]


def case_scales(gen_seed: int = GEN_SEED) -> list[float]:
    """The X_in of the case study (0.999 of the published facets) and seeded inward scalings.

    The 0.999 factor is the one ``scripts/run_case_study.py`` applies: the
    published 4-decimal facet data alone is not one-step invariant.
    """
    rng = np.random.default_rng([gen_seed, 1])
    return [CASE_PUBLISHED_SCALE] + [float(s) for s in np.round(rng.uniform(0.45, 0.95, CASE_N_SCALED), 4)]


def random_net(rng, n_x, widths, n_u) -> ReluNetwork:
    layers = []
    prev = n_x
    for w in list(widths) + [n_u]:
        layers.append((rng.standard_normal((w, prev)), rng.standard_normal(w)))
        prev = w
    return ReluNetwork(layers)


def range_nets(gen_seed: int = GEN_SEED) -> list[ReluNetwork]:
    """One net per width profile, each drawn from a fresh generator."""
    return [
        random_net(np.random.default_rng(gen_seed), RANGE_N_X, w, RANGE_N_U)
        for w in RANGE_WIDTHS
    ]


def range_box() -> Polytope:
    return Polytope.box(-np.ones(RANGE_N_X), np.ones(RANGE_N_X))


def range_directions() -> np.ndarray:
    eye = np.eye(RANGE_N_U)
    return np.vstack([eye, -eye])


def set_plants(gen_seed: int = GEN_SEED) -> list[dict]:
    """Random single-input plants with n_x in 4..8, box X and box U."""
    rng = np.random.default_rng([gen_seed, 3])
    plants = []
    for _ in range(SET_N_PLANTS):
        n = int(rng.integers(4, 9))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.9, 1.1) / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, 1))
        plants.append(
            {
                "system": control.LtiSystem(A, B),
                "Q": np.eye(n),
                "R": np.eye(1),
                "X": Polytope.box(-5.0 * np.ones(n), 5.0 * np.ones(n)),
                "U": Polytope.box([-1.0], [1.0]),
            }
        )
    return plants


def input_fingerprint(workload: str) -> float:
    """Checksum of the generated inputs; a mismatch means the generator drifted."""
    if workload == "case_study":
        return float(sum(case_scales()) + CASE_c_IN.sum())
    if workload == "range_bnb":
        return float(sum(np.abs(W).sum() + np.abs(b).sum() for n in range_nets() for W, b in n.layers))
    return float(sum(np.abs(p["system"].A).sum() + np.abs(p["system"].B).sum() for p in set_plants()))


# ---------------------------------------------------------------- case_study


def write_case_inputs(work: Path) -> list[Path]:
    """System, network and one X_in file per scale; returns the X_in paths."""
    work.mkdir(parents=True, exist_ok=True)
    system = {
        "A": CASE_A.tolist(),
        "B": CASE_B.tolist(),
        "X": Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json(),
        "U_box": {"lb": [-1.0], "ub": [1.0]},
        "Q": CASE_Q.tolist(),
        "R": CASE_R.tolist(),
    }
    (work / "system.json").write_text(json.dumps(system))
    K = control.lqr(control.LtiSystem(CASE_A, CASE_B), CASE_Q, CASE_R).K
    synth_satlqr(K, [-1.0], [1.0]).save(work / "network.json")
    paths = []
    for i, s in enumerate(case_scales()):
        p = work / f"xin{i}.json"
        p.write_text(json.dumps(Polytope(CASE_C_IN, s * CASE_c_IN).to_json()))
        paths.append(p)
    return paths


def case_ops(work: Path) -> list[Op]:
    ops = []
    for i, xin in enumerate(write_case_inputs(work)):
        out = work / f"out{i}"
        argv = [
            "verify",
            "--system", str(work / "system.json"),
            "--network", str(work / "network.json"),
            "--xin", str(xin),
            "--out-dir", str(out),
            "--kmax", str(CASE_KMAX),
        ]

        def run(argv=argv, out=out):
            # A certificate left by an earlier op must not pass for this one's.
            (out / "certificate.json").unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            return code, out / "certificate.json"

        ops.append(Op(f"xin{i}", run))
    return ops


def read_certificate(answer) -> dict:
    code, path = answer
    cert = json.loads(Path(path).read_text())
    stab = cert["stability"] or {}
    return {
        "exit": code,
        "verdict": cert["verdict"],
        "k_star": stab.get("k_star"),
        "U_star": cert["U_star"]["g"],
        "X_1_out": cert["X_1_out"]["g"],
        "nodes": cert["milp_nodes"],
    }


def check_case(ref: dict, answer) -> str | None:
    got = read_certificate(answer)
    for key in ("exit", "verdict", "k_star"):
        if got[key] != ref[key]:
            return f"{key} {got[key]!r} != reference {ref[key]!r}"
    for key in ("U_star", "X_1_out"):
        gap = float(np.max(np.abs(np.subtract(got[key], ref[key]))))
        if gap > VALUE_TOL:
            return f"{key} facet values off by {gap:.3e}"
    return None


def fingerprint_case(answer):
    got = read_certificate(answer)
    return (got["exit"], got["verdict"], got["k_star"], got["nodes"],
            tuple(np.round(got["U_star"] + got["X_1_out"], 9)))


# ----------------------------------------------------------------- range_bnb


def range_ops() -> list[Op]:
    X = range_box()
    ops = []
    for n, net in enumerate(range_nets()):
        for j, d in enumerate(range_directions()):

            def run(net=net, d=d):
                return milp.output_range_results(net, X, d[None, :])[0]

            ops.append(Op(f"net{n}.dir{j}", run))
    return ops


def check_range(ref: dict, net: ReluNetwork, d: np.ndarray, res) -> str | None:
    if res.status != milp.BnbStatus.OPTIMAL:
        return f"status {res.status}"
    x = np.asarray(res.point[:RANGE_N_X])
    if np.any(np.abs(x) > 1.0 + SET_TOL):
        return "witness outside the input box"
    replay = float(d @ net.eval(x))
    if abs(replay - res.value) > VALUE_TOL:
        return f"witness replay {replay!r} != value {res.value!r}"
    if abs(res.value - ref["milp"]) > VALUE_TOL * max(1.0, abs(ref["milp"])):
        return f"value {res.value!r} != scipy milp reference {ref['milp']!r}"
    if res.value < ref["sampled_max"] - VALUE_TOL:
        return f"value {res.value!r} below sampled maximum {ref['sampled_max']!r}"
    return None


def fingerprint_range(res):
    return (round(float(res.value), 9), int(res.nodes))


# --------------------------------------------------------------- set_algebra


def set_ops() -> list[Op]:
    ops = []
    for i, p in enumerate(set_plants()):

        def run(p=p):
            K = control.lqr(p["system"], p["Q"], p["R"]).K
            return K, control.lqr_admissible_set(p["system"], K, p["X"], p["U"])

        ops.append(Op(f"plant{i}", run))
    return ops


def _support(F, g, d) -> float:
    res = linprog(-np.asarray(d), A_ub=F, b_ub=g, bounds=(None, None), method="highs")
    if res.status != 0:
        return np.inf
    return float(-res.fun)


def _inside(F, g, outer_F, outer_g) -> bool:
    """{F x <= g} is a subset of {outer_F x <= outer_g}."""
    return all(_support(F, g, row) <= rhs + SET_TOL for row, rhs in zip(outer_F, outer_g))


def set_properties_hold(plant: dict, K, F, g) -> str | None:
    """Independent LP checks of an admissible invariant set {F x <= g}."""
    if np.any(np.asarray(g) < -SET_TOL):
        return "set does not contain the origin"
    A_cl = plant["system"].A - plant["system"].B @ K
    if not _inside(F, g, F @ A_cl, g):
        return "set is not positively invariant under A - B K"
    if not _inside(F, g, plant["X"].F, plant["X"].g):
        return "set leaves X"
    if not _inside(F, g, -plant["U"].F @ K, plant["U"].g):
        return "set leaves {x : -K x in U}"
    return None


def check_set(ref: dict, plant: dict, answer) -> str | None:
    K, R = answer
    gap = float(np.max(np.abs(K - np.asarray(ref["K"]))))
    if gap > VALUE_TOL:
        return f"LQR gain off by {gap:.3e}"
    F_ref = np.asarray(ref["F"])
    g_ref = np.asarray(ref["g"])
    # The reference set was verified when it was stored, so a result with the
    # same rows inherits its properties; any other representation is checked
    # in full, including equality with the reference by mutual containment.
    if R.F.shape == F_ref.shape and np.allclose(R.F, F_ref, rtol=0, atol=1e-9) and np.allclose(
        R.g, g_ref, rtol=0, atol=1e-9
    ):
        return None
    reason = set_properties_hold(plant, K, R.F, R.g)
    if reason:
        return reason
    if not (_inside(R.F, R.g, F_ref, g_ref) and _inside(F_ref, g_ref, R.F, R.g)):
        return "set differs from the reference set"
    return None


def fingerprint_set(answer):
    K, R = answer
    return (tuple(np.round(K.ravel(), 9)), R.nrows, tuple(np.round(R.g, 9)))


# ---------------------------------------------------------------- assembly


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[int, object], str | None]
    fingerprint: Callable[[object], object]
    nominal_pass_s: float  # one pass over ``ops`` on a 2-core x86_64 box at GEN_SEED


def build(name: str, reference: dict, work: Path) -> Workload:
    """Generate a workload's inputs and bind its checks to the stored reference."""
    ref = reference[name]
    if abs(input_fingerprint(name) - ref["input_fingerprint"]) > 1e-9:
        raise RuntimeError(f"{name}: generated inputs do not match the stored reference")
    if name == "case_study":
        return Workload(
            case_ops(work),
            lambda i, a: check_case(ref["ops"][i], a),
            fingerprint_case,
            nominal_pass_s=7.5,
        )
    if name == "range_bnb":
        nets = range_nets()
        dirs = range_directions()
        n_d = len(dirs)
        return Workload(
            range_ops(),
            lambda i, a: check_range(ref["ops"][i], nets[i // n_d], dirs[i % n_d], a),
            fingerprint_range,
            nominal_pass_s=20.0,
        )
    if name == "set_algebra":
        plants = set_plants()
        return Workload(
            set_ops(),
            lambda i, a: check_set(ref["ops"][i], plants[i], a),
            fingerprint_set,
            nominal_pass_s=5.0,
        )
    raise KeyError(name)
