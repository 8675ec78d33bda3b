"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; without -s they appear in the captured output.
"""

import json
import time

import numpy as np
import pytest

import helpers
from conftest import (
    CASE_A,
    CASE_B,
    CASE_C_IN,
    CASE_F_LQR,
    CASE_Q,
    CASE_R,
    CASE_c_IN,
    CASE_g_LQR,
    random_net,
)
from certnn.cli import main as cli_main
from certnn.control import LtiSystem, lqr, lqr_admissible_set
from certnn.milp import output_range, reach_set
from certnn.network import ReluNetwork, retrofit_lqr, saturate, synth_satlqr
from certnn.polytope import Polytope, bounding_box, support
from certnn.verify import verify_stability


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_01_lqr_gain_regression():
    start = time.monotonic()
    sol = lqr(LtiSystem(CASE_A, CASE_B), CASE_Q, CASE_R)
    err = float(np.max(np.abs(sol.K - np.array([[0.2501, 0.8290]]))))
    elapsed = time.monotonic() - start
    _report(
        "1 lqr-gain",
        err <= 1e-3 and elapsed < 1.0,
        f"max err {err:.2e}, {elapsed:.2f}s",
    )


def test_02_lqr_admissible_set_regression():
    start = time.monotonic()
    sys = LtiSystem(CASE_A, CASE_B)
    sol = lqr(sys, CASE_Q, CASE_R)
    X = Polytope.box([-5.0, -5.0], [5.0, 5.0])
    U = Polytope.box([-1.0], [1.0])
    region = lqr_admissible_set(sys, sol.K, X, U)
    published = Polytope(CASE_F_LQR, CASE_g_LQR)
    worst = 0.0
    for P, Q_ in ((region, published), (published, region)):
        for row in Q_.F / np.linalg.norm(Q_.F, axis=1)[:, None]:
            worst = max(worst, abs(support(P, row) - support(Q_, row)))
    elapsed = time.monotonic() - start
    _report(
        "2 lqr-region",
        worst <= 1e-3 and elapsed < 5.0,
        f"max support gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_03_output_range_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    fan = np.array(
        [[np.cos(t), np.sin(t)] for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    )
    X_in = Polytope.box([-1.0, -1.0], [1.0, 1.0])
    worst = 0.0
    for _ in range(50):
        width = int(rng.integers(2, 9))
        net = random_net(rng, 2, [width], 2)
        got = output_range(net, X_in, fan)
        want = helpers.output_range_oracle(net, X_in.F, X_in.g, fan)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - start
    _report(
        "3 output-range",
        worst <= 1e-6 and elapsed < 60.0,
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_04_reach_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    X_in = Polytope.box([-1.0, -1.0], [1.0, 1.0])
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    worst = 0.0
    for _ in range(10):
        A = 0.8 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        sys = LtiSystem(A, B)
        width = int(rng.integers(3, 7))
        net = random_net(rng, 2, [width], 1, scale=0.5)
        got = reach_set(sys, net, X_in, 2, dirs)
        want = helpers.reach_oracle(A, B, net, X_in.F, X_in.g, 2, dirs)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - start
    _report(
        "4 reach-set",
        worst <= 1e-6 and elapsed < 120.0,
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_05_saturation_equals_clamp():
    rng = np.random.default_rng(3)
    worst = 0.0
    exact_inside = True
    for _ in range(1000):
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 3))
        net = random_net(rng, n_x, [int(rng.integers(2, 6))], n_u)
        lo = rng.uniform(-3.0, -0.1, n_u)
        hi = rng.uniform(0.1, 3.0, n_u)
        sat = saturate(net, lo, hi)
        x = 2.0 * rng.standard_normal(n_x)
        u = net.eval(x)
        v = sat.eval(x)
        worst = max(worst, float(np.max(np.abs(v - np.clip(u, lo, hi)))))
        inside = (u >= lo) & (u <= hi)
        if np.any(np.abs(v[inside] - u[inside]) > 1e-9):
            exact_inside = False
    _report(
        "5 saturation",
        worst <= 1e-9 and exact_inside,
        f"max clamp gap {worst:.2e}",
    )


def test_06_retrofit():
    # hand fixture: hidden layer emitting the four half-rectified coordinates
    W1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    net = ReluNetwork([(W1, np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))])
    fixed, cost = retrofit_lqr(net, np.array([[1.0, 1.0]]))
    W_hat, b_hat = fixed.layers[-1]
    hand_ok = (
        np.max(np.abs(W_hat - np.array([[-0.5, 0.5, -0.5, 0.5]]))) <= 1e-9
        and abs(b_hat[0]) <= 1e-9
        and abs(cost - 1.0) <= 1e-9
    )

    rng = np.random.default_rng(11)
    rand_ok = True
    worst_resid = 0.0
    tested = 0
    while tested < 20:
        net = random_net(rng, 2, [int(rng.integers(3, 7))], 1)
        K = rng.standard_normal((1, 2))
        gamma = net.activation_pattern(np.zeros(2))
        V, c = net.pattern_maps(gamma)[-2]
        W_eq, b_eq = gamma[-1][:, None] * V, gamma[-1] * c
        if np.linalg.matrix_rank(W_eq) < 2:
            continue  # infeasible gain equation; skip to a feasible fixture
        tested += 1
        fixed, cost = retrofit_lqr(net, K)
        W_hat, b_hat = fixed.layers[-1]
        worst_resid = max(
            worst_resid,
            float(np.max(np.abs(W_hat @ W_eq + K))),
            float(np.max(np.abs(W_hat @ b_eq + b_hat))),
        )
        # compare against random feasible perturbations in the constraint null space
        n_L = W_eq.shape[0]
        A_full = np.zeros((2 + 1, n_L + 1))
        A_full[:2, :n_L] = W_eq.T
        A_full[2, :n_L] = b_eq
        A_full[2, n_L] = 1.0
        null = np.linalg.svd(A_full)[2][np.linalg.matrix_rank(A_full):].T
        W0, b0 = net.layers[-1]
        sol = np.concatenate([W_hat.ravel(), b_hat])
        target = np.concatenate([W0.ravel(), b0])
        for _ in range(100):
            other = sol + null @ rng.standard_normal(null.shape[1])
            if np.sum((other - target) ** 2) < cost - 1e-9:
                rand_ok = False
    _report(
        "6 retrofit",
        hand_ok and rand_ok and worst_resid <= 1e-8,
        f"hand {hand_ok}, max residual {worst_resid:.2e}",
    )


def test_07_end_to_end_case_study(tmp_path):
    start = time.monotonic()
    sys = LtiSystem(CASE_A, CASE_B)
    K = lqr(sys, CASE_Q, CASE_R).K
    net = synth_satlqr(K, [-1.0], [1.0])
    # the published facet offsets are printed to 4 decimals; at that precision
    # the set is marginally non-invariant for this controller, so the check
    # runs on the 0.999-scaled set (see README)
    X_in = Polytope(CASE_C_IN, 0.999 * CASE_c_IN)

    sys_path = tmp_path / "system.json"
    sys_path.write_text(
        json.dumps(
            {
                "A": CASE_A.tolist(),
                "B": CASE_B.tolist(),
                "X": Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json(),
                "U_box": {"lb": [-1.0], "ub": [1.0]},
                "Q": CASE_Q.tolist(),
                "R": CASE_R.tolist(),
            }
        )
    )
    net_path = tmp_path / "network.json"
    net.save(net_path)
    xin_path = tmp_path / "xin.json"
    xin_path.write_text(json.dumps(X_in.to_json()))
    out = tmp_path / "out"

    code = cli_main(
        [
            "verify", "--system", str(sys_path), "--network", str(net_path),
            "--xin", str(xin_path), "--out-dir", str(out), "--kmax", "10",
        ]
    )
    cert = json.loads((out / "certificate.json").read_text())
    verdict_ok = code == 0 and cert["verdict"] == "LqrOptimalNearEq"
    k_star = cert["stability"]["k_star"]

    rng = np.random.default_rng(0)
    lo, hi = bounding_box(X_in)
    X = helpers.sample_polytope(rng, X_in.F, X_in.g, 10_000, lo, hi)
    violation = False
    for _ in range(200):
        U = helpers.batch_eval(net, X)
        if np.max(np.abs(U)) > 1.0 + 1e-9 or np.max(np.abs(X)) > 5.0 + 1e-9:
            violation = True
            break
        X = X @ CASE_A.T + U @ CASE_B.T
    final = float(np.max(np.abs(X)))
    elapsed = time.monotonic() - start
    ok = (
        verdict_ok
        and k_star is not None
        and k_star <= 10
        and not violation
        and final <= 1e-3
        and elapsed < 300.0
    )
    _report(
        "7 end-to-end",
        ok,
        f"verdict {cert['verdict']}, k*={k_star}, final |x| {final:.2e}, {elapsed:.1f}s",
    )


def test_08_invariance_soundness():
    rng = np.random.default_rng(19)
    saw_true = saw_false = 0
    sound = True
    U = Polytope.box([-1.0], [1.0])
    X = Polytope.box([-5.0, -5.0], [5.0, 5.0])
    while saw_true < 3 or saw_false < 3:
        # random stable plant with an LQR-clamped controller
        A = rng.standard_normal((2, 2))
        A *= 0.95 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
        B = rng.standard_normal((2, 1))
        sys = LtiSystem(A, B)
        try:
            K = lqr(sys, np.eye(2), np.eye(1)).K
        except Exception:
            continue
        net = synth_satlqr(K, [-1.0], [1.0])
        side = float(rng.uniform(0.05, 2.0))
        X_in = Polytope.box([-side, -side], [side, side])
        cert = verify_stability(sys, net, X_in, X, U, k_max=1)
        witnesses = cert.witnesses
        if cert.invariance_ok:
            saw_true += 1
            lo, hi = bounding_box(X_in)
            pts = helpers.sample_polytope(rng, X_in.F, X_in.g, 10_000, lo, hi)
            for _ in range(100):
                u = helpers.batch_eval(net, pts)
                pts = pts @ sys.A.T + u @ sys.B.T
                if np.max(pts @ X_in.F.T - X_in.g) > 1e-7:
                    sound = False
                    break
        else:
            saw_false += 1
            if not witnesses:
                # failure was an input-constraint violation, not a facet one
                continue
            witness_ok = False
            for w in witnesses:
                if np.any(X_in.F @ w > X_in.g + 1e-6):
                    continue
                x1 = sys.A @ w + sys.B @ net.eval(w)
                if np.max(X_in.F @ x1 - X_in.g) >= -1e-6:
                    witness_ok = True
            if not witness_ok:
                sound = False
    _report(
        "8 invariance-soundness",
        sound,
        f"{saw_true} certified / {saw_false} refuted fixtures",
    )
