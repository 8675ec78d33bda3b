import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conftest import (
    CASE_F_LQR,
    CASE_g_LQR,
    CASE_K,
    CASE_Q,
    CASE_R,
)
from certnn.control import (
    LtiSystem,
    NoConvergence,
    input_admissible_states,
    lqr,
    lqr_admissible_set,
    simulate,
    spectral_radius,
    system_from_json,
)
from certnn.network import synth_satlqr
from certnn.polytope import Polytope, bounding_box, contains_set, support


class TestLtiSystem:
    def test_shapes(self, case_system):
        assert case_system.n_x == 2 and case_system.n_u == 1

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            LtiSystem(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2), np.ones((3, 1)))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            LtiSystem(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((2, 1)))
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2), np.array([[np.inf], [1.0]]))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0)

    def test_rotation(self):
        assert spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(1.0)

    def test_case_study_closed_loop(self, case_system):
        K = np.array([[0.2501, 0.8290]])
        A_cl = case_system.A - case_system.B @ K
        rho = spectral_radius(A_cl)
        # oracle: roots of the 2x2 characteristic polynomial
        tr, det = np.trace(A_cl), np.linalg.det(A_cl)
        roots = np.roots([1.0, -tr, det])
        assert rho == pytest.approx(np.max(np.abs(roots)), abs=1e-8)
        assert rho < 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        c=st.floats(-10.0, 10.0),
        seed=st.integers(0, 10_000),
    )
    def test_scaling(self, c, seed):
        A = np.random.default_rng(seed).standard_normal((4, 4))
        assert spectral_radius(c * A) == pytest.approx(abs(c) * spectral_radius(A), abs=1e-8)


class TestLqr:
    def test_scalar_hand_solution(self):
        # a=1, b=1, q=1, r=1: p = 1 + p - p^2/(1+p) => p = golden ratio
        sys = LtiSystem(np.eye(1), np.eye(1))
        sol = lqr(sys, np.eye(1), np.eye(1))
        p = (1.0 + np.sqrt(5.0)) / 2.0
        assert sol.P[0, 0] == pytest.approx(p, abs=1e-8)
        assert sol.K[0, 0] == pytest.approx(p / (1.0 + p), abs=1e-8)

    def test_case_study_gain(self, case_system):
        sol = lqr(case_system, CASE_Q, CASE_R)
        np.testing.assert_allclose(sol.K, CASE_K, atol=1e-3)

    def test_fixed_point_residual(self, case_system):
        # the returned P satisfies its own Riccati equation
        A, B = case_system.A, case_system.B
        sol = lqr(case_system, CASE_Q, CASE_R)
        P = sol.P
        K = np.linalg.solve(CASE_R + B.T @ P @ B, B.T @ P @ A)
        resid = CASE_Q + A.T @ P @ A - A.T @ P @ B @ K - P
        assert np.max(np.abs(resid)) <= 1e-8
        np.testing.assert_allclose(sol.K, K, atol=1e-10)

    def test_closed_loop_stable_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 2))
            sol = lqr(LtiSystem(A, B), np.eye(3), np.eye(2))
            assert spectral_radius(A - B @ sol.K) < 1.0

    def test_invalid_weights(self, case_system):
        with pytest.raises(ValueError):
            lqr(case_system, -np.eye(2), CASE_R)
        with pytest.raises(ValueError):
            lqr(case_system, CASE_Q, np.zeros((1, 1)))

    def test_unstabilizable(self):
        # uncontrollable unstable mode
        sys = LtiSystem(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]))
        with pytest.raises(NoConvergence):
            lqr(sys, np.eye(2), np.eye(1))


class TestAdmissibleSets:
    def test_input_admissible_halfspaces(self, case_U):
        region = input_admissible_states(CASE_K, case_U)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-6, 6, size=(500, 2))
        inside = np.array([region.contains_point(p) for p in pts])
        expected = np.abs(pts @ CASE_K.T).ravel() <= 1.0 + 1e-9
        assert np.array_equal(inside, expected)

    def test_case_study_lqr_region(self, case_system, case_X, case_U):
        sol = lqr(case_system, CASE_Q, CASE_R)
        region = lqr_admissible_set(case_system, sol.K, case_X, case_U)
        published = Polytope(CASE_F_LQR, CASE_g_LQR)
        # mutual containment up to the print precision of the reference rows
        for P, Q_ in ((region, published), (published, region)):
            for row in Q_.F / np.linalg.norm(Q_.F, axis=1)[:, None]:
                gap = support(P, row) - support(Q_, row)
                assert abs(gap) <= 1e-3

    def test_region_is_invariant_and_admissible(self, case_system, case_X, case_U):
        sol = lqr(case_system, CASE_Q, CASE_R)
        region = lqr_admissible_set(case_system, sol.K, case_X, case_U)
        rng = np.random.default_rng(2)
        lo, hi = bounding_box(region)
        pts = helpers.sample_polytope(rng, region.F, region.g, 500, lo, hi)
        A_cl = case_system.A - case_system.B @ sol.K
        for _ in range(30):
            assert np.all(np.abs(pts @ sol.K.T) <= 1.0 + 1e-7)
            assert np.all(np.abs(pts) <= 5.0 + 1e-7)
            pts = pts @ A_cl.T
            assert np.all(pts @ region.F.T <= region.g + 1e-7)

    def test_case_study_lp_budget(self, case_system, case_X, case_U, count_lps):
        # one fixpoint that adds only the cutting rows, re-tests only the rows
        # that cut and prunes once, with no LP for a row that a ray from the
        # origin proves to be a facet; X and U are boxes about the origin, so
        # the set's own slabs settle every row that no point or ray decides
        # (one LP per mirror pair of rows takes 5, one LP per row 10)
        sol = lqr(case_system, CASE_Q, CASE_R)
        lqr_admissible_set(case_system, sol.K, case_X, case_U)
        assert count_lps() == 0

    def test_one_load_per_fixpoint(self, lp_path, count_loads):
        # the emptiness check, every fixpoint step and the final pruning share one loaded LP
        rng = np.random.default_rng(31)
        A = rng.standard_normal((4, 4))
        A /= np.max(np.abs(np.linalg.eigvals(A)))
        sys = LtiSystem(A, rng.standard_normal((4, 1)))
        K = lqr(sys, np.eye(4), np.eye(1)).K
        X = Polytope.box(-5.0 * np.ones(4), 5.0 * np.ones(4))
        R_K = lqr_admissible_set(sys, K, X, Polytope.box([-1.0], [1.0]))
        assert count_loads() == 1
        # X and U have 10 rows between them: the fixpoint appended cuts
        assert R_K.nrows == 16 and R_K.contains_point(np.zeros(4))


class TestSimulate:
    def test_shapes_and_dynamics(self, case_system):
        net = synth_satlqr(CASE_K, [-1.0], [1.0])
        traj = simulate(case_system, net, [1.0, -0.5], 10)
        assert traj.states.shape == (11, 2)
        assert traj.inputs.shape == (10, 1)
        for t in range(10):
            np.testing.assert_allclose(
                traj.states[t + 1],
                case_system.A @ traj.states[t] + case_system.B @ traj.inputs[t],
                atol=1e-12,
            )
            np.testing.assert_allclose(traj.inputs[t], net.eval(traj.states[t]), atol=1e-12)

    def test_converges_under_stabilizing_feedback(self, case_system):
        net = synth_satlqr(CASE_K, [-1.0], [1.0])
        traj = simulate(case_system, net, [0.5, 0.5], 100)
        assert np.max(np.abs(traj.states[-1])) <= 1e-6


class TestSystemJson:
    def _data(self):
        return {
            "A": [[1.0, 0.1], [0.0, 1.0]],
            "B": [[0.0], [0.1]],
            "X": Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json(),
            "U_box": {"lb": [-1.0], "ub": [1.0]},
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[0.5]],
        }

    def test_round_trip(self):
        sys, aux = system_from_json(self._data())
        assert sys.n_x == 2 and sys.n_u == 1
        assert aux["U_box"] is not None
        assert contains_set(aux["U"], Polytope.box([-1.0], [1.0]))
        np.testing.assert_allclose(aux["R"], [[0.5]])

    def test_polytope_input_set(self):
        data = self._data()
        del data["U_box"]
        data["U"] = Polytope.box([-2.0], [2.0]).to_json()
        _, aux = system_from_json(data)
        assert aux["U_box"] is None
        assert support(aux["U"], [1.0]) == pytest.approx(2.0)

    def test_missing_input_set(self):
        data = self._data()
        del data["U_box"]
        with pytest.raises(ValueError):
            system_from_json(data)

    def test_json_serializable(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(self._data()))
        sys, aux = system_from_json(json.loads(path.read_text()))
        assert sys.n_x == 2 and aux["Q"] is not None
