from dataclasses import replace

import numpy as np
import pytest

import helpers
from conftest import CASE_K, CASE_Q, CASE_R
from certnn import milp
from certnn.control import lqr
from certnn.network import ReluNetwork, synth_satlqr
from certnn.polytope import Polytope, bounding_box, contains_set
from certnn.verify import (
    CONTAIN_TOL,
    Certificate,
    EmptyStabilitySet,
    StabilityReport,
    Verdict,
    check_stability_conditions,
    equilibrium_gain_bias,
    stability_set,
    verify_stability,
)


@pytest.fixture
def case_net():
    return synth_satlqr(CASE_K, [-1.0], [1.0])


class TestVerifyInput:
    """The input check of verify_stability: U_star and input_ok."""

    def test_satisfied(self, case_system, case_Xin, case_X, case_U, case_net):
        cert = verify_stability(case_system, case_net, case_Xin, case_X, case_U, k_max=1)
        assert cert.input_ok
        assert contains_set(case_U, cert.U_star)

    def test_violated_with_tight_bounds(self, case_system, case_Xin, case_X):
        # same controller but checked against a tighter input set than the
        # saturation bounds: must fail
        net = synth_satlqr(CASE_K, [-1.0], [1.0])
        tight = Polytope.box([-0.5], [0.5])
        cert = verify_stability(case_system, net, case_Xin, case_X, tight, k_max=1)
        assert not cert.input_ok
        assert np.max(cert.U_star.g) > 0.5

    def test_u_star_matches_sampling(self, case_system, case_Xin, case_X, case_U, case_net):
        cert = verify_stability(case_system, case_net, case_Xin, case_X, case_U, k_max=1)
        rng = np.random.default_rng(0)
        lo, hi = bounding_box(case_Xin)
        pts = helpers.sample_polytope(rng, case_Xin.F, case_Xin.g, 2000, lo, hi)
        U_vals = helpers.batch_eval(case_net, pts)
        assert np.all(U_vals @ case_U.F.T <= cert.U_star.g + 1e-7)

    def test_decided_on_proven_bound(self, monkeypatch, case_system, case_Xin, case_X, case_net):
        # an incumbent stopped short of the maximum must not pass a U whose
        # offset lies between the incumbent and the proven bound
        solve = milp.output_range_results

        def short_incumbents(net, X_in, directions, encoding=None):
            results = solve(net, X_in, directions, encoding=encoding)
            return [replace(r, value=r.value - 0.2) for r in results]

        monkeypatch.setattr(milp, "output_range_results", short_incumbents)
        U = Polytope.box([-0.9], [0.9])  # the saturated net reaches |u| = 1
        cert = verify_stability(case_system, case_net, case_Xin, case_X, U, k_max=1)
        assert not cert.input_ok
        np.testing.assert_allclose(cert.U_star.g, [1.0, 1.0], atol=1e-7)


class TestVerifyInvariance:
    """The one-step check of verify_stability: invariance_ok, X_1_out and witnesses."""

    def test_case_study_invariant(self, case_system, case_Xin, case_X, case_U, case_net):
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=1)
        assert cert.invariance_ok
        assert cert.witnesses == []
        assert contains_set(X_in, cert.X_1_out, tol=1e-7)

    def test_case_study_lp_budget(
        self, case_system, case_Xin, case_X, case_U, case_net, count_lps
    ):
        # the input check, the one-step check and the reach search at k = 1
        # share one encoding, so X_in and x_1 are boxed once each (8 LPs) and
        # the saturation neuron of layer 2 is bounded by 2 LPs at each; the
        # other 26 LPs outside the branch and bound are R_eq and R_as
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=1)
        assert cert.invariance_ok and cert.stability.k_star is None
        assert count_lps() == cert.milp_nodes + 38

    def test_violated_produces_witness(self, case_system, case_X, case_U, case_net):
        # an expanding box cannot be invariant for this rotation-like plant
        small = Polytope.box([-0.02, -0.02], [0.02, 0.02])
        cert = verify_stability(case_system, case_net, small, case_X, case_U, k_max=1)
        assert cert.input_ok and not cert.invariance_ok
        assert len(cert.witnesses) >= 1
        for w in cert.witnesses:
            assert small.contains_point(w, tol=1e-6)
            x1 = case_system.A @ w + case_system.B @ case_net.eval(w)
            assert np.max(small.F @ x1 - small.g) > -1e-6


class TestStabilityConditions:
    def test_equilibrium_gain_matches_jacobian(self, case_net):
        gain, bias = equilibrium_gain_bias(case_net)
        np.testing.assert_allclose(gain, -CASE_K, atol=1e-12)
        np.testing.assert_allclose(bias, 0.0, atol=1e-12)
        # finite differences at the origin agree
        eps = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (case_net.eval(e) - case_net.eval(-e)) / (2 * eps)
            np.testing.assert_allclose(fd, gain[:, i], atol=1e-6)

    def test_residuals(self, case_system, case_net):
        bias, rho, match = check_stability_conditions(case_system, case_net, CASE_K)
        assert bias <= 1e-12
        assert rho == pytest.approx(0.4329, abs=1e-3)
        assert match <= 1e-12

    def test_biased_controller_flagged(self, case_system):
        net = ReluNetwork(
            [
                (np.vstack([np.eye(2), -np.eye(2)]), 10.0 * np.ones(4)),
                (0.1 * np.ones((1, 4)), np.array([0.5])),
            ]
        )
        bias, _, _ = check_stability_conditions(case_system, net)
        assert bias > 1e-3


def _stability_set(sys, net, X, U):
    gain, _ = equilibrium_gain_bias(net)
    _, R_eq = net.equilibrium_region()
    return stability_set(sys, gain, R_eq, X, U)


class TestStabilitySet:
    def test_case_study_properties(self, case_system, case_X, case_U, case_net):
        R_as = _stability_set(case_system, case_net, case_X, case_U)
        assert R_as.contains_point([0.0, 0.0])
        gain, _ = equilibrium_gain_bias(case_net)
        A_cl = case_system.A + case_system.B @ gain
        rng = np.random.default_rng(1)
        lo, hi = bounding_box(R_as)
        pts = helpers.sample_polytope(rng, R_as.F, R_as.g, 500, lo, hi)
        for _ in range(50):
            pts = pts @ A_cl.T
            assert np.all(pts @ R_as.F.T <= R_as.g + 1e-7)
        # eventually everything collapses to the origin
        assert np.max(np.abs(pts)) <= 1e-6

    def test_contained_in_lqr_region(self, case_system, case_X, case_U, case_net):
        from certnn.control import lqr_admissible_set

        R_as = _stability_set(case_system, case_net, case_X, case_U)
        R_lqr = lqr_admissible_set(case_system, CASE_K, case_X, case_U)
        assert contains_set(R_lqr, R_as, tol=1e-6)

    def test_empty_when_feedback_inadmissible(self, case_system, case_X, case_net):
        # an input set that excludes u = 0 leaves the equilibrium feedback
        # with no state it can run at forever
        off_U = Polytope.box([0.5], [1.0])
        with pytest.raises(EmptyStabilitySet):
            _stability_set(case_system, case_net, case_X, off_U)


class TestVerifyStability:
    def test_case_study_full_pipeline(self, case_system, case_Xin, case_X, case_U, case_net):
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(
            case_system, case_net, X_in, case_X, case_U, k_max=10, K_ref=CASE_K
        )
        assert cert.verdict == Verdict.LQR_OPTIMAL_NEAR_EQ
        assert cert.certified
        assert cert.input_ok and cert.invariance_ok
        assert cert.stability.k_star is not None and cert.stability.k_star <= 10
        assert contains_set(
            cert.stability.R_as, cert.stability.X_k_out, tol=1e-6
        )

    def test_case_study_lp_budget(
        self, case_system, case_Xin, case_X, case_U, case_net, count_lps, count_loads
    ):
        # one closed-loop encoding per call, whose step 0 is the input check,
        # each state block boxed once, R_eq pruned on one load, R_as from a
        # single invariant-set fixpoint on one load that re-tests only the
        # rows that cut, rows that rays from the origin prove to be facets
        # kept and rows that a point of the set proves to cut appended without
        # an LP, no emptiness LP for R_eq or R_eq /\ X, which hold the origin,
        # R_as checked non-empty without an LP, and the layer-2 saturation
        # neuron of each network copy bounded by 2 LPs (x_0 .. x_5): 62 LPs
        # outside the branch and bound, and 9 loads in all.
        # On ties a warm start can return another optimal vertex than a cold
        # solve, so the node count depends on which basis each root LP starts
        # from; the warm-started models count 120, of which the reach search
        # spends 3 / 5 / 9 / 17 / 54 at k = 1..5.
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=10)
        assert cert.stability.k_star == 5
        assert cert.milp_nodes == 120
        assert cert.stability.reach_nodes == [3, 5, 9, 17, 54]
        assert count_lps() == cert.milp_nodes + 62
        assert count_loads() == 9

    def test_without_reference_gain(self, case_system, case_Xin, case_X, case_U, case_net):
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=10)
        assert cert.verdict == Verdict.ASYMPTOTICALLY_STABLE
        assert cert.stability.lqr_match_residual is None

    def test_invariant_only_when_bias_present(self, case_system, case_X, case_U):
        # add a small constant offset to the output: invariance of a generous
        # set may survive but the stability conditions must fail
        # clamp at +-0.9 so the biased output still satisfies U = [-1, 1]
        base = synth_satlqr(CASE_K, [-0.9], [0.9])
        W, b = base.layers[-1]
        biased = ReluNetwork(base.layers[:-1] + [(W, b + 0.01)])
        X_in = Polytope.box([-2.0, -2.0], [2.0, 2.0])
        cert = verify_stability(case_system, biased, X_in, case_X, case_U, k_max=3)
        assert cert.verdict in (Verdict.INVARIANT, Verdict.INPUT_ONLY, Verdict.FAILED)
        assert not cert.certified
        assert cert.reason == "bias annihilation"

    def test_input_violation_short_circuits(self, case_system, case_Xin, case_X, case_net):
        tight_U = Polytope.box([-0.1], [0.1])
        cert = verify_stability(case_system, case_net, case_Xin, case_X, tight_U, k_max=2)
        assert cert.verdict == Verdict.FAILED
        assert cert.reason == "input constraint violation"
        assert not cert.input_ok

    def test_certificate_json_round_trip(self, case_system, case_Xin, case_X, case_U, case_net):
        import json

        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(
            case_system, case_net, X_in, case_X, case_U, k_max=10, K_ref=CASE_K
        )
        blob = json.dumps(cert.to_json())
        data = json.loads(blob)
        assert data["verdict"] == Verdict.LQR_OPTIMAL_NEAR_EQ
        assert data["stability"]["k_star"] == cert.stability.k_star
        R_as = Polytope.from_json(data["stability"]["R_as"])
        assert contains_set(R_as, cert.stability.R_as) and contains_set(
            cert.stability.R_as, R_as
        )


def _exact_reach_search(sys, net, X_in, R_as, k_max):
    """The reach search that solves every facet of R_as to optimality at every k.

    Facets in R_as's order, containment decided on the proven bounds.
    Returns (k*, the maxima at k*), or (None, None) when no k <= k_max passes.
    """
    encoding = milp.ClosedLoopEncoding(sys, net, X_in)
    for k in range(1, k_max + 1):
        results = milp.reach_results(sys, net, X_in, k, R_as.F, encoding=encoding)
        if all(r.bound <= g + CONTAIN_TOL for r, g in zip(results, R_as.g)):
            return k, np.array([r.value for r in results])
    return None, None


class TestDecisionSearch:
    """The reach search decides each facet at its offset; its answers are the
    exact search's."""

    CASES = {
        "case_study": (lambda F, g: Polytope(F, 0.999 * g), Verdict.LQR_OPTIMAL_NEAR_EQ),
        "box_0.02": (lambda F, g: Polytope.box([-0.02, -0.02], [0.02, 0.02]), Verdict.INPUT_ONLY),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_same_answers_as_exact_search(
        self, name, case_system, case_Xin, case_X, case_U, case_net
    ):
        make_X_in, verdict = self.CASES[name]
        X_in = make_X_in(case_Xin.F, case_Xin.g)
        cert = verify_stability(
            case_system, case_net, X_in, case_X, case_U, k_max=10, K_ref=CASE_K
        )
        R_as = cert.stability.R_as
        k_star, maxima = _exact_reach_search(case_system, case_net, X_in, R_as, 10)
        assert cert.verdict == verdict
        assert cert.stability.k_star == k_star
        assert len(cert.stability.reach_nodes) == k_star
        # X_k_out holds proven bounds: inside R_as, and above the maxima
        np.testing.assert_array_equal(cert.stability.X_k_out.F, R_as.F)
        assert np.all(cert.stability.X_k_out.g <= R_as.g + CONTAIN_TOL)
        assert np.all(cert.stability.X_k_out.g >= maxima - 1e-9)

    def test_reach_nodes_add_up(
        self, monkeypatch, case_system, case_Xin, case_X, case_U, case_net
    ):
        # the exact searches are the input and one-step checks, the searches
        # with a cutoff the reach search
        solve = milp.solve_milp
        exact, decided = [], []

        def recording(m, cutoff=None):
            res = solve(m, cutoff)
            (exact if cutoff is None else decided).append(res.nodes)
            return res

        monkeypatch.setattr(milp, "solve_milp", recording)
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=10)
        reach_nodes = cert.stability.reach_nodes
        assert len(reach_nodes) == cert.stability.k_star
        assert sum(reach_nodes) == sum(decided)
        assert cert.milp_nodes == sum(exact) + sum(reach_nodes)


def test_certificate_json_layout():
    # certificate.json is read by other tools: pin its keys, their order and
    # how sets and witnesses are written
    import json

    box = Polytope.box([-1.0], [2.0])
    cert = Certificate(
        verdict=Verdict.INPUT_ONLY,
        reason="one-step invariance of X_in failed",
        input_ok=True,
        U_star=box,
        X_1_out=box,
        stability=StabilityReport(
            bias_residual=0.0, spectral_radius=0.5, R_as=box, k_star=2, reach_nodes=[3, 2]
        ),
        witnesses=[np.array([0.5]), np.array([-0.25])],
        milp_nodes=7,
    )
    box_json = '{"F": [[1.0], [-1.0]], "g": [2.0, 1.0]}'
    assert json.dumps(cert.to_json()) == (
        '{"verdict": "InputOnly", "reason": "one-step invariance of X_in failed", '
        f'"input_ok": true, "invariance_ok": false, "U_star": {box_json}, "X_1_out": {box_json}, '
        '"stability": {"bias_residual": 0.0, "spectral_radius": 0.5, "lqr_match_residual": null, '
        f'"R_eq": null, "R_as": {box_json}, "k_star": 2, "X_k_out": null, "reach_nodes": [3, 2]}}, '
        '"witnesses": [[0.5], [-0.25]], "milp_nodes": 7}'
    )
    assert json.dumps(Certificate(verdict=Verdict.FAILED).to_json()) == (
        '{"verdict": "Failed", "reason": null, "input_ok": false, "invariance_ok": false, '
        '"U_star": null, "X_1_out": null, "stability": null, "witnesses": [], "milp_nodes": 0}'
    )
