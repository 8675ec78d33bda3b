from dataclasses import replace

import numpy as np
import pytest

import helpers
from conftest import CASE_K, CASE_Q, CASE_R
from certnn import milp
from certnn.control import LtiSystem, lqr, simulate
from certnn.errors import DimensionMismatch
from certnn.network import ReluNetwork, retrofit_lqr, saturate, synth_satlqr
from certnn.polytope import Polytope, bounding_box, contains_set
from certnn.regions import enumerate_regions
from certnn.verify import (
    CONTAIN_TOL,
    Certificate,
    EmptyStabilitySet,
    Rollout,
    StabilityReport,
    Verdict,
    check_stability_conditions,
    equilibrium_gain_bias,
    stability_set,
    verify_stability,
)

# the purposes of the LPs of a case-study verify (see certnn.lp.WORK)
PURPOSES = ("box", "bound", "node", "cut test", "prune test")


@pytest.fixture
def case_net():
    return synth_satlqr(CASE_K, [-1.0], [1.0])


@pytest.mark.parametrize("wrong", ["X", "U", "X_in of the regions"])
def test_a_set_of_the_wrong_dimension_raises(wrong, case_system, case_Xin, case_X, case_U, case_net):
    # each set is checked against the plant or the network up front: a
    # 3-state X, even with a U that fails the input check, a 2-input U, and
    # a 3-state X_in for the region enumeration
    cube = Polytope.box(-np.ones(3), np.ones(3))
    calls = {
        "X": lambda: verify_stability(
            case_system, case_net, case_Xin, cube, Polytope.box([-0.01], [0.01]), k_max=1
        ),
        "U": lambda: verify_stability(
            case_system, case_net, case_Xin, case_X, Polytope.box(-np.ones(2), np.ones(2)), k_max=1
        ),
        "X_in of the regions": lambda: enumerate_regions(case_net, cube),
    }
    with pytest.raises(DimensionMismatch):
        calls[wrong]()


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
        # the input check and the one-step check share one encoding; only x0
        # has a network copy encoded, so only X_in is boxed (4 LPs) and the
        # saturation neuron of layer 2 bounded (2 LPs; layer 3's, -z + 2, has
        # one column and needs none); a rollout refutes k = 1 with no search,
        # and the other 12 LPs outside the branch and bound are R_eq and R_as,
        # whose fixpoint starts from 6 rows once its parallel rows merge
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=1)
        assert cert.invariance_ok and cert.stability.k_star is None
        assert cert.stability.reach_nodes == [0]
        assert count_lps() == cert.milp_nodes + 18
        assert {p: count_lps(p) for p in PURPOSES} == {
            "box": 4, "bound": 2, "node": cert.milp_nodes, "cut test": 6, "prune test": 6
        }
        assert cert.milp_nodes == 32

    def test_violated_produces_witness(self, case_system, case_X, case_U, case_net):
        # an expanding box cannot be invariant for this rotation-like plant
        small = Polytope.box([-0.02, -0.02], [0.02, 0.02])
        cert = verify_stability(case_system, case_net, small, case_X, case_U, k_max=1)
        assert cert.input_ok and not cert.invariance_ok
        assert len(cert.witnesses) >= 1
        for w in cert.witnesses:
            assert np.all(small.F @ w <= small.g + 1e-6)
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
        # one closed-loop encoding per call on one growing load, whose step 0
        # is the input check, only X_in boxed (4 LPs; every later state's box
        # is the interval of its expression), R_eq pruned on one load, R_as from a
        # single invariant-set fixpoint on one load, from the 6 rows left once
        # the parallel rows of R_eq /\ X /\ U merge, that re-tests only the
        # rows that cut, rows that rays from the origin prove to be facets
        # kept and rows that a point of the set proves to cut appended without
        # an LP, no emptiness LP for R_eq or R_eq /\ X, which hold the origin,
        # R_as checked non-empty without an LP, and the layer-2 saturation
        # neuron of each encoded network copy (x_0 .. x_4) bounded by 2 LPs,
        # while layer 3's, of one column, needs none: 26 LPs outside the
        # branch and bound, and 3 loads in all.
        # On ties a warm start can return another optimal vertex than a cold
        # solve, so the node count depends on which basis each root LP starts
        # from; the warm-started models count 70. Rollouts from the input and
        # one-step maximizers refute k = 1..4 with no search, and the reach
        # search, with X_1_out's rows at x_1 .. x_4, spends 38 at k = 5.
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        cert = verify_stability(case_system, case_net, X_in, case_X, case_U, k_max=10)
        assert cert.stability.k_star == 5
        assert cert.milp_nodes == 70
        assert cert.stability.reach_nodes == [0, 0, 0, 0, 38]
        assert [r.k for r in cert.stability.rollouts] == [1, 2, 3, 4]
        assert count_lps() == cert.milp_nodes + 26
        assert {p: count_lps(p) for p in PURPOSES} == {
            "box": 4, "bound": 10, "node": cert.milp_nodes, "cut test": 6, "prune test": 6
        }
        assert count_loads() == 3

    def test_case_study_relaxation_size(self, case_system, case_Xin, case_net):
        # at k* = 5 the copies at x_0 .. x_4 each have layer 1 active and one
        # unstable saturation neuron in each of layers 2 and 3: 10 binaries,
        # 23 columns (x0, the unit column, z and t of each) and 40 rows (the
        # 10 of X_in, then 3 per unstable neuron), none of them equalities
        X_in = Polytope(case_Xin.F, 0.999 * case_Xin.g)
        m = milp.ClosedLoopEncoding(case_system, case_net, X_in).model(5, [1.0, 0.0])
        assert (m.c.size, m.A_ub.shape[0], m.binaries.size, m.A_eq.shape[0]) == (23, 40, 10, 0)

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


def _decision_search(sys, net, X_in, R_as, k_max):
    """verify_stability's reach search without its rollouts, on a fresh encoding.

    Returns (k*, the proven bounds at k* along R_as's facets), or (None, None)
    when no k <= k_max passes.
    """
    encoding = milp.ClosedLoopEncoding(sys, net, X_in)
    for k in range(1, k_max + 1):
        results = milp.reach_results(
            sys, net, X_in, k, R_as.F, encoding=encoding, cutoffs=R_as.g + CONTAIN_TOL
        )
        if len(results) == R_as.nrows and all(
            r.bound <= g + CONTAIN_TOL for r, g in zip(results, R_as.g)
        ):
            return k, Polytope(R_as.F, np.array([r.bound for r in results]))
    return None, None


class TestImitationLadder:
    """Verify on controllers fitted to the saturated LQR (``helpers.imitation_loop``)."""

    @pytest.mark.parametrize(
        "widths, seed, verdict, k_star, budget, cap",
        [
            ([8], 0, Verdict.LQR_OPTIMAL_NEAR_EQ, 3, 200, 2_000),
            ([8], 2, Verdict.LQR_OPTIMAL_NEAR_EQ, 3, 250, 2_000),
            ([16], 2, Verdict.INPUT_ONLY, None, 400, 2_000),
            ([16], 0, Verdict.LQR_OPTIMAL_NEAR_EQ, 5, 4_000, 20_000),
        ],
        ids=["w8-seed0", "w8-seed2", "w16-seed2", "w16-seed0"],
    )
    def test_verdict_within_node_budget(
        self, monkeypatch, widths, seed, verdict, k_star, budget, cap
    ):
        # every unstable neuron of every copy has LP bounds over the
        # relaxation built so far, which keeps the big-M constants, and with
        # them the searches, small: 110, 105 and 216 nodes.  Looser bounds
        # take these searches to hundreds or tens of thousands of nodes, so
        # a low cap ends them in seconds.  w16-seed2 is not invariant, so it
        # ends before the reach search, with no k*.  w16-seed0 spends 591
        # nodes with X_1_out's rows at every earlier state of its reach
        # search, 2,661 with X_in's rows and 16,087 without rows
        monkeypatch.setattr(milp, "MAX_NODES", cap)
        cert = verify_stability(**helpers.imitation_loop(widths, seed), k_max=10)
        assert (cert.verdict, cert.stability.k_star) == (verdict, k_star)
        assert cert.milp_nodes <= budget


# imitation loops whose invariance holds; one small hidden layer keeps the
# pattern-enumeration oracle cheap up to k = 3
INVARIANT_LOOPS = {
    "w2-seed5": ([2], 5), "w3-seed2": ([3], 2), "w8-seed0": ([8], 0), "w8-seed2": ([8], 2)
}


class TestStateRows:
    """Rows at the earlier states of the reach search (``add_state_rows``)."""

    @pytest.mark.parametrize(
        "name, offsets",
        [("w2-seed5", "X_in"), ("w3-seed2", "X_1_out"), ("w2-seed5", "cut")],
    )
    def test_maxima_match_the_oracle(self, name, offsets):
        # an encoding that carries rows at x_1 .. x_{k-1} gives the oracle's
        # maxima under the same rows.  On an invariant loop X_in's own rows
        # hold at every state, and so do those of X_1_out, X_in's rows at
        # the one-step maxima, which verify passes: either leaves the maxima
        # as they are.  At 0.6 of X_in's offsets the rows cut from k = 2 on
        loop = helpers.imitation_loop(*INVARIANT_LOOPS[name])
        sys, net, X_in = loop["sys"], loop["net"], loop["X_in"]
        g = 0.6 * X_in.g if offsets == "cut" else X_in.g
        if offsets == "X_1_out":
            g = helpers.reach_oracle(sys.A, sys.B, net, X_in.F, X_in.g, 1, X_in.F)
        rows = (X_in.F, g)
        encoding = milp.ClosedLoopEncoding(sys, net, X_in)
        encoding.add_state_rows(*rows)
        bare = milp.ClosedLoopEncoding(sys, net, X_in)

        def maxima(enc, k):
            results = milp.reach_results(sys, net, X_in, k, X_in.F, encoding=enc)
            return np.array([r.value for r in results])

        for k in (1, 2, 3):
            want = helpers.reach_oracle(sys.A, sys.B, net, X_in.F, X_in.g, k, X_in.F, rows)
            got, free = maxima(encoding, k), maxima(bare, k)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
            if offsets != "cut" or k == 1:
                np.testing.assert_allclose(got, free, rtol=0.0, atol=1e-6)
            else:
                assert np.all(got <= free + 1e-6) and np.any(got < free - 1e-3)

    @pytest.mark.parametrize("name", INVARIANT_LOOPS)
    def test_rows_change_no_answer(self, monkeypatch, name):
        # verify adds its rows once the input and one-step checks hold, so
        # U_star and X_1_out are bit-identical without them, and the verdict
        # and k* are the same.  The rows hold at every later state, so on an
        # encoding that carries them the maxima at k = 2 and 3 along the
        # facets of X_in and R_as are those of a fresh encoding
        loop = helpers.imitation_loop(*INVARIANT_LOOPS[name])
        add, passed = milp.ClosedLoopEncoding.add_state_rows, []
        monkeypatch.setattr(
            milp.ClosedLoopEncoding, "add_state_rows", lambda self, F, g: passed.append((F, g))
        )
        bare = verify_stability(**loop, k_max=10)
        monkeypatch.setattr(milp.ClosedLoopEncoding, "add_state_rows", add)
        cert = verify_stability(**loop, k_max=10)
        assert cert.invariance_ok and cert.certified
        for P, Q in ((cert.U_star, bare.U_star), (cert.X_1_out, bare.X_1_out)):
            assert np.array_equal(P.F, Q.F) and np.array_equal(P.g, Q.g)
        assert (cert.verdict, cert.stability.k_star) == (bare.verdict, bare.stability.k_star)
        (rows,) = passed
        sys, net, X_in = loop["sys"], loop["net"], loop["X_in"]
        D = np.vstack([X_in.F, cert.stability.R_as.F])
        encoding, fresh = (milp.ClosedLoopEncoding(sys, net, X_in) for _ in range(2))
        encoding.add_state_rows(*rows)
        for k in (2, 3):
            got, want = (
                [r.value for r in milp.reach_results(sys, net, X_in, k, D, encoding=e)]
                for e in (encoding, fresh)
            )
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)


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
        report = cert.stability
        R_as = report.R_as
        k_star, maxima = _exact_reach_search(case_system, case_net, X_in, R_as, 10)
        assert cert.verdict == verdict and k_star is not None
        if cert.invariance_ok:
            k, X_k_out = report.k_star, report.X_k_out
            assert len(report.reach_nodes) == k_star
        else:
            # verify stops before its reach search, so the decision search runs here
            assert (report.k_star, report.X_k_out, report.reach_nodes) == (None, None, [])
            k, X_k_out = _decision_search(case_system, case_net, X_in, R_as, 10)
        assert k == k_star
        # X_k_out holds proven bounds: inside R_as, and above the maxima
        np.testing.assert_array_equal(X_k_out.F, R_as.F)
        assert np.all(X_k_out.g <= R_as.g + CONTAIN_TOL)
        assert np.all(X_k_out.g >= maxima - 1e-9)

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


def _small_loop(rng):
    """A random 2-state plant under a random net of 4 or 5 neurons, from a box X_in.

    The net's first layer is random and active at the origin, its output
    layer retrofitted to the plant's LQR gain and then saturated to U.
    """
    A = rng.standard_normal((2, 2))
    A *= rng.uniform(0.9, 1.2) / np.max(np.abs(np.linalg.eigvals(A)))
    sys = LtiSystem(A, rng.standard_normal((2, 1)))
    w = int(rng.integers(2, 4))
    layers = [
        (rng.standard_normal((w, 2)), rng.uniform(0.2, 1.0, w)),
        (rng.standard_normal((1, w)), rng.standard_normal(1)),
    ]
    net, _ = retrofit_lqr(ReluNetwork(layers), lqr(sys, np.eye(2), np.eye(1)).K)
    s = rng.uniform(0.2, 1.5)
    return sys, saturate(net, [-1.0], [1.0]), Polytope.box([-s, -s], [s, s])


def test_rollouts_refute_only_what_the_search_refutes(case_X, case_U):
    # differential: on an invariant loop, verify's k* is the first k at which
    # the decision search on a fresh encoding proves every facet of R_as, so
    # each k a rollout refutes is one the search refutes too; each rollout
    # replays.  A loop whose invariance fails gets neither rollouts nor a
    # search.  Few draws keep invariance, hence the 200 draws
    rng = np.random.default_rng(2)
    k_max, searched, by_rollout, seeded = 4, 0, 0, 0
    for _ in range(200):
        sys, net, X_in = _small_loop(rng)
        cert = verify_stability(sys, net, X_in, case_X, case_U, k_max=k_max)
        report = cert.stability
        if report is None or report.R_as is None:
            continue
        if not cert.invariance_ok:
            assert (report.k_star, report.reach_nodes, report.rollouts) == (None, [], [])
            continue
        R_as = report.R_as
        assert report.k_star == _decision_search(sys, net, X_in, R_as, k_max)[0]
        searched += 1
        for r in report.rollouts:
            assert X_in.contains_point(r.x0) and report.reach_nodes[r.k - 1] == 0
            x = simulate(sys, net, r.x0, r.k).states[-1]
            assert float(R_as.F[r.facet] @ x) == pytest.approx(r.value, abs=1e-12)
            assert r.value > R_as.g[r.facet] + CONTAIN_TOL
            by_rollout += 1
            seeded += any(report.reach_nodes[: r.k - 1])  # after a search refuted an earlier k
    # the invariant loops reach the reach search, and rollouts refute
    # horizons, also after a search has refuted an earlier one
    assert searched >= 20 and by_rollout >= 20 and seeded >= 1


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
            bias_residual=0.0,
            spectral_radius=0.5,
            R_as=box,
            k_star=2,
            reach_nodes=[0, 2],
            rollouts=[Rollout(k=1, facet=0, x0=np.array([1.5]), value=2.5)],
        ),
        witnesses=[np.array([0.5]), np.array([-0.25])],
        milp_nodes=7,
    )
    box_json = '{"F": [[1.0], [-1.0]], "g": [2.0, 1.0]}'
    assert json.dumps(cert.to_json()) == (
        '{"verdict": "InputOnly", "reason": "one-step invariance of X_in failed", '
        f'"input_ok": true, "invariance_ok": false, "U_star": {box_json}, "X_1_out": {box_json}, '
        '"stability": {"bias_residual": 0.0, "spectral_radius": 0.5, "lqr_match_residual": null, '
        f'"R_eq": null, "R_as": {box_json}, "k_star": 2, "X_k_out": null, "reach_nodes": [0, 2], '
        '"rollouts": [{"k": 1, "facet": 0, "x0": [1.5], "value": 2.5}]}, '
        '"witnesses": [[0.5], [-0.25]], "milp_nodes": 7}'
    )
    assert json.dumps(Certificate(verdict=Verdict.FAILED).to_json()) == (
        '{"verdict": "Failed", "reason": null, "input_ok": false, "invariance_ok": false, '
        '"U_star": null, "X_1_out": null, "stability": null, "witnesses": [], "milp_nodes": 0}'
    )
