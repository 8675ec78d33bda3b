import numpy as np
import pytest
from scipy.optimize import linprog

import helpers
from conftest import CASE_K, random_net
from certnn import lp, milp
from certnn.control import LtiSystem
from certnn.milp import (
    BnbStatus,
    ClosedLoopEncoding,
    MilpError,
    UnboundedInput,
    encode_output_range,
    encode_reach,
    output_range,
    output_range_results,
    reach_results,
    reach_set,
    solve_milp,
)
from certnn.errors import DimensionMismatch
from certnn.network import ReluNetwork, synth_satlqr
from certnn.polytope import EmptyInput, Polytope, support

UNIT_BOX = Polytope.box([-1.0, -1.0], [1.0, 1.0])

# a regular hexagon, not a box: its support along a non-axis direction is
# below the interval over its bounding box
HEXAGON = Polytope(
    np.array([[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3]), np.ones(6)
)

FAN8 = np.array(
    [
        [np.cos(t), np.sin(t)]
        for t in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    ]
)


class TestBounds:
    """The bounds the encoder records for each network copy, and the columns it gives them."""

    def test_single_layer_intervals(self):
        # pre-activations over the unit box: [-1.5, 2.5] and [-3, 1]
        net = ReluNetwork(
            [(np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([0.5, -1.0])),
             (np.eye(2), np.zeros(2))]
        )
        enc = ClosedLoopEncoding(None, net, UNIT_BOX)
        m = enc.output([1.0, 0.0])
        [(lo, hi)] = enc.bounds[0][1]
        np.testing.assert_allclose(lo, [-1.5, -3.0])
        np.testing.assert_allclose(hi, [2.5, 1.0])
        # the columns are x0, the unit column, then z and t of the two unstable neurons
        z, t = np.arange(3, 5), np.arange(5, 7)
        assert m.c.size == 7
        np.testing.assert_allclose(m.ub[z], [2.5, 1.0])  # M_pos
        np.testing.assert_array_equal(m.binaries, t)
        np.testing.assert_array_equal(m.ub[t], [1.0, 1.0])
        # z_j - a_j - M_neg t_j <= b_j is the second row of neuron j
        rows = UNIT_BOX.nrows + 3 * np.arange(2) + 1
        np.testing.assert_allclose(m.A_ub[rows, t], [-1.5, -3.0])  # -M_neg
        # the output u_0 = z_0 is the objective
        np.testing.assert_array_equal(m.c, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_stable_neurons_are_linear_rows(self):
        # pre-activations over the unit box: [4, 6] (active), [-6, -4]
        # (inactive) and [-2, 2] (unstable)
        net = ReluNetwork(
            [(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), np.array([5.0, -5.0, 0.0])),
             (np.ones((1, 3)), np.zeros(1))]
        )
        enc = ClosedLoopEncoding(None, net, UNIT_BOX)
        m = enc.output([1.0])
        [(lo, hi)] = enc.bounds[0][1]
        np.testing.assert_array_equal(lo, [4.0, -6.0, -2.0])
        np.testing.assert_array_equal(hi, [6.0, -4.0, 2.0])
        # only the unstable neuron gets columns, z in [0, M_pos] and t in
        # [0, 1] after x0 and the unit column, and rows: its three big-M rows
        assert m.c.size == 5 and m.A_eq.shape[0] == 0
        np.testing.assert_array_equal(m.binaries, [4])
        np.testing.assert_array_equal(m.lb[2:], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(m.ub[2:], [1.0, 2.0, 1.0])
        assert m.A_ub.shape[0] == UNIT_BOX.nrows + 3
        assert m.A_ub[UNIT_BOX.nrows + 1, 4] == -2.0  # -M_neg
        # the active neuron is its pre-activation x_0 + 5 in the objective, its
        # constant on the unit column; the inactive one is 0
        np.testing.assert_array_equal(m.c, [1.0, 0.0, 5.0, 1.0, 0.0])
        assert solve_milp(m).value == pytest.approx(8.0, abs=1e-7)

    @staticmethod
    def _bounded_cases(rng):
        """(plant, net) pairs: random two-layer nets on one plant, then
        saturated-LQR nets on random plants, whose saturation layers get LP
        bounds; every other one has an extra layer-1 neuron, inactive on the
        states reached, feeding layer 2."""
        sys = LtiSystem(np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]]))
        for _ in range(20):
            yield sys, random_net(rng, 2, [4, 3], 1)
        for i in range(10):
            A = rng.standard_normal((2, 2))
            A /= np.max(np.abs(np.linalg.eigvals(A)))
            K = rng.uniform(-1.5, 1.5, size=(1, 2))
            net = synth_satlqr(K, [-1.0], [1.0])
            if i % 2:
                (W1, b1), (W2, b2), *rest = net.layers
                net = ReluNetwork(
                    [(np.vstack([W1, [1.0, 1.0]]), np.append(b1, -30.0)),
                     (np.hstack([W2, np.ones((1, 1))]), b2), *rest]
                )
            yield LtiSystem(A, rng.standard_normal((2, 1))), net

    def test_bounds_are_sound(self):
        # rollouts from X_in stay inside the recorded box of each state x_k
        # and the recorded pre-activation bounds of each layer of the network
        # copy at x_k, for k = 0..3, and no layer's bounds are looser than
        # interval arithmetic from the bounds of the layer before; the box of
        # x0 comes from X_in's support LPs and is exact, the box of a later
        # state is the interval enclosure of its expression, and the
        # pre-activation bounds rest on that box and on the pre-activation
        # LPs, which bound every layer of every copy.  The model
        # of each step k = 0..3 has an objective over every column of its
        # relaxation, zero on the binaries
        rng = np.random.default_rng(0)
        tightened = 0
        for sys, net in self._bounded_cases(rng):
            enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
            for k in range(4):
                m = enc.model(k, [1.0, 0.0]) if k else enc.output(np.ones(net.n_u))
                assert m.c.size == m.A_ub.shape[1]  # read before the encoding grows
                np.testing.assert_array_equal(m.c[m.binaries], 0.0)
            enc.model(4, [1.0, 0.0])
            assert len(enc.bounds) == 4  # the copies at x0 .. x3; x4 is never boxed
            X = rng.uniform(-1.0, 1.0, size=(200, 2))
            for ((lo, hi), layers), tol in zip(enc.bounds, (1e-12, 1e-9, 1e-9, 1e-9)):
                assert np.isfinite(lo).all() and np.isfinite(hi).all()
                assert np.all((X >= lo - tol) & (X <= hi + tol))
                Z = X
                for (W, b), (pre_lo, pre_hi) in zip(net.layers[:-1], layers):
                    pre = Z @ W.T + b
                    assert np.all((pre >= pre_lo - tol) & (pre <= pre_hi + tol))
                    # a neuron fixed by the bounds matches every sampled sign
                    assert np.all(pre[:, pre_hi <= 0.0] <= tol)
                    assert np.all(pre[:, pre_lo >= 0.0] >= -tol)
                    # the interval from the layer before bounds this layer
                    lo, hi = milp._interval_affine(W, b, lo, hi)
                    assert np.all(pre_hi <= hi + 1e-9) and np.all(pre_lo >= lo - 1e-9)
                    tightened += np.count_nonzero(
                        np.maximum(pre_hi, 0.0) < np.maximum(hi, 0.0) - 1e-6
                    )
                    Z = np.maximum(pre, 0.0)
                    lo, hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
                out = Z @ net.layers[-1][0].T + net.layers[-1][1]
                X = X @ sys.A.T + out @ sys.B.T
        assert tightened > 0  # the LP bounds ran and cut

    def test_later_layer_one_bounds_are_relaxation_extrema(self, case_system, case_Xin):
        # at each x_k, each layer-1 neuron that the box of x_k leaves unstable
        # is bounded by its max and min over the step-k relaxation.  At x0
        # that relaxation is X_in alone, so the bounds are X_in's support
        # along +-W1, plus b1: exact, and tighter than the interval over x0's
        # box when X_in is not a box, as the hexagon is.  At x_k, k >= 1, the
        # box is an interval enclosure, and the extrema are solved here cold
        # by linprog on the model's rows and bounds read before the copy at
        # x_k is encoded.  The layer-1 rows are not axis-aligned, so the LP
        # is tighter than the interval over the box
        rng = np.random.default_rng(5)
        sys = LtiSystem(np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]]))
        tighter = np.zeros(4, dtype=int)  # per k
        for _ in range(3):
            net = random_net(rng, 2, [4, 3], 1)
            W1, b1 = net.layers[0]
            for X_in in (UNIT_BOX, HEXAGON):
                enc = ClosedLoopEncoding(sys, net, X_in)
                for k in range(4):
                    if k == 0:
                        extrema = np.column_stack([-support(X_in, -W1), support(X_in, W1)])
                    else:
                        # the objective of max w.x_k is the expression of w.x_k
                        models = [enc.model(k, w) for w in W1]
                        A_ub, b_ub = models[0].A_ub, models[0].b_ub
                        bounds = list(zip(models[0].lb, models[0].ub))
                        extrema = [
                            (linprog(m.c, A_ub=A_ub, b_ub=b_ub, bounds=bounds).fun,
                             -linprog(-m.c, A_ub=A_ub, b_ub=b_ub, bounds=bounds).fun)
                            for m in models
                        ]
                        enc.model(k + 1, [1.0, 0.0])
                    lp_lo, lp_hi = np.array(extrema).T + b1
                    (box_lo, box_hi), [(pre_lo, pre_hi), *_] = enc.bounds[k]
                    lo, hi = milp._interval_affine(W1, b1, box_lo, box_hi)
                    unstable = (lo < 0.0) & (hi > 0.0)
                    np.testing.assert_allclose(pre_lo[unstable], lp_lo[unstable], atol=1e-7)
                    np.testing.assert_allclose(pre_hi[unstable], lp_hi[unstable], atol=1e-7)
                    tighter[k] += np.count_nonzero((lp_hi < hi - 1e-3) & unstable)
        assert tighter.all()
        # a neuron whose pre-activation is one z column, w z + b, gets no LP:
        # over the big-M triangle z spans [0, M_pos], so the interval is the
        # extremum over the relaxation, solved here cold by linprog.  The
        # case study's layer-3 saturation neuron, -z + 2, is one at every copy
        case_study = (case_system, synth_satlqr(CASE_K, [-1.0], [1.0]), case_Xin)
        cases = [(sys, net, UNIT_BOX) for sys, net in self._bounded_cases(rng)]
        for sys, net, X_in in [case_study, *cases]:
            enc = ClosedLoopEncoding(sys, net, X_in)
            m = enc.model(4, [1.0, 0.0])  # bounds the copies at x0 .. x3
            bounds, checked = list(zip(m.lb, m.ub)), 0
            col = net.n_x + 1  # the first z column, after x0 and the unit column
            for _, layers in enc.bounds:
                for (W, b), (lo, hi), (pre_lo, pre_hi) in zip(net.layers[1:], layers, layers[1:]):
                    z = col + np.cumsum((lo < 0.0) & (hi > 0.0)) - 1  # z column of each neuron
                    col += 2 * np.count_nonzero((lo < 0.0) & (hi > 0.0))
                    for i in np.flatnonzero(np.count_nonzero(W, axis=1) == 1):
                        j = np.flatnonzero(W[i])[0]
                        if not lo[j] < 0.0 < hi[j]:
                            continue
                        c = np.zeros(m.c.size)
                        c[z[j]] = W[i, j]
                        lp_lo = linprog(c, A_ub=m.A_ub, b_ub=m.b_ub, bounds=bounds).fun + b[i]
                        lp_hi = -linprog(-c, A_ub=m.A_ub, b_ub=m.b_ub, bounds=bounds).fun + b[i]
                        assert abs(pre_lo[i] - lp_lo) <= 1e-9 and abs(pre_hi[i] - lp_hi) <= 1e-9
                        checked += 1
                lo, hi = layers[-1]
                col += 2 * np.count_nonzero((lo < 0.0) & (hi > 0.0))
            assert col == m.c.size
            if X_in is case_Xin:
                assert checked == 4

    def test_one_column_bounds_are_exact_when_weights_cancel(self, count_lps):
        # layer 2's pre-activation 2 a_1 - a_2 - 7.5, with a_1 = x_1 + 5 and
        # a_2 = x_1 + 3 both active over the unit box, is the one column
        # x_1 - 0.5: its bounds are x_1's, [-1.5, 0.5], with no LP, not the
        # interval [-3.5, 2.5] over layer 1's bounds
        net = ReluNetwork(
            [(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([5.0, 3.0])),
             (np.array([[2.0, -1.0]]), np.array([-7.5])),
             (np.ones((1, 1)), np.zeros(1))]
        )
        enc = ClosedLoopEncoding(None, net, UNIT_BOX)
        enc.output([1.0])
        [(lo, hi)] = enc.bounds[0][1][1:]
        np.testing.assert_allclose([lo[0], hi[0]], [-1.5, 0.5], rtol=0.0, atol=1e-12)
        assert (count_lps("box"), count_lps("bound"), count_lps()) == (4, 0, 4)  # X_in's box only

    def test_columns_only_for_unstable_neurons(self):
        # the model has no equality rows and one binary per unstable neuron:
        # x0, the unit column, then per copy and layer the z columns of its
        # unstable neurons, in [0, M_pos], and their t columns; the rows are
        # X_in's and three per unstable neuron
        rng = np.random.default_rng(3)
        binaries = 0
        for sys, net in list(self._bounded_cases(rng))[::3]:
            enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
            m = enc.model(4, [1.0, 0.0])
            assert m.A_eq.shape[0] == 0 and m.b_eq.size == 0
            M_pos = [hi[(lo < 0.0) & (hi > 0.0)] for _, layers in enc.bounds for lo, hi in layers]
            n = sum(h.size for h in M_pos)
            assert m.c.size == net.n_x + 1 + 2 * n
            assert m.A_ub.shape[0] == UNIT_BOX.nrows + 3 * n
            assert m.lb[net.n_x] == m.ub[net.n_x] == 1.0
            start, t_cols = net.n_x + 1, []
            for h in M_pos:
                z = np.arange(start, start + h.size)
                np.testing.assert_array_equal(m.lb[z], 0.0)
                np.testing.assert_array_equal(m.ub[z], h)
                t_cols.append(z + h.size)
                start += 2 * h.size
            np.testing.assert_array_equal(m.binaries, np.concatenate(t_cols))
            np.testing.assert_array_equal(m.lb[m.binaries], 0.0)
            np.testing.assert_array_equal(m.ub[m.binaries], 1.0)
            binaries += n
        assert binaries > 0

    def test_unbounded_input(self, identity_pair_net):
        with pytest.raises(UnboundedInput):
            output_range(
                identity_pair_net, Polytope(np.array([[1.0]]), np.array([1.0])), [[1.0]]
            )


class TestOutputRange:
    def test_identity_pair(self, identity_pair_net):
        X = Polytope.box([-2.0], [3.0])
        vals = output_range(identity_pair_net, X, [[1.0], [-1.0]])
        np.testing.assert_allclose(vals, [3.0, 2.0], atol=1e-7)

    def test_affine_network(self):
        # wide positive bias keeps every neuron active on the unit box
        net = ReluNetwork(
            [(np.eye(2), 10.0 * np.ones(2)), (np.array([[1.0, 1.0]]), np.zeros(1))]
        )
        vals = output_range(net, UNIT_BOX, [[1.0]])
        assert vals[0] == pytest.approx(22.0, abs=1e-7)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            net = random_net(rng, 2, [int(rng.integers(2, 6))], 2)
            for d in [[1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]:
                got = output_range(net, UNIT_BOX, [d])[0]
                want = helpers.output_range_oracle(net, UNIT_BOX.F, UNIT_BOX.g, np.asarray(d))
                assert got == pytest.approx(want, abs=1e-6)

    def test_two_hidden_layers_vs_oracle(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, 2, [3, 3], 1)
        got = output_range(net, UNIT_BOX, [[1.0]])[0]
        want = helpers.output_range_oracle(net, UNIT_BOX.F, UNIT_BOX.g, np.array([1.0]))
        assert got == pytest.approx(want, abs=1e-6)

    def test_empty_input_raises(self, identity_pair_net):
        empty = Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
        with pytest.raises((MilpError, EmptyInput)):
            output_range(identity_pair_net, empty, [[1.0]])

    def test_optimum_attained_by_witness(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 2, [4], 1)
        model = encode_output_range(net, UNIT_BOX, [1.0])
        res = solve_milp(model)
        x_star = res.point[: net.n_x]
        assert np.all(UNIT_BOX.F @ x_star <= UNIT_BOX.g + 1e-6)
        assert float(net.eval(x_star)[0]) == pytest.approx(res.value, abs=1e-6)


MODEL_ARRAYS = ("c", "A_ub", "b_ub", "A_eq", "b_eq", "lb", "ub", "binaries")


def _assert_models_equal(got, want):
    """Array for array."""
    for name in MODEL_ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestReach:
    def _sys(self):
        return LtiSystem(
            np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]])
        )

    def test_one_step_equals_direct_image(self):
        sys = self._sys()
        K = np.array([[0.3, 0.4]])
        net = synth_satlqr(K, [-1.0], [1.0])
        d = np.array([1.0, 0.0])
        got = reach_set(sys, net, UNIT_BOX, 1, [d])[0]
        want = helpers.reach_oracle(sys.A, sys.B, net, UNIT_BOX.F, UNIT_BOX.g, 1, d)
        assert got == pytest.approx(want, abs=1e-6)

    def test_two_step_matches_oracle_random(self):
        rng = np.random.default_rng(6)
        sys = self._sys()
        for _ in range(3):
            net = random_net(rng, 2, [3], 1, scale=0.5)
            for d in [[1.0, 0.0], [0.0, 1.0]]:
                got = reach_set(sys, net, UNIT_BOX, 2, [d])[0]
                want = helpers.reach_oracle(
                    sys.A, sys.B, net, UNIT_BOX.F, UNIT_BOX.g, 2, np.asarray(d)
                )
                assert got == pytest.approx(want, abs=1e-6)

    def test_sampled_rollouts_stay_inside(self):
        # certified per-direction maxima dominate every simulated trajectory
        rng = np.random.default_rng(7)
        sys = self._sys()
        net = synth_satlqr(np.array([[0.3, 0.4]]), [-1.0], [1.0])
        k = 3
        vals = reach_set(sys, net, UNIT_BOX, k, FAN8)
        X = rng.uniform(-1.0, 1.0, size=(500, 2))
        for _ in range(k):
            U = helpers.batch_eval(net, X)
            X = X @ sys.A.T + U @ sys.B.T
        assert np.all(X @ FAN8.T <= vals + 1e-7)

    def test_shared_encoding_equals_fresh_encode_reach(self):
        # step 0 of the shared encoding is the output-range model; the step-k
        # models built on it equal fresh ones array for array
        rng = np.random.default_rng(8)
        sys = self._sys()
        for _ in range(3):
            net = random_net(rng, 2, [3, 2], 1, scale=0.5)
            enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
            got = enc.output([1.0])
            want = encode_output_range(net, UNIT_BOX, [1.0])
            _assert_models_equal(got, want)
            for k in range(1, 5):
                d = rng.standard_normal(2)
                got = enc.model(k, d)
                want = encode_reach(sys, net, UNIT_BOX, k, d)
                _assert_models_equal(got, want)
            with pytest.raises(MilpError):
                enc.model(3, d)
            with pytest.raises(MilpError):
                enc.output([1.0])

    def test_search_leaves_next_step_unchanged(self):
        # the LP bounds of the step-k+1 network copy run on a fresh load, so a
        # search at step k (which sets node bounds on its relaxation) leaves
        # the step-k+1 model equal to one encoded straight to step k + 1
        rng = np.random.default_rng(11)
        sys = self._sys()
        net = synth_satlqr(np.array([[0.3, 0.4]]), [-0.5], [0.5])
        X_in = Polytope.box([-2.0, -2.0], [2.0, 2.0])
        enc, nodes = ClosedLoopEncoding(sys, net, X_in), 0
        for k in range(1, 4):
            nodes += solve_milp(enc.model(k, rng.standard_normal(2))).nodes
            d = rng.standard_normal(2)
            fresh = ClosedLoopEncoding(sys, net, X_in).model(k + 1, d)
            _assert_models_equal(enc.model(k + 1, d), fresh)
        assert nodes > 3  # the searches branched, so they set node bounds

    def test_shared_encoding_matches_oracle(self):
        rng = np.random.default_rng(9)
        sys = self._sys()
        net = random_net(rng, 2, [3], 1, scale=0.5)
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-0.6, 0.8]])
        enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
        for k in range(1, 4):
            got = [r.value for r in reach_results(sys, net, UNIT_BOX, k, dirs, encoding=enc)]
            want = helpers.reach_oracle(sys.A, sys.B, net, UNIT_BOX.F, UNIT_BOX.g, k, dirs)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_active_layer_into_unstable_layer_matches_oracle(self):
        # layer 1 is active on every state reached, so layer 2's pre-activation
        # is an affine expression composed through it; its neurons are
        # unstable and get the only binaries.  The output range and the
        # maxima at k = 1..3 equal the oracles', and the witnesses replay
        rng = np.random.default_rng(13)
        sys = self._sys()
        dirs = np.array([[1.0, 0.0], [-0.6, 0.8]])
        for _ in range(2):
            W1, W2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            b1 = np.full(2, 10.0)
            net = ReluNetwork([(W1, b1), (W2, -W2 @ b1), (0.5 * rng.standard_normal((1, 2)), np.zeros(1))])
            enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
            wants = helpers.output_range_oracle(net, UNIT_BOX.F, UNIT_BOX.g, [[1.0], [-1.0]])
            for want, r in zip(wants, output_range_results(net, UNIT_BOX, [[1.0], [-1.0]], enc)):
                assert r.value == pytest.approx(want, abs=1e-6)
            for k in range(1, 4):
                wants = helpers.reach_oracle(sys.A, sys.B, net, UNIT_BOX.F, UNIT_BOX.g, k, dirs)
                results = reach_results(sys, net, UNIT_BOX, k, dirs, encoding=enc)
                for d, want, r in zip(dirs, wants, results):
                    assert r.value == pytest.approx(want, abs=1e-6)
                    x = r.point[: sys.n_x]
                    for _ in range(k):
                        x = sys.A @ x + sys.B @ net.eval(x)
                    assert float(d @ x) == pytest.approx(r.value, abs=1e-6)
            for (_, [(lo1, _), (lo2, hi2)]) in enc.bounds:
                assert np.all(lo1 >= 0.0) and np.any((lo2 < 0.0) & (hi2 > 0.0))

    def test_one_load_per_step(self, lp_path):
        # extending to step 2 boxes x1, encodes its network copy and answers 4
        # directions on the relaxation loaded at step 0, with no load of its
        # own, and with the values of fresh encodings
        rng = np.random.default_rng(23)
        sys = self._sys()
        net = random_net(rng, 2, [3, 2], 1, scale=0.5)
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-0.6, 0.8]])
        enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
        enc.model(1, dirs[0])
        loads = lp.WORK["loads"]
        got = [r.value for r in reach_results(sys, net, UNIT_BOX, 2, dirs, encoding=enc)]
        assert lp.WORK["loads"] == loads
        want = [solve_milp(encode_reach(sys, net, UNIT_BOX, 2, d)).value for d in dirs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_later_state_solves_no_box_lps(self, case_system, case_Xin, count_lps):
        # only X_in is boxed by LPs: extending the case-study encoding from
        # step 1 to step 2 solves just the 2 bound LPs of the layer-2
        # saturation neuron of the copy at x1; the layer-3 one, -z + 2, has
        # one column and gets none
        net = synth_satlqr(CASE_K, [-1.0], [1.0])
        enc = ClosedLoopEncoding(case_system, net, case_Xin)
        enc.model(1, [1.0, 0.0])
        lps, box, bound = count_lps(), count_lps("box"), count_lps("bound")
        enc.model(2, [1.0, 0.0])
        assert (count_lps() - lps, count_lps("box") - box, count_lps("bound") - bound) == (2, 0, 2)

    def test_k_validation(self, identity_pair_net):
        sys = LtiSystem(np.eye(1), np.eye(1))
        with pytest.raises(MilpError):
            encode_reach(sys, identity_pair_net, Polytope.box([-1.0], [1.0]), 0, [1.0])


def test_bound_covers_true_max():
    # an optimal search proves its value: bound == value, and both cover the max
    rng = np.random.default_rng(10)
    for _ in range(5):
        net = random_net(rng, 2, [3, 3], 2)
        for d in [[1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]:
            res = solve_milp(encode_output_range(net, UNIT_BOX, d))
            want = helpers.output_range_oracle(net, UNIT_BOX.F, UNIT_BOX.g, np.asarray(d))
            assert res.status == BnbStatus.OPTIMAL
            assert res.bound == res.value
            assert res.bound >= want - 1e-6


def test_model_of_an_earlier_step_is_refused():
    # the steps of an encoding grow one relaxation, so once it has grown a
    # model of an earlier step no longer matches it and is refused, not
    # solved, and its rows, which only the relaxation holds, are refused too
    sys = LtiSystem(np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]]))
    net = random_net(np.random.default_rng(12), 2, [3], 1, scale=0.5)
    enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
    output, step1 = enc.output([1.0]), enc.model(1, [1.0, 0.0])
    assert solve_milp(step1).status == BnbStatus.OPTIMAL
    _assert_models_equal(step1, encode_reach(sys, net, UNIT_BOX, 1, [1.0, 0.0]))
    step2 = enc.model(2, [1.0, 0.0])
    assert step2.c.size > step1.c.size  # step 2 added columns and rows
    for stale in (output, step1):
        with pytest.raises(MilpError, match="earlier step"):
            solve_milp(stale)
        for rows in ("A_ub", "b_ub"):
            with pytest.raises(MilpError, match="earlier step"):
                getattr(stale, rows)
    assert solve_milp(step2).status == BnbStatus.OPTIMAL


def test_mismatched_input_set_is_refused():
    # a 3-D X_in on a network of 2 inputs
    net = random_net(np.random.default_rng(13), 2, [3], 1)
    with pytest.raises(DimensionMismatch, match="X_in"):
        output_range(net, Polytope.box([-1.0] * 3, [1.0] * 3), [[1.0]])


@pytest.mark.parametrize(
    "A, B",
    [(0.5 * np.eye(3), np.ones((3, 1))), (0.5 * np.eye(2), np.ones((2, 2)))],
    ids=["3 states", "2 inputs"],
)
def test_mismatched_plant_is_refused(A, B):
    # a plant whose states or inputs differ from the network's inputs or outputs
    net = random_net(np.random.default_rng(13), 2, [3], 1)
    with pytest.raises(DimensionMismatch, match="system"):
        reach_set(LtiSystem(A, B), net, UNIT_BOX, 1, [[1.0, 0.0]])


def test_node_cap_raises(monkeypatch):
    net = random_net(np.random.default_rng(10), 2, [3, 3], 2)
    model = encode_output_range(net, UNIT_BOX, [0.0, -1.0])
    assert solve_milp(model).nodes > 1  # the root relaxation is fractional
    monkeypatch.setattr(milp, "MAX_NODES", 1)
    with pytest.raises(MilpError, match="node cap"):
        solve_milp(model)


def test_sign_fixed_neurons_have_fixed_binaries():
    # strongly biased neurons are active over the whole box, so their
    # binaries arrive with lb == ub == 0
    net = ReluNetwork(
        [(np.eye(2), 10.0 * np.ones(2)), (np.ones((1, 2)), np.zeros(1))]
    )
    model = encode_output_range(net, UNIT_BOX, [1.0])
    assert np.all(model.lb[model.binaries] == model.ub[model.binaries])
    res = solve_milp(model)
    assert res.nodes == 1


@pytest.fixture(scope="module")
def satlqr_loops():
    """Saturated-LQR closed loops on 5 seeded random plants from a box X_in,
    each with the oracle's maxima at k = 1 and 2 along two directions."""
    rng = np.random.default_rng(24)
    X_in = Polytope.box([-2.0, -2.0], [2.0, 2.0])
    dirs = np.array([[1.0, 0.0], [-0.6, 0.8]])
    loops = []
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        A /= np.max(np.abs(np.linalg.eigvals(A)))
        sys = LtiSystem(A, rng.standard_normal((2, 1)))
        net = synth_satlqr(rng.uniform(-1.0, 1.0, size=(1, 2)), [-1.0], [1.0])
        want = [helpers.reach_oracle(sys.A, sys.B, net, X_in.F, X_in.g, k, dirs) for k in (1, 2)]
        loops.append((sys, net, X_in, dirs, want))
    return loops


def test_identically_zero_neuron_is_inactive():
    # a pre-activation that is 0 on the whole box (lo == hi == 0) is inactive:
    # its binary is fixed to 1, not given the empty range [1, 0]
    net = ReluNetwork(
        [(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2)), (np.ones((1, 2)), np.zeros(1))]
    )
    np.testing.assert_allclose(output_range(net, UNIT_BOX, [[1.0]]), [1.0], atol=1e-7)


class TestLpPaths:
    """The warm-started HiGHS models give the oracles' maxima with witnesses
    that replay through the true closed loop, also with every LP checked
    against a cold linprog solve."""

    def _sys(self):
        return LtiSystem(np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]]))

    def test_output_range_matches_oracle(self, lp_path):
        rng = np.random.default_rng(21)
        dirs = np.array([[1.0], [-1.0]])
        for _ in range(3):
            net = random_net(rng, 2, [3, 2], 1)
            wants = helpers.output_range_oracle(net, UNIT_BOX.F, UNIT_BOX.g, dirs)
            for d, want, r in zip(dirs, wants, output_range_results(net, UNIT_BOX, dirs)):
                assert r.value == pytest.approx(want, abs=1e-6)
                assert r.bound >= want - 1e-6
                x0 = r.point[: net.n_x]
                assert np.all(UNIT_BOX.F @ x0 <= UNIT_BOX.g + 1e-6)
                assert float(d @ net.eval(x0)) == pytest.approx(r.value, abs=1e-6)

    def test_reach_matches_oracle(self, lp_path):
        rng = np.random.default_rng(22)
        sys = self._sys()
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [-0.6, 0.8]])
        net = random_net(rng, 2, [3], 1, scale=0.5)
        enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
        for k in range(1, 4):
            wants = helpers.reach_oracle(sys.A, sys.B, net, UNIT_BOX.F, UNIT_BOX.g, k, dirs)
            results = reach_results(sys, net, UNIT_BOX, k, dirs, encoding=enc)
            for d, want, r in zip(dirs, wants, results):
                assert r.value == pytest.approx(want, abs=1e-6)
                x = x0 = r.point[: sys.n_x]
                for _ in range(k):
                    x = sys.A @ x + sys.B @ net.eval(x)
                assert np.all(UNIT_BOX.F @ x0 <= UNIT_BOX.g + 1e-6)
                assert float(d @ x) == pytest.approx(r.value, abs=1e-6)

    def test_satlqr_reach_matches_oracle(self, lp_path, satlqr_loops):
        # saturated-LQR closed loops take the LP pre-activation bounds at
        # every step; the maxima still equal the oracle's and replay
        for sys, net, X_in, dirs, want in satlqr_loops:
            enc = ClosedLoopEncoding(sys, net, X_in)
            for k, want_k in zip((1, 2), want):
                results = reach_results(sys, net, X_in, k, dirs, encoding=enc)
                for d, r, w in zip(dirs, results, want_k):
                    assert r.value == pytest.approx(w, abs=1e-6)
                    x = r.point[: sys.n_x]
                    for _ in range(k):
                        x = sys.A @ x + sys.B @ net.eval(x)
                    assert float(d @ x) == pytest.approx(r.value, abs=1e-6)

    def test_empty_and_unbounded_inputs(self, lp_path, identity_pair_net):
        empty = Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
        with pytest.raises(EmptyInput):
            output_range(identity_pair_net, empty, [[1.0]])
        half_line = Polytope(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(UnboundedInput):
            output_range(identity_pair_net, half_line, [[1.0]])


class TestCutoff:
    """A search with a cutoff decides whether the maximum exceeds it, on both LP
    paths: a refutation gives the oracle's maximum with a witness that replays,
    a proof a bound between the maximum and the cutoff.  The cutoffs lie at
    least 1e-3 from the maximum, and neither costs more nodes than the search
    without a cutoff on the same model."""

    OFFSETS = (-0.5, -1e-3, 1e-3, 0.5)

    def _sys(self):
        return LtiSystem(np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]]))

    def _check(self, encode, want, replay):
        # every search runs on a fresh encoding, so each starts from the same
        # basis and the node counts compare the searches alone
        exact = solve_milp(encode())
        for offset in self.OFFSETS:
            cutoff = want + offset
            model = encode()
            res = solve_milp(model, cutoff)
            if want > cutoff:
                assert res.status == BnbStatus.OPTIMAL
                assert res.value == pytest.approx(want, abs=1e-9)
                assert res.bound == res.value
                x0 = res.point[:2]
                assert np.all(UNIT_BOX.F @ x0 <= UNIT_BOX.g + 1e-6)
                assert replay(x0) == pytest.approx(res.value, abs=1e-6)
            else:
                assert res.status == BnbStatus.BELOW_CUTOFF
                assert res.point is None
                assert want - 1e-9 <= res.bound <= cutoff
            assert res.nodes <= exact.nodes

    def test_output_range(self, lp_path):
        rng = np.random.default_rng(31)
        dirs = np.array([[1.0], [-1.0]])
        for _ in range(3):
            net = random_net(rng, 2, [3, 2], 1)
            wants = helpers.output_range_oracle(net, UNIT_BOX.F, UNIT_BOX.g, dirs)
            for d, want in zip(dirs, wants):
                self._check(
                    lambda: encode_output_range(net, UNIT_BOX, d),
                    want,
                    lambda x0: float(d @ net.eval(x0)),
                )

    def test_reach(self, lp_path):
        rng = np.random.default_rng(32)
        sys = self._sys()
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [-0.6, 0.8]])
        for _ in range(2):
            net = random_net(rng, 2, [3], 1, scale=0.5)
            for k in range(1, 4):
                wants = helpers.reach_oracle(sys.A, sys.B, net, UNIT_BOX.F, UNIT_BOX.g, k, dirs)
                for d, want in zip(dirs, wants):

                    def replay(x0):
                        for _ in range(k):
                            x0 = sys.A @ x0 + sys.B @ net.eval(x0)
                        return float(d @ x0)

                    self._check(lambda: encode_reach(sys, net, UNIT_BOX, k, d), want, replay)

    def test_directions_stop_at_first_refutation(self):
        # with cutoffs, reach_results solves the directions in order and ends
        # with the first one whose maximum exceeds its cutoff
        rng = np.random.default_rng(33)
        sys = self._sys()
        net = random_net(rng, 2, [3], 1, scale=0.5)
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [-0.6, 0.8], [0.0, 1.0]])
        enc = ClosedLoopEncoding(sys, net, UNIT_BOX)
        exact = reach_results(sys, net, UNIT_BOX, 2, dirs, encoding=enc)
        maxima = np.array([r.value for r in exact])
        cutoffs = maxima + np.array([0.1, 0.1, -0.1, 0.1])
        got = reach_results(sys, net, UNIT_BOX, 2, dirs, encoding=enc, cutoffs=cutoffs)
        assert [r.status for r in got] == [
            BnbStatus.BELOW_CUTOFF,
            BnbStatus.BELOW_CUTOFF,
            BnbStatus.OPTIMAL,
        ]
        assert got[2].value == pytest.approx(maxima[2], abs=1e-9)
        got = reach_results(sys, net, UNIT_BOX, 2, dirs, encoding=enc, cutoffs=maxima + 0.1)
        assert len(got) == len(dirs)
        assert all(r.status == BnbStatus.BELOW_CUTOFF for r in got)

    def test_one_cutoff_per_direction(self, case_system, case_Xin, count_lps):
        # a cutoff list shorter or longer than the directions would decide
        # only some of them (zip drops the rest), and a caller such as
        # verify's containment check would read the short result list as a
        # pass: it is refused before any search
        net = synth_satlqr(CASE_K, [-1.0], [1.0])
        F, g = case_Xin.F, case_Xin.g
        for cutoffs in (g[:2] + 1e-9, np.append(g, 1.0) + 1e-9, []):
            with pytest.raises(MilpError, match=rf"{len(cutoffs)} cutoffs for {len(F)} directions"):
                reach_results(case_system, net, case_Xin, 1, F, cutoffs=cutoffs)
        assert count_lps("node") == 0
