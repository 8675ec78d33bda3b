import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conftest import random_net
from certnn.network import (
    DimensionMismatch,
    EmptyRegion,
    InvalidBounds,
    RankDeficient,
    ReluNetwork,
    retrofit_lqr,
    saturate,
    synth_satlqr,
)


class TestConstruction:
    def test_too_few_layers(self):
        with pytest.raises(ValueError):
            ReluNetwork([(np.eye(2), np.zeros(2))])

    def test_chain_mismatch(self):
        with pytest.raises(ValueError):
            ReluNetwork([(np.eye(2), np.zeros(2)), (np.ones((1, 3)), np.zeros(1))])

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            ReluNetwork([(np.array([[np.nan]]), np.zeros(1)), (np.eye(1), np.zeros(1))])

    def test_shapes(self, identity_pair_net):
        net = identity_pair_net
        assert net.n_x == 1 and net.n_u == 1
        assert net.hidden_widths == [2]


class TestEval:
    def test_identity_pair(self, identity_pair_net):
        for x in [-2.0, -0.5, 0.0, 0.5, 3.0]:
            assert identity_pair_net.eval([x])[0] == pytest.approx(x)

    def test_matches_batch_oracle(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, 3, [5, 4], 2)
        X = rng.standard_normal((50, 3))
        expected = helpers.batch_eval(net, X)
        for x, e in zip(X, expected):
            np.testing.assert_allclose(net.eval(x), e, atol=1e-12)

    def test_dimension_mismatch(self, identity_pair_net):
        with pytest.raises(DimensionMismatch):
            identity_pair_net.eval([1.0, 2.0])


class TestActivationPattern:
    def test_identity_pair_signs(self, identity_pair_net):
        assert tuple(identity_pair_net.activation_pattern([2.0])[0]) == (1, 0)
        assert tuple(identity_pair_net.activation_pattern([-2.0])[0]) == (0, 1)

    def test_tie_counts_active(self, identity_pair_net):
        assert tuple(identity_pair_net.activation_pattern([0.0])[0]) == (1, 1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pattern_maps_output_matches_eval(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, 2, [4, 3], 2)
        x = rng.standard_normal(2)
        gamma = net.activation_pattern(x)
        W, b = net.pattern_maps(gamma)[-1]
        np.testing.assert_allclose(W @ x + b, net.eval(x), atol=1e-10)

    def test_pattern_maps_layer_by_layer(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, 2, [4, 3], 1)
        x = rng.standard_normal(2)
        gamma = net.activation_pattern(x)
        (V1, c1), (V2, c2), _ = net.pattern_maps(gamma)
        # hidden activity computed directly, layer by layer
        z = np.maximum(net.layers[0][0] @ x + net.layers[0][1], 0.0)
        np.testing.assert_allclose(gamma[0] * (V1 @ x + c1), z, atol=1e-12)
        z2 = np.maximum(net.layers[1][0] @ z + net.layers[1][1], 0.0)
        np.testing.assert_allclose(gamma[1] * (V2 @ x + c2), z2, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 4))
    def test_pattern_maps_reproduce_every_layer(self, seed, depth):
        # under the pattern realized at x, each map reproduces the
        # pre-activation a direct forward pass computes, then the output
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(1, 4))
        net = random_net(rng, n_x, list(rng.integers(1, 6, depth)), int(rng.integers(1, 3)))
        x = rng.standard_normal(n_x)
        maps = net.pattern_maps(net.activation_pattern(x))
        assert len(maps) == depth + 1
        z = x
        for (W, b), (V, c) in zip(net.layers, maps):
            pre = W @ z + b
            np.testing.assert_allclose(V @ x + c, pre, atol=1e-9)
            z = np.maximum(pre, 0.0)
        np.testing.assert_allclose(maps[-1][0] @ x + maps[-1][1], net.eval(x), atol=1e-9)

    def test_pattern_maps_reject_wrong_widths(self, identity_pair_net):
        with pytest.raises(DimensionMismatch):
            identity_pair_net.pattern_maps((np.array([1, 0, 1]),))


class TestRegionOfPattern:
    def test_identity_pair_positive_halfline(self, identity_pair_net):
        region = identity_pair_net.region_of_pattern((np.array([1, 0]),))
        assert region.contains_point([2.0])
        assert region.contains_point([0.0])
        assert not region.contains_point([-0.1])

    def test_unrealizable(self):
        # pre-activations x and x - 1: asking for x <= 0 together with
        # x - 1 >= 0 has no solution
        net = ReluNetwork(
            [(np.array([[1.0], [1.0]]), np.array([0.0, -1.0])),
             (np.ones((1, 2)), np.zeros(1))]
        )
        with pytest.raises(EmptyRegion):
            net.region_of_pattern((np.array([0, 1]),))

    def test_region_membership_matches_pattern(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, 2, [4], 1)
        for _ in range(20):
            x = rng.standard_normal(2)
            gamma = net.activation_pattern(x)
            region = net.region_of_pattern(gamma)
            assert region.contains_point(x)
            # points strictly inside the region realize the same pattern
            y = x + 1e-9 * rng.standard_normal(2)
            if np.all(region.F @ y <= region.g):
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(net.activation_pattern(y), gamma)
                )

    def test_equilibrium_region_contains_origin(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 2, [5], 1)
        gamma, region = net.equilibrium_region()
        assert all(
            np.array_equal(a, b)
            for a, b in zip(gamma, net.activation_pattern(np.zeros(2)))
        )
        assert region.contains_point([0.0, 0.0])


class TestSaturate:
    def test_invalid_bounds(self, identity_pair_net):
        with pytest.raises(InvalidBounds):
            saturate(identity_pair_net, [1.0], [1.0])
        with pytest.raises(DimensionMismatch):
            saturate(identity_pair_net, [0.0, 0.0], [1.0, 1.0])

    def test_equals_clamp_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            net = random_net(rng, 2, [int(rng.integers(2, 6))], 2)
            lo = rng.uniform(-2.0, -0.1, 2)
            hi = rng.uniform(0.1, 2.0, 2)
            sat = saturate(net, lo, hi)
            for _ in range(20):
                x = 3.0 * rng.standard_normal(2)
                u = net.eval(x)
                np.testing.assert_allclose(
                    sat.eval(x), np.clip(u, lo, hi), atol=1e-10
                )

    def test_structure(self, identity_pair_net):
        sat = saturate(identity_pair_net, [-1.0], [1.0])
        assert len(sat.hidden_widths) == len(identity_pair_net.hidden_widths) + 2
        assert sat.n_u == identity_pair_net.n_u


class TestRetrofit:
    def test_hand_fixture(self, identity_pair_net):
        # hidden map at 0 is W_eq = [[1], [-1]], b_eq = 0; output starts at 0.
        net = ReluNetwork(
            [identity_pair_net.layers[0], (np.zeros((1, 2)), np.zeros(1))]
        )
        K = np.array([[0.5]])
        fixed, cost = retrofit_lqr(net, K)
        np.testing.assert_allclose(fixed.layers[-1][0], [[-0.25, 0.25]], atol=1e-9)
        np.testing.assert_allclose(fixed.layers[-1][1], [0.0], atol=1e-9)
        assert cost == pytest.approx(0.125, abs=1e-9)

    def test_constraints_hold_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            net = random_net(rng, 2, [6], 1)
            K = rng.standard_normal((1, 2))
            try:
                fixed, cost = retrofit_lqr(net, K)
            except RankDeficient:
                continue
            gain, bias = fixed.pattern_maps(fixed.activation_pattern(np.zeros(2)))[-1]
            np.testing.assert_allclose(gain, -K, atol=1e-8)
            np.testing.assert_allclose(bias, 0.0, atol=1e-8)
            assert cost >= -1e-12
            # hidden layers untouched
            for (Wa, ba), (Wb, bb) in zip(net.layers[:-1], fixed.layers[:-1]):
                assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    def test_already_satisfying_zero_cost(self):
        K = np.array([[0.5, -0.3]])
        net = synth_satlqr(K, [-10.0], [10.0])
        fixed, cost = retrofit_lqr(net, K)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient(self):
        # hidden map at the origin is identically zero => -K unreachable.
        net = ReluNetwork(
            [
                (np.eye(2), -np.ones(2) - 1e-6),
                (np.ones((1, 2)), np.zeros(1)),
            ]
        )
        with pytest.raises(RankDeficient):
            retrofit_lqr(net, np.array([[1.0, 1.0]]))


    def test_matches_kronecker_reference(self):
        # the closed-form correction against the Kronecker system solved by
        # least squares: the same nets raise, the others agree to 1e-9
        rng = np.random.default_rng(12)
        raised = 0
        for _ in range(200):
            n_x = int(rng.integers(1, 4))
            widths = list(rng.integers(1, 6, int(rng.integers(1, 3))))
            net = random_net(rng, n_x, widths, int(rng.integers(1, 3)))
            K = rng.standard_normal((net.n_u, n_x))
            reference = helpers.retrofit_reference(net, K)
            if reference is None:
                raised += 1
                with pytest.raises(RankDeficient):
                    retrofit_lqr(net, K)
                continue
            fixed, cost = retrofit_lqr(net, K)
            W_ref, b_ref, cost_ref = reference
            W_new, b_new = fixed.layers[-1]
            scale = 1.0 + max(np.max(np.abs(W_ref)), np.max(np.abs(b_ref)))
            assert np.max(np.abs(W_new - W_ref)) <= 1e-9 * scale
            assert np.max(np.abs(b_new - b_ref)) <= 1e-9 * scale
            assert abs(cost - cost_ref) <= 1e-9 * (1.0 + cost_ref)
        assert 20 <= raised <= 180  # both outcomes are exercised


class TestSynthSatLqr:
    def test_equals_clamped_feedback(self):
        rng = np.random.default_rng(9)
        K = np.array([[0.2501, 0.8290]])
        net = synth_satlqr(K, [-1.0], [1.0])
        for _ in range(200):
            x = rng.uniform(-8.0, 8.0, 2)
            expected = np.clip(-K @ x, -1.0, 1.0)
            np.testing.assert_allclose(net.eval(x), expected, atol=1e-10)

    def test_equilibrium_region_full_dimensional(self):
        K = np.array([[0.2501, 0.8290]])
        net = synth_satlqr(K, [-1.0], [1.0])
        _, region = net.equilibrium_region()
        for delta in 0.05 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]):
            assert region.contains_point(delta)

    def test_exact_feedback_near_origin(self):
        K = np.array([[0.3, -0.2], [0.1, 0.4]])
        net = synth_satlqr(K, [-1.0, -1.0], [1.0, 1.0], radius=5.0)
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, 2)
            np.testing.assert_allclose(net.eval(x), np.clip(-K @ x, -1, 1), atol=1e-10)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    net = random_net(rng, 3, [4, 2], 2)
    path = tmp_path / "net.json"
    net.save(path)
    loaded = ReluNetwork.load(path)
    for (Wa, ba), (Wb, bb) in zip(net.layers, loaded.layers):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
