import numpy as np
import pytest

import helpers
from conftest import random_net
from certnn.polytope import Polytope
from certnn.regions import TooManyNeurons, enumerate_regions

UNIT_BOX = Polytope.box([-1.0, -1.0], [1.0, 1.0])


def test_identity_pair_regions(identity_pair_net):
    # two full-dimensional cells plus the two boundary patterns whose closed
    # cell is exactly {0}
    regions = enumerate_regions(identity_pair_net, Polytope.box([-1.0], [1.0]))
    patterns = {tuple(r.pattern[0]) for r in regions}
    assert patterns == {(1, 0), (0, 1), (1, 1), (0, 0)}
    for r in regions:
        if tuple(r.pattern[0]) in ((1, 1), (0, 0)):
            assert r.polytope.contains_point([0.0])
            assert not r.polytope.contains_point([0.01])


def test_neuron_cap():
    rng = np.random.default_rng(0)
    net = random_net(rng, 2, [25], 1)
    with pytest.raises(TooManyNeurons):
        enumerate_regions(net, UNIT_BOX)


def test_regions_cover_sampled_points():
    rng = np.random.default_rng(1)
    net = random_net(rng, 2, [5], 1)
    regions = enumerate_regions(net, UNIT_BOX)
    assert len(regions) <= 2 ** sum(net.hidden_widths)
    pts = rng.uniform(-1.0, 1.0, size=(500, 2))
    for x in pts:
        gamma = net.activation_pattern(x)
        hits = [
            r
            for r in regions
            if r.polytope.contains_point(x, tol=1e-7)
        ]
        assert hits, f"no region contains {x}"
        # the region carrying this point's own pattern is among the hits
        assert any(
            all(np.array_equal(a, b) for a, b in zip(r.pattern, gamma)) for r in hits
        )


def test_affine_on_each_region():
    rng = np.random.default_rng(2)
    net = random_net(rng, 2, [4], 1)
    for r in enumerate_regions(net, UNIT_BOX):
        W, b = net.affine_map(r.pattern, net.n_hidden_layers + 1)
        # interior points of the cell follow the cell's affine map
        from certnn.polytope import bounding_box

        lo, hi = bounding_box(r.polytope)
        try:
            pts = helpers.sample_polytope(rng, r.polytope.F, r.polytope.g, 20, lo, hi)
        except RuntimeError:
            continue  # extremely thin cell; nothing to sample
        for x in pts:
            np.testing.assert_allclose(net.eval(x), W @ x + b, atol=1e-9)


def test_two_hidden_layers():
    rng = np.random.default_rng(3)
    net = random_net(rng, 2, [3, 3], 1)
    regions = enumerate_regions(net, UNIT_BOX)
    assert 1 <= len(regions) <= 2 ** 6
    # every enumerated pattern is realizable at some sampled point of its cell
    for r in regions[:10]:
        from certnn.polytope import bounding_box

        lo, hi = bounding_box(r.polytope)
        try:
            pts = helpers.sample_polytope(rng, r.polytope.F, r.polytope.g, 5, lo, hi)
        except RuntimeError:
            continue
        for x in pts:
            got = net.activation_pattern(x)
            assert all(np.array_equal(a, b) for a, b in zip(got, r.pattern))
