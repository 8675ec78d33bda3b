import numpy as np
import pytest

import helpers
from conftest import CASE_C_IN, CASE_K, CASE_c_IN, random_net
from certnn import regions as regions_module
from certnn.network import synth_satlqr
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
            if np.all(r.polytope.F @ x <= r.polytope.g + 1e-7)
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
        W, b = net.pattern_maps(r.pattern)[-1]
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


@pytest.mark.parametrize("seed, widths", [(4, [4]), (5, [6]), (6, [3, 3])])
def test_regions_match_pattern_oracle(lp_path, seed, widths):
    # the same patterns in the same order, and the same pruned cells, as one
    # fresh feasibility LP per full pattern
    rng = np.random.default_rng(seed)
    net = random_net(rng, 2, widths, 1)
    regions = enumerate_regions(net, UNIT_BOX)
    want = helpers.regions_oracle(net, UNIT_BOX.F, UNIT_BOX.g)
    assert len(regions) == len(want)
    for r, (pattern, F, g) in zip(regions, want):
        assert all(np.array_equal(a, b) for a, b in zip(r.pattern, pattern))
        assert r.polytope.F.shape == F.shape
        np.testing.assert_allclose(r.polytope.F, F, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(r.polytope.g, g, rtol=0.0, atol=1e-12)


def test_one_load_per_search(lp_path, count_loads):
    # every split of the search is decided on one loaded LP; each region's
    # redundancy removal loads its own cell
    net = synth_satlqr(CASE_K, [-1.0], [1.0])
    regions = enumerate_regions(net, Polytope(CASE_C_IN, CASE_c_IN))
    assert len(regions) == 3
    assert count_loads() == 1 + len(regions)


def test_search_ends_with_the_input_rows(lp_path, monkeypatch):
    # leaving a branch deletes its row, so the search's model ends with the
    # rows of X_in alone
    load, models = regions_module._load, []

    def loading(P):
        models.append(load(P))
        return models[-1]

    monkeypatch.setattr(regions_module, "_load", loading)
    X_in = Polytope(CASE_C_IN, CASE_c_IN)
    enumerate_regions(synth_satlqr(CASE_K, [-1.0], [1.0]), X_in)
    (model,) = models
    assert model._highs.getNumRow() == X_in.nrows
