import functools
import warnings

import numpy as np
import pytest

import helpers
from conftest import CASE_C_AS, CASE_c_AS, CASE_C_IN, CASE_c_IN, CASE_F_EQ, CASE_g_EQ, \
    CASE_F_LQR, CASE_g_LQR, random_net
from certnn import control, lp
from certnn.polytope import (
    DimensionMismatch,
    EmptyInput,
    Polytope,
    bounding_box,
    contains_set,
    intersect,
    is_empty,
    max_positively_invariant,
    remove_redundant,
    support,
    vertices_2d,
)

UNIT_BOX = Polytope.box([-1.0, -1.0], [1.0, 1.0])


def _stable_map_case(seed):
    """A stable map A on R^n, n = 2 + seed % 3, and the unit box cut by 3 random rows."""
    rng = np.random.default_rng([seed, 11])
    n = 2 + seed % 3
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.5, 0.8) / np.max(np.abs(np.linalg.eigvals(A)))
    box = Polytope.box(-np.ones(n), np.ones(n))
    P = Polytope(
        np.vstack([box.F, rng.standard_normal((3, n))]),
        np.concatenate([box.g, rng.uniform(0.5, 1.5, 3)]),
    )
    return A, P


class TestEmptiness:
    def test_unit_box(self):
        assert not is_empty(UNIT_BOX)

    def test_contradictory(self):
        P = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        assert is_empty(P)

    def test_case_study_stability_set(self):
        assert not is_empty(Polytope(CASE_C_AS, CASE_c_AS))


class TestSupport:
    def test_axis(self):
        assert support(UNIT_BOX, [1.0, 0.0]) == pytest.approx(1.0)

    def test_diagonal(self):
        assert support(UNIT_BOX, [1.0, 1.0]) == pytest.approx(2.0)

    def test_case_study_input_set_row(self):
        P = Polytope(CASE_C_IN, CASE_c_IN)
        assert support(P, CASE_C_IN[0]) == pytest.approx(3.0297, abs=1e-6)

    def test_tiny_directions(self):
        # late preimage rows F A^i of a stable map have norms down to 1e-10;
        # on such objectives HiGHS either stops with status 4 or, near 1e-6,
        # returns a maximum that is off by 0.2%, unless the direction is
        # scaled to unit length first
        A, P = _stable_map_case(3)
        omega = max_positively_invariant(A, P)
        F, _ = helpers.mpi_oracle(A, P.F, P.g, 60)
        for row in F:
            norm = np.linalg.norm(row)
            want = norm * helpers._lp_max(row / norm, omega.F, omega.g)
            assert support(omega, row) == pytest.approx(want, rel=1e-6, abs=0.0)


class TestSupportMatrix:
    """support along a matrix of directions, on both LP paths."""

    HALF_PLANE = Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))  # x1 <= 1
    EMPTY = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))

    def test_matrix_equals_scalar_calls(self, lp_path):
        # rows of norm 1e-10 included: the tiny-norm directions of a late fixpoint step
        A, P = _stable_map_case(3)
        omega = max_positively_invariant(A, P)
        rng = np.random.default_rng(4)
        D = rng.standard_normal((8, omega.dim))
        D[6:] *= 1e-10
        got = support(omega, D)
        assert got.shape == (len(D),)
        want = [support(omega, d) for d in D]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_unbounded_direction_is_infinite(self, lp_path):
        got = support(self.HALF_PLANE, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        assert got[0] == pytest.approx(1.0) and got[1] == np.inf and got[2] == np.inf
        assert support(self.HALF_PLANE, [1.0, 1.0]) == np.inf

    def test_bounding_box_of_half_plane(self, lp_path):
        lo, hi = bounding_box(self.HALF_PLANE)
        assert hi[0] == pytest.approx(1.0)
        assert hi[1] == np.inf and lo[0] == -np.inf and lo[1] == -np.inf

    def test_unbounded_inner_set_is_not_contained(self, lp_path):
        assert not contains_set(Polytope.box([-5.0, -5.0], [5.0, 5.0]), self.HALF_PLANE)

    def test_empty_polytope_raises(self, lp_path):
        with pytest.raises(EmptyInput):
            support(self.EMPTY, [1.0, 0.0])
        with pytest.raises(EmptyInput):
            support(self.EMPTY, np.eye(2))
        free = np.full(2, np.inf)
        model = lp.LpModel(np.zeros(2), self.EMPTY.F, self.EMPTY.g, -free, free)
        with pytest.raises(EmptyInput):
            model.maxima(np.eye(2))


class TestRemoveRedundant:
    def test_dominated_row(self):
        P = Polytope(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        R = remove_redundant(P)
        assert R.nrows == 1
        assert R.g[0] == pytest.approx(1.0)

    def test_duplicated_square(self):
        P = Polytope(np.vstack([UNIT_BOX.F, UNIT_BOX.F]), np.concatenate([UNIT_BOX.g, UNIT_BOX.g]))
        assert remove_redundant(P).nrows == 4

    def test_empty_raises(self):
        P = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        with pytest.raises(EmptyInput):
            remove_redundant(P)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((20, 2))
        g = np.ones(20)
        once = remove_redundant(Polytope(F, g))
        twice = remove_redundant(once)
        assert once.nrows == twice.nrows

    def test_network_hyperplane_stack_same_point_set(self):
        # all region hyperplanes of a random 1-hidden-layer net, before and
        # after pruning, classify 1000 sample points identically
        rng = np.random.default_rng(9)
        net = random_net(rng, 2, [5], 1)
        gamma = net.activation_pattern(rng.standard_normal(2))
        rows, rhs = [], []
        V, c = net.pattern_maps(gamma)[0]
        for j, bit in enumerate(gamma[0]):
            rows.append(-V[j] if bit else V[j])
            rhs.append(c[j] if bit else -c[j])
        # widen with a box so the region is bounded and nonempty
        P = Polytope(np.vstack([rows, 10 * UNIT_BOX.F]), np.concatenate([rhs, 10 * UNIT_BOX.g]))
        R = remove_redundant(P)
        pts = rng.uniform(-12, 12, size=(1000, 2))
        member_p = np.all(pts @ P.F.T <= P.g + 1e-9, axis=1)
        member_r = np.all(pts @ R.F.T <= R.g + 1e-9, axis=1)
        assert np.array_equal(member_p, member_r)


@pytest.mark.usefixtures("linprog_path")
class TestRemoveRedundantLinprog(TestRemoveRedundant):
    """The checks above with every LP also solved cold by scipy.optimize.linprog."""


def _redundancy_cases():
    """Seeded polytopes with duplicate, scaled-duplicate and dominated rows, some unbounded."""
    cases = []
    for seed in range(12):
        rng = np.random.default_rng([seed, 17])
        n = 2 + seed % 3
        F = rng.standard_normal((4 + 2 * n, n))
        if seed % 4 == 3:
            F[:, 0] = np.abs(F[:, 0])  # every row bounds x1 from above only: unbounded below
        x0 = rng.standard_normal(n)
        g = F @ x0 + rng.uniform(0.1, 1.0, len(F))
        pick = rng.choice(len(F), 3, replace=False)
        F = np.vstack([F, F[pick[0]], 2.0 * F[pick[1]], F[pick[2]]])
        g = np.concatenate([g, [g[pick[0]], 2.0 * g[pick[1]], g[pick[2]] + 0.3]])
        order = rng.permutation(len(F))
        cases.append(Polytope(F[order], g[order]))
    return cases


def _origin_interior_cases():
    """Seeded polytopes with the origin strictly inside, so rays from the origin prune.

    Each has a duplicate, a scaled duplicate and a dominated row and, where
    the polytope is bounded along a random direction, a row that touches it
    at a single point only; every fourth one is unbounded.  A box with a
    zero row, a single half-plane and the plane (no rows) complete the set.
    """
    cases = []
    for seed in range(12):
        rng = np.random.default_rng([seed, 23])
        n = 2 + seed % 3
        F = rng.standard_normal((4 + 2 * n, n))
        if seed % 4 == 3:
            F[:, 0] = np.abs(F[:, 0])  # every row bounds x1 from above only: unbounded below
        g = rng.uniform(0.5, 1.5, len(F))
        pick = rng.choice(len(F), 3, replace=False)
        F = np.vstack([F, F[pick[0]], 2.0 * F[pick[1]], F[pick[2]]])
        g = np.concatenate([g, [g[pick[0]], 2.0 * g[pick[1]], g[pick[2]] + 0.3]])
        d = rng.standard_normal(n)
        touch = helpers._lp_max(d, F, g)
        if np.isfinite(touch):
            F, g = np.vstack([F, d]), np.append(g, touch)
        order = rng.permutation(len(F))
        cases.append(Polytope(F[order], g[order]))
    cases.append(Polytope(np.vstack([UNIT_BOX.F, np.zeros((1, 2))]), np.append(UNIT_BOX.g, 1.0)))
    cases.append(Polytope(np.array([[1.0, -2.0]]), np.array([0.5])))
    cases.append(Polytope(np.zeros((0, 2)), np.zeros(0)))
    return cases


def test_remove_redundant_matches_per_row_oracle(lp_path, count_lps):
    # the rows kept on one load are exactly those that one fresh LP per row
    # keeps, in order, also where rays from the origin spare some of the LPs
    cases = _redundancy_cases() + _origin_interior_cases()
    for P in cases:
        keep = helpers.redundancy_oracle(P.F, P.g)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no inf - inf on a ray that meets nothing
            R = remove_redundant(P)
        assert np.array_equal(R.F, P.F[keep]) and np.array_equal(R.g, P.g[keep])
    assert count_lps() < sum(P.nrows + 1 for P in cases)


def test_remove_redundant_of_box_solves_only_emptiness(count_lps):
    box = Polytope.box([-1.0, -2.0, -0.5], [3.0, 0.25, 1.0])
    R = remove_redundant(box)
    assert np.array_equal(R.F, box.F) and np.array_equal(R.g, box.g)
    assert count_lps() == 1


class TestContainment:
    def test_nested_boxes(self):
        big = Polytope.box([-2.0, -2.0], [2.0, 2.0])
        assert contains_set(big, UNIT_BOX)
        assert not contains_set(UNIT_BOX, big)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains_set(UNIT_BOX, Polytope.box([-1.0], [1.0]))

    def test_case_study_lqr_contains_stability_set(self):
        assert contains_set(Polytope(CASE_F_LQR, CASE_g_LQR), Polytope(CASE_C_AS, CASE_c_AS))

    def test_mutual_containment_same_point_set(self):
        rng = np.random.default_rng(2)
        P = Polytope(UNIT_BOX.F, UNIT_BOX.g)
        scaled = Polytope(2.0 * UNIT_BOX.F, 2.0 * UNIT_BOX.g)  # same set, rescaled rows
        assert contains_set(P, scaled) and contains_set(scaled, P)
        pts = rng.uniform(-2, 2, size=(1000, 2))
        assert np.array_equal(
            np.all(pts @ P.F.T <= P.g + 1e-9, axis=1),
            np.all(pts @ scaled.F.T <= scaled.g + 1e-9, axis=1),
        )


class TestIntersect:
    def test_self_intersection(self):
        R = intersect(UNIT_BOX, UNIT_BOX)
        assert contains_set(R, UNIT_BOX) and contains_set(UNIT_BOX, R)

    def test_shifted_box_half_volume(self):
        shifted = Polytope.box([0.0, -1.0], [2.0, 1.0])
        R = intersect(UNIT_BOX, shifted)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 2, size=(2000, 2))
        inside = np.all(pts @ R.F.T <= R.g + 1e-9, axis=1)
        expected = (pts[:, 0] >= 0) & (pts[:, 0] <= 1) & (np.abs(pts[:, 1]) <= 1)
        assert np.array_equal(inside, expected)

    def test_commutative_as_point_set(self):
        shifted = Polytope.box([0.0, 0.0], [2.0, 2.0])
        R1 = intersect(UNIT_BOX, shifted)
        R2 = intersect(shifted, UNIT_BOX)
        assert contains_set(R1, R2) and contains_set(R2, R1)

    def test_case_study_eq_and_lqr(self):
        R = intersect(Polytope(CASE_F_EQ, CASE_g_EQ), Polytope(CASE_F_LQR, CASE_g_LQR))
        assert not is_empty(R)
        assert R.contains_point([0.0, 0.0])


class TestMaxPositivelyInvariant:
    def test_contraction_keeps_box(self):
        omega = max_positively_invariant(0.5 * np.eye(2), UNIT_BOX)
        assert contains_set(omega, UNIT_BOX) and contains_set(UNIT_BOX, omega)

    def test_shift_map_two_step(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        omega = max_positively_invariant(A, UNIT_BOX)
        expected = Polytope.box([-1.0, -0.5], [1.0, 0.5])
        assert contains_set(omega, expected) and contains_set(expected, omega)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stacked_preimages_stable_map(self, seed):
        A, P = _stable_map_case(seed)
        # for these maps no row of P A^i with i >= 7 can cut the unit box, so
        # 60 stacked preimages are the invariant set
        self._assert_same_set(max_positively_invariant(A, P), *helpers.mpi_oracle(A, P.F, P.g, 60))

    def test_matches_stacked_preimages_shift_map(self):
        A = 2.0 * np.diag(np.ones(2), 1)  # x3 -> x2 -> x1, doubled; A^3 = 0
        P = Polytope.box(-np.ones(3), np.ones(3))
        omega = max_positively_invariant(A, P)
        self._assert_same_set(omega, *helpers.mpi_oracle(A, P.F, P.g, 3))

    def test_squeezed_to_empty(self):
        # x -> 2x pushes every point of [1, 2] out within two steps
        omega = max_positively_invariant(np.array([[2.0]]), Polytope.box([1.0], [2.0]))
        assert is_empty(omega)

    @staticmethod
    def _assert_same_set(omega, F, g):
        # mutual support with the oracle's own LPs; omega lies in the unit
        # box, so a row with |row|_1 <= rhs cannot cut it (HiGHS gives up on
        # the ~1e-11 objectives of late preimage rows)
        for row, rhs in zip(F, g):
            if np.abs(row).sum() > rhs:
                assert helpers._lp_max(row, omega.F, omega.g) <= rhs + 1e-7
        for row, rhs in zip(omega.F, omega.g):
            assert helpers._lp_max(row, F, g) <= rhs + 1e-7

    def test_invariance_by_sampling(self):
        rng = np.random.default_rng(12)
        A = np.array([[0.6, 0.4], [-0.3, 0.7]])
        P = Polytope(rng.standard_normal((8, 2)), np.ones(8) + rng.uniform(0, 1, 8))
        omega = max_positively_invariant(A, P)
        lo, hi = bounding_box(omega)
        pts = helpers.sample_polytope(rng, omega.F, omega.g, 1000, lo, hi)
        images = pts @ A.T
        assert np.all(images @ omega.F.T <= omega.g + 1e-7)


@pytest.mark.usefixtures("linprog_path")
class TestMaxPositivelyInvariantLinprog(TestMaxPositivelyInvariant):
    """The checks above with every LP also solved cold by scipy.optimize.linprog."""


def _set_algebra_plants():
    """(A, B) of the 8 plants of perfbench's set_algebra workload: same seed, same recipe."""
    rng = np.random.default_rng([0, 3])
    plants = []
    for _ in range(8):
        n = int(rng.integers(4, 9))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.9, 1.1) / np.max(np.abs(np.linalg.eigvals(A)))
        plants.append((A, rng.standard_normal((n, 1))))
    return plants


@functools.cache
def _lqr_fixpoint_case(i):
    """Closed loop, constraints and reference invariant set of set-algebra plant i."""
    A, B = _set_algebra_plants()[i]
    n = A.shape[0]
    system = control.LtiSystem(A, B)
    K = control.lqr(system, np.eye(n), np.eye(1)).K
    P = intersect(
        Polytope.box(-5.0 * np.ones(n), 5.0 * np.ones(n)),
        control.input_admissible_states(K, Polytope.box([-1.0], [1.0])),
    )
    A_cl = A - B @ K
    return A_cl, P, helpers.mpi_reference(A_cl, P.F, P.g)


@functools.cache
def _stable_map_reference(seed):
    A, P = _stable_map_case(seed)
    return A, P, helpers.mpi_reference(A, P.F, P.g)


@pytest.mark.parametrize(
    "case",
    [functools.partial(_lqr_fixpoint_case, i) for i in range(8)]
    + [functools.partial(_stable_map_reference, seed) for seed in range(6)],
    ids=[f"plant{i}" for i in range(8)] + [f"stable_map{seed}" for seed in range(6)],
)
def test_max_positively_invariant_matches_every_row_reference(lp_path, case):
    # testing only the images of the rows that cut at the step before appends
    # the same rows in the same order as testing every row at every step
    A, P, (F, g) = case()
    omega = max_positively_invariant(A, P)
    assert omega.F.shape == F.shape
    np.testing.assert_allclose(omega.F, F, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(omega.g, g)


def test_vertices_2d_unit_box():
    verts = vertices_2d(UNIT_BOX)
    assert verts.shape == (4, 2)
    assert sorted(map(tuple, np.round(verts, 9))) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)
    ]


def test_json_round_trip():
    P = Polytope(CASE_C_IN, CASE_c_IN)
    Q = Polytope.from_json(P.to_json())
    assert np.array_equal(P.F, Q.F) and np.array_equal(P.g, Q.g)
