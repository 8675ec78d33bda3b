import functools
import warnings

import numpy as np
import pytest

import helpers
from conftest import CASE_A, CASE_B, CASE_C_AS, CASE_c_AS, CASE_C_IN, CASE_c_IN, CASE_F_EQ, \
    CASE_g_EQ, CASE_F_LQR, CASE_g_LQR, CASE_K, random_net
from certnn import control, lp, polytope
from certnn.network import synth_satlqr
from certnn.verify import equilibrium_gain_bias
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
U_CASE = Polytope.box([-1.0], [1.0])
STRIP = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2))  # |x1| <= 1 holds the x2 axis
CORNER_BOX = Polytope.box([0.0, -1.0, -1.0], [1.0, 1.0, 1.0])  # the origin on a facet: a zero g


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
            model.maxima(np.eye(2), "test")


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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no inf - inf, inf * 0 or division by 0
def test_ray_facets_are_kept_by_the_oracle():
    # a row that a ray from the origin proves to be a facet survives the
    # per-row LP scan; on a set that holds a line (singular M) only the rays
    # along the normals run, and a zero g runs no ray
    cases = _redundancy_cases() + _origin_interior_cases() + [STRIP, CORNER_BOX]
    cases += [_stable_map_case(seed)[1] for seed in range(6)]
    proven = kept = 0
    for P in cases:
        facets = np.flatnonzero(polytope._ray_facets(P))
        keep = helpers.redundancy_oracle(P.F, P.g)
        assert set(facets) <= set(keep)
        proven += facets.size
        kept += len(keep) * bool(np.all(P.g > 0.0))
    assert proven > kept // 2  # of the facets of the sets with g > 0


def test_rays_aim_at_the_inner_ellipsoid():
    # one ray per row c, along M^-1 c with M = F^T diag(g)^-2 F; a set that
    # holds a line has a singular M, and only there are the rows themselves
    # the rays
    C = np.array([[1.0, 2.0], [-0.5, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(polytope._rays(STRIP, C), C)
    P = Polytope(np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.ones(4))
    M = np.diag([5.0, 2.0])  # (F / g)^T (F / g)
    np.testing.assert_allclose(polytope._rays(P, C), np.linalg.solve(M, C.T).T, rtol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_point_cuts_are_lp_cuts():
    # a row that a boundary point of the set proves to cut has a support above
    # g + 1e-9 by a fresh LP, also for rows with g = 0 and on unbounded sets;
    # the set's own rows, which the boundary points touch, never cut
    rng = np.random.default_rng(29)
    cases = _origin_interior_cases() + [STRIP, CORNER_BOX]
    cases += [_stable_map_case(seed)[1] for seed in range(6)]
    proven = 0
    for P in cases:
        F = np.vstack([P.F, rng.standard_normal((10, P.dim))])
        g = np.concatenate([P.g, [0.0], rng.uniform(0.0, 2.0, 9)])
        cuts = polytope._point_cuts(P, F, g)
        assert not cuts[: P.nrows].any()
        for row, rhs in zip(F[cuts], g[cuts]):
            norm = np.linalg.norm(row)
            assert norm * helpers._lp_max(row / norm, P.F, P.g) > rhs + 1e-9
        proven += cuts.sum()
    assert proven > 0


def test_remove_redundant_of_box_needs_no_lp(count_lps):
    # the origin is inside, so no LP checks emptiness; M is diagonal for a
    # box, so the ray at the inner ellipsoid's support point along each row
    # runs along the row's normal and proves that row to be a facet
    box = Polytope.box([-1.0, -2.0, -0.5], [3.0, 0.25, 1.0])
    R = remove_redundant(box)
    assert np.array_equal(R.F, box.F) and np.array_equal(R.g, box.g)
    assert count_lps() == 0


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


@functools.cache
def _lqr_fixpoint_case(i):
    """Closed loop, constraints and reference invariant set of set-algebra plant i."""
    A, B = helpers.set_algebra_plants()[i]
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


@functools.cache
def _reference(name):
    """A map, a set and the reference invariant set, for a set holding a line or with a zero g."""
    A, P = {
        "strip_cut": (np.array([[0.6, 0.3], [0.0, 0.5]]), STRIP),  # cuts bound x2 after one step
        "strip_kept": (np.diag([0.5, 0.9]), STRIP),  # nothing cuts: the fixpoint holds a line
        "corner_box": (_stable_map_case(1)[0], CORNER_BOX),
    }[name]
    return A, P, helpers.mpi_reference(A, P.F, P.g)


FIXPOINT_CASES = {
    **{f"plant{i}": functools.partial(_lqr_fixpoint_case, i) for i in range(8)},
    **{f"stable_map{seed}": functools.partial(_stable_map_reference, seed) for seed in range(6)},
    **{
        name: functools.partial(_reference, name)
        for name in ("strip_cut", "strip_kept", "corner_box")
    },
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", FIXPOINT_CASES.values(), ids=FIXPOINT_CASES.keys())
def test_max_positively_invariant_matches_every_row_reference(lp_path, case):
    # testing only the images of the rows that cut at the step before, and
    # deciding rows by points where a point can, appends the same rows in the
    # same order as testing every row by an LP at every step
    A, P, (F, g) = case()
    omega = max_positively_invariant(A, P)
    assert omega.F.shape == F.shape
    np.testing.assert_allclose(omega.F, F, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(omega.g, g)


def test_six_state_fixpoint_lp_count(count_lps):
    # set-algebra plant 0 (6 states): 8 LPs, one per mirror pair of rows
    # that neither a point nor the set's own slabs decide; without the slabs
    # one LP per pair takes 15, and one LP per row 30.  Only the ray at the
    # inner ellipsoid's support point runs: a second ray along each row
    # normal would prove two more pairs to cut (6 LPs), a gain too small to
    # keep it
    A, P, (F, _) = _lqr_fixpoint_case(0)
    before = count_lps()
    assert max_positively_invariant(A, P).nrows == len(F) == 24
    assert count_lps() - before == 8


def _symmetric_case(seed, duplicates):
    """A random polytope symmetric about the origin: 3n rows and their mirrors, shuffled.

    n = 2 + seed % 3 and the offsets lie in [0.5, 1.5].  With duplicates,
    two of the rows recur scaled by 2, each with its mirror.
    """
    rng = np.random.default_rng([seed, 37])
    n = 2 + seed % 3
    F = rng.standard_normal((3 * n, n))
    g = rng.uniform(0.5, 1.5, 3 * n)
    if duplicates:
        F, g = np.vstack([F, 2.0 * F[:2]]), np.concatenate([g, 2.0 * g[:2]])
    F, g = np.vstack([F, -F]), np.concatenate([g, g])
    order = rng.permutation(len(g))
    return Polytope(F[order], g[order])


def _assert_irredundant_same_set(R, P):
    """R and P hold the same points, and no row of R is redundant."""
    assert contains_set(P, R) and contains_set(R, P)
    assert helpers.redundancy_oracle(R.F, R.g) == list(range(R.nrows))


def test_mirror_pairs_in_adversarial_order(count_lps):
    # rows p, q', q, p' with q = 2p and ' the mirror: p and q, and p' and
    # q', are the same half-planes.  One LP at p drops the pair (p, p') at
    # once, and one LP at q' then keeps the pair (q', q).  Dropping p' only
    # at its own turn would leave p' to imply q' at the LP of q', and every
    # row would go
    f = np.array([1.0, 0.5])
    P = Polytope(np.array([f, -2.0 * f, 2.0 * f, -f]), np.array([1.0, 2.0, 2.0, 1.0]))
    np.testing.assert_array_equal(polytope._mirrors(P), [3, 2, 1, 0])
    R = remove_redundant(P)
    assert count_lps() == 2
    _assert_irredundant_same_set(R, P)


@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "scaled_duplicates"])
@pytest.mark.parametrize("seed", range(6))
def test_mirror_pairs_match_per_row_oracles(seed, duplicates):
    # on a set symmetric about the origin one LP decides each pair of rows:
    # remove_redundant keeps an irredundant H-representation of the same
    # set, and the invariant set of a stable map is the every-row
    # reference.  Without duplicates the facets are unique, so the rows are
    # the per-row scan's, in order
    P = _symmetric_case(seed, duplicates)
    assert not np.array_equal(polytope._mirrors(P), np.arange(P.nrows))
    R = remove_redundant(P)
    _assert_irredundant_same_set(R, P)
    A = _stable_map_case(seed)[0]  # a stable map of the same dimension
    omega = max_positively_invariant(A, P)
    F, g = helpers.mpi_reference(A, P.F, P.g)
    _assert_irredundant_same_set(omega, Polytope(F, g))
    if not duplicates:
        keep = helpers.redundancy_oracle(P.F, P.g)
        assert np.array_equal(R.F, P.F[keep]) and np.array_equal(R.g, P.g[keep])
        assert omega.F.shape == F.shape
        np.testing.assert_allclose(omega.F, F, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(omega.g, g)


def _unmatched(P):
    """P with one exact duplicate row appended, and P with one offset moved up by one ulp."""
    g = P.g.copy()
    g[0] = np.nextafter(g[0], np.inf)
    return Polytope(np.vstack([P.F, P.F[:1]]), np.append(P.g, P.g[0])), Polytope(P.F, g)


def test_unmatched_rows_take_the_per_row_scan(count_lps):
    # a duplicate row or an offset off by one ulp leaves a row without
    # exactly one mirror: every row is then decided on its own, with the
    # rows and the LP counts of the per-row scan, which takes 30 LPs on
    # plant 0's own matched set too, with one ray per row (see
    # test_six_state_fixpoint_lp_count).
    # The fixpoint merges a duplicate row first (see
    # test_parallel_rows_merge_before_the_fixpoint), so only its one-ulp
    # case is unmatched
    duplicate, nudged = _unmatched(_symmetric_case(0, duplicates=False))
    for Q, lps in ((duplicate, 7), (nudged, 6)):
        np.testing.assert_array_equal(polytope._mirrors(Q), np.arange(Q.nrows))
        before = count_lps()
        R = remove_redundant(Q)
        assert count_lps() - before == lps
        keep = helpers.redundancy_oracle(Q.F, Q.g)
        assert np.array_equal(R.F, Q.F[keep]) and np.array_equal(R.g, Q.g[keep])
    A, P, _ = _lqr_fixpoint_case(0)
    nudged = _unmatched(P)[1]
    before = count_lps()
    omega = max_positively_invariant(A, nudged)
    assert count_lps() - before == 30
    F, g = helpers.mpi_reference(A, nudged.F, nudged.g)
    assert omega.F.shape == F.shape
    np.testing.assert_allclose(omega.F, F, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(omega.g, g)


def _case_study_stack():
    """The case study's R_as fixpoint as (closed loop, None, R_eq /\\ X /\\ {x : |gain x| <= 1}).

    The stack has 10 rows, and 6 normals: R_eq's x1 rows recur in X at
    offset 5 instead of 10, and its saturation rows, at 1 - 2.2e-16 and
    1 + 2.2e-16, recur as the input-admissible rows at 1.
    """
    net = synth_satlqr(CASE_K, [-1.0], [1.0])
    gain, _ = equilibrium_gain_bias(net)
    _, R_eq = net.equilibrium_region()
    X = intersect(R_eq, Polytope.box([-5.0, -5.0], [5.0, 5.0]))
    U = control.input_admissible_states(-gain, U_CASE)
    return CASE_A + CASE_B @ gain, None, intersect(X, U)


def _repeated_normal(seed):
    """A stable map, a symmetric set P (see _symmetric_case), and P with a row repeated.

    The repeat is appended at an offset 0.25 above the row's, and the row is
    one that the reference invariant set of P keeps, so the offset that the
    merge keeps shapes the set.
    """
    A, P = _stable_map_case(seed)[0], _symmetric_case(seed, duplicates=False)
    F, _ = helpers.mpi_reference(A, P.F, P.g)
    i = next(i for i, row in enumerate(P.F) if any(np.array_equal(row, f) for f in F))
    return A, P, Polytope(np.vstack([P.F, P.F[i]]), np.append(P.g, P.g[i] + 0.25))


def _exact_duplicate():
    """Set-algebra plant 0's closed loop and its set, with the set's first row appended again."""
    A, P, _ = _lqr_fixpoint_case(0)
    return A, P, _unmatched(P)[0]


PARALLEL_CASES = {
    "case_study": _case_study_stack,
    **{f"repeated{seed}": functools.partial(_repeated_normal, seed) for seed in range(6)},
    "exact_duplicate": _exact_duplicate,
}


@pytest.mark.parametrize("name", PARALLEL_CASES)
def test_parallel_rows_merge_before_the_fixpoint(monkeypatch, count_lps, name):
    # rows of equal normals merge into the first of them at the smallest
    # offset before the fixpoint loads: the same set as the every-row
    # reference, in fewer LPs than the fixpoint of the unmerged rows.  A
    # repeat merged into a symmetric set restores its mirror matching, and
    # the fixpoint is then that of the set itself, row for row
    A, P, Q = PARALLEL_CASES[name]()
    merged = polytope._merge_parallel(Q)
    if P is None:  # the case study: 6 rows, and its saturation pair is no exact mirror
        assert (Q.nrows, merged.nrows) == (10, 6)
        np.testing.assert_array_equal(polytope._mirrors(merged), np.arange(6))
    else:
        assert np.array_equal(merged.F, P.F) and np.array_equal(merged.g, P.g)
    before = count_lps()
    omega = max_positively_invariant(A, Q)
    lps = count_lps() - before
    if P is not None:
        reference = max_positively_invariant(A, P)
        assert np.array_equal(omega.F, reference.F) and np.array_equal(omega.g, reference.g)
    F, g = helpers.mpi_reference(A, Q.F, Q.g)
    _assert_irredundant_same_set(omega, Polytope(F, g))
    monkeypatch.setattr(polytope, "_merge_parallel", lambda P: P)
    before = count_lps()
    unmerged = max_positively_invariant(A, Q)
    assert lps < count_lps() - before
    assert contains_set(unmerged, omega) and contains_set(omega, unmerged)


@pytest.mark.parametrize("seed", range(6))
def test_slab_bounds_are_upper_bounds(seed):
    # the slabs |F_B x| <= g_B of n rows of a symmetric set hold the set, so
    # their support along any direction is at least the set's, and it is
    # the offset itself along each picked row
    rng = np.random.default_rng([seed, 43])
    for duplicates in (False, True):
        P = _symmetric_case(seed, duplicates)
        D = np.vstack([P.F, rng.standard_normal((20, P.dim))])
        bounds = polytope._slab_bounds(P.F, P.g, D)
        assert np.all(np.isfinite(bounds))
        assert np.all(bounds >= support(P, D) - 1e-9)
        assert np.sum(np.isclose(bounds[: P.nrows], P.g, rtol=1e-12, atol=0.0)) >= P.dim
    A, P, _ = _lqr_fixpoint_case(seed)
    assert np.all(polytope._slab_bounds(P.F, P.g, P.F @ A) >= support(P, P.F @ A) - 1e-9)


def test_slab_bounds_of_a_set_holding_a_line_are_infinite():
    assert np.all(polytope._slab_bounds(STRIP.F, STRIP.g, np.eye(2)) == np.inf)


def _split_box():
    """The unit box of R^3 with its x3 rows repeated scaled by 2, mirrors matched.

    Rays prove the x1 and x2 rows to be facets; the x3 rows tie with their
    copies, so no ray proves them, and the ray-proven facets span only a plane.
    """
    F = np.vstack([np.eye(3), [0.0, 0.0, 2.0]])
    return Polytope(np.vstack([F, -F]), np.array([1.0, 1.0, 1.0, 2.0] * 2))


def test_slabs_keep_the_rows_of_the_per_row_oracles(monkeypatch, count_lps):
    # on symmetric sets with and without scaled duplicate rows, the slabs
    # settle rows without an LP: remove_redundant and the invariant set keep
    # what one fresh LP per row keeps (as point sets where duplicates leave a
    # choice of row), and exactly the rows of the same code without slabs
    cases = [(_symmetric_case(seed, dup), _stable_map_case(seed)[0])
             for seed in range(6, 10) for dup in (False, True)]
    cases.append((_split_box(), _stable_map_case(1)[0]))
    results, lps = [], []
    for slabs in (True, False):
        if not slabs:
            monkeypatch.setattr(polytope, "_slab_bounds", lambda F, g, D: np.full(len(D), np.inf))
        before = count_lps()
        results.append([(remove_redundant(P), max_positively_invariant(A, P)) for P, A in cases])
        lps.append(count_lps() - before)
    assert lps[0] < lps[1]
    for (P, A), (R, omega), (R0, omega0) in zip(cases, *results):
        for Q, Q0 in ((R, R0), (omega, omega0)):
            assert np.array_equal(Q.F, Q0.F) and np.array_equal(Q.g, Q0.g)
        keep = helpers.redundancy_oracle(P.F, P.g)
        F, g = helpers.mpi_reference(A, P.F, P.g)
        if len(np.unique(P.F / P.g[:, None], axis=0)) == P.nrows:  # no duplicates: same rows
            assert np.array_equal(R.F, P.F[keep]) and np.array_equal(R.g, P.g[keep])
            assert omega.F.shape == F.shape
            np.testing.assert_allclose(omega.F, F, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(omega.g, g)
        else:
            _assert_irredundant_same_set(R, Polytope(P.F[keep], P.g[keep]))
            _assert_irredundant_same_set(omega, Polytope(F, g))


def _hexagon():
    """A rotated regular hexagon of inradius 1, and each facet again at offset 1.05."""
    angles = 0.3 + np.pi / 3.0 * np.arange(3)
    N = np.column_stack([np.cos(angles), np.sin(angles)])
    F = np.vstack([N, N])
    return Polytope(np.vstack([F, -F]), np.array([1.0, 1.0, 1.0, 1.05, 1.05, 1.05] * 2))


def test_loose_slabs_leave_rows_to_the_lp(count_lps):
    # the slabs of two facet pairs of a hexagon bound a parallelogram whose
    # support along the third pair's normal is 2: the copies of the picked
    # facets at 1.05 need no LP, the copy of the third pair still does, and
    # the rows kept are the per-row scan's.  Under 0.9 times a rotation by
    # 60 degrees the hexagon is invariant, and again one image pair needs an LP
    P = _hexagon()
    facets = polytope._ray_facets(P)
    np.testing.assert_array_equal(np.flatnonzero(facets), [0, 1, 2, 6, 7, 8])
    loose = polytope._slab_bounds(P.F[facets], P.g[facets], P.F) > P.g
    assert np.count_nonzero(loose & ~facets) == 2  # one pair
    R = remove_redundant(P)
    assert count_lps() == 1
    keep = helpers.redundancy_oracle(P.F, P.g)
    assert np.array_equal(R.F, P.F[keep]) and np.array_equal(R.g, P.g[keep])
    turn = np.pi / 3.0
    A = 0.9 * np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    omega = max_positively_invariant(A, R)
    assert count_lps() == 2
    assert np.array_equal(omega.F, R.F) and np.array_equal(omega.g, R.g)


def test_slabs_never_run_on_unmatched_sets(monkeypatch, count_lps):
    # one offset moved up by one ulp leaves rows without a mirror, and a zero
    # offset leaves no room for slabs: those sets take the per-row path, with
    # its rows and LP counts (see test_unmatched_rows_take_the_per_row_scan
    # for plant 0's 30, one ray per row), and never ask for a slab bound
    def no_slabs(F, g, D):
        raise AssertionError("a slab bound on a set without the slab rule")

    monkeypatch.setattr(polytope, "_slab_bounds", no_slabs)
    A, P, _ = _lqr_fixpoint_case(0)
    before = count_lps()
    max_positively_invariant(A, _unmatched(P)[1])
    assert count_lps() - before == 30
    _, nudged = _unmatched(_hexagon())
    before = count_lps()
    R = remove_redundant(nudged)
    assert count_lps() - before == 6  # one LP per row that no ray proves a facet
    keep = helpers.redundancy_oracle(nudged.F, nudged.g)
    assert np.array_equal(R.F, nudged.F[keep]) and np.array_equal(R.g, nudged.g[keep])
    flat = Polytope.box([-1.0, 0.0], [1.0, 0.0])  # x2 = 0: the offsets of the x2 pair are 0
    assert not np.array_equal(polytope._mirrors(flat), np.arange(flat.nrows))
    omega = max_positively_invariant(_stable_map_case(0)[0], flat)
    F, g = helpers.mpi_reference(_stable_map_case(0)[0], flat.F, flat.g)
    _assert_irredundant_same_set(omega, Polytope(F, g))


def _random_polygon(seed):
    """A bounded polygon: three rows whose normals positively span the plane and
    up to five random rows, all offset about a random point.  Every third seed
    adds an exact and a x2 duplicate of existing rows.
    """
    rng = np.random.default_rng([seed, 33])
    angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi / 3 * np.arange(3) + rng.uniform(-0.5, 0.5, 3)
    angles = np.concatenate([angles, rng.uniform(0, 2 * np.pi, rng.integers(0, 6))])
    F = rng.uniform(0.5, 2.0, (angles.size, 1)) * np.column_stack([np.cos(angles), np.sin(angles)])
    g = rng.uniform(0.3, 1.5, angles.size) * np.linalg.norm(F, axis=1) + F @ rng.normal(size=2)
    if seed % 3 == 0:
        i, j = rng.integers(0, angles.size, 2)
        F, g = np.vstack([F, F[i], 2.0 * F[j]]), np.concatenate([g, [g[i], 2.0 * g[j]]])
    return Polytope(F, g)


POLYGONS = {
    **{f"random{seed}": _random_polygon(seed) for seed in range(200)},
    # the last row passes through the vertex (1, 0) and cuts nothing
    "triangle_redundant_row": Polytope(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 0.5]]), np.array([0.0, 0.0, 1.0, 1.0])
    ),
    "case_Xin": Polytope(CASE_C_IN, CASE_c_IN),
    "case_R_as": Polytope(CASE_C_AS, CASE_c_AS),
    "case_R_eq": Polytope(CASE_F_EQ, CASE_g_EQ),
}


@pytest.mark.parametrize("name", POLYGONS)
def test_vertices_2d_of_bounded_polygons(name):
    P = POLYGONS[name]
    helpers.check_polygon_vertices(P, vertices_2d(P))


def _box_plus(f, g):
    return Polytope(np.vstack([UNIT_BOX.F, f]), np.append(UNIT_BOX.g, g))


def _rotated_sliver(width, angle):
    """The rectangle [-1, 1] x [-width / 2, width / 2] turned by angle."""
    c, s = np.cos(angle), np.sin(angle)
    P = Polytope.box([-1.0, -width / 2], [1.0, width / 2])
    return Polytope(P.F @ np.array([[c, s], [-s, c]]), P.g)


DEGENERATE = {
    "empty": _box_plus([1.0, 0.0], -2.0),
    "no_rows": Polytope(np.zeros((0, 2)), np.zeros(0)),
    "strip": STRIP,
    "strip_one_cap": Polytope(np.vstack([STRIP.F, [0.0, 1.0]]), np.ones(3)),
    "segment": Polytope.box([-1.0, 0.0], [1.0, 0.0]),
    "point": Polytope.box([0.5, 0.5], [0.5, 0.5]),
    "box_zero_row_infeasible": _box_plus([0.0, 0.0], -1.0),
    **{f"sliver_width0_angle{a}": _rotated_sliver(0.0, a) for a in (0.0, 0.3, 1.1)},
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_vertices_2d_of_sets_that_are_no_polygon(name):
    # empty, unbounded and flat sets get no vertices, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vertices_2d(DEGENERATE[name]).shape == (0, 2)


FOUR_CORNERS = {
    "box_zero_row_g0": _box_plus([0.0, 0.0], 0.0),
    "box_zero_row_g1": _box_plus([0.0, 0.0], 1.0),
    **{
        f"sliver_width{w}_angle{a}": _rotated_sliver(w, a)
        for w in (1e-3, 1e-6, 1e-9, 1e-12, 3e-14)
        for a in (0.0, 0.3, 1.1)
    },
}


@pytest.mark.parametrize("name", FOUR_CORNERS)
def test_vertices_2d_of_thin_and_padded_boxes(name):
    # a zero row that holds everywhere is no facet, and a sliver is still a polygon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vertices_2d(FOUR_CORNERS[name]).shape == (4, 2)


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
