"""H-representation polytope algebra.

A polytope is {x : F x <= g}.  Emptiness is one linear program.  The
support function loads the rows of a polytope once and answers a whole
matrix of directions on that load, so containment and the bounding box are
one support call; an unbounded direction has support +inf.  Redundancy
removal also loads the rows once: it tests one row at a time by relaxing
that row's right-hand side in place, and drops a redundant row by setting
its right-hand side to +inf.  When the origin is strictly inside, one ray
from the origin per row, at the support point along that row of an
ellipsoid inside the set, first proves some rows to be facets, and those
rows need no LP (the ray-shooting step of Clarkson's output-sensitive
redundancy removal, FOCS 1994).  Intersection only stacks rows; the one
operation that prunes is the maximal positively invariant set of a stable
linear map, which keeps one loaded LP for its whole fixpoint: each step
tests only the images of the rows that cut at the step before, appends the
rows that cut and removes redundancy once at the end, on the same load.
Before it loads, it merges the rows of equal normals into the first of them
at the smallest offset, since a stack of constraint sets can repeat a row,
as the case study's R_as stack does.  The same ray per new row leaves the
current set at a point of it, and a row that the point violates cuts
without an LP.  A set whose right-hand sides are all >= 0 holds the origin
and needs no emptiness LP.  A set whose rows come in exact mirror pairs
(F_j = -F_i, g_j = g_i), as the constraints of a state box and an input box
centred on the origin do, is symmetric about the origin, and so is every
step of its fixpoint.  The pair rule then answers both rows of a pair with
one LP, in the fixpoint's cut tests and in the redundancy scan.  A matched
set with g > 0 also bounds itself from outside: each pair gives
|F_i x| <= g_i, so n of its rows bound a parallelotope that holds it (see
_slab_bounds), and a row whose support on that parallelotope is at most g_i
cuts no fixpoint step and is redundant, with no LP.  The fixpoint takes
those n rows from the current set; the redundancy scan takes them from the
ray-proven facets, which it never drops, so the parallelotope holds on
every set the scan passes through.  With the rays, the pairs and the slabs,
a set_algebra benchmark pass (8 plants) solves 87 LPs: 50 cut tests and 37
prune tests.  Set equality is always decided by mutual containment, never
by comparing rows, because equivalent H-representations can differ in row
order and scaling.  Every loaded set is re-solved by HiGHS's primal
simplex, which goes on from the last basis after a change of cost (see
certnn.lp).  The vertices of a 2-D polygon, for plots, are Qhull's
halfspace intersection from its Chebyshev centre (scipy.spatial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from certnn import lp
from certnn.errors import DimensionMismatch, EmptyInput, NoConvergence
from certnn.tolerances import LP_FEAS_TOL, POINT_TOL, REDUNDANCY_TOL, SLAB_RANK_TOL

MAX_FIXPOINT_ITER = 500


@dataclass(frozen=True)
class Polytope:
    """{x in R^n : F x <= g} with F of shape (m, n) and g of length m."""

    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        g = np.asarray(self.g, dtype=float).reshape(-1)
        if F.ndim != 2:
            raise ValueError(f"F must be a matrix, got shape {F.shape}")
        if F.shape[0] != g.size:
            raise ValueError(f"row count {F.shape[0]} does not match g length {g.size}")
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(g))):
            raise ValueError("polytope data must be finite")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @property
    def nrows(self) -> int:
        return self.F.shape[0]

    @staticmethod
    def box(lb, ub) -> "Polytope":
        """Axis-aligned box {lb <= x <= ub}."""
        lb = np.asarray(lb, dtype=float).reshape(-1)
        ub = np.asarray(ub, dtype=float).reshape(-1)
        n = lb.size
        eye = np.eye(n)
        return Polytope(np.vstack([eye, -eye]), np.concatenate([ub, -lb]))

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(self.F @ x <= self.g + POINT_TOL))

    def to_json(self) -> dict:
        return {"F": self.F.tolist(), "g": self.g.tolist()}

    @staticmethod
    def from_json(data: dict) -> "Polytope":
        if not isinstance(data, dict):
            raise ValueError("a polytope is an object with the fields F and g")
        return Polytope(json_array(data["F"], "F"), json_array(data["g"], "g"))


def json_array(value, name: str) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a finite float array; ValueError otherwise."""
    message = f"{name} must be a number or a rectangular list of numbers"
    try:
        M = np.asarray(value)
    except ValueError as exc:  # a ragged list
        raise ValueError(message) from exc
    if M.dtype.kind not in "iuf":  # a string, an object, a boolean or null
        raise ValueError(message)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} entries must be finite")
    return M.astype(float)


def is_empty(P: Polytope) -> bool:
    """True iff the phase-one feasibility LP finds no point with F x <= g."""
    out = lp.solve_lp(lp.maximize(np.zeros(P.dim), P.F, P.g))
    return out.status == lp.LpStatus.INFEASIBLE


def _load(P: Polytope, empty: str = "") -> lp.LpModel:
    """The rows of P as an LP with zero cost: its first solve is the emptiness check.

    Given the message empty, that check runs here, and an empty P raises
    EmptyInput(empty).  It is one LP, and only when some offset is
    negative: when g >= 0 the origin is in P.
    """
    free = np.full(P.dim, np.inf)
    model = lp.LpModel(np.zeros(P.dim), P.F, P.g, -free, free, primal=True)
    if empty and np.any(P.g < 0.0) and model.solve("emptiness").status == lp.LpStatus.INFEASIBLE:
        raise EmptyInput(empty)
    return model


def support(P: Polytope, D):
    """max d.x over P for one direction d (a float) or each row d of a matrix D (an array).

    P is loaded once for all directions.  The support is +inf where P is
    unbounded along d; an empty P raises EmptyInput.
    """
    D = np.asarray(D, dtype=float)
    if D.shape[-1:] != (P.dim,) or D.ndim > 2:
        raise DimensionMismatch(f"directions of shape {D.shape} vs dimension {P.dim}")
    values = _load(P).maxima(D, "support")
    return float(values[0]) if D.ndim == 1 else values


def remove_redundant(P: Polytope) -> Polytope:
    """Drop rows whose removal does not change the point set.

    Row i is redundant iff maximizing F_i x over the remaining rows (with the
    bounding relaxation F_i x <= g_i + 1 to keep the LP bounded) stays below
    g_i.  Rows are scanned sequentially so that of two duplicates exactly one
    survives.  A row that the ray of _ray_facets proves to be a facet needs
    no LP.  When the rows form mirror pairs (see _mirrors), one LP decides
    both rows of a pair, and when also g > 0, the slabs of the ray-proven
    facets, which the scan never drops, drop the rows they imply without an
    LP (see _prune).  P is loaded once (see _load); an empty P
    raises EmptyInput.
    """
    return _prune(_load(P, "cannot remove redundancy from an empty polytope"), P, _mirrors(P))


def _mirrors(P: Polytope) -> np.ndarray:
    """Row i's mirror m[i]: the one other row with F_m = -F_i and g_m = g_i, compared exactly.

    When every row has exactly one mirror (a perfect mirror matching), P is
    symmetric about the origin.  Otherwise (a duplicate row, a zero row, a
    row without a mirror) each row is its own mirror, m[i] = i, and the pair
    rule of _prune and max_positively_invariant is the per-row scan.  A
    matched P with a negative g is empty, so the pair rule only ever runs
    with g >= 0.
    """
    rows = np.hstack([P.F, P.g[:, None]]) + 0.0  # -0.0 + 0.0 is 0.0: equal rows, equal bytes
    flipped = np.hstack([-P.F, P.g[:, None]]) + 0.0
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    mirror = np.array([index.get(row.tobytes(), -1) for row in flipped], dtype=int)
    identity = np.arange(P.nrows)
    if len(index) < P.nrows or np.any(mirror < 0) or np.any(mirror == identity):
        return identity
    return mirror


def _prune(model: lp.LpModel, P: Polytope, mirror: np.ndarray) -> Polytope:
    """remove_redundant on a model whose inequality rows are those of P, in order.

    A row that its ray from the origin proves to be a facet is kept without
    an LP (see _ray_facets); every other row is tested in order as described
    in remove_redundant.  mirror is _mirrors(P), or the same map carried
    through max_positively_invariant.  A row and its mirror m[i] are decided
    together at the first of the two: the set is symmetric, so the LP of
    F_i answers that of -F_i; a ray-proven facet keeps its mirror, and a
    redundant pair is dropped at once.  That keeps the point set: for
    g >= 0 the row -F_i x <= g_i never helps imply F_i x <= g_i.  With
    m[i] = i this is the per-row scan.

    When the rows are matched and g > 0, the rows that _slab_bounds picks
    from the ray-proven facets bound P by a parallelotope, and a row whose
    support on it is at most g_i is dropped with its mirror, with no LP.
    The scan never drops those facets and never tests one, so their slabs
    hold on every set it passes through.  A basis from all rows would be
    unsound: a row that the scan dropped earlier may be implied only while
    the row now under test is present.
    """
    keep = np.ones(P.nrows, dtype=bool)
    facets = _ray_facets(P)
    facets |= facets[mirror]
    implied = np.zeros(P.nrows, dtype=bool)
    if _has_slabs(P, mirror) and facets.any():
        implied = _slab_bounds(P.F[facets], P.g[facets], P.F) <= P.g
    for i, j in enumerate(mirror.tolist()):
        if j < i or facets[i]:
            continue  # decided with its mirror, or a facet
        if not implied[i]:
            model.set_rhs(i, P.g[i] + 1.0)
            model.set_objective(P.F[i])
            out = model.solve("prune test")
            if out.status != lp.LpStatus.OPTIMAL or out.value > P.g[i] + REDUNDANCY_TOL:
                model.set_rhs(i, P.g[i])
                continue  # kept
        keep[[i, j]] = False
        for row in {i, j}:
            model.set_rhs(row, np.inf)
    return Polytope(P.F[keep], P.g[keep])


def _has_slabs(P: Polytope, mirror: np.ndarray) -> bool:
    """True iff mirror is a perfect mirror matching of P's rows (see _mirrors) and g > 0."""
    return bool(np.any(mirror != np.arange(P.nrows)) and np.all(P.g > 0.0))


def _rays(P: Polytope, C) -> np.ndarray:
    """The direction of the one ray aimed along each row c of C: M^-1 c.

    Only when g > 0, so the origin is strictly inside P.  With
    M = F^T diag(g)^-2 F the ellipsoid {x : sum_j (F_j x / g_j)^2 <= 1} lies
    in P, and M^-1 c points at its support point along c; for the
    near-ellipsoidal sets of a stable loop that ray often leaves P through
    the face that maximizes c.  M is singular when P holds a line, and then
    the rows of C themselves are the directions.
    """
    G = P.F / P.g[:, None]
    try:
        return np.linalg.solve(G.T @ G, C.T).T
    except np.linalg.LinAlgError:
        return C


def _first_hits(P: Polytope, D):
    """(first, hit, rise) of the ray t d, t > 0, from the origin along each row d of D.

    Only when P has rows and g > 0.  The ray meets row i at
    t = g_i / (F_i . d) wherever F_i . d > 0.  first is the row it meets
    first, at t1, and hit = t1 d is a point of P on that row.  If the ray
    meets the next row at t2 > t1, the points between the two hits violate
    row first alone, so F_first x rises above g_first by
    rise = (t2 - t1) F_first . d before any other row stops it; a ray that
    meets one row only lets it rise without end (rise = inf).  Ties give
    rise 0, and so does a ray that meets no row, whose hit is nan.
    """
    R = P.F @ D.T
    # t[i, j]: where ray j meets row i; the extra last row is never met
    t = np.full((P.nrows + 1, len(D)), np.inf)
    np.divide(P.g[:, None], R, out=t[:-1], where=R > 0.0)
    first = np.argmin(t, axis=0)
    t1, t2 = np.partition(t, 1, axis=0)[:2]
    met = np.isfinite(t1)  # then t2 - t1 is no inf - inf
    hit = np.full(D.shape, np.nan)
    np.multiply(t1[:, None], D, out=hit, where=met[:, None])
    rise = np.zeros(len(D))
    rise[met] = (t2[met] - t1[met]) * R[first[met], np.flatnonzero(met)]
    return first, hit, rise


def _ray_facets(P: Polytope) -> np.ndarray:
    """Mask of the rows that a ray from the origin proves to be facets.

    Only when g > 0.  One ray per row (see _rays), at the support point of
    P's inner ellipsoid along the row's normal.  Where the row f that a ray
    meets first rises above g_f by more than 10 * LP_FEAS_TOL, ten times
    HiGHS's feasibility tolerance, before another row stops the ray (see
    _first_hits), the LP scan would keep row f too.  Ties (duplicate or
    scaled duplicate rows) and zero rows, which no ray meets, are left to
    the LP.
    """
    facets = np.zeros(P.nrows, dtype=bool)
    if P.nrows and np.all(P.g > 0.0):
        first, _, rise = _first_hits(P, _rays(P, P.F))
        facets[first[rise > 10.0 * LP_FEAS_TOL]] = True
    return facets


def _point_cuts(omega: Polytope, F, g) -> np.ndarray:
    """Mask of the rows of F x <= g that a point of omega proves to cut omega.

    Only when omega has g > 0.  The one ray per row r (see _rays) ends at a
    point x of omega (see _first_hits); r . x > g_r + REDUNDANCY_TOL shows
    that the support of r on omega exceeds g_r as the LP test of
    max_positively_invariant requires.  The other rows are left to the LP.
    """
    cuts = np.zeros(len(g), dtype=bool)
    if omega.nrows and np.all(omega.g > 0.0):
        _, hit, _ = _first_hits(omega, _rays(omega, F))
        cuts = np.sum(hit * F, axis=1) > g + REDUNDANCY_TOL
    return cuts


def _slab_bounds(F, g, D) -> np.ndarray:
    """Upper bounds on the support, along each row d of D, of any set in {x : |F x| <= g}.

    Only when g > 0.  The n rows B that a pivoted QR (LAPACK dgeqp3) picks
    from F / g bound the parallelotope {x : |F_B x| <= g_B}, which holds
    the set, and whose support along d is |d F_B^-1| . g_B: one n x n solve
    (LAPACK dgesv) for all of D.  Every bound is +inf when the picked rows
    are near dependent (see SLAB_RANK_TOL), as when the set holds a line.
    """
    G = F / g[:, None]
    n = G.shape[1]
    if len(G) >= n > 0:
        qr, pivots, _, _, _ = lapack.dgeqp3(G.T)
        if abs(qr[n - 1, n - 1]) > SLAB_RANK_TOL * abs(qr[0, 0]):
            _, _, Y, info = lapack.dgesv(G[pivots[:n] - 1].T, D.T)  # Y = (D G_B^-1)^T
            if info == 0:
                return np.abs(Y).sum(axis=0)
    return np.full(len(D), np.inf)


def contains_set(outer: Polytope, inner: Polytope, tol: float = LP_FEAS_TOL) -> bool:
    """True iff inner is a subset of outer, by inner's support along the rows of outer."""
    if outer.dim != inner.dim:
        raise DimensionMismatch(f"dimensions {outer.dim} and {inner.dim} differ")
    return bool(np.all(support(inner, outer.F) <= outer.g + tol))


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Row-stack of both sets.  Rows are not pruned and the result may be empty."""
    if P.dim != Q.dim:
        raise DimensionMismatch(f"dimensions {P.dim} and {Q.dim} differ")
    return Polytope(np.vstack([P.F, Q.F]), np.concatenate([P.g, Q.g]))


def _merge_parallel(P: Polytope) -> Polytope:
    """P with the rows of equal normals merged into the first of them, at their smallest offset.

    Normals are compared exactly, -0.0 as 0.0, as in _mirrors; the other
    rows keep their place.  The point set does not change.
    """
    _, first, group = np.unique(P.F + 0.0, axis=0, return_index=True, return_inverse=True)
    if first.size == P.nrows:
        return P
    group, keep = group.reshape(-1), np.sort(first)
    g = np.full(first.size, np.inf)
    np.minimum.at(g, group, P.g)
    return Polytope(P.F[keep], g[group[keep]])


def max_positively_invariant(A_cl, P: Polytope) -> Polytope:
    """Largest O inside P with A_cl O inside O, for a stable linear map.

    The maximal admissible set iteration of Gilbert & Tan (IEEE TAC 1991):
    O_k = {x : F A_cl^i x <= g, i = 0..k}, growing only by the rows of
    F A_cl^(k+1) whose support on O_k exceeds g (an unbounded support counts
    as a cut).  Only the rows that cut at step k are tested at step k + 1:
    x in O_(k+1) puts A_cl x in O_k, so the support of F_j A_cl^(k+2) on
    O_(k+1) is at most that of F_j A_cl^(k+1) on O_k, and a row that did not
    cut at step k never cuts again.  A row that the end point of its ray in
    O_k proves to cut (see _point_cuts) needs no LP; only the other rows are
    solved.  When no row cuts, O_k is invariant and is returned with its
    redundant rows removed.  When the rows squeeze every point out, the
    empty stack is returned: it is the (trivially invariant) fixpoint.  One
    LP is loaded for the whole fixpoint (see _load): the cutting
    rows are appended to it and the final pruning runs on it.

    When P's rows form mirror pairs (see _mirrors), so does every O_k, and
    O_k is symmetric about the origin: -F_j A_cl^(k+1) has the support of
    F_j A_cl^(k+1), and a point x that proves one row to cut proves the
    mirror to cut at -x.  One LP then decides each undecided pair, and the
    map of mirrors follows the rows through each step into the final prune.

    Rows of P with equal normals are first merged into the first of them,
    at their smallest offset (see _merge_parallel): the same set with fewer
    rows to test, and a repeated row no longer hides a mirror matching.  The
    case study's stack R_eq /\\ X /\\ U goes from 10 rows to 6, and its
    fixpoint solves 10 LPs.

    When the pairs are matched and g > 0, the rows of O_k, which all hold on
    O_k, bound it by a parallelotope (see _slab_bounds).  After the point
    cuts, an open row whose support on it is at most g (no slack, so the LP
    would agree) cannot cut and needs no LP.  The final prune takes its
    slabs from the ray-proven facets instead, the only rows it never drops
    (see _prune).
    """
    A_cl = np.asarray(A_cl, dtype=float)
    if A_cl.shape != (P.dim, P.dim):
        raise DimensionMismatch(f"map shape {A_cl.shape} vs dimension {P.dim}")
    P = _merge_parallel(P)
    model = _load(P, "invariant set of an empty polytope")
    mirror = _mirrors(P)
    slabs = _has_slabs(P, mirror)
    omega, F_k, g_k, mirror_k = P, P.F, P.g, mirror
    for _ in range(MAX_FIXPOINT_ITER):
        F_k = F_k @ A_cl
        cut = _point_cuts(omega, F_k, g_k)
        cut |= cut[mirror_k]
        undecided = ~cut
        if slabs and undecided.any():  # a row within its slab bound cannot cut
            bounds = _slab_bounds(omega.F, omega.g, F_k[undecided])
            undecided[undecided] = bounds > g_k[undecided]
        lead = np.flatnonzero(undecided & (np.arange(cut.size) <= mirror_k))  # one per open pair
        if lead.size:
            try:
                cut[lead] = model.maxima(F_k[lead], "cut test") > g_k[lead] + REDUNDANCY_TOL
            except EmptyInput:
                return omega
            cut[mirror_k[lead]] = cut[lead]
        cuts = np.flatnonzero(cut)
        if not cuts.size:
            return _prune(model, omega, mirror)
        mirror_k = (np.cumsum(cut) - 1)[mirror_k[cuts]]  # the mirrors' places among the cuts
        mirror = np.concatenate([mirror, omega.nrows + mirror_k])
        F_k, g_k = F_k[cuts], g_k[cuts]
        model.add_rows(F_k, g_k)
        omega = Polytope(np.vstack([omega.F, F_k]), np.concatenate([omega.g, g_k]))
    raise NoConvergence(f"no fixpoint after {MAX_FIXPOINT_ITER} iterations")


def bounding_box(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate [lo, hi] of P, infinite on the sides where P is unbounded."""
    eye = np.eye(P.dim)
    s = support(P, np.vstack([eye, -eye]))
    return -s[P.dim :], s[: P.dim]


def vertices_2d(P: Polytope) -> np.ndarray:
    """Vertices of a 2-D polygon, ordered counter-clockwise about their mean.

    Qhull's halfspace intersection from P's Chebyshev centre, the centre of
    the largest disc in P, found by one LP over the nonzero rows; Qhull
    merges the rows that meet at one vertex, so each vertex comes once.  A
    set that is empty, unbounded or flat (that disc has radius 0) is no
    polygon and gets no vertices: shape (0, 2).
    """
    if P.dim != 2:
        raise DimensionMismatch("vertex enumeration implemented for 2-D only")
    from scipy.spatial import HalfspaceIntersection
    try:
        if not np.all(np.isfinite(bounding_box(P))):
            return np.zeros((0, 2))
    except EmptyInput:
        return np.zeros((0, 2))
    rows = np.any(P.F != 0.0, axis=1)
    F, g = P.F[rows], P.g[rows]
    A = np.hstack([F, np.linalg.norm(F, axis=1, keepdims=True)])  # F x + |F_i| r <= g
    free = np.full(3, np.inf)
    out = lp.LpModel([0.0, 0.0, 1.0], A, g, -free, free).solve("vertex")
    if out.value <= 0.0:
        return np.zeros((0, 2))
    pts = HalfspaceIntersection(np.column_stack([F, -g]), out.point[:2]).intersections
    center = pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))]
