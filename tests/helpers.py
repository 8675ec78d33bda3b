"""Independent oracles used by the tests.

These deliberately avoid the package's MILP machinery: output ranges are
reproduced by brute-force enumeration of activation patterns (one LP per
pattern, solved directly with scipy), reachable sets by enumeration of
pattern sequences through the plant, invariant sets by stacking a fixed
number of preimages or by the invariant-set iteration with one fresh LP per
support, redundancy removal by one fresh LP per row, activation regions
by enumeration of every pattern, and the LQR retrofit by least squares on
the Kronecker-expanded gain equation.  ``cold_linprog`` solves the LP that a
warm-started HiGHS model holds once more from scratch.
``check_polygon_vertices`` checks a vertex list against the rows of its
polygon.  ``imitation_loop`` builds the closed loops of the imitation ladder:
random ReLU controllers fitted to a saturated LQR, by default the case
study's; ``set_plant_loop`` builds one on a plant of perfbench's set_algebra
workload, whose plants ``set_algebra_plants`` redraws.
"""

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from certnn.control import LtiSystem, lqr, lqr_admissible_set
from certnn.network import ReluNetwork, retrofit_lqr, saturate
from certnn.polytope import Polytope, remove_redundant


def _hidden_under_pattern(net, gammas):
    """(W, b) of the last hidden layer's output when the hidden activity is fixed to gammas."""
    W_acc = np.eye(net.n_x)
    b_acc = np.zeros(net.n_x)
    for (W, b), gamma in zip(net.layers[:-1], gammas):
        W_acc = W @ W_acc
        b_acc = W @ b_acc + b
        mask = np.asarray(gamma, dtype=float)
        W_acc = mask[:, None] * W_acc
        b_acc = mask * b_acc
    return W_acc, b_acc


def _affine_under_pattern(net, gammas):
    """(W, b) of the full network when the hidden activity is fixed to gammas."""
    W_acc, b_acc = _hidden_under_pattern(net, gammas)
    W, b = net.layers[-1]
    return W @ W_acc, W @ b_acc + b


def _pattern_rows(net, gammas):
    """Half-space rows (F, g) on the input under which gammas is realized."""
    rows, rhs = [], []
    W_acc = np.eye(net.n_x)
    b_acc = np.zeros(net.n_x)
    for (W, b), gamma in zip(net.layers[:-1], gammas):
        V = W @ W_acc
        c = W @ b_acc + b
        for j, bit in enumerate(gamma):
            if bit:
                rows.append(-V[j])
                rhs.append(c[j])
            else:
                rows.append(V[j])
                rhs.append(-c[j])
        mask = np.asarray(gamma, dtype=float)
        W_acc = mask[:, None] * V
        b_acc = mask * c
    return np.array(rows), np.array(rhs)


def _all_patterns(widths):
    for bits in itertools.product((1, 0), repeat=sum(widths)):
        out = []
        pos = 0
        for w in widths:
            out.append(np.array(bits[pos : pos + w]))
            pos += w
        yield tuple(out)


def _lp_max(c, F, g):
    """max c.x over F x <= g; returns None if infeasible, inf if unbounded."""
    res = linprog(-np.asarray(c), A_ub=F, b_ub=g, bounds=[(None, None)] * len(c), method="highs")
    if res.status == 2:
        return None
    if res.status == 3:
        return np.inf
    return -res.fun


def held_matrix(p):
    """The constraint matrix of p, the LP that a HiGHS object's getLp() returns, as a CSR array."""
    m = p.a_matrix_
    form = sparse.csc_array if m.format_ == highs.MatrixFormat.kColwise else sparse.csr_array
    return sparse.csr_array(form((m.value_, m.index_, m.start_), shape=(p.num_row_, p.num_col_)))


def cold_linprog(h):
    """The LP that the HiGHS object h holds, solved cold by scipy.optimize.linprog.

    Returns (status, value): linprog's status code (0 optimal, 2 infeasible,
    3 unbounded) and, when optimal, the minimum of the LP's cost plus offset.
    Rows with equal finite bounds are equalities; rows with both bounds
    infinite (dropped by a right-hand side of +inf) are left out.
    """
    p = h.getLp()
    A = held_matrix(p)
    lo, up = np.asarray(p.row_lower_), np.asarray(p.row_upper_)
    eq = lo == up
    upper, lower = np.flatnonzero(~eq & np.isfinite(up)), np.flatnonzero(~eq & np.isfinite(lo))
    A_ub = sparse.vstack([A[upper], -A[lower]])
    b_ub = np.concatenate([up[upper], -lo[lower]])
    res = linprog(
        p.col_cost_,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A[np.flatnonzero(eq)] if eq.any() else None,
        b_eq=lo[eq] if eq.any() else None,
        bounds=np.column_stack([p.col_lower_, p.col_upper_]),
        method="highs",
    )
    sign = 1.0 if p.sense_ == highs.ObjSense.kMinimize else -1.0
    return res.status, (sign * res.fun + p.offset_ if res.status == 0 else None)


def _feasible(F, g):
    res = linprog(
        np.zeros(F.shape[1]), A_ub=F, b_ub=g, bounds=[(None, None)] * F.shape[1], method="highs"
    )
    return res.status == 0


def output_range_oracle(net, F_in, g_in, directions):
    """max d.N(x) over {F_in x <= g_in} by full pattern enumeration.

    directions is one direction d (returns a float) or a matrix with one
    direction per row (returns an array); the patterns are swept once for all.
    """
    D = np.atleast_2d(directions)
    best = np.full(len(D), -np.inf)
    for gammas in _all_patterns(net.hidden_widths):
        rows, rhs = _pattern_rows(net, gammas)
        F = np.vstack([F_in, rows])
        g = np.concatenate([g_in, rhs])
        if not _feasible(F, g):
            continue
        W, b = _affine_under_pattern(net, gammas)
        for i, d in enumerate(D):
            val = _lp_max(d @ W, F, g)
            if val is not None:
                best[i] = max(best[i], val + float(d @ b))
    return float(best[0]) if np.ndim(directions) == 1 else best


def reach_oracle(A, B, net, F_in, g_in, k, directions, state_rows=None):
    """max d.x_k over k closed-loop steps by pattern-sequence enumeration.

    All constraints are affine in x0 once the activation pattern of every step
    is fixed; infeasible prefixes are pruned (this only skips empty branches,
    the enumeration stays exhaustive).  directions is one direction d (returns
    a float) or a matrix with one direction per row (returns an array); the
    pattern sequences are enumerated once for all.  state_rows = (F_s, g_s)
    adds the rows F_s x_j <= g_s at every state x_1 .. x_{k-1}.
    """
    D = np.atleast_2d(directions)
    best = np.full(len(D), -np.inf)

    def descend(step, F, g, W_state, b_state):
        if step == k:
            for i, d in enumerate(D):
                val = _lp_max(d @ W_state, F, g)
                if val is not None and np.isfinite(val):
                    best[i] = max(best[i], val + float(d @ b_state))
            return
        if step > 0 and state_rows is not None:
            F_s, g_s = state_rows
            F, g = np.vstack([F, F_s @ W_state]), np.concatenate([g, g_s - F_s @ b_state])
        for gammas in _all_patterns(net.hidden_widths):
            rows, rhs = _pattern_rows(net, gammas)
            F_new = np.vstack([F, rows @ W_state])
            g_new = np.concatenate([g, rhs - rows @ b_state])
            if not _feasible(F_new, g_new):
                continue
            W_u, b_u = _affine_under_pattern(net, gammas)
            W_next = A @ W_state + B @ (W_u @ W_state)
            b_next = A @ b_state + B @ (W_u @ b_state + b_u)
            descend(step + 1, F_new, g_new, W_next, b_next)

    n_x = A.shape[0]
    descend(0, F_in, g_in, np.eye(n_x), np.zeros(n_x))
    return float(best[0]) if np.ndim(directions) == 1 else best


def mpi_oracle(A, F, g, N):
    """(F_N, g_N) with rows F A^i x <= g for i = 0..N, stacked with numpy only.

    Once N reaches the determinedness index of (A, F, g) this is the maximal
    positively invariant set inside {F x <= g}, unpruned.
    """
    blocks = [np.asarray(F, dtype=float)]
    for _ in range(N):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks), np.tile(np.asarray(g, dtype=float), N + 1)


def redundancy_oracle(F, g, tol=1e-9):
    """Indices of the rows of {F x <= g} that survive a sequential redundancy scan.

    Row i is tested with one fresh linprog over the rows still kept, with
    row i itself relaxed to g_i + 1; it is dropped when max F_i x stays
    within tol of g_i.
    """
    keep = list(range(len(g)))
    for i in range(len(g)):
        rows = [j for j in keep if j != i]
        val = _lp_max(F[i], np.vstack([F[rows], F[i]]), np.append(g[rows], g[i] + 1.0))
        if val is not None and val <= g[i] + tol:
            keep.remove(i)
    return keep


def check_polygon_vertices(P, V):
    """Assert that V lists the vertices of the 2-D polygon P, counter-clockwise.

    Every vertex satisfies every row within 1e-9 and lies on at least two
    rows within 1e-9, there is one vertex per facet (remove_redundant(P)
    keeps one row per facet), and every turn from one edge to the next is
    strictly counter-clockwise.
    """
    slack = P.F @ V.T - P.g[:, None]
    assert np.all(slack <= 1e-9)
    assert np.all(np.sum(np.abs(slack) <= 1e-9, axis=0) >= 2)
    assert len(V) == remove_redundant(P).nrows
    edges = np.roll(V, -1, axis=0) - V
    after = np.roll(edges, -1, axis=0)
    assert np.all(edges[:, 0] * after[:, 1] - edges[:, 1] * after[:, 0] > 0.0)


def mpi_reference(A, F, g, tol=1e-9, max_iter=500):
    """(F, g) of the maximal positively invariant set of x -> A x inside {F x <= g}.

    The Gilbert-Tan iteration without shortcuts: at step k every row of
    F A^(k+1) is tested, each by one fresh linprog along its unit direction
    over the rows stacked so far, and the rows whose support exceeds g by
    more than tol are appended.  At the fixpoint the stack is pruned with
    redundancy_oracle; a stack that becomes empty is returned unpruned.
    """
    F, g = np.asarray(F, dtype=float), np.asarray(g, dtype=float)
    F_omega, g_omega, F_k = F, g, F
    for _ in range(max_iter):
        F_k = F_k @ A
        sup = []
        for row in F_k:
            norm = np.linalg.norm(row)
            scale = norm if norm > 0.0 else 1.0
            value = _lp_max(row / scale, F_omega, g_omega)
            if value is None:
                return F_omega, g_omega
            sup.append(scale * value)
        cuts = np.flatnonzero(np.array(sup) > g + tol)
        if not cuts.size:
            keep = redundancy_oracle(F_omega, g_omega, tol)
            return F_omega[keep], g_omega[keep]
        F_omega = np.vstack([F_omega, F_k[cuts]])
        g_omega = np.concatenate([g_omega, g[cuts]])
    raise RuntimeError(f"no fixpoint after {max_iter} steps")


def regions_oracle(net, F_in, g_in):
    """(pattern, F, g) of every activation pattern realized in {F_in x <= g_in}.

    Patterns come in the order of a depth-first search that tries the active
    bit first; each cell is pruned with redundancy_oracle.
    """
    out = []
    for gammas in _all_patterns(net.hidden_widths):
        rows, rhs = _pattern_rows(net, gammas)
        F = np.vstack([F_in, rows])
        g = np.concatenate([g_in, rhs])
        if _feasible(F, g):
            keep = redundancy_oracle(F, g)
            out.append((gammas, F[keep], g[keep]))
    return out


def sample_polytope(rng, F, g, n, lo, hi, max_tries=200000):
    """Rejection-sample n points of {F x <= g} from the box [lo, hi]."""
    pts = []
    dim = F.shape[1]
    for _ in range(max_tries):
        batch = rng.uniform(lo, hi, size=(max(64, n), dim))
        ok = np.all(batch @ F.T <= g + 1e-12, axis=1)
        pts.extend(batch[ok])
        if len(pts) >= n:
            return np.array(pts[:n])
    raise RuntimeError("rejection sampling failed")


def batch_eval(net, X):
    """Evaluate the network on rows of X at once."""
    Z = np.asarray(X, dtype=float)
    for W, b in net.layers[:-1]:
        Z = np.maximum(Z @ W.T + b, 0.0)
    W, b = net.layers[-1]
    return Z @ W.T + b


def retrofit_reference(net, K):
    """(W_new, b_new, cost) of the LQR retrofit, or None when no output layer gives -K.

    The constraints W_new @ W_eq = -K and W_new @ b_eq + b_new = 0 are
    expanded into one linear system over [vec(W_new rows); b_new] with a
    Kronecker product; a rank test rejects an inconsistent gain equation and
    the min-norm least-squares step from the old layer gives the optimum.
    """
    K = np.asarray(K, dtype=float).reshape(net.n_u, net.n_x)
    W_eq, b_eq = _hidden_under_pattern(net, net.activation_pattern(np.zeros(net.n_x)))
    W_out, b_out = net.layers[-1]
    n_u, n_L = W_out.shape
    A_w = np.kron(np.eye(n_u), W_eq.T)
    b_w = (-K).reshape(-1)
    if np.linalg.matrix_rank(np.column_stack([A_w, b_w])) > np.linalg.matrix_rank(A_w):
        return None
    A_full = np.zeros((n_u * net.n_x + n_u, n_u * n_L + n_u))
    b_full = np.zeros(n_u * net.n_x + n_u)
    A_full[: n_u * net.n_x, : n_u * n_L] = A_w
    b_full[: n_u * net.n_x] = b_w
    for i in range(n_u):
        A_full[n_u * net.n_x + i, i * n_L : (i + 1) * n_L] = b_eq
        A_full[n_u * net.n_x + i, n_u * n_L + i] = 1.0
    target = np.concatenate([W_out.reshape(-1), b_out])
    sol = target + np.linalg.lstsq(A_full, b_full - A_full @ target, rcond=None)[0]
    if np.max(np.abs(A_full @ sol - b_full)) > 1e-8 * (1.0 + np.max(np.abs(b_full))):
        return None
    return sol[: n_u * n_L].reshape(n_u, n_L), sol[n_u * n_L :], float(np.sum((sol - target) ** 2))


def set_algebra_plants():
    """(A, B) of the 8 plants of perfbench's set_algebra workload: same seed, same recipe."""
    rng = np.random.default_rng([0, 3])
    plants = []
    for _ in range(8):
        n = int(rng.integers(4, 9))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.9, 1.1) / np.max(np.abs(np.linalg.eigvals(A)))
        plants.append((A, rng.standard_normal((n, 1))))
    return plants


def imitation_loop(widths, seed, plant=None, box=4.0, X_in=None):
    """A ReLU controller fitted to a saturated LQR, as ``verify_stability`` kwargs.

    plant is (system, K), by default the case-study plant and its LQR gain
    under Q = 2 I, R = 1.  The hidden layers are random (weights N(0, 1),
    biases U(-3, 3)); the output layer is the least-squares fit of
    clip(-K x, -1, 1) on 4,000 states drawn from [-box, box]^n, then
    retrofitted to -K at the origin and saturated into U = [-1, 1].  X_in is
    by default the case-study input set at half its offsets, and X the box
    |x_i| <= 5.
    """
    from conftest import CASE_A, CASE_B, CASE_C_IN, CASE_c_IN  # conftest imports this module

    if plant is None:
        system = LtiSystem(CASE_A, CASE_B)
        plant = system, lqr(system, 2.0 * np.eye(2), np.eye(1)).K
    system, K = plant
    n = system.n_x
    rng = np.random.default_rng(seed)
    X = rng.uniform(-box, box, (4000, n))
    layers, H = [], X
    for w in widths:
        W, b = rng.normal(size=(w, H.shape[1])), rng.uniform(-3.0, 3.0, w)
        layers.append((W, b))
        H = np.maximum(H @ W.T + b, 0.0)
    target = np.clip(-X @ K.T, -1.0, 1.0)
    fit = np.linalg.lstsq(np.column_stack([H, np.ones(len(H))]), target, rcond=None)[0]
    net, _ = retrofit_lqr(ReluNetwork([*layers, (fit[:-1].T, fit[-1])]), K)
    return dict(
        sys=system,
        net=saturate(net, [-1.0], [1.0]),
        X_in=Polytope(CASE_C_IN, 0.5 * CASE_c_IN) if X_in is None else X_in,
        X=Polytope.box(-5.0 * np.ones(n), 5.0 * np.ones(n)),
        U=Polytope.box([-1.0], [1.0]),
        K_ref=K,
    )


def set_plant_loop(i, widths, seed):
    """``imitation_loop`` on set-algebra plant i, fitted on [-2, 2]^n from X_in = R_K.

    K is the plant's LQR gain under Q = I, R = 1, the set_algebra workload's
    weights, and R_K its maximal admissible invariant set in X and U.
    """
    A, B = set_algebra_plants()[i]
    system = LtiSystem(A, B)
    K = lqr(system, np.eye(system.n_x), np.eye(1)).K
    X = Polytope.box(-5.0 * np.ones(system.n_x), 5.0 * np.ones(system.n_x))
    R_K = lqr_admissible_set(system, K, X, Polytope.box([-1.0], [1.0]))
    return imitation_loop(widths, seed, plant=(system, K), box=2.0, X_in=R_K)
