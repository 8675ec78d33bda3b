"""Certification pipeline for a network-controlled LTI system.

``verify_stability`` is the pipeline.  Its chain: input-constraint check
(output range vs U), one-step control-invariance of the initial set and
X_in inside X, the two stability conditions at the equilibrium region (zero
resulting bias, stable equilibrium-region closed loop), construction of the
stability set R_as, and a search for the smallest horizon k at which the
k-step reachable set is certified inside R_as.  Each of the four
containment checks bounds its set along the facets of the set it must lie
in (U, X_in, X, R_as), so containment is a componentwise comparison, and is
one ``_contained`` call: a bound lies within facet i iff it is at most
g_i + CONTAIN_TOL, the one rule, which ``_cutoffs`` holds.  For U, X_in and
R_as the bounds are the branch and bound's proven upper bounds, not the
values at its points, of ``solve`` calls on one closed-loop encoding whose
step 0 is the output-range model over X_in; for X they are X_in's supports
along X's facets, an LP each on a load of its own.  The input and
invariance checks set the verdict floor (Invariant, InputOnly or Failed);
the rollouts and the reach search run only when X_in is invariant and
inside X, the stability conditions hold and R_as is built: no search can
certify a loop whose invariance failed.

The input and one-step checks solve each facet to optimality, since U_star
and X_1_out are outputs; the one-step facets they refute give the
witnesses.  The reach search only needs a yes or a no per facet, so it is a
decision search: each facet's branch and bound has its ``_cutoffs`` entry
as cutoff, and a failing k stops at its first refuted facet.  A refutation
is an exact maximum above the cutoff, so it fails its k on the proven bound
as the exact search would; no replay is needed to trust it, since failing
is the conservative answer.  At k* the certificate's X_k_out holds the
proven bounds (each within its cutoff), not the maxima.

Once X_in is proven invariant, x_1 lies in X_in and, by induction, so does
every later state.  So each x_j with j >= 1 is the image of a point of X_in
and lies in X_1_out: X_in's rows at the proven one-step bounds, each at
most g_i + CONTAIN_TOL.  Before the reach search the encoding takes
X_1_out's rows, at offsets bound + CONTAIN_TOL, at every state that has no
network copy yet, so the search at k carries them at x_1 .. x_{k-1} (see
``milp.ClosedLoopEncoding.add_state_rows``).  U_star and X_1_out are solved
before, so the rows do not touch them.  Strictly, the induction needs X_in
grown by CONTAIN_TOL to be invariant, since the one-step check proves x_1
only within CONTAIN_TOL of X_in; where it is, the rows cut no reachable
state and leave every exact maximum as it is.  On the case-study X_in
scaled by 0.999, the decision search at k* = 5 spends 38 nodes with the
rows, 42 with X_in's own offsets g + CONTAIN_TOL and 54 without rows; only
the 38, and the verify's 70 nodes in all, are pinned (by
TestVerifyStability.test_case_study_lp_budget).

Before the search at each k, the closed loop is rolled out k steps from
seeds in X_in: the x0 of every maximizer of the input and one-step checks,
and of every search that refuted an earlier k.  A rolled-out state whose
value along a facet of R_as exceeds the facet's cutoff, the rule applied to
a real trajectory, fails k with no search: the search would refute it too.
The report's ``rollouts`` records each such k, the facet, the seed x0 and
the state's value along the facet, and its ``reach_nodes`` holds 0 at that
k.  On the case-study X_in the rollouts refute k = 1..4, so the reach
search runs at k = 5 only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from certnn import milp
from certnn.control import LtiSystem, lqr_admissible_set, simulate, spectral_radius
from certnn.errors import CertnnError, DimensionMismatch
from certnn.network import ReluNetwork
from certnn.polytope import EmptyInput, Polytope, intersect, support
from certnn.tolerances import CONTAIN_TOL, RESIDUAL_TOL


class EmptyStabilitySet(CertnnError):
    pass


class Verdict:
    INPUT_ONLY = "InputOnly"
    INVARIANT = "Invariant"
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    LQR_OPTIMAL_NEAR_EQ = "LqrOptimalNearEq"
    FAILED = "Failed"


@dataclass
class Rollout:
    """A trajectory from x0 in X_in whose state x_k exceeds facet ``facet`` of R_as.

    ``value`` is F_facet . x_k, above the facet's cutoff (see ``_cutoffs``).
    """

    k: int
    facet: int
    x0: np.ndarray
    value: float


@dataclass
class StabilityReport:
    bias_residual: float
    spectral_radius: float
    lqr_match_residual: float | None = None
    R_eq: Polytope | None = None
    R_as: Polytope | None = None
    k_star: int | None = None
    X_k_out: Polytope | None = None
    reach_nodes: list[int] = field(default_factory=list)
    rollouts: list[Rollout] = field(default_factory=list)


@dataclass
class Certificate:
    """Machine-readable verdict of the verification pipeline."""

    verdict: str
    reason: str | None = None
    input_ok: bool = False
    invariance_ok: bool = False
    U_star: Polytope | None = None
    X_1_out: Polytope | None = None
    stability: StabilityReport | None = None
    witnesses: list[np.ndarray] = field(default_factory=list)
    milp_nodes: int = 0

    @property
    def certified(self) -> bool:
        return self.verdict in (Verdict.ASYMPTOTICALLY_STABLE, Verdict.LQR_OPTIMAL_NEAR_EQ)

    def to_json(self) -> dict:
        """Fields in declaration order, nested sets as {"F", "g"}, arrays as lists."""
        return asdict(self, dict_factory=lambda items: {k: _jsonable(v) for k, v in items})


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    return [_jsonable(x) for x in v] if isinstance(v, list) else v


def _cutoffs(P: Polytope) -> np.ndarray:
    """The containment rule: a bound along facet i of P lies within P iff it is at most entry i."""
    return P.g + CONTAIN_TOL


def _contained(bounds, P: Polytope) -> tuple[np.ndarray, Polytope]:
    """The mask of the bounds, one per facet of P in order, above ``_cutoffs(P)``, and their set.

    Bounds that end early, as a decision search's do, end at a refuted facet.
    """
    c = np.asarray(bounds, dtype=float)
    return c > _cutoffs(P)[: c.size], Polytope(P.F[: c.size].copy(), c)


def _rollout_refutation(k: int, x0: list, x_k: list, R_as: Polytope) -> Rollout | None:
    """The rollout, x0[i] to x_k[i], that exceeds ``_cutoffs(R_as)`` the most; None if none does."""
    if not x0:
        return None
    values = np.array(x_k) @ R_as.F.T
    excess = values - _cutoffs(R_as)
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[i, j] <= 0.0:
        return None
    return Rollout(int(k), int(j), x0[i], float(values[i, j]))


def equilibrium_gain_bias(net: ReluNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The output map (gain, bias) under the activation pattern at the origin."""
    return net.pattern_maps(net.activation_pattern(np.zeros(net.n_x)))[-1]


def check_stability_conditions(
    sys: LtiSystem, net: ReluNetwork, K_ref=None
) -> tuple[float, float, float | None]:
    """Residuals of the two stability conditions (and the optional LQR match).

    Returns (bias_residual, rho, lqr_match_residual): the sup-norm of the
    resulting network bias at the equilibrium region, the spectral radius of
    the closed loop under the equilibrium-region gain, and, when K_ref is
    given, the sup-norm gap between that gain and -K_ref.
    """
    gain, bias = equilibrium_gain_bias(net)
    bias_residual = float(np.max(np.abs(bias), initial=0.0))
    rho = spectral_radius(sys.A + sys.B @ gain)
    match = None
    if K_ref is not None:
        K_ref = np.asarray(K_ref, dtype=float).reshape(net.n_u, net.n_x)
        match = float(np.max(np.abs(gain + K_ref)))
    return bias_residual, rho, match


def stability_set(
    sys: LtiSystem, gain: np.ndarray, R_eq: Polytope, X: Polytope, U: Polytope
) -> Polytope:
    """Invariant set R_as inside R_eq intersected with the admissible region R_K.

    ``gain`` (from ``equilibrium_gain_bias``) is the equilibrium-region
    feedback u = gain x, and R_eq its region.  R_K is the maximal admissible
    invariant set of that feedback inside X and U.  The maximal invariant
    subset of R_eq /\\ R_K equals the maximal admissible invariant set inside
    R_eq /\\ X, so R_as is one ``lqr_admissible_set`` fixpoint.  The result
    is positively invariant under the feedback and contains the origin.

    Requires a stabilizing ``gain``: A + B gain has spectral radius < 1, as
    ``verify_stability`` checks first.  A non-empty closed set invariant
    under a stable linear map contains the origin, so R_as is empty iff it
    misses the origin, and no LP decides it.  Raises EmptyStabilitySet when
    it is empty.
    """
    try:
        R_as = lqr_admissible_set(sys, -gain, intersect(R_eq, X), U)
    except EmptyInput as exc:
        raise EmptyStabilitySet("R_eq meets no admissible state") from exc
    if not R_as.contains_point(np.zeros(R_as.dim)):
        raise EmptyStabilitySet("no invariant set of the equilibrium feedback in R_eq")
    return R_as


def verify_stability(
    sys: LtiSystem,
    net: ReluNetwork,
    X_in: Polytope,
    X: Polytope,
    U: Polytope,
    k_max: int = 25,
    K_ref=None,
) -> Certificate:
    """Full certificate: constraint satisfaction plus asymptotic stability.

    Pipeline: input check, one-step invariance of X_in and X_in inside X
    (``invariance_ok`` needs both; when X_in leaves X, ``reason`` names the
    facet of X and X_in's support along it), stability conditions at the
    equilibrium region, construction of R_as, then, if all of these
    held, a linear search for the first k <= k_max with the k-step reachable
    set certified inside R_as (directions = facets of R_as, so containment
    is componentwise), with X_1_out's rows at the states before x_k; a rollout
    that leaves R_as fails a k before its search.  The stability residuals
    are compared with RESIDUAL_TOL.  The report's ``reach_nodes`` holds the
    nodes spent at each k (0 where a rollout failed it), its ``rollouts``
    those rollouts, and its ``X_k_out`` the proven bounds at k* (see the
    module docstring).  Raises DimensionMismatch when X_in, X or U does not
    fit the system or the network.
    """
    if (X.dim, U.dim) != (sys.n_x, sys.n_u):
        raise DimensionMismatch(f"X, U of dimensions {X.dim}, {U.dim}, the system {sys.n_x}, {sys.n_u}")
    encoding = milp.ClosedLoopEncoding(sys, net, X_in)
    input_results = encoding.solve(U.F)
    input_refuted, U_star = _contained([r.bound for r in input_results], U)
    results = encoding.solve(X_in.F, 1)
    one_step_refuted, X_1 = _contained([r.bound for r in results], X_in)
    # admissible invariance also needs X_in inside X: its supports, one LP each
    X_refuted, X_in_hull = _contained(support(X_in, X.F), X)
    input_ok = not input_refuted.any()
    invariance_ok = input_ok and not one_step_refuted.any() and not X_refuted.any()
    # Each refuted one-step facet gives a witness: its maximizer's x0 (the
    # first block of model variables), a point of X_in whose image violates it.
    witnesses = [r.point[: sys.n_x] for r, out in zip(results, one_step_refuted) if out]
    # the x0 of each maximizer so far seeds the rollouts of the reach search
    seeds = [r.point[: sys.n_x] for r in input_results + results]

    bias_residual, rho, match = check_stability_conditions(sys, net, K_ref)
    report = StabilityReport(
        bias_residual=bias_residual, spectral_radius=rho, lqr_match_residual=match
    )
    floor = Verdict.INPUT_ONLY if input_ok else Verdict.FAILED
    cert = Certificate(
        verdict=Verdict.INVARIANT if invariance_ok else floor,
        input_ok=input_ok,
        invariance_ok=invariance_ok,
        U_star=U_star,
        X_1_out=X_1,
        stability=report,
        witnesses=witnesses,
        milp_nodes=sum(r.nodes for r in input_results + results),
    )

    def fallback(reason: str) -> Certificate:
        cert.reason = reason
        return cert

    if not input_ok:
        return fallback("input constraint violation")
    if bias_residual > RESIDUAL_TOL:
        return fallback("bias annihilation")
    if rho >= 1.0:
        return fallback("equilibrium-region closed loop not stable")
    try:
        _, R_eq = net.equilibrium_region()
        report.R_eq = R_eq
        gain, _ = equilibrium_gain_bias(net)
        R_as = stability_set(sys, gain, R_eq, X, U)
        report.R_as = R_as
    except EmptyStabilitySet:
        return fallback("empty stability set")
    if X_refuted.any():
        i = np.flatnonzero(X_refuted)[0]
        return fallback(
            f"X_in leaves X: its support along X's facet {i} is {X_in_hull.g[i]:.6g} > {X.g[i]:.6g}"
        )
    if not invariance_ok:
        return fallback("one-step invariance of X_in failed")
    # every state lies in X_in, so every x_j with j >= 1 is the image of a
    # point of X_in and lies within X_1_out: its rows tighten the copies at
    # x_1 .. x_{k-1} of the reach search
    encoding.add_state_rows(X_1.F, X_1.g + CONTAIN_TOL)

    x0 = [x for x in seeds if X_in.contains_point(x)]
    x_k = x0
    for k in range(1, k_max + 1):
        # the arithmetic of control.simulate, so each rollout replays exactly
        x_k = [sys.A @ x + sys.B @ net.eval(x) for x in x_k]
        rollout = _rollout_refutation(k, x0, x_k, R_as)
        if rollout is not None:
            report.rollouts.append(rollout)
            report.reach_nodes.append(0)
            continue
        results = encoding.solve(R_as.F, k, _cutoffs(R_as))
        refuted, X_k = _contained([r.bound for r in results], R_as)
        report.reach_nodes.append(sum(r.nodes for r in results))
        if not refuted.any():
            report.k_star, report.X_k_out = k, X_k
            break
        # the refuted facet's maximizer seeds the rollouts of the later k
        seed = results[-1].point[: sys.n_x]
        if X_in.contains_point(seed):
            x0, x_k = x0 + [seed], x_k + [simulate(sys, net, seed, k).states[-1]]
    cert.milp_nodes += sum(report.reach_nodes)
    if report.k_star is None:
        return fallback(f"no k <= {k_max} with reachable set inside R_as")
    if match is not None and match <= RESIDUAL_TOL:
        cert.verdict = Verdict.LQR_OPTIMAL_NEAR_EQ
    else:
        cert.verdict = Verdict.ASYMPTOTICALLY_STABLE
    return cert
