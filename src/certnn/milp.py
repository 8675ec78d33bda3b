"""Big-M MILP encodings of ReLU networks and an embedded branch-and-bound.

Each hidden neuron z = max(a, 0), with pre-activation a known to lie in
[lo, hi], is written by the sign of its bounds (Tjeng, Xiao and Tedrake,
ICLR 2019):

- inactive (hi <= 0): z is the constant 0;
- active (lo >= 0): z is the affine expression a itself;
- unstable: z gets a column in [0, M_pos] and one binary column t in
  [0, 1] (t = 1 means z = 0, t = 0 means z = a), tied by the three big-M rows

    z >= a,   z <= a + M_neg * t,   z <= M_pos * (1 - t),

  with M_pos = hi and M_neg = -lo.

So only the unstable neurons, the only places where the search branches,
get columns.  Every other quantity is an affine expression (M, m), the map
y -> M y + m of the model's columns y, with M spanning every column made so
far: a layer's pre-activation is (W E, W e + b) for the expression (E, e)
of the layer before, which ``ClosedLoopEncoding._encode_network`` composes
layer by layer; the output u of a network copy is one, and so is each state
x_k = A x_{k-1} + B u_{k-1} for k >= 1, and x0 is (I, 0) over its own
columns.  Under a fixed activation pattern this is the network's parametric
description: one affine map of x0 and of the unstable neurons' columns.

Every encoding of a network over an input set is a
:class:`ClosedLoopEncoding`.  Its step 0 is x0 in X_in with one network
copy u0 = N(x0): the open-loop output-range model.  Step k extends step
k - 1 with the network copy at x_{k-1} (step 0 has its copy already) and the
plant x_k = A x_{k-1} + B u_{k-1}, so the state of the step searched has no
copy yet.  Only X_in is boxed by LPs: its support LPs along the axes,
solved when the encoding is built, become x0's column bounds.  The box of
every state, x0 included, is the interval of its expression over the root
column bounds: x0's support box, and an enclosure of a later state.  The
bounds of the copy at a state start from interval arithmetic on its box.
Every neuron that the interval leaves unstable, in every layer of every
copy, also gets the max and min of its pre-activation, an affine expression
of the columns made so far, by LP on the relaxation built so far (none for
one column: the interval over its bounds is exact on the big-M triangle),
and its bounds are the intersection.  A query builds its step's model on
the one relaxation and sets only the objective, so directions and horizons
share one encoding.

Rows that every reachable state satisfies tighten the relaxation further.
``ClosedLoopEncoding.add_state_rows(F, g)`` holds them: each later state,
with expression (S, s), gets the rows F S y <= g - F s before its copy is
bounded, so the bound LPs of that copy and every search after see them.
``certnn.verify`` passes the rows of X_1_out, the one-step image bounds
along X_in's facets, once X_in's invariance is proven, so the reach search
at step k carries them at x_1 .. x_{k-1}.

One relaxation grows with the encoding: the encoder appends each column
and row to the same :class:`certnn.lp.LpModel` as it makes them, in
encoding order, and HiGHS is the only place that holds a row.  The columns
are x0 (always the first n_x), one unit column fixed to 1, then, per
network copy and per hidden layer, the z columns of its unstable neurons
followed by their t columns; the binaries are the t columns in that order.
The rows are those of X_in, then, per network copy, the state rows at its
state, if any, and per hidden layer the three rows of each unstable neuron,
neuron by neuron: z >= a, z <= a + M_neg t and z <= M_pos (1 - t).  There
are no equality rows.  An
objective d.x_k (or d.u0) is d M, with d m on the unit column, so a model
stays "max c.x".  The row order is kept because HiGHS's pivots follow it:
the same rows in another order can branch elsewhere, count other nodes and
write other certificate bytes.

The solver is a best-first branch and bound on the LP relaxation, branching
on the most fractional binary (ties to the lowest index).  Best first pops
the largest open bound, so the first integral node it pops is a maximum,
and its LP value is both the value and a proven upper bound.  Given a
cutoff it decides instead of optimizing: a popped bound at most the cutoff
proves the maximum at most the cutoff and ends the search, so it never
branches on such a node; otherwise it returns the maximum and its point,
as a search without a cutoff would (see ``solve_milp``).

Every :class:`MilpModel` of an encoding carries that one relaxation.  A
search sets its objective and root bounds on it; a node passes only the
binary bounds in which it differs from the node solved before it, and HiGHS
re-solves warm from the previous basis.  The bound LPs of a layer are one
``LpModel.maxima`` call that swaps only the cost; before a copy is bounded,
the relaxation is reset to its root bounds and a cold basis, so the bounds
of each copy, and with them each step's model, are those of a fresh
encoding to that step.  Where an LP has tied optimal vertices, a warm start
can return another one than a cold solve, so the search may branch
elsewhere and count other nodes; the proven values do not change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from certnn import lp
from certnn.errors import CertnnError, DimensionMismatch, EmptyInput
from certnn.network import ReluNetwork
from certnn.polytope import Polytope
from certnn.tolerances import INTEGRALITY_TOL

MAX_NODES = 1_000_000


class UnboundedInput(CertnnError):
    """The input polytope is unbounded in some coordinate."""


class MilpError(CertnnError):
    pass


class BnbStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BELOW_CUTOFF = "below_cutoff"


@dataclass
class MilpModel:
    """maximize c.x over A_ub x <= b_ub, lb <= x <= ub, x[binaries] in {0,1}.

    ``relaxation`` is the LP relaxation, the one solver model that the
    encoding appends its columns and rows to; ``replace`` copies share it,
    and ``solve_milp`` sets c and the bounds on it.  c spans every column
    of the relaxation and is zero on the binaries.  A_ub and b_ub are the
    rows it holds, read back from HiGHS on each access and laid out as the
    module docstring says; no solve reads them.  On the model of an earlier
    step they raise MilpError, as ``solve_milp`` does.  A_eq and b_eq, the
    equality rows of the general form, are empty.  x0 is the first n_x
    columns.
    """

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binaries: np.ndarray
    relaxation: lp.LpModel = field(repr=False, compare=False)

    def _relaxation(self) -> lp.LpModel:
        """``relaxation``, or MilpError when it holds a later step's columns and rows."""
        if self.relaxation.c.size != self.c.size:
            raise MilpError("the model is of an earlier step; its encoding has grown since")
        return self.relaxation

    A_ub = property(lambda self: self._relaxation().rows()[0])
    b_ub = property(lambda self: self._relaxation().rows()[1])
    A_eq = property(lambda self: np.zeros((0, self.c.size)))
    b_eq = property(lambda self: np.zeros(0))


@dataclass
class BnbResult:
    """value is the maximum, attained at point; bound is a proven upper bound on it.

    An OPTIMAL result has bound == value; a BELOW_CUTOFF one only the bound.
    """

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    nodes: int = 0
    bound: float | None = None


def _interval_affine(W, b, lo, hi):
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    return Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b


def _objective_rows(M):
    """The rows M_i then -M_i, for each row i of M."""
    return np.stack([M, -M], axis=1).reshape(-1, M.shape[1])


class ClosedLoopEncoding:
    """The closed loop x+ = A x + B N(x) from X_in, encoded step by step.

    Step 0 is x0 in X_in with the network copy u0 = N(x0); ``output`` returns
    its model of max direction.u0, the open-loop output range.
    ``model(k, direction)`` extends the encoding up to step k and returns the
    model of max direction.x_k.  Steps are only ever added: asking for an
    earlier step (``output`` included) raises MilpError.  All steps grow one
    relaxation, so the support LPs of X_in, the bound LPs and every direction
    of every step share one loaded LP.  ``add_state_rows`` adds rows at
    every state whose copy is not yet encoded.  ``bounds[k]`` records the
    copy at x_k: the box (lo, hi) of x_k, the interval of its expression
    (exact for x0, an enclosure after), and, per hidden layer, the
    pre-activation bounds (lo, hi) it was encoded with.  ``system`` is read
    only when a step is added, so output-range callers may pass None.
    Raises DimensionMismatch when X_in or the system does not fit the
    network, EmptyInput for an empty and UnboundedInput for an unbounded
    X_in.
    """

    def __init__(self, system, net: ReluNetwork, X_in: Polytope):
        if X_in.dim != net.n_x:
            raise DimensionMismatch(f"X_in has dimension {X_in.dim}, the network {net.n_x} inputs")
        if system is not None and (system.n_x, system.n_u) != (net.n_x, net.n_u):
            raise DimensionMismatch(
                f"the system has {system.n_x} states and {system.n_u} inputs,"
                f" the network {net.n_x} inputs and {net.n_u} outputs"
            )
        self._system = system
        self._net = net
        # the root column bounds, which a search overwrites in the relaxation:
        # x0, then the unit column fixed to 1
        free = np.full(net.n_x, np.inf)
        self._lb, self._ub = np.append(-free, 1.0), np.append(free, 1.0)
        self._binaries = np.zeros(0, dtype=int)
        F = np.pad(X_in.F, ((0, 0), (0, 1)))
        # the dual simplex, as a node changes only column bounds (see certnn.lp)
        self._relaxation = lp.LpModel(np.zeros(self._lb.size), F, X_in.g, self._lb, self._ub)
        self._x = (np.eye(net.n_x, net.n_x + 1), np.zeros(net.n_x))
        # x0's column bounds: the max and the min of each coordinate over X_in
        try:
            m = self._relaxation.maxima(_objective_rows(self._x[0]), "box")
        except EmptyInput:
            raise EmptyInput("X_in is empty: its constraints admit no point") from None
        if np.isinf(m).any():
            raise UnboundedInput("input polytope unbounded in some coordinate")
        self._lb[: net.n_x], self._ub[: net.n_x] = -m[1::2], m[0::2]
        self._k = 0
        self._state_rows = None
        self.bounds: list[tuple] = []
        self._encode_copy()

    def _encode_network(self, x, lo, hi):
        """Bound and encode the network copy at the state x; returns (u, bounds).

        x = (S, s) is the state's affine expression and [lo, hi] its box.
        Layer by layer, the pre-activation is the expression (W E, W e + b)
        of the layer before's output (E, e), bounded by interval arithmetic
        from the layer before's bounds, or over its column's bounds when it
        has one column, which is exact on the big-M triangle (and sound
        under state rows, which only shrink the relaxation).  Else one
        ``maxima`` call on the relaxation built so far, this copy's earlier
        layers included, bounds each neuron that the interval leaves
        unstable, and the bounds are the intersection.  An inactive neuron's
        output is 0 and an active one's its pre-activation; an unstable one
        gets its z and t columns and the three big-M rows of the module
        docstring.  u is the output's expression, ``bounds`` each hidden
        layer's pre-activation bounds.
        """
        E, e = x
        bounds = []
        for W, b in self._net.layers[:-1]:
            P, p = W @ E, W @ e + b
            lo, hi = _interval_affine(W, b, lo, hi)
            # one column spans its bounds (z: [0, M_pos], x0: X_in's box), so its interval is exact
            one = np.count_nonzero(P, axis=1) == 1
            lo[one], hi[one] = _interval_affine(P[one], p[one], self._lb, self._ub)
            bound = (lo < 0.0) & (hi > 0.0) & ~one
            if bound.any():
                m = self._relaxation.maxima(_objective_rows(P[bound]), "bound")
                lo[bound] = np.maximum(lo[bound], p[bound] - m[1::2])
                hi[bound] = np.minimum(hi[bound], p[bound] + m[0::2])
                hi = np.maximum(hi, lo)  # LP tolerances must not leave an empty interval
            bounds.append((lo, hi))
            off = hi <= 0.0
            on = (lo >= 0.0) & ~off
            unstable = ~(on | off)
            # big-M constants M_pos, M_neg of the module docstring
            big_pos, big_neg = hi[unstable], -lo[unstable]
            n, N = big_pos.size, P.shape[1]
            # the columns z in [0, M_pos], then the binaries t
            col_lb, col_ub = np.zeros(2 * n), np.append(big_pos, np.ones(n))
            self._lb, self._ub = np.append(self._lb, col_lb), np.append(self._ub, col_ub)
            self._relaxation.add_cols(col_lb, col_ub)
            self._binaries = np.append(self._binaries, N + n + np.arange(n))
            # over the columns (before, z, t), the three rows of unstable neuron j:
            # a_j - z_j <= -p_j,  z_j - a_j - M_neg t_j <= p_j,  z_j + M_pos t_j <= M_pos
            I, O, Pu = np.eye(n), np.zeros((n, n)), P[unstable]
            rows = ([Pu, -I, O], [-Pu, I, -I * big_neg], [0 * Pu, I, I * big_pos])
            M = np.stack([np.hstack(r) for r in rows], axis=1)
            rhs = np.column_stack([-p[unstable], p[unstable], big_pos])
            self._relaxation.add_rows(M.reshape(-1, N + 2 * n), rhs.reshape(-1))
            # the layer's output: a where active, z where unstable, else 0
            E = np.zeros((W.shape[0], N + 2 * n))
            E[on, :N] = P[on]
            E[np.flatnonzero(unstable), N + np.arange(n)] = 1.0
            e = np.where(on, p, 0.0)
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        W, b = self._net.layers[-1]
        return (W @ E, W @ e + b), bounds

    def _encode_copy(self):
        """Box the current state, then bound and encode its network copy.

        The state rows of ``add_state_rows``, if any, are appended first, on
        the state's expression.  The relaxation is then reset to its root
        bounds (a search leaves a node's bounds on it) and to a cold basis,
        so the bound LPs give what they give on a fresh encoding with those
        rows.  The box is the interval of the state's expression over the
        root column bounds.
        """
        if self._state_rows is not None:
            (F, g), (S, s) = self._state_rows, self._x
            self._relaxation.add_rows(F @ S, g - F @ s)
        self._relaxation.set_bounds(self._lb, self._ub)
        self._relaxation.clear_basis()
        lo, hi = _interval_affine(*self._x, self._lb, self._ub)
        self._u, layers = self._encode_network(self._x, lo, hi)
        self.bounds.append(((lo, hi), layers))

    def add_state_rows(self, F, g):
        """Hold F x <= g at every later state: the rows F S y <= g - F s on its expression (S, s).

        The rows are appended at each state whose network copy is not
        encoded yet, the current one included, just before that copy is
        bounded, so its bound LPs and every later search see them.  Only for
        rows that every later state satisfies, as X_in's and X_1_out's do
        once X_in's invariance is proven.
        """
        self._state_rows = (np.asarray(F, dtype=float), np.asarray(g, dtype=float))

    def _extend(self):
        A, B = self._system.A, self._system.B
        if self._u is None:
            self._encode_copy()
        (S, s), (U, u) = self._x, self._u
        # the copy's columns extend the state's, so S covers U's first columns
        S = np.pad(S, ((0, 0), (0, U.shape[1] - S.shape[1])))
        self._x = (A @ S + B @ U, A @ s + B @ u)
        self._u = None
        self._k += 1

    def _at(self, k: int):
        """Extend the encoding up to step k."""
        if k < self._k:
            raise MilpError(f"encoding is at step {self._k}; it cannot return to step {k}")
        while self._k < k:
            self._extend()

    def _with_objective(self, expr, direction) -> MilpModel:
        """The current step's model, objective direction.(M y + c) for expr = (M, c).

        c goes on the unit column.
        """
        direction = np.asarray(direction, dtype=float).reshape(-1)
        M, const = expr
        if direction.size != M.shape[0]:
            raise MilpError(f"direction length {direction.size}, expected {M.shape[0]}")
        c = direction @ M
        c[self._net.n_x] = direction @ const
        return MilpModel(c, self._lb.copy(), self._ub.copy(), self._binaries, self._relaxation)

    def output(self, direction) -> MilpModel:
        """Model whose optimum is max direction.N(x) over x in X_in."""
        self._at(0)
        return self._with_objective(self._u, direction)

    def model(self, k: int, direction) -> MilpModel:
        """Model whose optimum is max direction.x_k over k closed-loop steps from X_in."""
        if k < 1:
            raise MilpError("need k >= 1")
        self._at(k)
        return self._with_objective(self._x, direction)


def encode_output_range(net: ReluNetwork, X_in: Polytope, direction) -> MilpModel:
    """Model whose optimum is max direction.N(x) over x in X_in."""
    return ClosedLoopEncoding(None, net, X_in).output(direction)


def encode_reach(system, net: ReluNetwork, X_in: Polytope, k: int, direction) -> MilpModel:
    """Model whose optimum is max direction.x_k over k closed-loop steps from X_in."""
    return ClosedLoopEncoding(system, net, X_in).model(k, direction)


def solve_milp(m: MilpModel, cutoff: float | None = None) -> BnbResult:
    """Best-first branch and bound; proves a global optimum or infeasibility.

    Best first pops the largest open LP bound, so each popped bound is a
    proven upper bound on the maximum.  The search ends at the first of:

    - a popped bound <= cutoff, when a cutoff is given: the maximum is at
      most the cutoff, and the result is BELOW_CUTOFF with that bound as
      ``bound`` and no point;
    - a popped integral node: its LP value is the maximum, and the result
      is OPTIMAL with ``value == bound ==`` that value and its point;
    - an empty heap: INFEASIBLE.

    Without a cutoff the search runs as it would with a cutoff of -inf, so a
    decision never branches on a node that the optimization would not.

    Raises MilpError when the search would solve more than MAX_NODES LPs,
    and when m is the model of an earlier step of an encoding that has grown
    since: its relaxation then holds the later steps' columns and rows.
    """
    nodes, tie, heap = 0, 0, []
    relaxation = m._relaxation()
    relaxation.set_objective(m.c)

    def _push(lb, ub):
        nonlocal nodes, tie
        if nodes >= MAX_NODES:
            raise MilpError(f"node cap {MAX_NODES} exceeded")
        nodes += 1
        relaxation.set_bounds(lb, ub)
        out = relaxation.solve("node")
        if out.status == lp.LpStatus.UNBOUNDED:
            raise MilpError("relaxation unbounded; encoder bounds missing")
        if out.status == lp.LpStatus.OPTIMAL:
            tie += 1
            heapq.heappush(heap, (-out.value, tie, lb, ub, out.point))

    _push(m.lb.copy(), m.ub.copy())
    while heap:
        neg_bound, _, lb, ub, x = heapq.heappop(heap)
        bound = -neg_bound
        if cutoff is not None and bound <= cutoff:
            return BnbResult(BnbStatus.BELOW_CUTOFF, nodes=nodes, bound=bound)
        tvals = x[m.binaries]
        frac = np.minimum(np.abs(tvals), np.abs(1.0 - tvals))
        if frac.size == 0 or frac.max() <= INTEGRALITY_TOL:
            return BnbResult(BnbStatus.OPTIMAL, value=bound, point=x, nodes=nodes, bound=bound)
        var = m.binaries[int(np.argmax(frac))]
        for fix in (0.0, 1.0):
            clb, cub = lb.copy(), ub.copy()
            clb[var] = cub[var] = fix
            _push(clb, cub)
    return BnbResult(BnbStatus.INFEASIBLE, nodes=nodes)


def _solve_directions(make_model, directions, cutoffs=None) -> list[BnbResult]:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if cutoffs is None:
        cutoffs = [None] * len(directions)
    elif len(cutoffs) != len(directions):
        raise MilpError(f"{len(cutoffs)} cutoffs for {len(directions)} directions, not one each")
    results = []
    for d, cutoff in zip(directions, cutoffs):
        res = solve_milp(make_model(d), cutoff)
        if res.status == BnbStatus.INFEASIBLE:
            # an empty X_in raises EmptyInput when its encoding is built
            raise MilpError("direction query infeasible: the LP solver failed")
        results.append(res)
        if cutoff is not None and res.status == BnbStatus.OPTIMAL:
            break
    return results


def output_range_results(
    net: ReluNetwork, X_in: Polytope, directions, encoding=None
) -> list[BnbResult]:
    """One branch and bound per direction of the network output, all on one encoding.

    Pass ``encoding`` (a ClosedLoopEncoding of the same net and X_in, still
    at step 0) to share it with the closed-loop queries that follow.
    """
    if encoding is None:
        encoding = ClosedLoopEncoding(None, net, X_in)
    return _solve_directions(encoding.output, directions)


def output_range(net: ReluNetwork, X_in: Polytope, directions) -> np.ndarray:
    """Exact per-direction maxima of the network output over X_in."""
    return np.array([r.value for r in output_range_results(net, X_in, directions)])


def reach_results(
    system, net: ReluNetwork, X_in: Polytope, k: int, directions, encoding=None, cutoffs=None
) -> list[BnbResult]:
    """One branch and bound per direction at step k, all on one encoding.

    Pass ``encoding`` (a ClosedLoopEncoding of the same system, net and X_in)
    to share it with queries at other horizons.  With ``cutoffs``, one cutoff
    per direction, each search only decides whether its maximum exceeds its
    cutoff (see ``solve_milp``); the directions are solved in order and the
    results end with the first refuted one.  Cutoffs of another length than
    the directions raise MilpError before any search.
    """
    if encoding is None:
        encoding = ClosedLoopEncoding(system, net, X_in)
    return _solve_directions(lambda d: encoding.model(k, d), directions, cutoffs)


def reach_set(system, net: ReluNetwork, X_in: Polytope, k: int, directions) -> np.ndarray:
    """Exact per-direction maxima of the k-step closed-loop state over X_in."""
    return np.array([r.value for r in reach_results(system, net, X_in, k, directions)])
