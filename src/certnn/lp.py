"""Linear programs on HiGHS: loaded once, changed in place, re-solved warm.

Problems are stated as maximize c.x subject to A x <= b and per-variable
bounds, A dense.  An :class:`LpModel` loads one such problem into HiGHS
once, by the same appends that later grow it, and HiGHS is the only place
that holds its rows.  Its column bounds (the nodes of a branch and bound),
its cost and the right-hand sides of its rows then change in place, columns
and rows can be appended, the last rows deleted again, and each solve starts
HiGHS's simplex from the basis of the previous solve instead of presolving
the problem from scratch.  A right-hand side of +inf drops its row, so one
load serves every redundancy test of a polytope, every step of an
invariant-set fixpoint and every step of a closed-loop encoding.
:meth:`LpModel.rows` reads the rows back.  :meth:`LpModel.maxima` answers a
whole matrix of objectives on one load: the support functions of a polytope
and the bound LPs of a network layer are each one call.  :func:`solve_lp` is
the one-shot use of the same object; it passes an equality row as two
inequality rows.

The persistent solver is the HiGHS binding that scipy bundles as
``scipy.optimize._highspy`` (scipy >= 1.15); importing this module without
it raises ImportError.  HiGHS runs with its default options but for
presolve, which is off, and the simplex strategy below.  A warm solve never
presolves, so presolve only ever ran on a cold solve, where it costs more
than it saves on LPs this small: a cold solve of the case-study relaxation
at k = 5 (23 columns, 40 rows) takes some 190 us without it and 500 us with
it.  Its default tolerances (primal and dual feasibility
``tolerances.LP_FEAS_TOL``) are absolute, so ``maxima`` solves every
objective at unit norm.

Which simplex re-solves a model is fixed by its kind, from what changes
between its solves.  The set-algebra models (``polytope._load``) change the
cost, relax or drop a row, or append a cut.  A new cost leaves the last
basis primal feasible, so they run HiGHS's primal simplex (``primal=True``),
where the default dual simplex would first repair dual feasibility.  The
MILP relaxations keep the dual simplex: a node changes only column bounds,
which leaves the basis dual feasible, and with every MILP LP on the primal
simplex the four case-study bench verifies count 118/92/50/72 nodes
instead of 70/58/40/50.

When an LP has several optimal vertices, a warm start may return another
one than a cold solve, with the same value.  A warm solve that ends neither
optimal, infeasible nor unbounded is solved once more from scratch before it
counts as a failure.

:data:`WORK` is the one ledger of LP work, always on: ``"loads"`` counts
the ``LpModel`` loads, ``(purpose, "solves")`` the solves and ``(purpose,
"iterations")`` their simplex iterations, both runs of a retried solve.
Every caller names its purpose, a label only: "box", "bound" and "node" in
``milp``; "support", "emptiness", "prune test", "cut test" and "vertex" in
``polytope``; "emptiness" in ``regions``; "one-shot" in ``solve_lp``.
Readers take differences of copies, so they can overlap.  The iterations
are read by ``getInfoValue``, not ``getInfo()``: 0.4 us against 8 us, and
some 35 us for a warm re-solve of the case-study relaxation that changes
nothing (2-core Xeon, scipy 1.17.1, as for the times above).
"""

from __future__ import annotations

import collections
import enum
from dataclasses import dataclass

import numpy as np

from certnn.errors import CertnnError, EmptyInput

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    raise ImportError(
        "certnn needs scipy >= 1.15, which bundles the HiGHS binding scipy.optimize._highspy"
    ) from None

PRIMAL_SIMPLEX = 4  # HiGHS's simplex_strategy for the primal simplex; 1, its default, is the dual

# the LP work done so far: "loads", and (purpose, "solves") and (purpose, "iterations")
WORK: collections.Counter = collections.Counter()


class LpError(CertnnError):
    """The LP solver failed for a reason other than infeasible/unbounded."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective.x  s.t.  A x <= b,  lb <= x <= ub  (and A_eq x = b_eq)."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        n = self.objective.size
        if self.A.size and self.A.shape[1] != n:
            raise ValueError("constraint matrix width does not match objective")
        if self.A.shape[0] != self.b.size:
            raise ValueError("constraint rhs length does not match row count")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound vectors must have one entry per variable")


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None


def maximize(c, A=None, b=None, lb=None, ub=None) -> LinearProgram:
    """Convenience constructor with free variables by default."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float).reshape(-1)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float).reshape(-1)
    return LinearProgram(c, A, b, lb, ub)


class LpModel:
    """maximize c.x  s.t.  A x <= b,  lb <= x <= ub, loaded once.

    A is dense; only its nonzeros are loaded.  ``primal`` picks HiGHS's
    primal simplex over its default, the dual (see the module docstring).
    It is built from an empty HiGHS model by ``add_cols``, ``set_objective``
    and ``add_rows``, the appends it later grows by.
    ``set_bounds`` and ``set_objective`` pass only the entries that changed
    to HiGHS, ``set_rhs`` changes one row (+inf drops it), ``add_cols``
    appends columns, ``add_rows`` appends rows, ``delete_rows`` deletes the
    last rows and ``rows`` reads them all back.  Row i is HiGHS's row i, in
    the order the rows were loaded and appended.  ``solve`` re-solves warm
    from the previous basis, ``clear_basis`` makes the next solve cold, and
    ``maxima`` solves one LP per objective, each counted in :data:`WORK`
    under the caller's purpose.  The rows live in HiGHS only; the caller's
    arrays are never written.
    """

    def __init__(self, c, A, b, lb, ub, *, primal: bool = False):
        WORK["loads"] += 1
        self._highs = h = _highs._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        if primal:
            h.setOptionValue("simplex_strategy", PRIMAL_SIMPLEX)
        self.c, self.lb, self.ub = np.zeros(0), np.zeros(0), np.zeros(0)
        self.add_cols(lb, ub)
        self.set_objective(np.asarray(c, dtype=float))
        self.add_rows(A, b)

    def set_bounds(self, lb, ub):
        changed = np.flatnonzero((lb != self.lb) | (ub != self.ub))
        self.lb[changed] = lb[changed]
        self.ub[changed] = ub[changed]
        if changed.size:
            self._highs.changeColsBounds(changed.size, changed, self.lb[changed], self.ub[changed])

    def set_objective(self, c):
        changed = np.flatnonzero(c != self.c)
        self.c[changed] = c[changed]
        if changed.size:
            self._highs.changeColsCost(changed.size, changed, -self.c[changed])  # HiGHS minimizes

    def set_rhs(self, i: int, value: float):
        """Change the right-hand side of row i; +inf drops the row."""
        if not 0 <= i < self._highs.getNumRow():
            raise LpError(f"no row {i}")
        self._highs.changeRowBounds(i, -np.inf, value)

    def add_cols(self, lb, ub):
        """Append columns with the bounds lb <= x <= ub, zero cost and no row entries."""
        lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
        n = lb.size
        empty = np.zeros(0, dtype=np.int32)
        status = self._highs.addCols(
            n, np.zeros(n), lb, ub, 0, np.zeros(n, dtype=np.int32), empty, np.zeros(0)
        )
        if status == _highs.HighsStatus.kError:
            raise LpError("HiGHS rejected the columns")
        self.c = np.concatenate([self.c, np.zeros(n)])
        self.lb = np.concatenate([self.lb, lb])
        self.ub = np.concatenate([self.ub, ub])

    def add_rows(self, A, b):
        """Append the rows A x <= b, in order."""
        b = np.asarray(b, dtype=float).reshape(-1)
        A = np.asarray(A, dtype=float).reshape(b.size, self.c.size)
        row, col = np.nonzero(A)
        start = np.searchsorted(row, np.arange(b.size)).astype(np.int32)
        status = self._highs.addRows(
            b.size, np.full(b.size, -np.inf), b, col.size, start, col.astype(np.int32), A[row, col]
        )
        if status == _highs.HighsStatus.kError:
            raise LpError("HiGHS rejected the rows")

    def delete_rows(self, start: int):
        """Delete the rows from row start on."""
        rows = np.arange(start, self._highs.getNumRow(), dtype=np.int32)
        if rows.size:
            self._highs.deleteRows(rows.size, rows)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b): every row HiGHS holds, A dense, in order; a dropped row has b_i = +inf.

        HiGHS can hold its matrix row-wise after ``add_rows``, as when
        ``add_cols`` came just before, so it is made column-wise first.
        """
        self._highs.ensureColwise()
        p = self._highs.getLp()
        m = p.a_matrix_
        if m.format_ != _highs.MatrixFormat.kColwise:
            raise LpError("HiGHS holds the matrix in a format other than column-wise")
        col = np.repeat(np.arange(len(m.start_) - 1), np.diff(m.start_))
        A = np.zeros((p.num_row_, p.num_col_))
        A[np.asarray(m.index_, dtype=np.intp), col] = m.value_
        return A, np.array(p.row_upper_, dtype=float)

    def clear_basis(self):
        """Forget the last basis, so the next solve starts cold, as on a fresh load."""
        self._highs.clearSolver()

    def solve(self, purpose: str) -> LpOutcome:
        """Solve the current LP, classifying the outcome as optimal/infeasible/unbounded."""
        h = self._highs
        st = _highs.HighsModelStatus
        h.run()
        iterations = h.getInfoValue("simplex_iteration_count")[1]
        if h.getModelStatus() not in (st.kOptimal, st.kInfeasible, st.kUnbounded):
            # a warm start can stop short (status Unknown) where a cold solve settles the LP
            h.clearSolver()
            h.run()
            iterations += h.getInfoValue("simplex_iteration_count")[1]
        WORK[purpose, "solves"] += 1
        WORK[purpose, "iterations"] += iterations
        status = h.getModelStatus()
        if status == st.kOptimal:
            value = -h.getObjectiveValue()
            return LpOutcome(LpStatus.OPTIMAL, value=value, point=np.array(h.getSolution().col_value))
        if status == st.kInfeasible:
            return LpOutcome(LpStatus.INFEASIBLE)
        if status == st.kUnbounded:
            return LpOutcome(LpStatus.UNBOUNDED)
        raise LpError(f"solver failure: {h.modelStatusToString(status)}")

    def maxima(self, C, purpose: str) -> np.ndarray:
        """max c.x for each row c of C, in order, changing only the cost between solves.

        Each row is solved as c / |c| and its value scaled back: HiGHS's
        tolerances are absolute, so it fails or loses accuracy on objectives
        of norm 1e-6 and below.  +inf where the LP is unbounded.  Raises
        EmptyInput when the rows are infeasible.
        """
        C = np.atleast_2d(np.asarray(C, dtype=float))
        norms = np.linalg.norm(C, axis=1)
        scale = np.where(norms > 0.0, norms, 1.0)
        values = []
        for c in C / scale[:, None]:
            self.set_objective(c)
            out = self.solve(purpose)
            if out.status == LpStatus.INFEASIBLE:
                raise EmptyInput("the constraints admit no point")
            values.append(np.inf if out.status == LpStatus.UNBOUNDED else out.value)
        return scale * np.array(values)


def solve_lp(p: LinearProgram) -> LpOutcome:
    """Solve one LP, classifying the outcome as optimal/infeasible/unbounded.

    Each equality row a.x = b_i is passed as the two rows a.x <= b_i and -a.x <= -b_i.
    """
    A, b = np.reshape(p.A, (-1, p.objective.size)), p.b
    if p.A_eq is not None:
        A, b = np.vstack([A, p.A_eq, -p.A_eq]), np.concatenate([b, p.b_eq, -p.b_eq])
    return LpModel(p.objective, A, b, p.lb, p.ub).solve("one-shot")
