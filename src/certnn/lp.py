"""Dense linear programming front end.

Thin contract around scipy's HiGHS solver: problems are stated as
maximize c.x subject to A x <= b and per-variable bounds (optionally plus
equality rows used by the MILP relaxations).  All polytope operations and the
branch-and-bound relaxations go through :func:`solve_lp`.  HiGHS runs with
its default tolerances (primal and dual feasibility 1e-7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from certnn.errors import CertnnError


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


def solve_lp(p: LinearProgram) -> LpOutcome:
    """Solve an LP, classifying the outcome as optimal/infeasible/unbounded."""
    bounds = list(zip(p.lb, p.ub))
    A_ub = p.A if p.A.size else None
    b_ub = p.b if p.b.size else None
    res = linprog(
        -p.objective,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=p.A_eq,
        b_eq=p.b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return LpOutcome(LpStatus.OPTIMAL, value=float(-res.fun), point=np.asarray(res.x))
    if res.status == 2:
        return LpOutcome(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpOutcome(LpStatus.UNBOUNDED)
    raise LpError(f"solver failure (status {res.status}): {res.message}")
