"""LTI plant model, discrete-time LQR synthesis and closed-loop simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from certnn.errors import EmptyInput, NoConvergence
from certnn.network import ReluNetwork
from certnn.polytope import Polytope, intersect, json_array, max_positively_invariant
from certnn.tolerances import PSD_TOL


def spectral_radius(A) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if A.shape[0] == 0:
        return 0.0
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NoConvergence(str(exc)) from exc
    return float(np.max(np.abs(eig)))


@dataclass(frozen=True)
class LtiSystem:
    """x+ = A x + B u."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(f"B shape {B.shape} does not match A {A.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("system matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class LqrSolution:
    K: np.ndarray  # u = -K x
    P: np.ndarray  # value matrix, symmetric PSD


def lqr(sys: LtiSystem, Q, R) -> LqrSolution:
    """Infinite-horizon discrete LQR from the stabilizing solution of the DARE.

    Raises NoConvergence when the Riccati equation has no stabilizing
    solution, which signals a non-stabilizable pair.
    """
    A, B = sys.A, sys.B
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = 0.5 * (Q + Q.T)
    R = 0.5 * (R + R.T)
    if np.min(np.linalg.eigvalsh(Q)) < -PSD_TOL:
        raise ValueError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(R)) <= 0.0:
        raise ValueError("R must be positive definite")
    try:
        P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"no stabilizing Riccati solution: {exc}") from exc
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    if spectral_radius(A - B @ K) >= 1.0:
        raise NoConvergence("Riccati solution does not stabilize the closed loop")
    return LqrSolution(K=K, P=P)


def input_admissible_states(K, U: Polytope) -> Polytope:
    """States where the feedback u = -K x satisfies the input constraints."""
    K = np.asarray(K, dtype=float)
    return Polytope(-U.F @ K, U.g.copy())


def lqr_admissible_set(sys: LtiSystem, K, X: Polytope, U: Polytope) -> Polytope:
    """Region where u = -K x can run forever without violating X or U.

    Maximal positively invariant set of the closed loop A - B K inside
    X intersected with the input-admissible states.
    """
    K = np.asarray(K, dtype=float).reshape(sys.n_u, sys.n_x)
    constraints = intersect(X, input_admissible_states(K, U))
    return max_positively_invariant(sys.A - sys.B @ K, constraints)


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (k+1, n_x)
    inputs: np.ndarray  # (k, n_u)


def simulate(sys: LtiSystem, net: ReluNetwork, x0, k: int) -> Trajectory:
    """Roll the closed loop x+ = A x + B N(x) for k steps."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = [x]
    inputs = []
    for _ in range(k):
        u = net.eval(x)
        x = sys.A @ x + sys.B @ u
        inputs.append(u)
        states.append(x)
    return Trajectory(np.array(states), np.reshape(inputs, (k, sys.n_u)))


def system_from_json(data: dict) -> tuple[LtiSystem, dict]:
    """Parse the system file schema; returns the plant and the auxiliary sets.

    Expected keys: A, B, X (polytope), U (polytope) or U_box ({lb, ub}),
    optional Q (n_x by n_x) and R (n_u by n_u).  The returned dict carries
    X, U, U_box, Q, R.  A ValueError names the field it comes from.
    """

    def matrix(name):
        return json_array(data[name], f"system field {name}")

    def field(name, parse):
        try:
            if not isinstance(data[name], dict):
                raise ValueError("must be a JSON object")
            return parse(data[name])
        except ValueError as exc:
            raise ValueError(f"system field {name}: {exc}") from exc

    def box(value):
        lb, ub = json_array(value["lb"], "lb"), json_array(value["ub"], "ub")
        if lb.shape != ub.shape:
            raise ValueError(f"lb has shape {lb.shape} but ub {ub.shape}")
        if np.any(lb > ub):
            raise EmptyInput("U_box is empty: lb > ub")
        return (lb, ub), Polytope.box(lb, ub)

    sys = LtiSystem(matrix("A"), matrix("B"))
    aux: dict = {"Q": None, "R": None, "U_box": None}
    aux["X"] = field("X", Polytope.from_json)
    if "U_box" in data:
        aux["U_box"], aux["U"] = field("U_box", box)
    elif "U" in data:
        aux["U"] = field("U", Polytope.from_json)
    else:
        raise ValueError("system file needs either U or U_box")
    u_field = "U_box" if "U_box" in data else "U"
    for name, P, size, n in (("X", aux["X"], "n_x", sys.n_x), (u_field, aux["U"], "n_u", sys.n_u)):
        if P.dim != n:
            raise ValueError(f"system field {name} has dimension {P.dim}, expected {size} = {n}")
    for name, n in (("Q", sys.n_x), ("R", sys.n_u)):
        if name in data:
            M = aux[name] = matrix(name)
            if M.shape != (n, n):
                raise ValueError(f"system field {name} has shape {M.shape}, expected ({n}, {n})")
    return sys, aux
