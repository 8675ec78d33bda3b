"""ReLU network model and its piecewise-affine structure.

A network is a list of (W, b) layers: hidden layers with ReLU activation
followed by one affine output layer.  Fixing which ReLUs are active (an
activation pattern, one binary per hidden neuron) turns the network into a
single affine map valid on a polytopic region of the input space.
ReluNetwork.pattern_maps is that parametric description: the affine map of
each hidden pre-activation and of the output under a pattern.  The region,
the equilibrium gain and bias and the retrofit constraints are all read off
it.  The module also finds the pattern realized at a point and builds two
derived controllers: an output-saturated network that respects box input
constraints everywhere, and a retrofit whose output layer is minimally
modified so the equilibrium-region feedback equals -K x.

Ties (pre-activation exactly zero) count as active; this matters only on
measure-zero boundaries but fixes which closed region a boundary point
belongs to.
"""

from __future__ import annotations

import json

import numpy as np

from certnn.errors import CertnnError, DimensionMismatch, EmptyInput
from certnn.polytope import Polytope, json_array, remove_redundant
from certnn.tolerances import RETROFIT_TOL

# An activation pattern is one 0/1 vector per hidden layer.
Pattern = tuple[np.ndarray, ...]


class EmptyRegion(CertnnError):
    """The requested activation pattern is not realized by any input."""


class InvalidBounds(CertnnError):
    pass


class RankDeficient(CertnnError):
    """The retrofit equality system has no solution: no output layer gives -K."""


class ReluNetwork:
    """Feed-forward ReLU network: hidden layers plus an affine output layer."""

    def __init__(self, layers):
        if len(layers) < 2:
            raise ValueError("need at least one hidden layer and an output layer")
        checked = []
        prev = None
        for W, b in layers:
            W = np.asarray(W, dtype=float)
            b = np.asarray(b, dtype=float).reshape(-1)
            if W.ndim != 2 or W.shape[0] != b.size:
                raise ValueError(f"layer shape mismatch: W {W.shape}, b {b.shape}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError("layer entries must be finite")
            if prev is not None and W.shape[1] != prev:
                raise ValueError(f"layer input width {W.shape[1]} does not chain with {prev}")
            prev = W.shape[0]
            checked.append((W, b))
        self.layers = checked

    @property
    def n_x(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def n_u(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def hidden_widths(self) -> list[int]:
        return [W.shape[0] for W, _ in self.layers[:-1]]

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.n_x:
            raise DimensionMismatch(f"input length {x.size}, expected {self.n_x}")
        xi = x
        for W, b in self.layers[:-1]:
            xi = np.maximum(W @ xi + b, 0.0)
        W, b = self.layers[-1]
        return W @ xi + b

    def activation_pattern(self, x) -> Pattern:
        """Per-neuron activity at x; pre-activation >= 0 counts as active."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.n_x:
            raise DimensionMismatch(f"input length {x.size}, expected {self.n_x}")
        gammas = []
        xi = x
        for W, b in self.layers[:-1]:
            pre = W @ xi + b
            gammas.append((pre >= 0.0).astype(np.int8))
            xi = np.maximum(pre, 0.0)
        return tuple(gammas)

    def _check_pattern(self, pattern: Pattern):
        widths = self.hidden_widths
        if len(pattern) != len(widths) or any(
            np.asarray(p).size != w for p, w in zip(pattern, widths)
        ):
            raise DimensionMismatch("pattern does not match hidden layer widths")

    def pattern_maps(self, pattern: Pattern) -> list[tuple[np.ndarray, np.ndarray]]:
        """The network's parametric description under an activation pattern.

        One forward walk returns (V, c) with V x + c equal to each hidden
        layer's pre-activation, then to the output, for every x that realizes
        the pattern.  Each layer's mask applies before the next layer does.
        """
        self._check_pattern(pattern)
        W, b = self.layers[0]
        maps = [(W.copy(), b.copy())]
        for (W, b), gamma in zip(self.layers[1:], pattern):
            V, c = maps[-1]
            mask = np.asarray(gamma, dtype=float)
            maps.append((W @ (mask[:, None] * V), W @ (mask * c) + b))
        return maps

    def region_of_pattern(self, pattern: Pattern) -> Polytope:
        """Closed region where the pattern is realized, as an irredundant polytope.

        Active neurons contribute pre(x) >= 0, inactive ones the closure
        pre(x) <= 0, so the region equals the closure of {x : G(x) = pattern}.
        Raises EmptyRegion when the stacked system is infeasible.
        """
        maps = self.pattern_maps(pattern)[:-1]
        sign = 1.0 - 2.0 * np.concatenate(pattern)  # -1 active, +1 inactive
        V = np.vstack([V for V, _ in maps])
        c = np.concatenate([c for _, c in maps])
        try:
            return remove_redundant(Polytope(sign[:, None] * V, -sign * c))
        except EmptyInput as exc:
            raise EmptyRegion("activation pattern is unrealizable") from exc

    def equilibrium_region(self) -> tuple[Pattern, Polytope]:
        """Pattern at the origin and the polytopic region where it holds."""
        gamma = self.activation_pattern(np.zeros(self.n_x))
        region = self.region_of_pattern(gamma)
        return gamma, region

    def to_json(self) -> dict:
        return {
            "layers": [{"W": W.tolist(), "b": b.tolist()} for W, b in self.layers]
        }

    @staticmethod
    def from_json(data: dict) -> "ReluNetwork":
        layers = data.get("layers") if isinstance(data, dict) else None
        if not (isinstance(layers, list) and all(isinstance(l, dict) for l in layers)):
            raise ValueError("a network is an object whose 'layers' is a list of {W, b} objects")
        return ReluNetwork(
            [(json_array(l["W"], f"layer {i} W"), json_array(l["b"], f"layer {i} b"))
             for i, l in enumerate(layers)]
        )

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)
            f.write("\n")

    @staticmethod
    def load(path) -> "ReluNetwork":
        with open(path) as f:
            return ReluNetwork.from_json(json.load(f))


def saturate(net: ReluNetwork, lb, ub) -> ReluNetwork:
    """Append two ReLU stages clamping the output into the box [lb, ub].

    The construction max(-max(-u + ub, 0) + ub - lb, 0) + lb leaves feasible
    outputs unchanged and saturates the rest, so the result satisfies the box
    input constraints for every state.
    """
    lb = np.asarray(lb, dtype=float).reshape(-1)
    ub = np.asarray(ub, dtype=float).reshape(-1)
    if lb.size != net.n_u or ub.size != net.n_u:
        raise DimensionMismatch("bound length does not match output width")
    if np.any(lb >= ub):
        raise InvalidBounds("need lb < ub componentwise")
    W_out, b_out = net.layers[-1]
    eye = np.eye(net.n_u)
    layers = list(net.layers[:-1])
    layers.append((-W_out, ub - b_out))
    layers.append((-eye, ub - lb))
    layers.append((eye, lb))
    return ReluNetwork(layers)


def retrofit_lqr(net: ReluNetwork, K) -> tuple[ReluNetwork, float]:
    """Minimally change the output layer so the equilibrium feedback is -K x.

    Solves the strictly convex QP
        min ||W_new - W_out||_F^2 + ||b_new - b_out||^2
        s.t. W_new @ W_eq = -K,  W_new @ b_eq + b_new = 0,
    where (W_eq, b_eq) is the masked last hidden layer under the activation
    pattern at the origin.  Row-wise the constraints read [W_new b_new] G =
    [-K 0] with G = [[W_eq, b_eq], [0, 1]], so the optimum is the old layer
    plus the min-norm correction ([-K 0] - [W_out b_out] G) pinv(G).  The
    hidden layers (and hence all activation regions) are untouched.  Returns
    the new network and the objective value at the optimum; raises
    RankDeficient when the constraints have no solution.
    """
    K = np.asarray(K, dtype=float).reshape(net.n_u, net.n_x)
    gamma = net.activation_pattern(np.zeros(net.n_x))
    V, c = net.pattern_maps(gamma)[-2]
    mask = np.asarray(gamma[-1], dtype=float)[:, None]
    G = np.block([[mask * V, mask * c[:, None]], [np.zeros(net.n_x), 1.0]])
    T = np.hstack([-K, np.zeros((net.n_u, 1))])
    W_out, b_out = net.layers[-1]
    old = np.hstack([W_out, b_out[:, None]])
    new = old + (T - old @ G) @ np.linalg.pinv(G)
    residual = np.max(np.abs(new @ G - T))
    if residual > RETROFIT_TOL * (1.0 + np.max(np.abs(T))):
        raise RankDeficient(f"retrofit equality residual {residual:.3e}: no output layer gives -K")
    cost = float(np.sum((new - old) ** 2))
    return ReluNetwork(list(net.layers[:-1]) + [(new[:, :-1], new[:, -1])]), cost


def synth_satlqr(K, lb, ub) -> ReluNetwork:
    """Saturated-LQR test network: clamp(-K x, lb, ub) on the box |x_i| <= 10.

    The hidden layer carries one shifted pair (x_i + 10, -x_i + 10)
    per state; inside the box both halves are active, the pair difference
    reconstructs 2 x_i, and the output layer -K/2 recombines them into -K x
    with zero bias.  The shift keeps the equilibrium activation region
    full-dimensional.  Saturation per the box bounds is then appended.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n_u, n_x = K.shape
    # integer, so every zero is +0.0 once ReluNetwork casts it to float
    W1 = np.kron(np.eye(n_x, dtype=int), [[1], [-1]])
    b1 = np.full(2 * n_x, 10.0)
    W2 = np.kron(K, [[-0.5, 0.5]])
    b2 = np.zeros(n_u)
    return saturate(ReluNetwork([(W1, b1), (W2, b2)]), lb, ub)
