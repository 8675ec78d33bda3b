"""Enumeration of the activation regions a network realizes inside a set.

Depth-first search over neurons in layer order: each neuron splits the
current cell by its pre-activation hyperplane and infeasible branches are
pruned with an LP, so only realizable patterns are visited (worst case still
2^n, hence the neuron cap).  One LP is loaded for the whole search: a branch
appends its half-space row and leaving the branch deletes that row again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from certnn import lp
from certnn.errors import CertnnError, EmptyInput
from certnn.network import Pattern, ReluNetwork
from certnn.polytope import Polytope, _load, remove_redundant

NEURON_CAP = 20


class TooManyNeurons(CertnnError):
    pass


@dataclass
class Region:
    pattern: Pattern
    polytope: Polytope


def enumerate_regions(net: ReluNetwork, X_in: Polytope) -> list[Region]:
    """All realizable activation regions of the network intersected with X_in."""
    total = sum(net.hidden_widths)
    if total > NEURON_CAP:
        raise TooManyNeurons(f"{total} hidden neurons exceed the cap {NEURON_CAP}")
    regions: list[Region] = []
    widths = net.hidden_widths

    def descend(layer: int, pattern_prefix: list[np.ndarray], rows, rhs):
        if layer == len(widths):
            pattern = tuple(np.asarray(p, dtype=np.int8) for p in pattern_prefix)
            cell = Polytope(np.array(rows), np.array(rhs))
            try:
                regions.append(Region(pattern, remove_redundant(cell)))
            except EmptyInput:
                pass  # an unrealizable pattern has no cell
            return
        # Pre-activations of this layer only depend on the completed layers.
        V, c = net.pattern_maps(
            tuple(pattern_prefix) + tuple(np.ones(w, dtype=np.int8) for w in widths[layer:])
        )[layer]

        def split(j: int, gamma: list[int], rows, rhs):
            if j == widths[layer]:
                descend(layer + 1, pattern_prefix + [np.array(gamma)], rows, rhs)
                return
            # the model holds exactly the rows of the current cell
            for bit, row, r in ((1, -V[j], c[j]), (0, V[j], -c[j])):
                model.add_rows(row[None, :], [r])
                if model.solve().status != lp.LpStatus.INFEASIBLE:
                    split(j + 1, gamma + [bit], rows + [row], rhs + [r])
                model.delete_rows(len(rows))

        split(0, [], rows, rhs)

    # zero cost: each solve is the emptiness check of the current cell
    model = _load(X_in)
    descend(0, [], list(X_in.F), list(X_in.g))
    return regions
