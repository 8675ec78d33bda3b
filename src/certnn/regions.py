"""Enumeration of the activation regions a network realizes inside a set.

Depth-first search over neurons in layer order: each neuron splits the
current cell by its pre-activation hyperplane and infeasible branches are
pruned with an LP, so only realizable patterns are visited (worst case still
2^n, hence the neuron cap).  One LP is loaded for the whole search: a branch
appends its half-space row and leaving the branch deletes that row again.
The LP is the only copy of the rows: each region's cell is read back from
it with ``LpModel.rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from certnn import lp
from certnn.errors import CertnnError, DimensionMismatch, EmptyInput
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
    if X_in.dim != net.n_x:
        raise DimensionMismatch(f"X_in has dimension {X_in.dim}, the network {net.n_x} inputs")
    total = sum(net.hidden_widths)
    if total > NEURON_CAP:
        raise TooManyNeurons(f"{total} hidden neurons exceed the cap {NEURON_CAP}")
    regions: list[Region] = []
    widths = net.hidden_widths

    def descend(layer: int, pattern_prefix: list[np.ndarray]):
        if layer == len(widths):
            pattern = tuple(np.asarray(p, dtype=np.int8) for p in pattern_prefix)
            try:
                regions.append(Region(pattern, remove_redundant(Polytope(*model.rows()))))
            except EmptyInput:
                pass  # an unrealizable pattern has no cell
            return
        # Pre-activations of this layer only depend on the completed layers.
        V, c = net.pattern_maps(
            tuple(pattern_prefix) + tuple(np.ones(w, dtype=np.int8) for w in widths[layer:])
        )[layer]

        def split(j: int, gamma: list[int]):
            if j == widths[layer]:
                descend(layer + 1, pattern_prefix + [np.array(gamma)])
                return
            # the model holds exactly the rows of the current cell: X_in's,
            # then one per neuron decided so far
            depth = X_in.nrows + sum(widths[:layer]) + j
            for bit, row, r in ((1, -V[j], c[j]), (0, V[j], -c[j])):
                model.add_rows(row[None, :], [r])
                if model.solve("emptiness").status != lp.LpStatus.INFEASIBLE:
                    split(j + 1, gamma + [bit])
                model.delete_rows(depth)

        split(0, [])

    # zero cost: each solve is the emptiness check of the current cell
    model = _load(X_in)
    descend(0, [])
    return regions
