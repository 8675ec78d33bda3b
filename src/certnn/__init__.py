"""Verification and LQR retrofit of ReLU network controllers for LTI systems.

The package certifies closed-loop constraint satisfaction and asymptotic
stability of a ReLU network controller u = N(x) acting on a discrete-time
linear system x+ = A x + B u.  Output ranges of the network (open loop and
unrolled k steps through the plant) are computed exactly with a big-M MILP
solved by branch and bound; invariant sets are computed with H-representation
polytope algebra; and the network's output layer can be retrofitted so that
it reproduces the LQR feedback inside its equilibrium activation region.
"""

from certnn.control import LqrSolution, LtiSystem, lqr, lqr_admissible_set, simulate
from certnn.milp import (
    BnbResult,
    ClosedLoopEncoding,
    MilpModel,
    output_range_results,
    reach_results,
    solve_milp,
)
from certnn.network import ReluNetwork, retrofit_lqr, saturate, synth_satlqr
from certnn.polytope import Polytope
from certnn.verify import Certificate, verify_stability

__all__ = [
    "BnbResult",
    "Certificate",
    "ClosedLoopEncoding",
    "LqrSolution",
    "LtiSystem",
    "MilpModel",
    "Polytope",
    "ReluNetwork",
    "lqr",
    "lqr_admissible_set",
    "output_range_results",
    "reach_results",
    "retrofit_lqr",
    "saturate",
    "simulate",
    "solve_milp",
    "synth_satlqr",
    "verify_stability",
]
