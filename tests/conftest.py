"""Shared fixtures and the case study's constants.

The case study's plant, LQR weights, published X_in facets and the scale at
which X_in is certified, and ``random_net``, are imported from
perfbench/workloads.py and re-exported here, so that tier-1, the CI summary
and the benchmark certify one loop.  The published reference figures below
(CASE_K, CASE_F_LQR, ...) stay here, apart from workloads.py, as
independent oracles: a typo in its plant still fails the tests that compare
against them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from certnn import lp
from certnn.control import LtiSystem
from certnn.network import ReluNetwork
from certnn.polytope import Polytope

# perfbench/workloads.py, which helpers imports as well
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from helpers import cold_linprog  # noqa: E402
from workloads import (  # noqa: E402, F401
    CASE_A,
    CASE_B,
    CASE_C_IN,
    CASE_PUBLISHED_SCALE,
    CASE_Q,
    CASE_R,
    CASE_c_IN,
    random_net,
)

# the published LQR gain, regions and sets of the case study
CASE_K = np.array([[0.2501, 0.8290]])

CASE_F_LQR = np.array(
    [[-0.6870, 0.24566], [0.6870, -0.2456], [-0.2501, -0.8290], [0.2501, 0.8290]]
)
CASE_g_LQR = np.ones(4)

CASE_F_EQ = np.array(
    [[-0.2527, -0.7318], [0.2646, 0.0201], [-0.3536, 0.4097], [0.3115, 0.6526]]
)
CASE_g_EQ = np.array([0.9025, 0.2673, 0.2484, 0.8415])

CASE_C_AS = np.array(
    [
        [-0.3264, -0.9452],
        [-0.6533, 0.7571],
        [-0.2889, -0.9574],
        [0.9971, 0.0759],
        [0.8301, -0.5576],
        [-0.2888, -0.9574],
        [0.4307, 0.9025],
    ]
)
CASE_c_AS = np.array([1.1657, 0.4590, 1.1548, 1.0070, 1.1920, 1.1549, 1.1637])


@pytest.fixture
def case_system():
    return LtiSystem(CASE_A, CASE_B)


@pytest.fixture
def case_X():
    return Polytope.box([-5.0, -5.0], [5.0, 5.0])


@pytest.fixture
def case_U():
    return Polytope.box([-1.0], [1.0])


@pytest.fixture
def case_Xin():
    """The published X_in, at its 4-decimal offsets."""
    return Polytope(CASE_C_IN, CASE_c_IN)


@pytest.fixture
def certified_Xin():
    """The published X_in scaled by CASE_PUBLISHED_SCALE: at its 4-decimal
    offsets the set is marginally non-invariant for the case-study controller."""
    return Polytope(CASE_C_IN, CASE_PUBLISHED_SCALE * CASE_c_IN)


@pytest.fixture
def count_lps():
    """Counts LP solves from fixture set-up on, as a difference of ``lp.WORK``.

    Call it for the solves of every purpose, or with a purpose for those of
    one.  Every LP, one-shot (``solve_lp``) or re-solved on a persistent
    model (branch-and-bound nodes, bound LPs), goes through ``LpModel.solve``,
    which counts it in ``lp.WORK``; nothing is patched.
    """
    start = lp.WORK.copy()

    def count(purpose=None):
        if purpose is not None:
            return lp.WORK[purpose, "solves"] - start[purpose, "solves"]
        done = lp.WORK - start
        return sum(n for key, n in done.items() if key != "loads" and key[1] == "solves")

    return count


@pytest.fixture
def count_loads():
    """Counts LP loads (``LpModel`` constructions) from fixture set-up on.

    Call it to read the count: the growth of ``lp.WORK["loads"]``; nothing
    is patched.
    """
    start = lp.WORK["loads"]
    return lambda: lp.WORK["loads"] - start


@pytest.fixture
def linprog_path(monkeypatch):
    """Checks every LP solve against a cold scipy.optimize.linprog solve.

    Each ``LpModel.solve`` still answers warm; the LP that its HiGHS object
    then holds is solved once more from scratch, and the two must agree on
    the status and, when optimal, on the value.
    """
    solve = lp.LpModel.solve
    status = {lp.LpStatus.OPTIMAL: 0, lp.LpStatus.INFEASIBLE: 2, lp.LpStatus.UNBOUNDED: 3}

    def checked(model, purpose):
        out = solve(model, purpose)
        ref_status, ref_value = cold_linprog(model._highs)
        assert status[out.status] == ref_status
        if out.status == lp.LpStatus.OPTIMAL:
            assert -out.value == pytest.approx(ref_value, rel=1e-6, abs=1e-6)
        return out

    monkeypatch.setattr(lp.LpModel, "solve", checked)


@pytest.fixture(params=["import", "linprog"])
def lp_path(request):
    """Runs a test on the warm-started models, then with ``linprog_path``'s cold check of every solve."""
    if request.param == "linprog":
        request.getfixturevalue("linprog_path")
    return request.param


@pytest.fixture
def identity_pair_net():
    """1-D net computing max(x,0) - max(-x,0) = x."""
    return ReluNetwork(
        [
            (np.array([[1.0], [-1.0]]), np.zeros(2)),
            (np.array([[1.0, -1.0]]), np.zeros(1)),
        ]
    )


def scaled(net, s):
    """net with every weight and bias times s."""
    return ReluNetwork([(s * W, s * b) for W, b in net.layers])
