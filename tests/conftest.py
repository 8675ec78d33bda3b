import numpy as np
import pytest

from certnn import lp
from certnn.control import LtiSystem
from certnn.network import ReluNetwork
from certnn.polytope import Polytope
from helpers import cold_linprog


# Double-integrator case study: plant, constraints and reference sets.
CASE_A = np.array([[0.5403, -0.8415], [0.8415, 0.5403]])
CASE_B = np.array([[-0.4597], [0.8415]])
CASE_Q = 2.0 * np.eye(2)
CASE_R = np.array([[1.0]])
CASE_K = np.array([[0.2501, 0.8290]])

CASE_C_IN = np.array(
    [
        [0.0707, -0.9975],
        [-0.1509, -0.9885],
        [-0.8011, -0.5984],
        [-0.9797, 0.2004],
        [0.8776, -0.4795],
        [0.9797, -0.2004],
        [0.8012, 0.5984],
        [0.1509, 0.9885],
        [-0.0707, 0.9975],
        [-0.8776, 0.4754],
    ]
)
CASE_c_IN = np.array(
    [3.0297, 2.9401, 3.5051, 3.2918, 3.3082, 3.2918, 3.5051, 2.9401, 3.0297, 3.3082]
)

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
    return Polytope(CASE_C_IN, CASE_c_IN)


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


def random_net(rng, n_x, widths, n_u, scale=1.0):
    layers = []
    prev = n_x
    for w in list(widths) + [n_u]:
        W = scale * rng.standard_normal((w, prev))
        b = scale * rng.standard_normal(w)
        layers.append((W, b))
        prev = w
    return ReluNetwork(layers)
