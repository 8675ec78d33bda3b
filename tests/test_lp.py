import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from certnn import lp, polytope
from certnn.milp import encode_output_range
from certnn.polytope import Polytope, remove_redundant, support
from helpers import held_matrix


def random_bounded_lp(rng, n=4, m=8):
    A = rng.standard_normal((m, n))
    x0 = rng.standard_normal(n)
    b = A @ x0 + rng.uniform(0.1, 1.0, m)  # feasible by construction
    c = rng.standard_normal(n)
    return lp.maximize(c, A, b, lb=-10.0 * np.ones(n), ub=10.0 * np.ones(n))


def test_single_variable_box():
    out = lp.solve_lp(lp.maximize([1.0], lb=[-1.0], ub=[1.0]))
    assert out.status == lp.LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0)


def test_two_variables():
    out = lp.solve_lp(
        lp.maximize([1.0, 1.0], A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0])
    )
    assert out.status == lp.LpStatus.OPTIMAL
    assert out.value == pytest.approx(2.0)
    np.testing.assert_allclose(out.point, [1.0, 1.0], atol=1e-7)


def test_infeasible():
    out = lp.solve_lp(lp.maximize([1.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0]))
    assert out.status == lp.LpStatus.INFEASIBLE


def test_unbounded():
    out = lp.solve_lp(lp.maximize([1.0]))
    assert out.status == lp.LpStatus.UNBOUNDED


def test_optimal_point_feasible_and_consistent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_bounded_lp(rng)
        out = lp.solve_lp(p)
        assert out.status == lp.LpStatus.OPTIMAL
        assert np.all(p.A @ out.point <= p.b + 1e-7)
        assert out.value == pytest.approx(float(p.objective @ out.point), abs=1e-7)


def test_weak_duality_spot_check():
    # max c.x, Ax <= b, x in [-10, 10]^n equals the value of its dual.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = 3, 6
        A = rng.standard_normal((m, n))
        x0 = rng.standard_normal(n)
        b = A @ x0 + rng.uniform(0.1, 1.0, m)
        c = rng.standard_normal(n)
        # fold the box bounds into rows so the dual is the plain inequality dual
        A_full = np.vstack([A, np.eye(n), -np.eye(n)])
        b_full = np.concatenate([b, 10.0 * np.ones(2 * n)])
        primal = lp.solve_lp(lp.maximize(c, A_full, b_full))
        # dual: min b.y s.t. A^T y = c, y >= 0
        dual = lp.solve_lp(
            lp.LinearProgram(
                -b_full,
                np.zeros((0, b_full.size)),
                np.zeros(0),
                np.zeros(b_full.size),
                np.full(b_full.size, np.inf),
                A_eq=A_full.T,
                b_eq=c,
            )
        )
        assert primal.status == lp.LpStatus.OPTIMAL
        assert dual.status == lp.LpStatus.OPTIMAL
        assert primal.value == pytest.approx(-dual.value, abs=1e-6)


def test_row_permutation_invariance():
    rng = np.random.default_rng(3)
    p = random_bounded_lp(rng)
    out = lp.solve_lp(p)
    perm = rng.permutation(p.A.shape[0])
    out_p = lp.solve_lp(lp.maximize(p.objective, p.A[perm], p.b[perm], p.lb, p.ub))
    assert out_p.value == pytest.approx(out.value, abs=1e-7)
    np.testing.assert_allclose(out_p.point, out.point, atol=1e-6)


def test_objective_scaling():
    rng = np.random.default_rng(4)
    p = random_bounded_lp(rng)
    out = lp.solve_lp(p)
    lam = 3.5
    out_s = lp.solve_lp(lp.maximize(lam * p.objective, p.A, p.b, p.lb, p.ub))
    assert out_s.value == pytest.approx(lam * out.value, abs=1e-6)
    support = np.abs(out.point) > 1e-7
    support_s = np.abs(out_s.point) > 1e-7
    assert np.array_equal(support, support_s)


def _seeded_lps():
    """The seeded problems above plus one infeasible and one unbounded LP."""
    problems = [lp.maximize([1.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0]), lp.maximize([1.0])]
    for seed in (3, 4, 7, 11):
        rng = np.random.default_rng(seed)
        problems.extend(random_bounded_lp(rng) for _ in range(10))
    return problems


def test_paths_agree_on_seeded_lps():
    # solve_lp and a direct scipy.optimize.linprog call, as a reference,
    # classify and solve the same LPs alike
    linprog_status = {0: lp.LpStatus.OPTIMAL, 2: lp.LpStatus.INFEASIBLE, 3: lp.LpStatus.UNBOUNDED}
    problems = _seeded_lps()
    got = [lp.solve_lp(p) for p in problems]
    assert [o.status for o in got[:2]] == [lp.LpStatus.INFEASIBLE, lp.LpStatus.UNBOUNDED]
    for p, a in zip(problems, got):
        has_ub = p.b.size > 0
        ref = linprog(
            -p.objective,
            A_ub=p.A if has_ub else None,
            b_ub=p.b if has_ub else None,
            bounds=np.column_stack([p.lb, p.ub]),
            method="highs",
        )
        assert a.status == linprog_status[ref.status]
        if a.status == lp.LpStatus.OPTIMAL:
            assert a.value == pytest.approx(-ref.fun, abs=1e-9)


def test_work_ledger_counts_loads_solves_and_iterations():
    # one load per LpModel; maxima over m rows counts m solves under its
    # purpose; each solve adds the simplex iterations that HiGHS reports
    # right after it; solve_lp is one load and one "one-shot" solve
    rng = np.random.default_rng(31)
    p = random_bounded_lp(rng)
    C = rng.standard_normal((5, p.objective.size))
    start = lp.WORK.copy()
    model = lp.LpModel(p.objective, p.A, p.b, p.lb, p.ub)
    assert lp.WORK - start == {"loads": 1}
    model.maxima(C, "ledger test")
    assert lp.WORK["ledger test", "solves"] - start["ledger test", "solves"] == C.shape[0]
    total = 0
    for c in C:
        model.set_objective(c)
        model.clear_basis()
        before = lp.WORK["ledger test", "iterations"]
        model.solve("ledger test")
        iterations = model._highs.getInfo().simplex_iteration_count
        assert lp.WORK["ledger test", "iterations"] - before == iterations
        total += iterations
    assert total > 0
    start = lp.WORK.copy()
    lp.solve_lp(p)
    done = lp.WORK - start
    assert (done["loads"], done["one-shot", "solves"]) == (1, 1)
    assert set(done) <= {"loads", ("one-shot", "solves"), ("one-shot", "iterations")}


def test_model_resolves_match_fresh_solves(lp_path):
    # one model re-solved under changed costs and bounds gives the optimum of
    # the same LP solved from scratch, infeasible boxes included
    rng = np.random.default_rng(12)
    p = random_bounded_lp(rng, n=5, m=10)
    model = lp.LpModel(p.objective, p.A, p.b, p.lb, p.ub)
    statuses = set()
    for _ in range(30):
        c = rng.standard_normal(5)
        lb = rng.uniform(-10.0, 2.0, 5)
        ub = lb + rng.uniform(0.0, 10.0, 5)
        model.set_objective(c)
        model.set_bounds(lb, ub)
        got = model.solve("test")
        want = lp.solve_lp(lp.maximize(c, p.A, p.b, lb, ub))
        statuses.add(got.status)
        assert got.status == want.status
        if got.status == lp.LpStatus.OPTIMAL:
            assert got.value == pytest.approx(want.value, abs=1e-9)
            assert np.all(p.A @ got.point <= p.b + 1e-7)
    assert statuses == {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE}


def test_model_changes_status_in_place(lp_path):
    # max x0 + x1 s.t. x0 + x1 <= 1: a bound change makes it infeasible, then
    # free bounds and a cost change make it unbounded
    model = lp.LpModel([1.0, 1.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [np.inf, np.inf])
    out = model.solve("test")
    assert out.status == lp.LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0)
    model.set_bounds(np.array([2.0, 0.0]), np.array([np.inf, np.inf]))
    assert model.solve("test").status == lp.LpStatus.INFEASIBLE
    model.set_bounds(np.full(2, -np.inf), np.full(2, np.inf))
    assert model.solve("test").value == pytest.approx(1.0)
    model.set_objective(np.array([1.0, 0.0]))
    assert model.solve("test").status == lp.LpStatus.UNBOUNDED


def test_row_edits_match_fresh_model(lp_path):
    # right-hand sides changed in place (+inf drops a row) and appended rows
    # give the optima of a model loaded fresh on the resulting rows
    rng = np.random.default_rng(21)
    n, m = 4, 8
    x0 = rng.standard_normal(n)
    A, A_new = (rng.standard_normal((k, n)) for k in (m, 3))
    b = A @ x0 + rng.uniform(0.1, 1.0, m)
    b_new = A_new @ x0 + rng.uniform(0.1, 1.0, 3)
    lb, ub = np.full(n, -10.0), np.full(n, 10.0)
    model = lp.LpModel(np.zeros(n), A, b, lb, ub)
    assert model.solve("test").status == lp.LpStatus.OPTIMAL
    rhs = np.concatenate([b, b_new])
    model.set_rhs(2, np.inf)
    rhs[2] = np.inf
    model.add_rows(A_new, b_new)
    edits = [(5, b[5] + 0.5), (m, b_new[0] - 0.05), (m + 1, np.inf), (0, b[0] + 1.0), (0, b[0])]
    for i, value in edits:
        model.set_rhs(i, value)
        rhs[i] = value
    kept = np.isfinite(rhs)
    fresh = lp.LpModel(np.zeros(n), np.vstack([A, A_new])[kept], rhs[kept], lb, ub)
    C = rng.standard_normal((12, n))
    got, want = model.maxima(C, "test"), fresh.maxima(C, "test")
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    model.set_objective(C[0])
    fresh.set_objective(C[0])
    assert model.solve("test").value == pytest.approx(fresh.solve("test").value, abs=1e-9)
    with pytest.raises(lp.LpError, match="no row"):
        model.set_rhs(m + 3, 1.0)  # one past the appended rows


def test_deleted_rows_match_fresh_model(lp_path):
    # deleting the last rows, appended ones and then loaded ones,
    # gives the optima of a model loaded fresh on the rows that remain; rows
    # appended after that are edited by their new index
    rng = np.random.default_rng(22)
    n, m = 4, 8
    x0 = rng.standard_normal(n)
    A = rng.standard_normal((m + 3, n))
    b = A @ x0 + rng.uniform(0.1, 1.0, m + 3)
    lb, ub = np.full(n, -10.0), np.full(n, 10.0)
    model = lp.LpModel(np.zeros(n), A[:m], b[:m], lb, ub)
    model.add_rows(A[m:], b[m:])
    C = rng.standard_normal((12, n))

    def assert_matches(rows, rhs):
        fresh = lp.LpModel(np.zeros(n), rows, rhs, lb, ub)
        got, want = model.maxima(C, "test"), fresh.maxima(C, "test")
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    for start in (m + 1, m, 5):
        model.delete_rows(start)
        assert_matches(A[:start], b[:start])
    model.add_rows(A[m:], b[m:])
    model.set_rhs(6, np.inf)
    assert_matches(np.vstack([A[:5], A[m], A[m + 2]]), np.concatenate([b[:5], b[[m, m + 2]]]))


def test_row_edits_leave_the_callers_arrays(lp_path):
    # the model edits its own copy of b, and remove_redundant leaves P.g as it was
    b = np.array([1.0, 1.0])
    model = lp.LpModel([1.0, 1.0], np.eye(2), b, np.zeros(2), np.full(2, np.inf))
    model.set_rhs(0, np.inf)
    model.add_rows([[1.0, 1.0]], [1.5])
    assert model.solve("test").value == pytest.approx(1.5)
    assert np.array_equal(b, [1.0, 1.0])
    P = Polytope(np.vstack([np.eye(2), -np.eye(2), np.eye(2)]), np.ones(6))
    g = P.g.copy()
    assert remove_redundant(P).nrows == 4
    assert np.array_equal(P.g, g)


def test_maxima_scale_with_the_objective(lp_path):
    # HiGHS's tolerances are absolute, so maxima solves each objective at unit
    # norm: objectives of norm 1e-10 give 1e-10 times the maxima of norm ~1
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        F = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((n, n))])
        g = rng.uniform(0.5, 2.0, F.shape[0])
        C = rng.standard_normal((3, n))
        free = np.full(n, np.inf)
        model = lp.LpModel(np.zeros(n), F, g, -free, free)
        tiny = model.maxima(1e-10 * C, "test")
        np.testing.assert_allclose(tiny, 1e-10 * model.maxima(C, "test"), rtol=1e-9)


def test_a_stalled_warm_solve_is_solved_again_cold(lp_path):
    # on the 67th of these polytopes HiGHS's warm re-solve of the third
    # direction stops with status Unknown; each direction solved alone and
    # cold is unbounded
    rng = np.random.default_rng(0)
    for _ in range(67):
        n = rng.integers(2, 6)
        m = rng.integers(n + 1, 3 * n + 2)
        F, g, C = rng.standard_normal((m, n)), rng.uniform(0.5, 2.0, m), rng.standard_normal((4, n))
    assert np.array_equal(support(Polytope(F, g), C), np.full(4, np.inf))


# explicit zeros and an all-zero row
ROWS = np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-1.0, -1.0, 0.0]])
DIRECTIONS = np.random.default_rng(5).standard_normal((6, 3))


def held_lp(model):
    """The LP that model's HiGHS object holds: its matrix column-wise, its column and row bounds."""
    p = model._highs.getLp()
    A = held_matrix(p).tocsc()
    parts = (A.indptr, A.indices, A.data, p.col_lower_, p.col_upper_, p.row_lower_, p.row_upper_)
    return [np.asarray(part) for part in parts]


def assert_same_lp(model, other, rows):
    # the same LP in HiGHS, holding the nonzeros of rows only, and the same maxima
    for got, want in zip(held_lp(model), held_lp(other)):
        np.testing.assert_array_equal(got, want)
    want = sparse.csc_array(rows)
    for got, part in zip(held_lp(model), (want.indptr, want.indices, want.data)):
        np.testing.assert_array_equal(got, part)
    np.testing.assert_array_equal(model.maxima(DIRECTIONS, "test"), other.maxima(DIRECTIONS, "test"))


@pytest.mark.parametrize("rows", [ROWS, ROWS[:0]], ids=["rows", "no rows"])
def test_dense_matrices_load_their_nonzeros_only(rows):
    # a dense matrix, zeros and all, loads its nonzeros only; the rows read
    # back from HiGHS are the matrix, and loading them gives the same LP
    b = np.arange(1.0, rows.shape[0] + 1.0)
    lb, ub = np.full(3, -5.0), np.full(3, 5.0)
    dense = lp.LpModel(np.zeros(3), rows, b, lb, ub)
    A, got_b = dense.rows()
    np.testing.assert_array_equal(A, rows.reshape(-1, 3))
    np.testing.assert_array_equal(got_b, b)
    assert_same_lp(dense, lp.LpModel(np.zeros(3), A, got_b, lb, ub), rows)


def test_rows_read_back_what_the_model_holds(lp_path):
    # rows() is the loaded rows and then the appended ones, before and after
    # a solve and after delete_rows; a row dropped by a right-hand side of
    # +inf reads b_i = +inf
    rng = np.random.default_rng(23)
    n, m = 4, 6
    x0 = rng.standard_normal(n)
    A = rng.standard_normal((m + 3, n))
    A[1, 2] = A[m + 1, 0] = 0.0  # zeros come back as zeros
    b = A @ x0 + rng.uniform(0.1, 1.0, m + 3)
    model = lp.LpModel(rng.standard_normal(n), A[:m], b[:m], np.full(n, -10.0), np.full(n, 10.0))

    def assert_rows(want_A, want_b):
        got_A, got_b = model.rows()
        np.testing.assert_array_equal(got_A, want_A)
        np.testing.assert_array_equal(got_b, want_b)

    assert_rows(A[:m], b[:m])
    model.add_rows(A[m:], b[m:])
    assert_rows(A, b)
    assert model.solve("test").status == lp.LpStatus.OPTIMAL
    assert_rows(A, b)
    model.set_rhs(2, np.inf)
    assert model.solve("test").status == lp.LpStatus.OPTIMAL
    assert_rows(A, np.where(np.arange(m + 3) == 2, np.inf, b))
    model.delete_rows(m - 1)
    b = np.where(np.arange(m + 3) == 2, np.inf, b)
    assert_rows(A[: m - 1], b[: m - 1])
    # rows appended after new columns, which HiGHS then holds row by row;
    # the new columns read as zeros in the rows before them
    model.add_cols(np.zeros(2), np.ones(2))
    A = np.hstack([A, rng.standard_normal((m + 3, 2))])
    A[: m - 1, n:] = 0.0
    model.add_rows(A[m - 1 :], b[m - 1 :])
    assert_rows(A, b)
    assert model.solve("test").status == lp.LpStatus.OPTIMAL
    assert_rows(A, b)


def test_no_module_imports_scipy_sparse():
    # rows go from the encoder to HiGHS as dense arrays, and scipy.sparse
    # adds import time to every CLI call
    found = []
    for path in sorted(Path(lp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.startswith("scipy.sparse")]
    assert found == []


def test_dense_rows_appended_match_rows_loaded():
    # the constructor loads its rows by add_rows too, so this checks that a
    # dense block with zeros split over two add_rows calls holds what one holds
    b = np.arange(1.0, ROWS.shape[0] + 1.0)
    lb, ub = np.full(3, -5.0), np.full(3, 5.0)
    appended = lp.LpModel(np.zeros(3), ROWS[:1], b[:1], lb, ub)
    appended.add_rows(ROWS[1:], b[1:])
    assert_same_lp(appended, lp.LpModel(np.zeros(3), ROWS, b, lb, ub), ROWS)


@pytest.mark.parametrize("coef", [np.inf, 1e300])
def test_a_rejected_row_raises_at_construction(coef):
    # HiGHS refuses an infinite or huge coefficient; the constructor's
    # add_rows raises LpError rather than leave a model without the row
    with pytest.raises(lp.LpError):
        lp.LpModel(np.zeros(1), [[coef]], [1.0], [-1.0], [1.0])


def test_simplex_by_model_kind(identity_pair_net):
    # set-algebra models re-solve on the primal simplex; MILP relaxations keep
    # HiGHS's default, the dual simplex (simplex_strategy 1)
    def strategy(model):
        return model._highs.getOptionValue("simplex_strategy")[1]

    box = Polytope.box([-1.0], [1.0])
    assert strategy(polytope._load(box)) == lp.PRIMAL_SIMPLEX
    assert strategy(encode_output_range(identity_pair_net, box, [1.0]).relaxation) == 1


def test_missing_highs_binding_names_the_scipy_version():
    # scipy < 1.15 bundles no scipy.optimize._highspy: importing certnn.lp
    # then fails with one ImportError, not a chain, that names the scipy it needs
    code = "import sys; sys.modules['scipy.optimize._highspy'] = None; import certnn.lp"
    src = str(Path(lp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stderr.count("Traceback") == 1
    assert out.stderr.splitlines()[-1].startswith("ImportError: certnn needs scipy >= 1.15")
