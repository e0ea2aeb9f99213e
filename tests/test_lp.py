import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from auditgames import lp as lp_module
from auditgames.errors import NumericalBreakdown
from auditgames.lp import LinearProgram, implies, solve_feasibility, solve_lp

INF = math.inf


def lp(obj, cons, bounds):
    return LinearProgram(np.asarray(obj, dtype=float), cons, bounds)


def test_single_variable_optimum():
    out = solve_lp(lp([1.0], [(np.array([1.0]), "<=", 1.0)], [(0.0, INF)]))
    assert out.status == "optimal"
    assert out.solution[0] == pytest.approx(1.0, abs=1e-12)
    assert out.is_vertex


def test_infeasible():
    out = solve_lp(lp([1.0], [(np.array([1.0]), "<=", -1.0)], [(0.0, INF)]))
    assert out.status == "infeasible"


def test_single_binding_constraint():
    out = solve_lp(lp([1.0, 1.0], [(np.array([1.0, 1.0]), "<=", 1.5)],
                      [(0.0, 1.0)] * 2))
    assert out.objective_value == pytest.approx(1.5, abs=1e-12)


def test_unbounded():
    out = solve_lp(lp([1.0], [], [(0.0, INF)]))
    assert out.status == "unbounded"


def test_feasibility_equality():
    out = solve_feasibility([(np.array([1.0]), "=", 0.5)], [(0.0, 1.0)])
    assert out.status == "optimal"
    assert out.solution[0] == pytest.approx(0.5, abs=1e-9)


def test_feasibility_infeasible():
    out = solve_feasibility([(np.array([1.0]), ">=", 2.0)], [(0.0, 1.0)])
    assert out.status == "infeasible"


def test_feasibility_grid_allocation():
    # 2 targets, 1 resource, fixed coverage (0.4, 0.6) sums to 1
    rows = [
        (np.array([1.0, 0.0]), "=", 0.4),
        (np.array([0.0, 1.0]), "=", 0.6),
        (np.array([1.0, 1.0]), "<=", 1.0),
    ]
    out = solve_feasibility(rows, [(0.0, 1.0)] * 2)
    assert out.status == "optimal"
    assert np.allclose(out.solution, [0.4, 0.6])


def test_implies_box():
    assert implies([(np.array([1.0, 1.0]), "<=", 1.0)],
                   (np.array([1.0, 0.0]), "<=", 1.0), 2)
    assert not implies([(np.array([1.0, 0.0]), "<=", 0.5)],
                       (np.array([1.0, 1.0]), "<=", 1.0), 2)
    assert implies([(np.array([1.0, 1.0, 1.0]), "<=", 2.0)],
                   (np.array([1.0, 1.0, 0.0]), "<=", 2.0), 3)


def brute_force_box_lp(c, rows, n):
    """Enumerate candidate vertices: intersections of n constraints drawn
    from rows plus box facets."""
    facets = [r for r in rows]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        facets.append((e, "<=", 1.0))
        facets.append((-e, "<=", 0.0))
    best = None
    mats = [np.asarray(f[0], dtype=float) for f in facets]
    rhs = [float(f[2]) for f in facets]
    for combo in itertools.combinations(range(len(facets)), n):
        a = np.array([mats[i] for i in combo])
        b = np.array([rhs[i] for i in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
            continue
        if all(m @ x <= r + 1e-9 for m, r in zip(mats, rhs)):
            val = c @ x
            if best is None or val > best:
                best = val
    return best


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        rows = [(rng.normal(size=n).round(2), "<=",
                 float(rng.uniform(0.2, 2.0))) for _ in range(m)]
        c = rng.normal(size=n).round(2)
        mine = solve_lp(lp(c, rows, [(0.0, 1.0)] * n))
        ref = brute_force_box_lp(c, rows, n)
        if ref is None:
            assert mine.status in ("infeasible", "optimal")
        else:
            assert mine.status == "optimal"
            assert mine.objective_value == pytest.approx(ref, abs=1e-7)


def test_dual_certificate():
    # max c.x, A x <= b, 0 <= x <= 1 against its dual
    # min b.u + 1.v, A^T u + v >= c, u, v >= 0, both through solve_lp
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n)).round(2)
        b = rng.uniform(0.5, 2.0, m)
        c = rng.normal(size=n).round(2)
        primal = solve_lp(lp(c, (a, ["<="] * m, b), [(0.0, 1.0)] * n))
        dual_rows = np.hstack([a.T, np.eye(n)])
        dual = solve_lp(lp(-np.concatenate([b, np.ones(n)]),
                           (dual_rows, [">="] * n, c), [(0.0, INF)] * (m + n)))
        assert primal.status == dual.status == "optimal"
        assert np.all(dual_rows @ dual.solution >= c - 1e-9)
        assert -dual.objective_value == pytest.approx(
            primal.objective_value, abs=1e-9)


def test_beale_cycling_instance_terminates():
    # classic construction that cycles under naive Dantzig pricing without
    # safeguards; must terminate at the optimum here
    c = np.array([0.75, -150.0, 0.02, -6.0])
    rows = [
        (np.array([0.25, -60.0, -1.0 / 25.0, 9.0]), "<=", 0.0),
        (np.array([0.5, -90.0, -1.0 / 50.0, 3.0]), "<=", 0.0),
        (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
    ]
    out = solve_lp(lp(c, rows, [(0.0, INF)] * 4))
    assert out.status == "optimal"
    assert out.objective_value == pytest.approx(0.05, abs=1e-9)


def test_fixed_variable_elimination():
    out = solve_lp(lp([1.0, 1.0], [(np.array([1.0, 1.0]), "<=", 2.0)],
                      [(0.0, 1.0), (0.3, 0.3)]))
    assert out.status == "optimal"
    assert out.solution[1] == pytest.approx(0.3)
    assert out.objective_value == pytest.approx(1.3)


def test_shifted_lower_bounds():
    out = solve_lp(lp([-1.0], [], [(-2.0, 5.0)]))
    assert out.status == "optimal"
    assert out.solution[0] == pytest.approx(-2.0)


def test_matrix_form_matches_row_form(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4)).round(2)
    rhs = rng.uniform(0.5, 1.5, 3)
    c = rng.normal(size=4).round(2)
    rows = [(a[i], "<=", float(rhs[i])) for i in range(3)]
    o1 = solve_lp(lp(c, rows, [(0.0, 1.0)] * 4))
    # the same rows with the middle one written as ">=", dense and sparse;
    # with _DENSE_MAX 0 the sparse matrix reaches linprog as it is
    sign = np.array([1.0, -1.0, 1.0])
    rels = ["<=", ">=", "<="]
    for dense_max in (lp_module._DENSE_MAX, 0):
        monkeypatch.setattr(lp_module, "_DENSE_MAX", dense_max)
        for mat in (sign[:, None] * a, sparse.csr_array(sign[:, None] * a)):
            o2 = solve_lp(lp(c, (mat, rels, sign * rhs), [(0.0, 1.0)] * 4))
            assert o1.objective_value == pytest.approx(o2.objective_value,
                                                       abs=1e-12)


def test_deterministic_repeat():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3))
    rhs = rng.uniform(0.5, 1.5, 4)
    c = rng.normal(size=3)
    rows = [(a[i], "<=", float(rhs[i])) for i in range(4)]
    o1 = solve_lp(lp(c, rows, [(0.0, 1.0)] * 3))
    o2 = solve_lp(lp(c, rows, [(0.0, 1.0)] * 3))
    assert np.array_equal(o1.solution, o2.solution)
    assert o1.iterations == o2.iterations


def test_feasibility_tolerance_is_tight():
    # HiGHS's default primal tolerance of 1e-7 would accept this row
    out = solve_lp(lp([0.0], [(np.array([1.0]), ">=", 1.0 + 5e-8)],
                      [(0.0, 1.0)]))
    assert out.status == "infeasible"


def test_solver_failure_raises_breakdown(monkeypatch):
    # any linprog status other than optimal, infeasible or unbounded
    # (here 4: numerical difficulties, or HiGHS's "unbounded or
    # infeasible") surfaces as NumericalBreakdown with the solver message
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs:
                        SimpleNamespace(status=4, nit=3,
                                        message="numerical difficulties"))
    with pytest.raises(NumericalBreakdown, match="numerical difficulties"):
        solve_lp(lp([1.0], [], [(0.0, 1.0)]))


def test_no_variables_decides_rows_at_zero(monkeypatch):
    # HiGHS rejects an LP without columns, so none reaches it
    monkeypatch.setattr(scipy.optimize, "linprog", None)
    empty = np.zeros((3, 0))
    rhs = np.array([0.0, -5e-10, 2.0])
    out = solve_lp(lp([], (empty, ["<=", ">=", "<="], rhs), []))
    assert out.status == "optimal" and out.solution.shape == (0,)
    assert out.objective_value == 0.0 and out.is_vertex
    for rels, rhs in ((["<="], [-1e-8]), ([">="], [1e-8]), (["="], [2e-9])):
        out = solve_lp(lp([], (np.zeros((1, 0)), rels, np.array(rhs)), []))
        assert out.status == "infeasible", rels
    assert solve_lp(lp([], (np.zeros((1, 0)), ["="], np.array([5e-10])),
                       [])).status == "optimal"
