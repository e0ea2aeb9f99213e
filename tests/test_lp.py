import itertools
import math

import numpy as np
import pytest

from auditgames import lp as lp_module
from auditgames.cli import BenchConfig, generate_instance
from auditgames.errors import NumericalBreakdown
from auditgames.fpt import _ProgramCache
from auditgames.lp import (
    LinearProgram,
    implies,
    solve_feasibility,
    solve_lp,
    standardize,
)

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
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        rows = [(rng.normal(size=n).round(2), "<=",
                 float(rng.uniform(0.5, 2.0))) for _ in range(m)]
        c = rng.normal(size=n).round(2)
        prog = lp(c, rows, [(0.0, 1.0)] * n)
        out = solve_lp(prog)
        if out.status != "optimal":
            continue
        c_std, a_std, b_std, free_idx, shift, fixed = standardize(prog)
        u = out.duals
        assert np.all(u >= -1e-7)
        # dual feasibility: A^T u >= c componentwise (y >= 0 variables)
        assert np.all(a_std.T @ u >= c_std - 1e-7)
        # strong duality
        assert b_std @ u == pytest.approx(out.objective_value, abs=1e-7)


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


def test_matrix_form_matches_row_form():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4)).round(2)
    rhs = rng.uniform(0.5, 1.5, 3)
    c = rng.normal(size=4).round(2)
    rows = [(a[i], "<=", float(rhs[i])) for i in range(3)]
    o1 = solve_lp(lp(c, rows, [(0.0, 1.0)] * 4))
    o2 = solve_lp(lp(c, (a, ["<="] * 3, rhs), [(0.0, 1.0)] * 4))
    assert o1.objective_value == pytest.approx(o2.objective_value, abs=1e-12)


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


def test_row_subset_pivot_matches_full_update(monkeypatch):
    # grid programs (sparse pivot columns) and general random programs
    # (equalities, phase 1, shifted and finite bounds) solved with every
    # pivot as a row-subset update and with every pivot as a full update
    game = generate_instance(BenchConfig(40, 20, 5, epsilon=0.1, seed=3,
                                         repetitions=1))
    cache = _ProgramCache(game, None)
    programs = [cache.build(star, x, "grid")
                for star in (0, 17) for x in (1.0, 0.5, 0.0)]
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = rng.normal(size=(m, n))
        rels = [("<=", ">=", "=")[int(r)] for r in rng.integers(0, 3, m)]
        lo = rng.uniform(-1.0, 0.0, n)
        hi = np.where(rng.random(n) < 0.5, lo + rng.uniform(0.0, 2.0, n),
                      INF)
        # rows hold at a point inside the bounds, so most are feasible
        y = lo + rng.uniform(0.0, 1.0, n) * np.minimum(hi - lo, 1.0)
        slack = {"<=": 0.5, ">=": -0.5, "=": 0.0}
        programs.append(lp(rng.normal(size=n),
                           [(a[i], rels[i], float(a[i] @ y) + slack[rels[i]])
                            for i in range(m)],
                           list(zip(lo, hi))))

    def solve(program):
        try:
            return solve_lp(program)
        except NumericalBreakdown as exc:  # must break down the same way
            return str(exc)

    outcomes = {}
    for share in (0.0, 1.01):
        monkeypatch.setattr(lp_module, "_SPARSE_PIVOT_SHARE", share)
        outcomes[share] = [solve(p) for p in programs]
    for full, subset in zip(outcomes[0.0], outcomes[1.01]):
        if isinstance(full, str) or isinstance(subset, str):
            assert full == subset
            continue
        assert full.status == subset.status
        assert full.iterations == subset.iterations
        for got, want in ((subset.solution, full.solution),
                          (subset.duals, full.duals)):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
