import math

import numpy as np
import pytest

from auditgames import constraints as cx
from auditgames import fpt
from auditgames.cli import counterexample_game
from auditgames.errors import AllProgramsInfeasible, VerificationFailed
from auditgames.fpt import (
    SolveConfig,
    _ProgramCache,
    compare_formulations,
    full_objective,
    solve_fpt,
    verify_solution,
    x_grid,
)
from auditgames.lp import LinearProgram, solve_lp
from auditgames.model import compute_deltas, validate_game

from helpers import (
    bound_games,
    dense_restriction_game,
    lp_pair_maximum,
    nested_game,
    rand_game,
)


def test_grid_endpoints():
    for eps in (0.005, 0.05, 0.3, 0.17):
        grid = x_grid(eps)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolveConfig(formulation="simplex")
    for cap in (0, -3):
        with pytest.raises(ValueError, match="enumeration cap"):
            SolveConfig(enumeration_cap=cap)
    assert SolveConfig(enumeration_cap=1).enumeration_cap == 1


def full_grid_program(g, star, x):
    """The grid program over all n*k allocation variables (resource-major),
    restricted pairs fixed to zero through their bounds."""
    d = compute_deltas(g)
    n, k = g.n_targets, g.n_resources
    coverage = np.tile(np.eye(n), k)
    budget = np.kron(np.eye(k), np.ones(n))
    others = [i for i in range(n) if i != star]
    br = np.array([(x + d.delta[star]) * coverage[star]
                   - (x + d.delta[i]) * coverage[i] for i in others])
    mat = np.vstack([coverage, budget, br])
    rhs = np.concatenate([np.ones(n + k),
                          [-d.delta_pair[i, star] for i in others]])
    obj = (d.delta_d[star] - g.cost_a1 * x) * coverage[star]
    bounds = [(0.0, 0.0) if (j, i) in g.restrictions else (0.0, math.inf)
              for j in range(k) for i in range(n)]
    return LinearProgram(obj, (mat, ["<="] * rhs.size, rhs), bounds)


def test_reduced_and_full_grid_programs_agree():
    g = rand_game(5, 2, density=0.3, seed=123)
    cache = _ProgramCache(g, None)
    for star, x in ((0, 0.3), (2, 0.7), (4, 0.0)):
        full = solve_lp(full_grid_program(g, star, x))
        red = solve_lp(cache.build(star, x, "grid"))
        assert full.status == red.status
        if full.status == "optimal":
            assert full.objective_value == pytest.approx(
                red.objective_value, abs=1e-9)
            p_full = full.solution.reshape(g.n_resources, -1).sum(axis=0)
            p_red = cache.coverage_from_solution("grid", red.solution)
            assert p_full[star] == pytest.approx(p_red[star], abs=1e-9)


def test_objective_constant_term_without_a1():
    g = rand_game(3, 1, seed=8)
    assert g.cost_a1 == 0.0
    assert full_objective(g, 1, 0.25, 0.5) == pytest.approx(
        g.utilities[1][1] + 0.25 * (g.utilities[1][0] - g.utilities[1][1])
        - g.cost_a * 0.5)


def test_full_coverage_dominates_when_deterrence_free():
    # second target unauditable and worthless to both sides
    g = validate_game(2, 1,
                      [(0.9, 0.2, 0.1, 0.8), (0.3, 0.3, 0.0, 0.1)],
                      [(0, 1)], cost_a=0.01)
    sol = solve_fpt(g, SolveConfig(epsilon=0.05))
    assert sol.x == 0.0
    assert sol.p[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.9, abs=1e-9)


def test_formulations_agree_per_pair():
    for seed in range(6):
        g = rand_game(4, 2, density=0.25, seed=seed)
        rep = compare_formulations(g, SolveConfig(epsilon=0.125))
        assert rep["objective_max_diff"] <= 1e-6
        assert rep["feasibility_mismatches"] == []


def test_nested_family_matches_the_grid_formulation():
    # seed 2: the optimum lies inside the grid, at x = 0.4
    g = nested_game(12, seed=2)
    a = solve_fpt(g, SolveConfig(epsilon=0.1))
    b = solve_fpt(g, SolveConfig(epsilon=0.1, formulation="grid"))
    assert a.formulation == "transformed"
    assert a.objective == pytest.approx(b.objective, abs=1e-6)
    assert (a.x, a.star) == (b.x, b.star)


def test_solver_formulations_agree():
    g = rand_game(4, 2, density=0.2, seed=77)
    a = solve_fpt(g, SolveConfig(epsilon=0.1, formulation="grid"))
    b = solve_fpt(g, SolveConfig(epsilon=0.1, formulation="transformed"))
    assert a.objective == pytest.approx(b.objective, abs=1e-6)
    assert a.star == b.star


def test_nested_grid_monotone():
    for seed in range(6):
        g = rand_game(4, 2, density=0.2, seed=30 + seed)
        o1 = solve_fpt(g, SolveConfig(epsilon=0.2)).objective
        o2 = solve_fpt(g, SolveConfig(epsilon=0.1)).objective
        o3 = solve_fpt(g, SolveConfig(epsilon=0.05)).objective
        assert o2 >= o1 - 1e-12
        assert o3 >= o2 - 1e-12


def test_additive_guarantee_constant():
    # loss against a 64x finer grid stays within a fitted constant times eps
    eps = 0.04
    losses = []
    for seed in range(5):
        g = rand_game(4, 2, density=0.2, seed=60 + seed)
        coarse = solve_fpt(g, SolveConfig(epsilon=eps)).objective
        fine = solve_fpt(g, SolveConfig(epsilon=eps / 64)).objective
        losses.append(fine - coarse)
    assert all(l >= -1e-9 for l in losses)
    fitted_b = max(losses) / eps
    assert fitted_b <= 25.0


def test_returned_solution_verifies():
    for seed in range(5):
        g = rand_game(5, 2, density=0.3, seed=90 + seed)
        sol = solve_fpt(g, SolveConfig(epsilon=0.1))
        res = sol.details["residuals"]
        assert max(res.values()) <= 1e-7
        assert "guarantee_condition_met" in sol.details


def test_solve_matches_the_exhaustive_lp_maximum():
    # lenient targets break a screen by full coverage and a cut at the
    # first infeasible x; seed 16 has no auditable target, so its grid
    # programs have no columns
    for g in bound_games():
        want = lp_pair_maximum(g, 0.1)
        for form in ("auto", "grid"):
            sol = solve_fpt(g, SolveConfig(epsilon=0.1, formulation=form))
            assert sol.objective == pytest.approx(want[0], abs=1e-9)
            assert (sol.star, sol.x) == (want[1], want[2])


def test_grid_solves_games_without_auditable_targets():
    for g in (rand_game(4, 1, density=1.0, seed=3), list(bound_games())[16]):
        assert all(g.unauditable)
        a = solve_fpt(g, SolveConfig(epsilon=0.05))
        b = solve_fpt(g, SolveConfig(epsilon=0.05, formulation="grid"))
        assert (a.objective, a.star, a.x) == (b.objective, b.star, b.x)
        np.testing.assert_array_equal(a.p, b.p)


def test_a1_enhancement_changes_objective():
    utils = [(0.9, 0.1, 0.2, 0.8), (0.6, 0.2, 0.3, 0.7), (0.5, 0.1, 0.2, 0.6)]
    g0 = validate_game(3, 1, utils, cost_a=0.01, cost_a1=0.0)
    g1 = validate_game(3, 1, utils, cost_a=0.01, cost_a1=0.5)
    s0 = solve_fpt(g0, SolveConfig(epsilon=0.05))
    s1 = solve_fpt(g1, SolveConfig(epsilon=0.05))
    # the enhanced objective never beats the plain one
    assert s1.objective <= s0.objective + 1e-12


def test_all_programs_infeasible_unreachable_for_valid_games():
    # x = 1 with full coverage always admits the most attractive target as
    # a best response, so valid games always yield a solution
    for seed in range(6):
        g = rand_game(3, 1, density=0.4, seed=200 + seed)
        sol = solve_fpt(g, SolveConfig(epsilon=0.25))
        assert np.isfinite(sol.objective)


def test_verification_failure_names_target_and_x():
    g = rand_game(4, 2, seed=3)
    with pytest.raises(VerificationFailed, match=r"target 2 at x = 0\.35"):
        verify_solution(g, 2, [1.0, 1.0, 1.0, 1.0], 0.35)


def test_all_programs_infeasible_names_grid(monkeypatch):
    monkeypatch.setattr(fpt, "infeasibility_screen",
                        lambda game, star, xs: np.ones(len(xs), dtype=bool))
    with pytest.raises(AllProgramsInfeasible,
                       match=r"4 targets, epsilon 0\.25, 5 grid values"):
        solve_fpt(rand_game(4, 2, seed=3), SolveConfig(epsilon=0.25))


def _oracle_games():
    games = [rand_game(3 + seed % 5, 1 + seed % 2, density=density,
                       seed=500 + seed)
             for seed in range(12) for density in (0.0, 0.2, 0.4)]
    # coverage-scaled punishment: the p_star coefficient turns negative
    games += [validate_game(g.n_targets, g.n_resources, g.utilities,
                            g.restrictions, cost_a=0.01, cost_a1=0.8)
              for g in games[:9]]
    # unauditable targets, including an unauditable attacked target
    games.append(validate_game(
        4, 2, rand_game(4, 2, seed=41).utilities,
        [(0, 1), (1, 1), (0, 3), (1, 3), (1, 0)], cost_a=0.01))
    # lenient: x + delta <= 0 at x = 0
    games.append(counterexample_game())
    return games


def test_closed_form_matches_lp_oracle():
    grid = x_grid(0.05)
    seen = {"unauditable": 0, "negative_coeff": 0, "lenient": 0,
            "infeasible": 0}
    for g in _oracle_games():
        cache = _ProgramCache(g, cx.prune_implied(cx.constraint_find(g), g))
        d = cache.deltas
        seen["unauditable"] += any(g.unauditable)
        for star in range(g.n_targets):
            feasible, p = cache.closed_form(star, grid)
            for i, x in enumerate(grid):
                lp = cache.build(star, x, "transformed")
                seen["negative_coeff"] += bool(lp.objective[star] < 0)
                # s <= 0, or a free target held at zero coverage
                seen["lenient"] += bool(
                    x + d.delta[star] <= 0 or any(
                        x + d.delta[j] <= 0 and not g.unauditable[j]
                        for j in range(g.n_targets) if j != star))
                out = solve_lp(lp)
                assert feasible[i] == (out.status == "optimal"), (star, x)
                if not feasible[i]:
                    seen["infeasible"] += 1
                    continue
                assert lp.objective @ p[i] == pytest.approx(
                    out.objective_value, abs=1e-9)
                mat, _, rhs = lp.constraints
                assert np.all(mat @ p[i] <= rhs + 1e-9), (star, x)
                lo, hi = np.array(lp.bounds).T
                assert np.all(p[i] >= lo - 1e-9) and np.all(p[i] <= hi + 1e-9)
    assert min(seen.values()) > 0, seen


def test_closed_form_blocks_agree(monkeypatch):
    g = rand_game(6, 2, density=0.2, seed=17)
    cache = _ProgramCache(g, cx.prune_implied(cx.constraint_find(g), g))
    grid = x_grid(0.05)
    whole = [cache.closed_form(star, grid) for star in range(g.n_targets)]
    monkeypatch.setattr(fpt, "_CLOSED_FORM_BLOCK", 1)
    for star, expected in enumerate(whole):
        for got, want in zip(cache.closed_form(star, grid), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_dense_restrictions_past_subgraph_cap_stay_transformed():
    # 111 connected subgraphs against 2^3 resource subsets and a cap of 20
    g = dense_restriction_game(12, 3, seed=1)
    sol = solve_fpt(g, SolveConfig(epsilon=0.05, enumeration_cap=20))
    assert sol.formulation == "transformed"
    assert sol.details["extraction"] == "resource_subsets"
    assert "fallback" not in sol.details
    grid = solve_fpt(g, SolveConfig(epsilon=0.05, formulation="grid"))
    assert sol.objective == pytest.approx(grid.objective, abs=1e-9)


def test_grid_fallback_when_the_cap_is_at_most_two_to_the_k():
    g = dense_restriction_game(12, 3, seed=1)
    sol = solve_fpt(g, SolveConfig(epsilon=0.05, enumeration_cap=2 ** 3))
    assert sol.formulation == "grid"
    assert "exceeded cap 8" in sol.details["fallback"]
    assert "extraction" not in sol.details
