import math

import numpy as np
import pytest

from auditgames.errors import Infeasible, NonpositiveKappa
from auditgames.fpt import SolveConfig
from auditgames.model import compute_deltas, validate_game
from auditgames.target_specific import (
    hyperbolic_to_soc,
    solve_px,
    solve_socp_fixed,
)

from helpers import dense_restriction_game, rand_game


def test_soc_identity_simple():
    soc = hyperbolic_to_soc(0.25, 0.0)
    assert soc.k == 1.0
    # ||(1, p - x)|| <= p + x  <=>  p x >= 0.25
    assert soc.holds(0.5, 0.5)
    assert not soc.holds(0.4, 0.5)


def test_soc_boundary_case():
    soc = hyperbolic_to_soc(1.0, 1.0)
    assert soc.lhs(1.0, 0.0) == pytest.approx(soc.rhs(1.0, 0.0))


def test_soc_requires_positive_kappa():
    with pytest.raises(NonpositiveKappa):
        hyperbolic_to_soc(0.0, 0.5)
    with pytest.raises(NonpositiveKappa):
        hyperbolic_to_soc(-0.1, 0.5)


def test_soc_equivalence_random():
    rng = np.random.default_rng(5)
    for _ in range(10000):
        kappa = rng.uniform(1e-3, 1.0)
        shift = rng.uniform(0.0, 1.0)
        p, x = rng.uniform(0.0, 1.0, 2)
        soc = hyperbolic_to_soc(kappa, shift)
        truth = kappa <= p * (x + shift)
        if abs(kappa - p * (x + shift)) <= 1e-10:
            continue  # knife edge: both answers acceptable
        assert soc.holds(p, x) == truth


def test_convexity_certificate():
    # hyperbolic feasible sets are closed under midpoints
    rng = np.random.default_rng(9)
    for _ in range(100):
        kappa = rng.uniform(0.05, 0.8)
        shift = rng.uniform(0.0, 1.0)
        pts = []
        while len(pts) < 2:
            p, x = rng.uniform(0.0, 1.0, 2)
            if kappa <= p * (x + shift):
                pts.append((p, x))
        mid = (0.5 * (pts[0][0] + pts[1][0]), 0.5 * (pts[0][1] + pts[1][1]))
        assert kappa <= mid[0] * (mid[1] + shift) + 1e-12


def test_vacuous_constraints_mean_zero_punishments():
    g = validate_game(3, 2,
                      [(0.9, 0.1, 0.1, 0.95), (0.5, 0.2, 0.3, 0.4),
                       (0.4, 0.3, 0.0, 0.05)], [], cost_a=1.0)
    p, x, raw = solve_socp_fixed(g, 0, 0.3)
    d = compute_deltas(g)
    assert np.all(x == 0.0)
    assert raw == pytest.approx(0.3 * d.delta_d[0])


def test_single_constraint_analytic():
    # engineered kappa = 0.3 with shift 0.1 and unit cost: p -> 1, x -> 0.2
    g = validate_game(3, 2,
                      [(0.9, 0.1, 0.1, 0.95), (0.5, 0.2, 0.3, 0.4),
                       (0.4, 0.3, 0.0, 0.05)], [], cost_a=1.0)
    p, x, raw = solve_socp_fixed(g, 0, 1.0)
    assert p[1] == pytest.approx(1.0, abs=5e-3)
    assert x[1] == pytest.approx(0.2, abs=5e-3)


def test_unachievable_kappa_is_infeasible():
    # kappa > 1 * (1 + shift) cannot be met even at full coverage
    g = validate_game(2, 1, [(0.9, 0.1, 0.0, 2.0), (0.5, 0.2, 0.95, 1.0)],
                      [], cost_a=1.0)
    with pytest.raises(Infeasible):
        solve_socp_fixed(g, 0, 1.0)


def test_kkt_stationarity_numeric():
    from auditgames import constraints as cx
    from auditgames.target_specific import _BarrierProblem

    checked = 0
    for seed in (21, 22, 23, 24):
        g = rand_game(3, 1, seed=seed, a_vec=True)
        cset = cx.constraint_find(g, prune=True)
        try:
            p, x, raw, info = solve_socp_fixed(g, 0, 0.6, cset,
                                               with_info=True)
        except Infeasible:
            continue
        if info.get("vacuous"):
            continue
        checked += 1
        assert info["kkt_residual"] <= 1e-6
        # cross-check against a numeric gradient of the Lagrangian built
        # from the certified multipliers
        problem = _BarrierProblem(info["hypers"], info["costs"],
                                  info["cap_rows"])
        z, lam = info["z"], info["multipliers"]

        def lagrangian(zz):
            return problem.objective(zz) - float(lam @ problem.slacks(zz))

        h = 1e-6
        for idx in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            grad = (lagrangian(zp) - lagrangian(zm)) / (2 * h)
            assert abs(grad) <= 1e-5
    assert checked >= 1


def test_px_x_star_always_zero():
    for seed in range(8):
        n = 2 + seed % 3
        g = rand_game(n, 1, density=0.0, seed=50 + seed, a_vec=True)
        sol = solve_px(g, SolveConfig(epsilon=0.05))
        assert sol.x[sol.star] == 0.0
        assert sol.method == "tsp"
        assert np.all(sol.x >= 0) and np.all(sol.x <= 1)


def test_px_refinement_monotone():
    g = rand_game(3, 1, seed=4, a_vec=True)
    coarse = solve_px(g, SolveConfig(epsilon=0.2)).objective
    fine = solve_px(g, SolveConfig(epsilon=0.1)).objective
    assert fine >= coarse - 1e-9


def test_px_matches_uniform_cost_single_pair():
    # one auditable non-star target, uniform costs: the punishment-grid
    # solver and the coverage-grid solver attack the same tradeoff
    from auditgames.fpt import solve_fpt
    g = validate_game(2, 1, [(0.9, 0.2, 0.1, 0.8), (0.6, 0.1, 0.2, 0.7)],
                      [], cost_a=0.02)
    px = solve_px(g, SolveConfig(epsilon=0.01))
    fpt = solve_fpt(g, SolveConfig(epsilon=0.001))
    # per-target punishment can only help
    assert px.objective >= fpt.objective - 5e-3


def grid_oracle_px(game, step=1e-3):
    """3-D oracle over (attacked coverage, other coverage) with the third
    dimension eliminated in closed form."""
    d = compute_deltas(game)
    n = game.n_targets
    costs = game.target_costs
    best = -np.inf
    ps = np.arange(0.0, 1.0 + step / 2, step)
    for star in range(n):
        others = [i for i in range(n) if i != star]
        for p_star in np.arange(0.0, 1.0 + step / 2, step):
            budget = 1.0 - p_star
            if len(others) == 1:
                i = others[0]
                kap = p_star * d.delta[star] + d.delta_pair[i, star]
                grid_p = ps[ps <= budget + 1e-12]
                if kap <= 0:
                    cost = 0.0
                    best = max(best, game.utilities[star][1]
                               + p_star * d.delta_d[star] - cost)
                    continue
                with np.errstate(divide="ignore"):
                    xi = np.maximum(0.0, kap / np.maximum(grid_p, 1e-15)
                                    - d.delta[i])
                ok = xi <= 1.0
                if not ok.any():
                    continue
                obj = game.utilities[star][1] + p_star * d.delta_d[star] \
                    - costs[i] * xi
                best = max(best, float(obj[ok].max()))
    return best


def test_px_against_dense_grid_oracle():
    for seed in range(4):
        g = rand_game(2, 1, seed=80 + seed, a_vec=True)
        sol = solve_px(g, SolveConfig(epsilon=0.01))
        oracle = grid_oracle_px(g)
        assert abs(sol.objective - oracle) <= 5e-3, f"seed {seed}"


def test_px_past_subgraph_cap():
    # 111 connected subgraphs against 2^3 resource subsets and a cap of 20
    g = dense_restriction_game(12, 3, seed=1)
    sol = solve_px(g, SolveConfig(epsilon=0.1, enumeration_cap=20))
    assert sol.x[sol.star] == 0.0
    assert np.isfinite(sol.objective)
