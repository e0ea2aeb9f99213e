import math
from collections import Counter

import numpy as np
import pytest

from auditgames.errors import Infeasible, NonpositiveKappa
from auditgames.fpt import SolveConfig
from auditgames.model import compute_deltas, validate_game
from auditgames.target_specific import (
    BARRIER_EPS,
    MU,
    HyperbolicConstraint,
    _BarrierProblem,
    _constraint_jacobian,
    _newton_minimize,
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
        assert info["duality_gap_bound"] <= BARRIER_EPS
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


def _random_barrier(rng, m, n_caps):
    """A barrier problem with a strictly interior point z."""
    p = rng.uniform(0.2, 0.8, m)
    x = rng.uniform(0.2, 0.8, m)
    shift = rng.uniform(-0.1, 0.5, m)
    kappa = rng.uniform(0.2, 0.8, m) * p * (x + shift)
    hypers = [HyperbolicConstraint(kappa=float(k), var_p=i, shift=float(s))
              for i, (k, s) in enumerate(zip(kappa, shift))]
    cap_rows = []
    for _ in range(n_caps):
        coeffs = (rng.random(m) < 0.6).astype(float)
        coeffs[rng.integers(m)] = 1.0
        cap_rows.append((coeffs, float(coeffs @ p) + rng.uniform(0.1, 0.5)))
    costs = rng.uniform(0.005, 0.05, m)
    return _BarrierProblem(hypers, costs, cap_rows), np.concatenate((p, x))


def _loop_grad_hess(hypers, costs, cap_rows, z, t):
    """Element-by-element gradient and Hessian of the barrier, kept as a
    reference for the array kernel."""
    m = len(hypers)
    p, x = z[:m], z[m:]
    g = np.zeros(2 * m)
    h = np.zeros((2 * m, 2 * m))
    g[m:] += t * np.asarray(costs)
    for idx, hc in enumerate(hypers):
        s = p[idx] * (x[idx] + hc.shift) - hc.kappa
        dp, dx = x[idx] + hc.shift, p[idx]
        g[idx] += -dp / s
        g[m + idx] += -dx / s
        h[idx, idx] += dp * dp / s**2
        h[m + idx, m + idx] += dx * dx / s**2
        cross = dp * dx / s**2 - 1.0 / s
        h[idx, m + idx] += cross
        h[m + idx, idx] += cross
    for idx in range(m):
        for val, sign, at in ((p[idx], 1.0, idx), (1 - p[idx], -1.0, idx),
                              (x[idx], 1.0, m + idx),
                              (1 - x[idx], -1.0, m + idx)):
            g[at] += -sign / val
            h[at, at] += 1.0 / val**2
    for coeffs, capacity in cap_rows:
        s = capacity - float(coeffs @ p)
        g[:m] += coeffs / s
        h[:m, :m] += np.outer(coeffs, coeffs) / s**2
    return g, h


@pytest.mark.parametrize("n_caps", [0, 3])
def test_barrier_grad_hess_matches_finite_differences(n_caps):
    rng = np.random.default_rng(7 + n_caps)
    step = 1e-6
    for _ in range(20):
        m = int(rng.integers(1, 6))
        problem, z = _random_barrier(rng, m, n_caps)
        t = float(rng.uniform(0.5, 50.0))
        g, h = problem.barrier_grad_hess(z, t)
        for idx in range(2 * m):
            unit = np.zeros(2 * m)
            unit[idx] = step
            zp, zm = z + unit, z - unit
            fd_g = (problem.barrier_change(z, unit, t)
                    - problem.barrier_change(z, -unit, t)) / (2 * step)
            fd_h = (problem.barrier_grad_hess(zp, t)[0]
                    - problem.barrier_grad_hess(zm, t)[0]) / (2 * step)
            assert fd_g == pytest.approx(g[idx], rel=1e-5, abs=1e-6)
            np.testing.assert_allclose(fd_h, h[:, idx], rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("n_caps", [0, 4])
def test_barrier_grad_hess_matches_scalar_loop(n_caps):
    rng = np.random.default_rng(31 + n_caps)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        problem, z = _random_barrier(rng, m, n_caps)
        hypers = [HyperbolicConstraint(kappa=float(k), var_p=i,
                                       shift=float(s))
                  for i, (k, s) in enumerate(zip(problem.kappa,
                                                 problem.shift))]
        caps = list(zip(problem.cap_matrix, problem.capacity))
        t = float(rng.uniform(0.5, 1e4))
        g, h = problem.barrier_grad_hess(z, t)
        g_ref, h_ref = _loop_grad_hess(hypers, problem.costs, caps, z, t)
        np.testing.assert_allclose(g, g_ref, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(h, h_ref, rtol=1e-10, atol=0.0)


def test_slack_order_matches_constraint_jacobian():
    rng = np.random.default_rng(5)
    problem, z = _random_barrier(rng, 4, 2)
    jac = _constraint_jacobian(problem, z)
    step = 1e-6
    for idx in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[idx] += step
        zm[idx] -= step
        fd = (problem.slacks(zp) - problem.slacks(zm)) / (2 * step)
        np.testing.assert_allclose(fd, jac[:, idx], atol=1e-7)


def test_px_reports_newton_steps():
    g = rand_game(3, 1, seed=4, a_vec=True)
    sol = solve_px(g, SolveConfig(epsilon=0.2))
    assert sol.details["newton_steps"] >= sol.details["subproblems_solved"] > 0
    assert sol.details["line_search_trials"] >= sol.details["newton_steps"]


def test_px_reports_lift_residual():
    # the tsp answer's coverage is checked by the same max flow as fpt's
    for seed in range(3):
        g = rand_game(5, 2, density=0.3, seed=30 + seed, a_vec=True)
        res = solve_px(g, SolveConfig(epsilon=0.1)).details["residuals"]
        assert set(res) == {"best_response", "lift", "box", "x_star"}
        assert 0.0 <= res["lift"] <= 1e-9


def test_barrier_change_matches_direct_difference():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        problem, z = _random_barrier(rng, m, int(rng.integers(0, 4)))
        t = float(rng.uniform(0.5, 1e3))
        dz = rng.normal(0.0, 0.3, 2 * m) * 10.0 ** -rng.integers(0, 4)
        s0, s1 = problem.slacks(z), problem.slacks(z + dz)
        if not (s1 > 0).all():
            assert problem.barrier_change(z, dz, t) is None
            continue
        direct = (t * (problem.objective(z + dz) - problem.objective(z))
                  - (np.log(s1).sum() - np.log(s0).sum()))
        assert problem.barrier_change(z, dz, t) == pytest.approx(
            direct, rel=1e-9)


def test_centred_polish_at_final_weight_is_short():
    # at t = n / BARRIER_EPS absolute barrier values round to about 1e-8;
    # a line search on them stalled the tol=1e-14 polish for 80 steps
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(1, 8))
        problem, z = _random_barrier(rng, m, int(rng.integers(0, 4)))
        t_end = problem.n_constraints() / BARRIER_EPS
        t = problem.n_constraints() / float(problem.costs.sum())
        tally = Counter()
        while t < t_end:
            z = _newton_minimize(problem, z, t, tally)
            t = min(MU * t, t_end)
        z = _newton_minimize(problem, z, t, tally)
        tally.clear()
        _newton_minimize(problem, z, t, tally, tol=1e-14)
        assert tally["newton_steps"] < 10


def test_px_on_eight_targets_does_not_stall():
    g = rand_game(8, 2, density=0.2, seed=3, a_vec=True)
    sol = solve_px(g, SolveConfig(epsilon=0.05))
    assert sol.details["subproblems_solved"] > 0
    assert sol.details["line_search_trials"] >= sol.details["newton_steps"]
