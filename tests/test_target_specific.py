from collections import Counter

import numpy as np
import pytest

from auditgames.errors import Infeasible, NonpositiveKappa
from auditgames.fpt import SolveConfig
from auditgames.model import compute_deltas, validate_game
from auditgames import constraints as cx
from auditgames import target_specific
from auditgames.target_specific import (
    BARRIER_EPS,
    START_GAP,
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
        problem = info["problem"]
        z, lam = info["z"], info["multipliers"]

        def lagrangian(zz):
            return float(problem.objective(zz[None])[0]
                         - lam @ problem.slacks(zz[None])[0])

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


def _random_batch(rng, size, n, n_caps):
    """A barrier batch of ``size`` problems over n targets, each with its
    own random active set, sharing ``n_caps`` random coverage rows (some
    without an active member in some problems); with a strictly interior
    point z."""
    active = rng.random((size, n)) < 0.6
    active[np.arange(size), rng.integers(n, size=size)] = True
    p = np.where(active, rng.uniform(0.2, 0.8, (size, n)), 0.5)
    x = np.where(active, rng.uniform(0.2, 0.8, (size, n)), 0.5)
    shift = rng.uniform(-0.1, 0.5, (size, n))
    kappa = np.where(active, rng.uniform(0.2, 0.8, (size, n)) * p
                     * (x + shift), 0.0)
    rows = (rng.random((n_caps, n)) < 0.4).astype(float)
    rows[np.arange(n_caps), rng.integers(n, size=n_caps)] = 1.0
    capacity = (np.where(active, p, 0.0) @ rows.T
                + rng.uniform(0.1, 0.5, (size, n_caps)))
    costs = rng.uniform(0.005, 0.05, (size, n))
    problem = _BarrierProblem(kappa, shift, costs, rows, capacity)
    return problem, np.concatenate((p, x), axis=1)


def _single_problem(problem, z, b):
    """Problem b of a batch on its own: its active entries' kappa, shift,
    costs and (p, x), and the coverage rows holding an active entry."""
    idx = np.flatnonzero(problem.active[b])
    n = problem.n
    cap_rows = [(row[idx], cap) for row, cap
                in zip(problem.rows, problem.capacity[b]) if row[idx].any()]
    return (idx, problem.kappa[b, idx], problem.shift[b, idx],
            problem.costs[b, idx], cap_rows,
            np.concatenate((z[b, idx], z[b, n + idx])))


def _full_hessian(hpp, hpx, hxx):
    """The (B, 2n, 2n) Hessians assembled from their Schur blocks."""
    size, n = hpx.shape
    h = np.zeros((size, 2 * n, 2 * n))
    h[:, :n, :n] = hpp
    at = np.arange(n)
    h[:, at, n + at] = hpx
    h[:, n + at, at] = hpx
    h[:, n + at, n + at] = hxx
    return h


def _loop_grad_hess(kappa, shift, costs, cap_rows, z, t):
    """Element-by-element gradient and Hessian of one barrier, kept as a
    reference for the array kernel."""
    m = len(kappa)
    p, x = z[:m], z[m:]
    g = np.zeros(2 * m)
    h = np.zeros((2 * m, 2 * m))
    g[m:] += t * np.asarray(costs)
    for idx in range(m):
        s = p[idx] * (x[idx] + shift[idx]) - kappa[idx]
        dp, dx = x[idx] + shift[idx], p[idx]
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
    n = 5
    problem, z = _random_batch(rng, 20, n, n_caps)
    t = rng.uniform(0.5, 50.0, 20)
    g, *blocks = problem.barrier_grad_hess(z, t)
    h = _full_hessian(*blocks)
    on = np.tile(problem.active, 2)
    for idx in range(2 * n):
        unit = np.zeros((20, 2 * n))
        unit[:, idx] = step
        fd_g = (problem.barrier_change(z, unit, t)
                - problem.barrier_change(z, -unit, t)) / (2 * step)
        fd_h = (problem.barrier_grad_hess(z + unit, t)[0]
                - problem.barrier_grad_hess(z - unit, t)[0]) / (2 * step)
        for b in range(20):
            if not on[b, idx]:
                # a padded entry: constant barrier, zero gradient
                assert fd_g[b] == 0.0 and g[b, idx] == 0.0
                assert not fd_h[b].any()
                continue
            assert fd_g[b] == pytest.approx(g[b, idx], rel=1e-5, abs=1e-6)
            np.testing.assert_allclose(fd_h[b, on[b]], h[b, on[b], idx],
                                       rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("n_caps", [0, 4])
def test_barrier_grad_hess_matches_scalar_loop(n_caps):
    rng = np.random.default_rng(31 + n_caps)
    n = 7
    problem, z = _random_batch(rng, 50, n, n_caps)
    t = rng.uniform(0.5, 1e4, 50)
    g, *blocks = problem.barrier_grad_hess(z, t)
    h = _full_hessian(*blocks)
    for b in range(50):
        idx, kappa, shift, costs, caps, zb = _single_problem(problem, z, b)
        g_ref, h_ref = _loop_grad_hess(kappa, shift, costs, caps, zb, t[b])
        at = np.concatenate((idx, n + idx))
        np.testing.assert_allclose(g[b, at], g_ref, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(h[b][np.ix_(at, at)], h_ref,
                                   rtol=1e-10, atol=0.0)
        # padded entries: zero gradient, unit Hessian rows and columns
        pad = np.setdiff1d(np.arange(2 * n), at)
        assert not g[b, pad].any()
        np.testing.assert_array_equal(h[b, pad], np.eye(2 * n)[pad])
        np.testing.assert_array_equal(h[b][:, pad], np.eye(2 * n)[:, pad])


def test_slack_order_matches_constraint_jacobian():
    rng = np.random.default_rng(5)
    batch, zs = _random_batch(rng, 6, 4, 2)
    step = 1e-6
    for b in range(6):
        problem, z = batch.take([b]), zs[b]
        jac = _constraint_jacobian(problem, z)
        for idx in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[idx] += step
            zm[idx] -= step
            fd = ((problem.slacks(zp[None]) - problem.slacks(zm[None]))[0]
                  / (2 * step))
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
    for n_caps in range(4):
        problem, z = _random_batch(rng, 50, 5, n_caps)
        t = rng.uniform(0.5, 1e3, 50)
        dz = (rng.normal(0.0, 0.3, z.shape) * np.tile(problem.active, 2)
              * 10.0 ** -rng.integers(0, 4, (50, 1)))
        s0, s1 = problem.slacks(z), problem.slacks(z + dz)
        change = problem.barrier_change(z, dz, t)
        for b in range(50):
            if not (s1[b] > 0).all():
                assert change[b] == np.inf
                continue
            direct = (t[b] * (problem.objective(z + dz)[b]
                              - problem.objective(z)[b])
                      - (np.log(s1[b]).sum() - np.log(s0[b]).sum()))
            assert change[b] == pytest.approx(direct, rel=1e-9)


def test_centred_polish_at_final_weight_is_short():
    # at t = n / BARRIER_EPS absolute barrier values round to about 1e-8;
    # a line search on them stalled the tol=1e-14 polish for 80 steps
    rng = np.random.default_rng(17)
    for n_caps in (0, 3):
        problem, z = _random_batch(rng, 20, 7, n_caps)
        n_cons = problem.n_constraints()
        t_end = n_cons / BARRIER_EPS
        tally = Counter()
        # centre at every weight up to t_end, t_end included, to 1e-9
        z, t, _ = _newton_minimize(problem, z, n_cons / problem.costs.sum(1),
                                   tally, final_tol=1e-9)
        np.testing.assert_array_equal(t, t_end)
        tally.clear()
        _, _, steps = _newton_minimize(problem, z, t_end, tally)
        assert steps.max() < 10
        assert tally["newton_steps"] == steps.sum()


def _edge_game(seed):
    """A seeded random 5/2 game with utilities set so that, on the grid
    {0, 1/4, ..., 1}, attacked target 0 at coverage 1 puts target 1's
    kappa 2^-24 below 1 + shift (a hyperbola the start misses), and
    target 2's kappa passes 1 + shift wherever target 3 is attacked at
    coverage 1/2 or more."""
    g = rand_game(5, 2, density=0.3, seed=seed, a_vec=True)
    u = [list(row) for row in g.utilities]
    u[0][2], u[0][3] = 0.5, max(u[0][3], 0.5)
    u[1][2], u[1][3] = 1.5 - 2.0**-24, 2.0
    u[2][2], u[2][3] = 1.25, 2.0
    u[3][2] = 0.0
    return validate_game(5, 2, u, sorted(g.restrictions), cost_a=g.cost_a,
                         per_target_costs=g.per_target_costs)


def test_start_error_names_the_hyperbola():
    g = _edge_game(1)
    d = compute_deltas(g)
    kappa = d.delta[0] + d.delta_pair[1, 0]
    gap = 1.0 + d.delta[1] - kappa
    assert 0.0 < gap < START_GAP * (2.0 + d.delta[1])
    with pytest.raises(Infeasible,
                       match=r"attacked target 0 at coverage 1: "
                             r"target 1's hyperbola"):
        solve_socp_fixed(g, 0, 1.0)


@pytest.mark.parametrize("seed", [1, 3])
def test_batched_solve_matches_single_pair_solves(seed, monkeypatch):
    g = _edge_game(seed)
    cset = cx.coverage_set(g)
    d = compute_deltas(g)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    seen = Counter()
    tally = Counter()
    best, solved, infeasible = None, 0, 0
    for star in range(5):
        for p_star in grid:
            kappa = p_star * d.delta[star] + d.delta_pair[:, star]
            kappa[star] = 0.0
            active = set(np.flatnonzero(kappa > 0))
            try:
                _, _, raw = solve_socp_fixed(g, star, p_star, cset,
                                             tally=tally)
            except Infeasible as exc:
                infeasible += 1
                seen["hyperbola" if "hyperbola" in str(exc) else
                     "start" if "start" in str(exc) else
                     "kappa" if "unachievable" in str(exc) else "other"] += 1
                continue
            solved += 1
            seen["vacuous" if not active else "barrier"] += 1
            # a bound-1 row holding the attacked target at coverage 1 and
            # no active target has no capacity, yet the pair is feasible
            if p_star == 1.0 and any(
                    c.bound == 1 and star in c.target_indices
                    and not active & set(c.target_indices)
                    for c in cset.constraints) and active:
                seen["spent row"] += 1
            key = (g.utilities[star][1] + raw, -p_star, -star)
            if best is None or key > best:
                best = key
    assert all(seen[k] for k in ("hyperbola", "start", "kappa", "vacuous",
                                 "barrier", "spent row")), seen

    # every batched problem ends at its own t_end, 5 m + (rows holding
    # an active target) over BARRIER_EPS
    ends = []
    inner = target_specific._newton_minimize

    def spy(problem, z, t, tally, **kw):
        z, t, steps = inner(problem, z, t, tally, **kw)
        ends.extend(zip((problem.pairs[i] for i in problem.index), t))
        return z, t, steps

    monkeypatch.setattr(target_specific, "_newton_minimize", spy)
    sol = solve_px(g, SolveConfig(epsilon=0.25))
    assert sol.details["subproblems_solved"] == solved
    assert sol.details["subproblems_infeasible"] == infeasible
    assert (sol.star, sol.p[sol.star]) == (-best[2], -best[1])
    assert sol.objective == pytest.approx(best[0], abs=1e-12)
    # the same rules take the same steps, up to summation order
    for key in ("newton_steps", "line_search_trials"):
        assert sol.details[key] == pytest.approx(tally[key], rel=0.01)
    assert len(ends) == seen["barrier"]
    for (star, p_star), t in ends:
        kappa = p_star * d.delta[star] + d.delta_pair[:, star]
        kappa[star] = 0.0
        active = set(np.flatnonzero(kappa > 0))
        rows = sum(bool(active & set(c.target_indices))
                   for c in cset.constraints)
        assert t == (5 * len(active) + rows) / BARRIER_EPS


def test_px_on_eight_targets_does_not_stall():
    g = rand_game(8, 2, density=0.2, seed=3, a_vec=True)
    sol = solve_px(g, SolveConfig(epsilon=0.05))
    assert sol.details["subproblems_solved"] > 0
    assert sol.details["line_search_trials"] >= sol.details["newton_steps"]
