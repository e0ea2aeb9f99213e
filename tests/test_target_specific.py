import re
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize

from auditgames.errors import Infeasible, NonpositiveKappa
from auditgames.fpt import SolveConfig
from auditgames.model import audit_sets, compute_deltas, validate_game
from auditgames import constraints as cx
from auditgames.target_specific import (
    _water_fill,
    hyperbolic_to_soc,
    solve_px,
    solve_socp_fixed,
)

from helpers import (
    bound_games,
    dense_restriction_game,
    px_every_pair,
    rand_game,
)


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
    assert p[1] == pytest.approx(1.0, abs=1e-12)
    assert x[1] == pytest.approx(0.2, abs=1e-12)


def test_unachievable_kappa_is_infeasible():
    # kappa > 1 * (1 + shift) cannot be met even at full coverage
    g = validate_game(2, 1, [(0.9, 0.1, 0.0, 2.0), (0.5, 0.2, 0.95, 1.0)],
                      [], cost_a=1.0)
    with pytest.raises(Infeasible):
        solve_socp_fixed(g, 0, 1.0)


def test_precheck_errors_name_the_pair():
    # target 1's kappa 2 passes 1 + its shift 0.5 at coverage 1
    g = validate_game(2, 1, [(0.9, 0.1, 0.0, 0.5), (0.5, 0.2, 1.5, 2.0)],
                      [], cost_a=1.0)
    with pytest.raises(Infeasible, match=r"^attacked target 0 at coverage "
                       r"1: constraint for target 1 unachievable: kappa "
                       r"2\.0000 > 1 \+ 0\.5000$"):
        solve_socp_fixed(g, 0, 1.0)
    # no resource audits target 1, whose kappa is positive
    g = validate_game(3, 1, [(0.9, 0.1, 0.0, 0.5), (0.5, 0.2, 0.3, 0.9),
                             (0.4, 0.3, 0.0, 0.1)], [(0, 1)], cost_a=1.0)
    with pytest.raises(Infeasible, match=r"^attacked target 0 at coverage "
                       r"0\.25: target 1 needs coverage but cannot be "
                       r"audited$"):
        solve_socp_fixed(g, 0, 0.25)


def test_free_target_takes_its_least_coverage():
    # a target with cost 0 punishes fully for free, leaving the most
    # coverage to the others
    g = validate_game(3, 2, [(0.9, 0.1, 0.1, 0.95), (0.5, 0.2, 0.3, 0.4),
                             (0.4, 0.3, 0.0, 0.05)], [],
                      per_target_costs=[0.02, 0.0, 0.03])
    d = compute_deltas(g)
    kappa = d.delta[0] + d.delta_pair[1, 0]
    p, x, raw = solve_socp_fixed(g, 0, 1.0)
    assert p[1] == pytest.approx(kappa / (1.0 + d.delta[1]), abs=1e-15)
    assert x[1] == pytest.approx(1.0, abs=1e-12)
    assert raw == pytest.approx(d.delta_d[0], abs=1e-15)


def test_water_fill_meets_the_total_on_the_breakpoints():
    # y = clip(w lam, lo, hi) sums to the total, with one lam for every
    # target strictly inside its bounds
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        lo = rng.uniform(0.0, 0.5, m)
        hi = lo + rng.uniform(0.0, 0.5, m) * (rng.random(m) < 0.9)
        w = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.9)
        hi = np.where(w > 0, hi, lo)  # as for targets of cost 0
        total = rng.uniform(lo.sum(), hi.sum())
        y = _water_fill(lo, hi, w, total)
        assert y.sum() == pytest.approx(total, abs=1e-12)
        assert (lo <= y).all() and (y <= hi).all()
        inside = (lo < y) & (y < hi)
        if inside.any():
            lam = y[inside] / w[inside]
            assert lam == pytest.approx(lam[0], rel=1e-12)
            # the others are clipped: w lam is past their bound
            box = lo < hi
            assert (w * lam[0] <= lo * (1 + 1e-12))[box & (y == lo)].all()
            assert (w * lam[0] >= hi * (1 - 1e-12))[box & (y == hi)].all()


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


def test_px_reports_flows_and_splits():
    g = rand_game(3, 1, seed=4, a_vec=True)
    sol = solve_px(g, SolveConfig(epsilon=0.2))
    # one flow routes p_star in every pair
    pairs = sol.details["subproblems_solved"] + sol.details[
        "subproblems_infeasible"]
    assert sol.details["flows"] >= pairs > 0
    # one resource: every nonempty target set has the same rank, so the
    # only tight set is all of them and no pair splits
    assert sol.details["splits"] == 0


def test_px_reports_lift_residual():
    # the tsp answer's coverage is checked by the same max flow as fpt's
    for seed in range(3):
        g = rand_game(5, 2, density=0.3, seed=30 + seed, a_vec=True)
        res = solve_px(g, SolveConfig(epsilon=0.1)).details["residuals"]
        assert set(res) == {"best_response", "lift", "box", "x_box"}
        assert 0.0 <= res["lift"] <= 1e-9


def _edge_game(seed):
    """A seeded random 5/2 game with utilities set so that, on the grid
    {0, 1/4, ..., 1}, attacked target 0 at coverage 1 puts target 1's
    kappa 2^-24 below 1 + shift (its least coverage just under 1), and
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
    # target 1's hyperbola needs coverage just under 1 at full punishment;
    # with the attacked target's and target 2's least coverages that is
    # more than the two resources hold, and the error names the min cut's
    # targets: {0, 1, 2} on seed 1, all five (need 3.23) on seed 3
    for seed, size in ((1, 3), (3, 5)):
        g = _edge_game(seed)
        d = compute_deltas(g)
        kappa = d.delta[0] + d.delta_pair[:, 0]
        kappa[0] = 0.0
        least = np.where(kappa > 0, kappa / (1.0 + d.delta), 0.0)
        least[0] = 1.0
        assert 0.0 < 1.0 - least[1] < 1e-7
        with pytest.raises(Infeasible) as err:
            solve_socp_fixed(g, 0, 1.0)
        found = re.fullmatch(r"attacked target 0 at coverage 1: targets "
                             r"\[([\d, ]+)\] need ([\d.]+) coverage on "
                             r"(\d+) resources", str(err.value))
        assert found, str(err.value)
        targets = [int(i) for i in found[1].split(",")]
        need, count = float(found[2]), int(found[3])
        assert {0, 1, 2} <= set(targets) and len(targets) == size
        assert need == pytest.approx(least[targets].sum(), abs=1e-3)
        fmap = audit_sets(g)
        assert count == len(set().union(*(fmap[i] for i in targets))) == 2
        assert need > count
    assert need == pytest.approx(3.23, abs=5e-3)


@pytest.mark.parametrize("seed", [1, 3])
def test_batched_solve_matches_single_pair_solves(seed):
    # solve_px over the grid is the best of the single-pair solves; each
    # pair is solved, found infeasible or skipped by the bound
    g = _edge_game(seed)
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
                _, _, raw = solve_socp_fixed(g, star, p_star, tally)
            except Infeasible as exc:
                infeasible += 1
                seen["hall" if "resources" in str(exc) else
                     "kappa" if "unachievable" in str(exc) else "other"] += 1
                continue
            solved += 1
            seen["decomposed" if active else "vacuous"] += 1
            key = (g.utilities[star][1] + raw, -p_star, -star)
            if best is None or key > best:
                best = key
    assert all(seen[k] for k in ("hall", "kappa", "vacuous",
                                 "decomposed")), seen
    assert not seen["other"]
    sol = solve_px(g, SolveConfig(epsilon=0.25))
    assert (sol.details["subproblems_solved"]
            + sol.details["subproblems_infeasible"]
            + sol.details["pruned"]) == solved + infeasible
    assert sol.details["subproblems_solved"] <= solved
    assert sol.details["subproblems_infeasible"] <= infeasible
    assert (sol.star, sol.p[sol.star]) == (-best[2], -best[1])
    assert sol.objective == best[0]
    assert sol.details["flows"] <= tally["flows"]
    assert sol.details["splits"] <= tally["splits"]


def test_px_on_eight_targets_does_not_stall():
    g = rand_game(8, 2, density=0.2, seed=3, a_vec=True)
    sol = solve_px(g, SolveConfig(epsilon=0.05))
    assert sol.details["subproblems_solved"] > 0
    assert sol.details["flows"] >= sol.details["subproblems_solved"]
    assert sol.details["residuals"]["lift"] <= 1e-9


def test_knife_edge_pair_is_feasible():
    # kappa_1 = 1 + D_1 = 1.75 exactly: p_1 = x_1 = 1 meets it, with no
    # strictly feasible point around it
    g = validate_game(3, 2, [(0.9, 0.1, 0.0, 0.25), (0.5, 0.2, 1.25, 2.0),
                             (0.4, 0.3, 0.0, 0.05)], [], cost_a=0.5)
    d = compute_deltas(g)
    assert d.delta_pair[1, 0] == 1.0 + d.delta[1] == 1.75
    p, x, raw = solve_socp_fixed(g, 0, 0.0)
    assert p[1] == x[1] == 1.0
    assert raw == -0.5


def test_px_ignores_the_enumeration_cap():
    # 111 connected subgraphs and 2^3 resource subsets, both past a cap
    # of 1: tsp enumerates no C; on this seed a pair the bound leaves to
    # solve splits
    g = dense_restriction_game(12, 3, seed=2)
    capped = solve_px(g, SolveConfig(epsilon=0.05, enumeration_cap=1))
    free = solve_px(g, SolveConfig(epsilon=0.05))
    assert capped.objective == free.objective
    assert capped.star == free.star
    np.testing.assert_array_equal(capped.p, free.p)
    np.testing.assert_array_equal(capped.x, free.x)
    assert capped.details["splits"] > 0


def _slsqp_pair(game, star, p_star, cset):
    """The fixed-coverage program by SLSQP over (p, x) of the targets with
    kappa > 0: min sum c_i x_i subject to kappa_i <= p_i (x_i + D_i), the
    unit boxes and C's explicit rows that hold such a target, from full
    punishment at the least coverages.  Returns None when those least
    coverages break a row or a box by more than 1e-9 (the pair is
    infeasible, as C is down-closed), "edge" within 1e-9 of that, else
    (cost, worst violation) of the SLSQP point."""
    d = compute_deltas(game)
    kappa = p_star * d.delta[star] + d.delta_pair[:, star]
    kappa[star] = 0.0
    act = np.flatnonzero(kappa > 0)
    kap, shift = kappa[act], d.delta[act]
    costs = np.asarray(game.target_costs)[act]
    rows = np.array([c.coeff_row(game.n_targets) for c in cset.constraints]
                    + [np.eye(game.n_targets)[i] for i in cset.pinned]
                    ).reshape(-1, game.n_targets)
    bounds = np.array([float(c.bound) for c in cset.constraints]
                      + [0.0] * len(cset.pinned))
    # rows without a target of kappa > 0 hold p_star alone, which fits
    keep = rows[:, act].any(axis=1)
    bounds = bounds[keep] - p_star * rows[keep, star]
    rows = rows[np.ix_(keep, act)]
    least = kap / (1.0 + shift)
    worst = max((rows @ least - bounds).max(initial=-1.0),
                (least - 1.0).max(initial=-1.0), -bounds.min(initial=1.0))
    if worst > 1e-9:
        return None
    if worst > -1e-9:
        return "edge"
    m = act.size
    if not m:
        return 0.0, 0.0
    res = minimize(
        lambda z: costs @ z[m:], np.concatenate((least, np.ones(m))),
        jac=lambda z: np.concatenate((np.zeros(m), costs)),
        method="SLSQP", bounds=[(0.0, 1.0)] * (2 * m),
        constraints=[
            {"type": "ineq",
             "fun": lambda z: z[:m] * (z[m:] + shift) - kap,
             "jac": lambda z: np.hstack((np.diag(z[m:] + shift),
                                         np.diag(z[:m])))},
            {"type": "ineq", "fun": lambda z: bounds - rows @ z[:m],
             "jac": lambda z: np.hstack((-rows, np.zeros_like(rows)))}],
        options={"ftol": 1e-14, "maxiter": 500})
    z = np.clip(res.x, 0.0, 1.0)
    violation = max(0.0, (kap - z[:m] * (z[m:] + shift)).max(),
                    (rows @ z[:m] - bounds).max(initial=0.0))
    return float(costs @ z[m:]), violation


def test_exact_pairs_are_never_beaten_by_slsqp():
    # an independent optimality check: SLSQP over the explicit rows of
    # extract_constraints_naive on restricted games, pair by pair; the
    # 12/3 dense game splits most of its pairs
    games = [rand_game(n, 1 + seed % min(3, n - 1), density=0.3,
                       seed=1600 + seed, a_vec=True)
             for seed, n in zip(range(20), [3, 4, 5, 6] * 5)]
    compared = splits = 0
    for g in games + [dense_restriction_game(12, 3, seed=1)]:
        n = g.n_targets
        cset = cx.extract_constraints_naive(g)
        d = compute_deltas(g)
        for star in range(n):
            for p_star in (0.0, 0.25, 0.5, 0.75, 1.0):
                if g.unauditable[star] and p_star > 0:
                    continue
                oracle = _slsqp_pair(g, star, p_star, cset)
                if oracle == "edge":
                    continue
                tally = Counter()
                try:
                    p, x, raw = solve_socp_fixed(g, star, p_star, tally)
                except Infeasible:
                    assert oracle is None, (g, star, p_star)
                    continue
                assert oracle is not None, (g, star, p_star)
                splits += tally["splits"]
                cost = p_star * d.delta_d[star] - raw
                # the exact point itself meets every explicit row
                assert cx.coverage_flow(g, p)[1] <= 1e-9
                assert all(p[list(c.target_indices)].sum() <= c.bound + 1e-9
                           for c in cset.constraints)
                kappa = p_star * d.delta[star] + d.delta_pair[:, star]
                kappa[star] = 0.0
                assert (kappa <= p * (x + d.delta) + 1e-12).all()
                slsqp_cost, violation = oracle
                if violation <= 1e-9:
                    compared += 1
                    assert slsqp_cost >= cost - 1e-9, (g, star, p_star)
    assert compared >= 200
    assert splits >= 10


def test_bound_keeps_the_every_pair_solution():
    pruned = 0
    for g in bound_games():
        for step in (0.25, 0.05):
            sol = solve_px(g, SolveConfig(epsilon=step))
            (objective, star, p, x), pairs = px_every_pair(g, step)
            assert (sol.objective, sol.star) == (objective, star)
            np.testing.assert_array_equal(sol.p, p)
            np.testing.assert_array_equal(sol.x, x)
            assert pairs == (sol.details["subproblems_solved"]
                             + sol.details["subproblems_infeasible"]
                             + sol.details["pruned"])
            pruned += sol.details["pruned"]
    assert pruned > 0


def test_bound_solves_pairs_that_tie_the_best():
    # target 0 gains nothing from coverage and needs no punishment at any
    # coverage, so every grid point ties at 0.9 and the least coverage wins
    g = validate_game(3, 1, [(0.9, 0.9, 0.5, 0.75), (0.6, 0.2, 0.1, 0.4),
                             (0.5, 0.1, 0.2, 0.3)], cost_a=0.01)
    sol = solve_px(g, SolveConfig(epsilon=0.25))
    (objective, star, p, _), _ = px_every_pair(g, 0.25)
    assert (sol.objective, sol.star, sol.p[sol.star]) == (0.9, 0, 0.0)
    assert (objective, star, p[star]) == (0.9, 0, 0.0)
