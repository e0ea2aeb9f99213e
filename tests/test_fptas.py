from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from auditgames import constraints as cx
from auditgames import fptas
from auditgames.errors import DegenerateDenominator, VerificationFailed
from auditgames.fpt import SolveConfig, solve_fpt
from auditgames.fptas import (
    apx_candidates,
    build_subproblem,
    make_feasible,
    recover_full_solution,
    solve_fptas,
    sort_deltas,
)
from auditgames.model import compute_deltas, game_from_dict, validate_game
from auditgames.poly import (
    Polynomial,
    isolate_roots,
    poly_mul,
    poly_sub,
    sign_after_zero,
)

from helpers import (
    all_pairs_candidates,
    bound_games,
    dense_restriction_game,
    fptas_every_band,
    grouped_game,
    lenient_game,
    rand_game,
    single_resource_grid_oracle,
)

COUNTEREXAMPLE_ROWS = [
    (0.614, 0.598, 0.202, 0.287), (0.719, 0.036, 0.869, 0.999),
    (0.664, 0.063, 0.597, 0.946), (0.440, 0.322, 0.023, 0.624),
    (0.154, 0.098, 0.899, 0.902), (0.507, 0.170, 0.452, 0.629),
    (0.662, 0.371, 1.000, 0.999),
]


def test_sort_deltas_stability():
    g = validate_game(4, 1, [(0.6, 0.5, 0.2, 0.3)] * 4, cost_a=0.01)
    assert sort_deltas(g, 3) == (0, 1, 2)  # equal offsets keep input order
    assert sort_deltas(g, 0) == (1, 2, 3)


def test_sort_deltas_two_targets():
    g = validate_game(3, 1, [(0.6, 0.5, 0.05, 0.1), (0.6, 0.5, 0.2, 1.0),
                             (0.6, 0.5, 0.2, 0.6)], cost_a=0.01)
    # offsets vs star 2: t0 -> -0.5, t1 -> +0.4
    assert sort_deltas(g, 2) == (0, 1)


def test_sort_deltas_counterexample_order():
    g = validate_game(7, 1, COUNTEREXAMPLE_ROWS, cost_a=0.01, lenient=True)
    order = sort_deltas(g, 6)
    # ascending ua_unaudited minus 0.999
    ua_u = [r[3] for r in COUNTEREXAMPLE_ROWS]
    offsets = [ua_u[i] - ua_u[6] for i in order]
    assert offsets == sorted(offsets)
    assert order == (0, 3, 5, 4, 2, 1)


def test_band_zero_has_no_zeroed_targets():
    g = rand_game(4, 1, seed=3)
    cset = cx.constraint_find(g)
    eq = build_subproblem(g, 0, 0, cset)
    assert eq.zeroed == ()
    assert len(eq.active) == 3
    assert "band-lower-closed" not in {b.origin for b in eq.boundaries}


def test_boundary_count_budget():
    g = rand_game(5, 2, seed=4)
    cset = cx.constraint_find(g)
    eq = build_subproblem(g, 2, 1, cset)
    # actives + closed open-curve + band lower + at most |C| rows
    assert len(eq.boundaries) <= len(eq.active) + 2 + len(cset.constraints)


def test_subproblem_matches_lp_row_at_fixed_x():
    # the coverage-set boundary evaluated at fixed x equals the bound the
    # direct substitution gives; pinning the least attractive target keeps
    # every substitution numerator nonnegative so band 0 covers all of it
    g = rand_game(3, 1, seed=9)
    cset = cx.constraint_find(g)
    d = compute_deltas(g)
    star = int(np.argmin([u[3] for u in g.utilities]))
    eq = build_subproblem(g, star, 0, cset)
    setc = [b for b in eq.boundaries if b.origin.startswith("setC")]
    assert len(setc) == 1
    x = 0.5
    num, den = setc[0].values(x)
    f_val = num / den
    # brute: find p with sum of substituted coverages equal to the bound
    def total(p):
        v = p * (x + d.delta[star])
        s = p
        for i in eq.active:
            s += (v + d.delta_pair[i, star]) / (x + d.delta[i])
        return s
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if total(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    if 0.0 < f_val < 1.0:
        assert f_val == pytest.approx(lo, abs=1e-9)


def test_constant_boundary_band():
    # engineered so the zero-band sees a single constant boundary f = 1:
    # the strict curve p*x < 1 only grazes the far corner, and the
    # decreasing objective puts the optimum at x = 0, p = 1
    g = validate_game(2, 1, [(0.4, 0.3, 0.0, 0.0), (0.9, 0.1, 1.0, 1.0)],
                      cost_a=0.01)
    cset = cx.constraint_find(g)
    eq = build_subproblem(g, 1, 1, cset)  # zero out the other target
    cand = apx_candidates(eq, 20)[0]
    assert cand.x == 0.0
    assert cand.p_n == pytest.approx(1.0, abs=1e-9)


def test_make_feasible_clamps_and_discards():
    g = rand_game(3, 1, seed=13)
    cset = cx.constraint_find(g)
    eq = build_subproblem(g, 0, 0, cset)

    def envelope(x):
        return fptas._bounds_at(eq.boundaries, x)

    out = make_feasible([(1.0 + 1e-9, None, "corner:x=1")], eq, 0.0,
                        envelope)
    assert all(c.x <= 1.0 for c in out)
    # a forced coverage above the envelope is pulled back inside
    forced = make_feasible([(0.5, 5.0, "corner:p=1")], eq, 0.0, envelope)
    assert all(c.p_n <= 1.0 for c in forced)


def test_band_partition_unique():
    rng = np.random.default_rng(0)
    for seed in range(6):
        g = rand_game(4, 1, seed=seed)
        d = compute_deltas(g)
        star = int(rng.integers(0, 4))
        order = sort_deltas(g, star)
        offs = [d.delta_pair[i, star] for i in order]
        for _ in range(200):
            p, x = rng.random(), rng.random()
            v = p * (x + d.delta[star])
            members = []
            for j in range(len(order) + 1):
                lo_ok = j == 0 or v + offs[j - 1] < 0
                hi_ok = j == len(order) or v + offs[j] >= 0
                if lo_ok and hi_ok:
                    members.append(j)
            assert len(members) == 1


def test_recovered_solution_consistency():
    for seed in range(6):
        g = rand_game(4, 2, density=0.2, seed=40 + seed)
        cset = cx.constraint_find(g)
        sol = solve_fptas(g, SolveConfig(root_bits=20))
        star = sol.star
        d = compute_deltas(g)
        # active coverages are tight: pushing one down violates its row,
        # pushing it up keeps the objective unchanged
        v = sol.p[star] * (sol.x + d.delta[star])
        for i in range(g.n_targets):
            if i == star or sol.p[i] in (0.0, 1.0):
                continue
            lhs = v + d.delta_pair[i, star]
            assert lhs == pytest.approx(sol.p[i] * (sol.x + d.delta[i]),
                                        abs=1e-7)
            down = sol.p[i] - 1e-4
            assert down * (sol.x + d.delta[i]) < lhs - 1e-9


def test_objective_only_depends_on_star_coverage():
    from auditgames.fpt import full_objective
    g = rand_game(4, 2, seed=3)
    sol = solve_fptas(g, SolveConfig(root_bits=20))
    assert sol.objective == full_objective(
        g, sol.star, float(sol.p[sol.star]), sol.x)


def test_boundary_tight_or_corner():
    for seed in range(5):
        g = rand_game(4, 1, seed=70 + seed)
        cset = cx.constraint_find(g)
        sol = solve_fptas(g, SolveConfig(root_bits=20))
        p_star, x = float(sol.p[sol.star]), sol.x
        if x in (0.0, 1.0) or p_star in (0.0, 1.0):
            continue
        order = sort_deltas(g, sol.star)
        j = sol.details["band"]
        eq = build_subproblem(g, sol.star, j, cset)
        tight = False
        for b in eq.boundaries:
            num, den = b.values(x)
            if abs(p_star * den - num) <= 1e-6 * max(1.0, abs(num)):
                tight = True
        assert tight


def test_matches_fine_fpt():
    for seed in range(6):
        n = 3 + seed % 3
        k = 1 + seed % min(2, n - 1)
        g = rand_game(n, k, density=0.2 * (seed % 3), seed=100 + seed)
        ftas = solve_fptas(g, SolveConfig(root_bits=20))
        fine = solve_fpt(g, SolveConfig(epsilon=0.0005))
        coarse = solve_fpt(g, SolveConfig(epsilon=0.005))
        assert abs(ftas.objective - fine.objective) <= 1e-2
        assert ftas.objective >= coarse.objective - 1e-3


def test_single_resource_grid_oracle():
    for seed in range(3):
        g = rand_game(3 + seed, 1, seed=37 + seed)
        oracle = single_resource_grid_oracle(g, step=1e-3)
        ftas = solve_fptas(g, SolveConfig(root_bits=20))
        assert abs(ftas.objective - oracle) <= 5e-3


def test_root_precision_scaling():
    for seed in range(4):
        g = rand_game(4, 1, seed=55 + seed)
        lo = solve_fptas(g, SolveConfig(root_bits=12)).objective
        hi = solve_fptas(g, SolveConfig(root_bits=24)).objective
        assert hi >= lo - 10 * 2.0 ** -12


def test_a1_zero_path_identical():
    utils = [(0.9, 0.1, 0.2, 0.8), (0.6, 0.2, 0.3, 0.7), (0.5, 0.1, 0.2, 0.6)]
    g0 = validate_game(3, 1, utils, cost_a=0.01, cost_a1=0.0)
    s0 = solve_fptas(g0, SolveConfig(root_bits=20))
    s0_again = solve_fptas(g0, SolveConfig(root_bits=20))
    assert s0.objective == s0_again.objective


def test_a1_enhanced_matches_fpt():
    utils = [(0.9, 0.1, 0.2, 0.8), (0.6, 0.2, 0.3, 0.7), (0.5, 0.1, 0.2, 0.6)]
    g = validate_game(3, 1, utils, cost_a=0.01, cost_a1=0.8)
    ftas = solve_fptas(g, SolveConfig(root_bits=20))
    fine = solve_fpt(g, SolveConfig(epsilon=0.0005))
    assert abs(ftas.objective - fine.objective) <= 1e-2
    assert ftas.objective >= fine.objective - 1e-4  # fptas is exact here


def test_counterexample_dominance():
    g = validate_game(7, 1, COUNTEREXAMPLE_ROWS, cost_a=0.01, lenient=True)
    ftas = solve_fptas(g, SolveConfig(root_bits=20))
    fpt = solve_fpt(g, SolveConfig(epsilon=0.005))
    assert ftas.objective >= fpt.objective - 1e-3


def test_unauditable_star_band_handling():
    g = validate_game(3, 1, [(0.6, 0.5, 0.2, 0.3), (0.7, 0.1, 0.2, 0.9),
                             (0.8, 0.2, 0.1, 0.5)], [(0, 1)], cost_a=0.01)
    sol = solve_fptas(g, SolveConfig(root_bits=20))
    assert sol.p[1] == 0.0
    fine = solve_fpt(g, SolveConfig(epsilon=0.001))
    assert abs(sol.objective - fine.objective) <= 1e-2


def test_fptas_past_subgraph_cap():
    # 111 connected subgraphs against 2^3 resource subsets and a cap of 20
    g = dense_restriction_game(12, 3, seed=1)
    sol = solve_fptas(g, SolveConfig(root_bits=20, enumeration_cap=20))
    fine = solve_fpt(g, SolveConfig(epsilon=0.005))
    assert sol.objective >= fine.objective - 1e-3


# 7 targets, 2 resources, unsplit payoffs: the band-1 corner of target 2,
# where setC:0 meets p = 0, is optimal, and the midpoint of its root
# bracket lies just outside the coverage envelope
BRACKET_END_INSTANCE = {
    "targets": [
        {"ud_a": 0.32819366455078125, "ud_u": 0.1204376220703125,
         "ua_a": 0.2159900665283203, "ua_u": 0.7942209243774414},
        {"ud_a": 0.793156623840332, "ud_u": 0.3013343811035156,
         "ua_a": 0.3473520278930664, "ua_u": 0.5880117416381836},
        {"ud_a": 0.7832422256469727, "ud_u": 0.7808361053466797,
         "ua_a": 0.48213768005371094, "ua_u": 0.5228729248046875},
        {"ud_a": 0.5221118927001953, "ud_u": 0.2681140899658203,
         "ua_a": 0.4105844497680664, "ua_u": 0.9091892242431641},
        {"ud_a": 0.8345489501953125, "ud_u": 0.596867561340332,
         "ua_a": 0.5742654800415039, "ua_u": 0.7144927978515625},
        {"ud_a": 0.7749414443969727, "ud_u": 0.01087188720703125,
         "ua_a": 0.6357593536376953, "ua_u": 0.9452629089355469},
        {"ud_a": 0.9398031234741211, "ud_u": 0.586817741394043,
         "ua_a": 0.28490638732910156, "ua_u": 0.3268098831176758}],
    "resources": 2, "restrictions": [[0, 5], [1, 0], [1, 3], [1, 4]],
    "a": 0.01, "a1": 0.0, "input_bits": 20}


def test_root_bracket_end_reaches_the_corner_optimum():
    g = game_from_dict(BRACKET_END_INSTANCE)
    ftas = solve_fptas(g, SolveConfig(root_bits=20))
    fine = solve_fpt(g, SolveConfig(epsilon=0.0005))
    assert abs(ftas.objective - fine.objective) <= 1e-3
    assert ftas.star == fine.star == 2


def _cache_games():
    yield rand_game(5, 2, density=0.2, seed=3)
    yield rand_game(6, 2, density=0.3, seed=8)
    # target 1 loses the only resource and cannot be audited
    yield validate_game(3, 1, [(0.6, 0.5, 0.2, 0.3), (0.7, 0.1, 0.2, 0.9),
                               (0.8, 0.2, 0.1, 0.5)], [(0, 1)], cost_a=0.01)
    yield validate_game(7, 1, COUNTEREXAMPLE_ROWS, cost_a=0.01, lenient=True)


def test_root_cache_isolates_each_polynomial_once_per_target(monkeypatch):
    isolated = []
    monic = []
    star_now = []
    original_isolate, original_build = fptas.isolate_roots, fptas.build_subproblem

    def build(game, star, j, cset, *rest):
        star_now.append(star)
        return original_build(game, star, j, cset, *rest)

    def isolate(p, interval, l):
        isolated.append((star_now[-1], p.coefficients, l))
        lead = p.ints[-1] or 1  # the zero polynomial stays (0,)
        monic.append((star_now[-1],
                      tuple(Fraction(c, lead) for c in p.ints), l))
        return original_isolate(p, interval, l)

    monkeypatch.setattr(fptas, "build_subproblem", build)
    monkeypatch.setattr(fptas, "isolate_roots", isolate)
    for g in _cache_games():
        isolated.clear()
        monic.clear()
        sol = solve_fptas(g, SolveConfig(root_bits=20))
        assert len(set(isolated)) == len(isolated)
        assert sol.details["roots_isolated"] == len(isolated)
        # no two isolated polynomials of one target are scalar multiples
        assert len(set(monic)) == len(monic)


def _first_recovered(game, star, eq, candidates):
    """(objective, x, p_star, provenance) of the first candidate that
    recovers, None when none does."""
    for cand in candidates:
        try:
            sol = recover_full_solution(game, star, eq, cand.p_n, cand.x)
        except (VerificationFailed, DegenerateDenominator):
            continue
        return sol.objective, sol.x, cand.p_n, cand.provenance
    return None


def test_band_winners_match_uncached_candidates():
    # every band, not only those solve_fptas's bound leaves to solve
    for g in _cache_games():
        cset = cx.coverage_set(g, SolveConfig().enumeration_cap)
        cached = {}
        for star, eq, cache in _bands(g):
            const = g.utilities[star][1]
            got = _first_recovered(g, star, eq,
                                   apx_candidates(eq, 20, const, cache))
            fresh = build_subproblem(g, star, eq.j, cset)
            assert got == _first_recovered(g, star, fresh, apx_candidates(
                fresh, 20, game_const=const)), (star, eq.j)
            cached[star, eq.j] = got
        sol = solve_fptas(g, SolveConfig(root_bits=20))
        for w in sol.details["band_winners"]:
            assert cached[w["star"], w["band"]] == (
                w["objective"], w["x"], w["p_star"], w["provenance"])


def test_root_counters_show_shared_isolations(monkeypatch):
    g = rand_game(6, 2, density=0.3, seed=8)
    cfg = SolveConfig(root_bits=20)
    bands = []
    original_build = fptas.build_subproblem

    def build(game, star, j, cset, *rest):
        bands.append((star, j))
        return original_build(game, star, j, cset, *rest)

    monkeypatch.setattr(fptas, "build_subproblem", build)
    sol = solve_fptas(g, cfg)
    monkeypatch.undo()
    assert len(bands) > g.n_targets  # several bands per attacked target
    # each request is an isolation or a hit, with or without sharing
    cset = cx.coverage_set(g, cfg.enumeration_cap)
    requests = 0
    for star, j in bands:
        own = fptas._RootCache()
        apx_candidates(build_subproblem(g, star, j, cset), 20, cache=own)
        requests += own.isolated + own.hits
    isolated, hits = sol.details["roots_isolated"], sol.details["root_cache_hits"]
    assert isolated + hits == requests
    assert isolated < requests


def test_memoised_bands_match_fresh_builds():
    for g in _cache_games():
        cset = cx.coverage_set(g, SolveConfig().enumeration_cap)
        for star in range(g.n_targets):
            cache = fptas._RootCache()
            seen = {}
            for j in range(len(sort_deltas(g, star)) + 1):
                memo = build_subproblem(g, star, j, cset, cache)
                fresh = build_subproblem(g, star, j, cset)
                assert len(memo.boundaries) == len(fresh.boundaries)
                for b, f in zip(memo.boundaries, fresh.boundaries):
                    assert (b.num, b.den, b.origin, b.is_upper) == (
                        f.num, f.den, f.origin, f.is_upper)
                    for x in (0.0, 0.3, 1.0):
                        assert b.values(x) == f.values(x)
                    # a boundary recurs as one object from band to band
                    key = (b.num, b.den, b.origin, b.is_upper)
                    assert seen.setdefault(key, b) is b


def test_shared_denominator_crossing_matches_cross_product():
    g = rand_game(6, 2, density=0.3, seed=8)
    cset = cx.coverage_set(g, SolveConfig().enumeration_cap)
    cache = fptas._RootCache()
    # one band keeps one coverage row, so take the pairs of every band
    pairs = {}
    for j in range(len(sort_deltas(g, 2)) + 1):
        bounds = build_subproblem(g, 2, j, cset, cache).boundaries
        pairs.update(((id(b1), id(b2)), (b1, b2))
                     for i, b1 in enumerate(bounds) for b2 in bounds[i + 1:]
                     if b1.den == b2.den)
    pairs = list(pairs.values())
    assert len(pairs) >= 10
    for b1, b2 in pairs:
        cross = poly_sub(poly_mul(b1.num, b2.den), poly_mul(b2.num, b1.den))
        want = None if cross.is_zero else tuple(
            isolate_roots(cross, (0.0, 1.0), 20))
        assert cache.crossing(b1, cache.boundary_id(b1), b2,
                              cache.boundary_id(b2), 20, 30) == (
            want, sign_after_zero(cross))


def _recovered(game, star, eq, candidates):
    """(objective, x, p_star) of the first candidate that recovers."""
    winner = _first_recovered(game, star, eq, candidates)
    return winner and winner[:3]


def _bands(g):
    """Every band of every target, built through one cache per target."""
    cset = cx.coverage_set(g, SolveConfig().enumeration_cap)
    for star in range(g.n_targets):
        cache = fptas._RootCache()
        for j in range(len(sort_deltas(g, star)) + 1):
            yield star, build_subproblem(g, star, j, cset, cache), cache


def _assert_envelope_matches(eq, env, points=1001):
    for x in np.linspace(0.0, 1.0, points):
        want = fptas._bounds_at(eq.boundaries, x)
        got = env.bounds_at(x)
        assert got[2] == want[2], (eq.star, eq.j, x)
        if want[2]:
            assert abs(got[0] - want[0]) <= 1e-9, (eq.star, eq.j, x)
            assert abs(got[1] - want[1]) <= 1e-9, (eq.star, eq.j, x)


def test_sweep_matches_the_all_pairs_oracle():
    games = list(_cache_games()) + [grouped_game(20, 10, 5, seed)
                                    for seed in range(3)]
    for gi, g in enumerate(games):
        for star, eq, cache in _bands(g):
            const = g.utilities[star][1]
            assert _recovered(g, star, eq, apx_candidates(
                eq, 20, const, cache)) == _recovered(
                g, star, eq, all_pairs_candidates(eq, 20, const, cache))
            # every band of the small games, a few of the others
            if gi < 4 or (star == 0 and eq.j % 5 == 0):
                _assert_envelope_matches(eq, fptas._Envelopes(eq, 20, cache))


def _flat_band(*boundaries):
    g = rand_game(3, 1, seed=13)
    eq = build_subproblem(g, 0, 0, cx.constraint_find(g))
    return replace(eq, boundaries=boundaries)


def _poly(*coeffs):
    return Polynomial.from_coeffs(coeffs)


def test_tangency_does_not_switch_the_piece():
    flat = fptas.Boundary(num=_poly(0.5), den=_poly(1.0), origin="flat")
    # 1/2 + (x - 3/8)^2 touches the flat row at x = 3/8 from above
    bowl = fptas.Boundary(num=_poly(0.640625, -0.75, 1.0), den=_poly(1.0),
                          origin="bowl")
    eq = _flat_band(bowl, flat)
    cache = fptas._RootCache()
    roots, _ = cache.crossing(flat, cache.boundary_id(flat), bowl,
                              cache.boundary_id(bowl), 20, 30)
    assert [r.sign_change for r in roots] == [False]
    env = fptas._Envelopes(eq, 20, cache)
    assert [p.rep.b.origin for p in env.upper] == ["flat"]
    _assert_envelope_matches(eq, env)
    # a crossing, by contrast, does switch
    tilt = fptas.Boundary(num=_poly(0.25, 0.5), den=_poly(1.0), origin="tilt")
    env = fptas._Envelopes(_flat_band(flat, tilt), 20, fptas._RootCache())
    assert [p.rep.b.origin for p in env.upper] == ["tilt", "flat"]
    assert env.upper[0].hi.value == 0.5


def test_denominator_root_switches_sides():
    # target 0 is lenient: x + D_0 = x - 0.25 changes sign at x = 1/4
    g = validate_game(3, 1, [(0.7, 0.2, 0.6, 0.35), (0.6, 0.3, 0.1, 0.5),
                             (0.8, 0.1, 0.2, 0.9)], cost_a=0.01, lenient=True)
    assert compute_deltas(g).delta[0] == -0.25
    poles = 0
    for star, eq, cache in _bands(g):
        env = fptas._Envelopes(eq, 20, cache)
        if star == 0:
            ends = env.upper_ends + env.lower_ends
            poles += sum(partner is None and root.value == 0.25
                         for root, _, partner in ends)
        _assert_envelope_matches(eq, env)
        const = g.utilities[star][1]
        assert _recovered(g, star, eq, apx_candidates(
            eq, 20, const, cache)) == _recovered(
            g, star, eq, all_pairs_candidates(eq, 20, const, cache))
    assert poles > 0


def _tied_games(count=40):
    """Games on a 1/64 utility grid with a1 > 0, one lenient target and
    two targets whose unaudited attacker payoffs tie: attacking either of
    those two puts a band curve at offset 0, on the row p >= 0."""
    for seed in range(count):
        n = 3 + seed % 3
        g = rand_game(n, 1 + seed % 2, density=0.2, seed=900 + seed,
                      snap_bits=6)
        rows = [list(u) for u in g.utilities]
        rows[1][3] = rows[0][3]
        rows[1][2] = min(rows[1][2], rows[1][3])
        rows[-1][2], rows[-1][3] = rows[-1][3], rows[-1][2]
        yield validate_game(n, g.n_resources, rows, g.restrictions,
                            cost_a=0.01, cost_a1=0.125 * (1 + seed % 4),
                            lenient=True)


def test_sweep_is_no_worse_than_the_oracle_on_tied_lenient_games():
    for g in _tied_games():
        for star, eq, cache in _bands(g):
            const = g.utilities[star][1]
            oracle = _recovered(g, star, eq,
                                all_pairs_candidates(eq, 20, const, cache))
            if oracle is not None:
                sweep = _recovered(g, star, eq,
                                   apx_candidates(eq, 20, const, cache))
                assert sweep is not None and sweep[0] >= oracle[0], (
                    star, eq.j, sweep, oracle)


def test_identical_curves_tie_deterministically():
    low = fptas.Boundary(num=_poly(0.25, 0.5), den=_poly(1.0), origin="a")
    twin = fptas.Boundary(num=_poly(0.25, 0.5), den=_poly(1.0), origin="b")
    # the same curve over a scaled numerator and denominator
    scaled = fptas.Boundary(num=_poly(0.5, 1.0), den=_poly(2.0), origin="c")
    high = fptas.Boundary(num=_poly(0.9), den=_poly(1.0), origin="d")
    for order in ((low, twin, scaled, high), (high, scaled, twin, low)):
        eq = _flat_band(*order)
        runs = [fptas._Envelopes(eq, 20, fptas._RootCache())
                for _ in range(2)]
        for env in runs:
            assert len(env.upper) == 1
            piece = env.upper[0]
            # the first of the tied boundaries in band order stands for them
            assert piece.rep.b is next(b for b in order if b is not high)
            assert set(piece.members) == {low, twin, scaled}
            _assert_envelope_matches(eq, env)
        assert [(p.rep.k, p.members, p.lo, p.hi) for p in runs[0].upper] == [
            (p.rep.k, p.members, p.lo, p.hi) for p in runs[1].upper]


def test_sweep_requests_fewer_crossings_than_all_pairs(monkeypatch):
    sweeps = []

    class Recorded(fptas._Envelopes):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self)

    def requested(envs):
        # the memo holds each request under both orders; curves from n on
        # are the two box rows
        pairs = sum(a < env.n and c < env.n for env in envs
                    for a, c in env.memo) // 2
        return pairs, sum(len(env.memo) for env in envs) // 2

    def all_pairs(envs):
        return sum(env.n * (env.n - 1) // 2 for env in envs)

    monkeypatch.setattr(fptas, "_Envelopes", Recorded)
    g = grouped_game(20, 10, 5)
    # every band, not only those solve_fptas's bound leaves to solve
    for star, eq, cache in _bands(g):
        apx_candidates(eq, 20, g.utilities[star][1], cache)
    assert 0 < requested(sweeps)[0] < all_pairs(sweeps)
    sweeps.clear()
    sol = solve_fptas(g, SolveConfig(root_bits=20))
    pairs, total = requested(sweeps)
    assert 0 < pairs < all_pairs(sweeps)
    assert sol.details["crossings_requested"] == total
    # every band has at least one piece on each envelope
    assert sol.details["envelope_pieces"] >= 2 * len(sweeps)


def test_bound_keeps_the_every_band_solution():
    pruned = 0
    for g in list(bound_games()) + [grouped_game(20, 10, 5)]:
        sol = solve_fptas(g, SolveConfig(root_bits=20))
        want, winners = fptas_every_band(g)
        assert (sol.objective, sol.x, sol.star) == (want.objective, want.x,
                                                    want.star)
        np.testing.assert_array_equal(sol.p, want.p)
        # the bands left to solve have the winners they have unbounded
        solved = {(w["star"], w["band"], w["objective"], w["x"], w["p_star"])
                  for w in sol.details["band_winners"]}
        assert solved <= set(winners)
        pruned += sol.details["pruned"]
    assert pruned > 0


def test_band_winners_lie_within_their_band_bound():
    for g in list(bound_games()) + [grouped_game(20, 10, 5)]:
        d = compute_deltas(g)
        for star, j, objective, _, _ in fptas_every_band(g)[1]:
            order = sort_deltas(g, star)
            off = d.delta_pair[order[j - 1], star] if j else None
            assert objective <= fptas.band_bound(
                g.utilities[star][1], d.delta_d[star], d.delta[star], off), (
                star, j)


def test_bound_solves_bands_that_tie_the_best():
    # no costs: target 1's band 1 reaches 0.875 at x = 1/8, and its band
    # 2, whose bound is exactly 0.875, reaches it at x = 0
    g = validate_game(3, 1, [(0.875, 0.25, 0.625, 0.75),
                             (0.875, 0.75, 0.875, 0.875),
                             (0.375, 0.0, 0.125, 0.5)], cost_a=0.0)
    sol = solve_fptas(g, SolveConfig(root_bits=20))
    want, _ = fptas_every_band(g)
    assert (sol.objective, sol.x, sol.star) == (0.875, 0.0, 1)
    assert (sol.objective, sol.x, sol.star) == (want.objective, want.x,
                                                want.star)


def test_fptas_reaches_lenient_optima_on_band_curves():
    # fpt's optimum puts a target with x + D < 0 on its band curve at zero
    # coverage, which no band that substitutes that target can hold
    cfg = SolveConfig(epsilon=0.05)
    for seed in (9, 22, 34, 40, 65, 85, 91, 96, 110):
        g = lenient_game(seed)
        want = solve_fpt(g, cfg).objective
        assert solve_fptas(g, cfg).objective >= want - 1e-5, seed
