"""Shared instance builders and brute-force oracles for the test suite."""

import numpy as np

from auditgames.model import validate_game, compute_deltas
from auditgames.poly import Polynomial, poly_mul, poly_sub


def rand_game(n, k, density=0.0, seed=0, cost_a=0.01, a_vec=False,
              snap_bits=None):
    """Random valid instance; orderings enforced by sorting each pair."""
    rng = np.random.default_rng(seed)
    utilities = []
    for _ in range(n):
        vals = rng.random(4)
        if snap_bits:
            vals = np.round(vals * 2.0 ** snap_bits) / 2.0 ** snap_bits
        ud = sorted(vals[:2], reverse=True)
        ua = sorted(vals[2:])
        utilities.append((ud[0], ud[1], ua[0], ua[1]))
    restrictions = [(j, i) for j in range(k) for i in range(n)
                    if rng.random() < density]
    costs = list(rng.uniform(0.005, 0.05, n)) if a_vec else None
    return validate_game(n, k, utilities, restrictions, cost_a=cost_a,
                         per_target_costs=costs)


def in_coverage_set(cset, p, tol=1e-7):
    """Membership in C, the box and the pinned rows, row by row: the
    oracle the max-flow lift is checked against."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -tol) or np.any(p > 1 + tol):
        return False
    if any(p[i] > tol for i in cset.pinned):
        return False
    return all(
        p[list(c.target_indices)].sum() <= c.bound + tol
        for c in cset.constraints
    )


def explosion_game(k):
    """The constraint-explosion family: 2k targets; resource j (0-based)
    audits targets {0, 1, 2j, 2j+1}."""
    n = 2 * k
    allowed = [set() for _ in range(n)]
    for j in range(k):
        for t in (0, 1, 2 * j, 2 * j + 1):
            allowed[t].add(j)
    restrictions = [(j, t) for t in range(n) for j in range(k)
                    if j not in allowed[t]]
    utilities = [(0.625, 0.5, 0.25, 0.375)] * n
    return validate_game(n, k, utilities, restrictions, cost_a=0.01)


def nested_game(k, seed=0):
    """The nested family: 2k targets with random payoffs; resource i
    (0-based) audits targets 0 .. 2i + 1, so C has super-polynomially
    many raw rows."""
    n = 2 * k
    restrictions = [(j, t) for j in range(k) for t in range(2 * j + 2, n)]
    return validate_game(n, k, rand_game(n, k, seed=seed).utilities,
                         restrictions, cost_a=0.01)


def prune_by_lp(cset):
    """The rows of ``cset`` that the rest of it does not imply, in order:
    one LP implication test per row over the rows still kept, pinned rows
    and the box.  The oracle ``constraints.prune_implied`` is checked
    against."""
    from dataclasses import replace
    from auditgames.lp import implies
    kept = list(cset.constraints)
    i = 0
    while i < len(kept):
        rows = replace(cset, constraints=kept[:i] + kept[i + 1:]).lp_rows()
        target = (kept[i].coeff_row(cset.n_targets), "<=",
                  float(kept[i].bound))
        if implies(rows, target, cset.n_targets):
            kept.pop(i)
        else:
            i += 1
    return replace(cset, constraints=tuple(kept))


def grouped_game(n, k, group_size, seed=0):
    from auditgames.cli import BenchConfig, generate_instance
    return generate_instance(BenchConfig(n, k, group_size, seed=seed))


def brute_force_connected_subsets(adjacency):
    """All nonempty vertex subsets inducing a connected subgraph."""
    nv = len(adjacency)
    found = set()
    for mask in range(1, 1 << nv):
        verts = [v for v in range(nv) if mask >> v & 1]
        seen = {verts[0]}
        stack = [verts[0]]
        vset = set(verts)
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w in vset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen == vset:
            found.add(frozenset(verts))
    return found


def single_resource_grid_oracle(game, step=1e-3):
    """Dense 2-D search over (star coverage, punishment) for k = 1 games,
    using the tight-constraint normalization for the other coverages."""
    d = compute_deltas(game)
    n = game.n_targets
    ps = np.arange(0.0, 1.0 + step / 2, step)
    xs = np.arange(0.0, 1.0 + step / 2, step)
    P, X = np.meshgrid(ps, xs, indexing="ij")
    best = -np.inf
    for star in range(n):
        if game.unauditable[star]:
            continue
        V = P * (X + d.delta[star])
        total = P.copy()
        ok = np.ones_like(P, dtype=bool)
        for i in range(n):
            if i == star:
                continue
            num = V + d.delta_pair[i, star]
            den = np.maximum(X + d.delta[i], 1e-15)
            req = np.where(num > 0, num / den, 0.0)
            if game.unauditable[i]:
                ok &= num <= 1e-12
                continue
            ok &= (num <= 0) | (req <= 1 + 1e-12)
            total += np.maximum(req, 0.0)
        ok &= total <= 1 + 1e-12
        ud_a, ud_u = game.utilities[star][0], game.utilities[star][1]
        obj = np.where(ok, ud_u + P * (ud_a - ud_u) - game.cost_a * X, -np.inf)
        best = max(best, float(obj.max()))
    return best


def dense_restriction_game(n, k, seed=0):
    """Random payoffs; target i is audited by the ((i mod (2^k - 1)) + 1)-th
    nonempty resource subset, so the merged targets form an intersection
    graph with more connected subgraphs than the 2^k resource subsets."""
    base = rand_game(n, k, seed=seed)
    restrictions = [(j, i) for i in range(n) for j in range(k)
                    if not ((i % (2 ** k - 1)) + 1) >> j & 1]
    return validate_game(n, k, base.utilities, restrictions,
                         cost_a=base.cost_a)


def _min_x_for_fixed_p(eq, p_hat, l, cache):
    """Left endpoints of the feasible x-intervals at coverage ``p_hat``.

    Every boundary and both band conditions become univariate polynomial
    sign constraints; their roots partition [0, 1] and midpoint sampling
    marks the feasible cells.  A left end that is a root also yields its
    bracket's right end (at most the cell midpoint), which lies on the
    feasible side of the root when the midpoint does not.
    """
    from auditgames.fptas import FEAS_TOL
    conditions = []  # polynomials required >= 0
    radius = {0.0: 0.0, 1.0: 0.0}  # cut -> bracket radius
    for b in eq.boundaries:
        p_den = poly_mul(Polynomial.from_coeffs((p_hat,)), b.den)
        g = poly_sub(b.num, p_den) if b.is_upper else poly_sub(p_den, b.num)
        conditions.append(g)
        for r in cache.roots(g, l) or ():
            radius[r.value] = max(radius.get(r.value, 0.0), r.radius)
    cuts = sorted(radius)
    lefts = []
    for a, bnd in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + bnd)
        if all(g(mid) >= -FEAS_TOL for g in conditions):
            lefts.append(a)
            if radius[a] > 0.0:
                lefts.append(min(a + radius[a], mid))
    return lefts


def all_pairs_candidates(eq, l=20, game_const=0.0, cache=None):
    """The band candidates fptas took before its envelope sweep: the four
    corners, the fixed-coverage solves, the stationary points of every
    boundary and the crossings of every boundary pair, each projected
    onto the envelope of every boundary; feasible ones, best first."""
    from auditgames import fptas
    if cache is None:
        cache = fptas._RootCache()
    cap = 2 * max(4, len(eq.order) + 1) + 4
    bounds = eq.boundaries
    ids = [cache.boundary_id(b) for b in bounds]
    raw = [(0.0, None, "corner:x=0"), (1.0, None, "corner:x=1")]
    for p_hat in (0.0, 1.0):
        for x_left in _min_x_for_fixed_p(eq, p_hat, l, cache):
            raw.append((x_left, p_hat, f"corner:p={p_hat:g}"))
            raw.append((x_left, None, f"corner:p={p_hat:g}+proj"))
    for b, bid in zip(bounds, ids):
        roots = fptas._stationary_roots(eq, b, bid, l, cap, cache)
        raw.extend((x, None, f"single-boundary({b.origin})")
                   for x in fptas._bracket_points(roots))
    for i, (b1, id1) in enumerate(zip(bounds, ids)):
        for b2, id2 in zip(bounds[i + 1:], ids[i + 1:]):
            roots, _ = cache.crossing(b1, id1, b2, id2, l, cap)
            raw.extend((x, None, f"intersection({b1.origin},{b2.origin})")
                       for x in fptas._bracket_points(roots))
    candidates = fptas.make_feasible(
        raw, eq, game_const, lambda x: fptas._bounds_at(eq.boundaries, x))
    feasible = [c for c in candidates if c.feasible]
    feasible.sort(key=lambda c: (-c.objective, c.x))
    return feasible


def fptas_every_band(game, root_bits=20):
    """fptas with no bound: every nonempty band of every target, each
    band's first candidate that recovers, best by (objective, -x, -star).
    Returns the best solution and the band winners as (star, band,
    objective, x, p_star)."""
    from auditgames import constraints as cx
    from auditgames import fptas
    from auditgames.errors import DegenerateDenominator, VerificationFailed
    from auditgames.fpt import SolveConfig
    cset = cx.coverage_set(game, SolveConfig().enumeration_cap)
    d = compute_deltas(game)
    best, winners = None, []
    for star in range(game.n_targets):
        cache = fptas._RootCache()
        order = fptas.sort_deltas(game, star)
        offs = [d.delta_pair[i, star] for i in order]
        for j in range(len(order) + 1):
            if j >= 1 and offs[j - 1] >= 0 and d.delta[star] >= 0:
                continue
            if 1 <= j <= len(order) - 1 and offs[j - 1] == offs[j]:
                continue
            eq = fptas.build_subproblem(game, star, j, cset, cache)
            for cand in fptas.apx_candidates(eq, root_bits,
                                             game.utilities[star][1], cache):
                try:
                    sol = fptas.recover_full_solution(game, star, eq,
                                                      cand.p_n, cand.x)
                except (VerificationFailed, DegenerateDenominator):
                    continue
                winners.append((star, j, sol.objective, sol.x, cand.p_n))
                key = (sol.objective, -sol.x, -star)
                if best is None or key > best[0]:
                    best = (key, sol)
                break
    return best[1], winners


def px_every_pair(game, step):
    """tsp with no bound: ``solve_socp_fixed`` on every (attacked target,
    grid coverage) pair, best by (objective, -p_star, -star).  Returns
    (objective, star, p, x) of the best pair and the number of pairs."""
    from auditgames.errors import Infeasible
    from auditgames.fpt import x_grid
    from auditgames.target_specific import solve_socp_fixed
    best, pairs = None, 0
    for star in range(game.n_targets):
        for p_star in x_grid(step):
            if game.unauditable[star] and p_star > 0:
                continue
            pairs += 1
            try:
                p, x, raw = solve_socp_fixed(game, star, p_star)
            except Infeasible:
                continue
            key = (game.utilities[star][1] + raw, -p_star, -star)
            if best is None or key > best[0]:
                best = (key, p, x)
    (objective, _, neg_star), p, x = best
    return (objective, -neg_star, p, x), pairs


def bound_games(count=24):
    """Seeded small games on a 1/64 utility grid for the branch-and-bound
    checks, with restrictions and, on odd seeds, per-target costs.  On
    seeds not divisible by 3 they also have a1 > 0, a lenient last target
    (ua_audited above ua_unaudited) and targets 0 and 1 tied in
    ua_unaudited."""
    for seed in range(count):
        n = 3 + seed % 4
        g = rand_game(n, 1 + seed % min(2, n - 1), density=0.25,
                      seed=1300 + seed, a_vec=seed % 2 == 1, snap_bits=6)
        rows = [list(u) for u in g.utilities]
        if seed % 3:
            rows[1][3] = rows[0][3]
            rows[1][2] = min(rows[1][2], rows[1][3])
            rows[-1][2], rows[-1][3] = rows[-1][3], rows[-1][2]
        yield validate_game(n, g.n_resources, rows, g.restrictions,
                            cost_a=0.01, cost_a1=0.125 * (seed % 3),
                            per_target_costs=g.per_target_costs,
                            lenient=True)


def lenient_game(seed):
    """A random game with ua_audited and ua_unaudited swapped on targets
    0, 3, 6, ..., so those are lenient, and a1 > 0 on odd seeds."""
    g = rand_game(4 + seed % 4, 1 + seed % 3, density=0.1 * (seed % 4),
                  seed=9000 + seed)
    rows = [list(u) for u in g.utilities]
    for row in rows[::3]:
        row[2], row[3] = row[3], row[2]
    return validate_game(g.n_targets, g.n_resources, rows, g.restrictions,
                         cost_a=0.01, cost_a1=0.125 * (seed % 2),
                         lenient=True)


def lp_pair_maximum(game, epsilon):
    """fpt with no screen and no cut: the transformed LP of every
    (attacked target, grid x) pair, best by (objective, -x, -star).
    Returns (objective, star, x)."""
    from auditgames import constraints as cx
    from auditgames.fpt import _ProgramCache, full_objective, x_grid
    from auditgames.lp import solve_lp
    cache = _ProgramCache(game, cx.coverage_set(game))
    best = None
    for star in range(game.n_targets):
        for x in x_grid(epsilon):
            out = solve_lp(cache.build(star, x, "transformed"))
            if out.status == "optimal":
                key = (full_objective(game, star, out.solution[star], x),
                       -x, -star)
                best = key if best is None else max(best, key)
    return best[0], -best[2], -best[1]


def peel_from_scratch(m):
    """Birkhoff peel of a sub-stochastic matrix that runs Hopcroft-Karp on
    the whole padded support every round, in the same 2^-45 units as
    ``alloc.bvn_decompose``: the reference for its repaired matching."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    from auditgames.alloc import ONE, PureStrategyMixture
    from auditgames.constraints import UNIT

    k, n = m.shape
    units = np.floor(np.asarray(m, dtype=float) / UNIT).astype(np.int64)
    d = np.block([[units, np.diag(ONE - units.sum(axis=1))],
                  [np.diag(ONE - units.sum(axis=0)), units.T]])
    rows = np.arange(k + n)
    collected = {}
    left = ONE
    while left:
        match = maximum_bipartite_matching(csr_array(d > 0),
                                           perm_type="column")
        assert np.all(match >= 0)
        weight = int(d[rows, match].min())
        d[rows, match] -= weight
        left -= weight
        key = tuple((r, int(c)) for r, c in enumerate(match[:k]) if c < n)
        collected[key] = collected.get(key, 0) + weight
    keys = sorted(collected)
    return PureStrategyMixture(
        weights=tuple(collected[key] * UNIT for key in keys),
        assignments=tuple(keys), shape=(k, n))
