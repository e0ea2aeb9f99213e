import math
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from auditgames.constraints import (
    CoverageNetwork,
    build_intersection_graph,
    constraint_find,
    coverage_flow,
    coverage_set,
    enumerate_connected_subgraphs,
    extract_constraints_naive,
    liftable_to_grid,
    merge_targets,
    polytopes_equivalent,
    prune_implied,
    tractability_check,
)
from auditgames.errors import EnumerationCapExceeded, ResourceCapExceeded
from auditgames.lp import LinearProgram, solve_lp
from auditgames.model import audit_sets, validate_game

from helpers import (
    brute_force_connected_subsets,
    dense_restriction_game,
    explosion_game,
    grouped_game,
    in_coverage_set,
    nested_game,
    prune_by_lp,
    rand_game,
)

UTIL = (0.6, 0.5, 0.2, 0.3)


def disjoint_groups_game():
    # resource 0 audits {0,1}; resource 1 audits {2,3}
    return validate_game(4, 2, [UTIL] * 4, [(0, 2), (0, 3), (1, 0), (1, 1)],
                         cost_a=0.01)


def test_naive_no_restrictions_single_constraint():
    g = validate_game(3, 2, [UTIL] * 3, cost_a=0.01)
    cs = extract_constraints_naive(g)
    assert [(c.target_indices, c.bound) for c in cs.constraints] == \
        [((0, 1, 2), 2)]


def test_naive_explosion_counted_subfamily():
    for k in (4, 6, 8):
        cs = extract_constraints_naive(explosion_game(k))
        family = [c for c in cs.constraints
                  if c.bound == k // 2 and len(c.target_indices) == k]
        assert len(family) == comb(k - 1, k // 2)
        assert len(cs.constraints) >= comb(k - 1, k // 2)


def test_naive_disjoint_groups():
    g = disjoint_groups_game()
    cs = extract_constraints_naive(g)
    got = sorted((c.target_indices, c.bound) for c in cs.constraints)
    assert got == [((0, 1), 1), ((0, 1, 2, 3), 2), ((2, 3), 1)]
    pruned = prune_implied(cs, g)
    assert sorted((c.target_indices, c.bound) for c in pruned.constraints) == \
        [((0, 1), 1), ((2, 3), 1)]


def _prune_oracle_games():
    """Random games (some with pinned targets), the explosion family, the
    nested family and a grouped game."""
    games = []
    for seed in range(80):
        n = 2 + seed % 8
        k = 1 + seed % min(5, n - 1)
        games.append(rand_game(n, k, density=0.1 + 0.1 * (seed % 9),
                               seed=700 + seed))
    games += [explosion_game(4), explosion_game(6)]
    games += [nested_game(k) for k in range(4, 9)]
    games.append(grouped_game(20, 10, 5, seed=0))
    return games


def test_facet_prune_keeps_the_lp_prune_rows_in_order():
    games = _prune_oracle_games()
    assert sum(any(g.unauditable) for g in games) >= 10
    raw_rows = dropped = 0
    for index, g in enumerate(games):
        for raw in (constraint_find(g), extract_constraints_naive(g)):
            got = prune_implied(raw, g)
            assert got == prune_by_lp(raw), (index, raw.extraction)
            raw_rows += len(raw.constraints)
            dropped += len(raw.constraints) - len(got.constraints)
    assert dropped > 0 and dropped < raw_rows


def test_nested_family_prunes_to_one_row_per_resource():
    k = 12
    g = nested_game(k)
    assert len(constraint_find(g).constraints) == 2223
    # 1-based, row m is t_{2m-1} .. t_{2k} against resources m .. k
    assert [(c.target_indices, c.bound)
            for c in coverage_set(g).constraints] == [
        (tuple(range(2 * m - 2, 2 * k)), k - m + 1) for m in range(1, k + 1)]


def test_naive_resource_cap():
    g = validate_game(30, 25, [UTIL] * 30, cost_a=0.01)
    with pytest.raises(ResourceCapExceeded):
        extract_constraints_naive(g, resource_cap=22)


def test_merge_targets():
    g = validate_game(4, 2, [UTIL] * 4, cost_a=0.01)
    m = merge_targets(g)
    assert m.members == ((0, 1, 2, 3),)
    assert tuple(map(len, m.members)) == (4,)

    g = disjoint_groups_game()
    m = merge_targets(g)
    assert m.members == ((0, 1), (2, 3))

    m = merge_targets(explosion_game(4))
    assert m.members == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert tuple(map(len, m.members)) == (2, 2, 2, 2)


def test_intersection_graph_shapes():
    g = disjoint_groups_game()
    graph = build_intersection_graph(merge_targets(g))
    assert all(len(a) == 0 for a in graph.adjacency)  # disjoint -> edgeless

    g = validate_game(4, 2, [UTIL] * 4, [(1, 0), (1, 1)], cost_a=0.01)
    # both classes share resource 0 -> complete on two nodes
    graph = build_intersection_graph(merge_targets(g))
    assert graph.adjacency == (frozenset({1}), frozenset({0}))

    graph = build_intersection_graph(merge_targets(explosion_game(4)))
    assert sorted(graph.adjacency[0]) == [1, 2, 3]  # star center {t1,t2}
    assert all(graph.adjacency[v] == frozenset({0}) for v in (1, 2, 3))


def test_enumerate_connected_subgraphs_small():
    single = [frozenset()]
    assert list(enumerate_connected_subgraphs(single, 10)) == [frozenset({0})]
    path = [frozenset({1}), frozenset({0, 2}), frozenset({1})]
    assert len(list(enumerate_connected_subgraphs(path, 10))) == 6
    triangle = [frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})]
    assert len(list(enumerate_connected_subgraphs(triangle, 10))) == 7


def test_enumerate_cap():
    complete = [frozenset(set(range(12)) - {v}) for v in range(12)]
    with pytest.raises(EnumerationCapExceeded) as e:
        list(enumerate_connected_subgraphs(complete, 100))
    assert e.value.partial_count == 100


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(10)
    for trial in range(60):
        nv = int(rng.integers(1, 9))
        adjacency = [set() for _ in range(nv)]
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < 0.35:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        adjacency = [frozenset(a) for a in adjacency]
        got = set(enumerate_connected_subgraphs(adjacency, 10 ** 6))
        want = brute_force_connected_subsets(adjacency)
        assert got == want


def test_enumeration_yields_each_set_once():
    rng = np.random.default_rng(11)
    for trial in range(200):
        nv = int(rng.integers(1, 11))
        density = rng.random()
        adjacency = [set() for _ in range(nv)]
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < density:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        got = list(enumerate_connected_subgraphs(adjacency, 10 ** 6))
        assert len(got) == len(set(got)), f"trial {trial}"
        assert set(got) == brute_force_connected_subsets(adjacency)


def test_enumeration_memory_and_depth():
    # the dense-restriction intersection graph: complete on 32 nodes
    complete = [frozenset(set(range(32)) - {v}) for v in range(32)]
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded) as e:
            for _ in enumerate_connected_subgraphs(complete, 150_000):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.partial_count == 150_000
    assert peak < 10 * 2 ** 20
    # a long path grows one deep chain of extensions from vertex 0
    n = 3000
    path = [frozenset(u for u in (v - 1, v + 1) if 0 <= u < n)
            for v in range(n)]
    with pytest.raises(EnumerationCapExceeded) as e:
        for _ in enumerate_connected_subgraphs(path, 2 * n):
            pass
    assert e.value.partial_count == 2 * n


def test_coverage_set_matches_constraint_find():
    sides = set()
    for seed in range(50):
        n = 2 + seed % 7
        k = 1 + seed % min(4, n - 1)
        g = rand_game(n, k, density=0.1 * (seed % 6), seed=300 + seed)
        got = coverage_set(g)
        sides.add(got.extraction)
        assert polytopes_equivalent(
            got, prune_implied(constraint_find(g), g), n), f"seed {seed}"
    assert sides == {"subgraphs", "resource_subsets"}


def test_coverage_set_picks_the_smaller_side():
    g = dense_restriction_game(12, 3, seed=1)
    graph = build_intersection_graph(merge_targets(g))
    count = sum(1 for _ in enumerate_connected_subgraphs(graph))
    assert count > 2 ** 3
    # past 2^k subgraphs, the resource subsets are walked at any larger cap
    for cap in (2 ** 3 + 1, count, count + 1):
        got = coverage_set(g, cap)
        assert got.extraction == "resource_subsets"
        assert polytopes_equivalent(
            got, prune_implied(constraint_find(g), g), 12)
    # at a cap of at most 2^k only the subgraphs are walked, and they pass it
    with pytest.raises(EnumerationCapExceeded):
        coverage_set(g, 2 ** 3)
    # 2 subgraphs against 2^2 resource subsets
    sparse = disjoint_groups_game()
    assert coverage_set(sparse).extraction == "subgraphs"
    assert coverage_set(sparse, 2).extraction == "subgraphs"


def test_constraint_find_equals_naive_polytope():
    g = validate_game(3, 2, [UTIL] * 3, cost_a=0.01)
    cf = constraint_find(g)
    assert [(c.target_indices, c.bound) for c in cf.constraints] == \
        [((0, 1, 2), 2)]

    g = disjoint_groups_game()
    cf = constraint_find(g)
    assert sorted((c.target_indices, c.bound) for c in cf.constraints) == \
        [((0, 1), 1), ((2, 3), 1)]

    ex = explosion_game(4)
    assert polytopes_equivalent(
        extract_constraints_naive(ex), constraint_find(ex), ex.n_targets)


def test_equivalence_on_random_instances():
    for seed in range(25):
        n = 3 + seed % 6
        k = 1 + seed % min(4, n - 1)
        g = rand_game(n, k, density=0.1 * (seed % 9 + 1), seed=seed)
        a = extract_constraints_naive(g)
        b = constraint_find(g)
        assert polytopes_equivalent(a, b, g.n_targets), f"seed {seed}"


def test_projection_matches_grid_liftability():
    rng = np.random.default_rng(3)
    for seed in range(12):
        n = 3 + seed % 4
        k = 1 + seed % min(3, n - 1)
        g = rand_game(n, k, density=0.2 * (seed % 4), seed=100 + seed)
        cset = extract_constraints_naive(g)
        for _ in range(40):
            p = rng.random(g.n_targets)
            assert in_coverage_set(cset, p, 1e-7) == liftable_to_grid(g, p), \
                f"seed {seed} p {p}"
            # the shortfall is the worst Hall violation: it bounds each
            # C row and each pinned target's coverage
            _, shortfall = coverage_flow(g, p)
            worst = max([p[list(c.target_indices)].sum() - c.bound
                         for c in cset.constraints]
                        + [p[i] for i in cset.pinned], default=0.0)
            assert shortfall >= worst - 1e-12, f"seed {seed} p {p}"


def test_coverage_network_cut_is_the_worst_hall_violation():
    # against brute force over every target set S: the flow misses
    # max_S p(S) - |N(S)|, floored at 0, and its cut attains that; every
    # amount in the network is a multiple of the 2^-45 grid
    rng = np.random.default_rng(8)
    unit = 2.0 ** -45
    cuts = 0
    for seed in range(30):
        n = 3 + seed % 4
        g = rand_game(n, 1 + seed % min(3, n - 1), density=0.3,
                      seed=300 + seed)
        p = rng.random(n) * rng.uniform(0.3, 1.0)
        fmap = audit_sets(g)

        def violation(targets):
            reach = set().union(*(fmap[i] for i in targets))
            return p[sorted(targets)].sum() - len(reach)

        worst = max(0.0, *(violation(s) for size in range(1, n + 1)
                           for s in combinations(range(n), size)))
        net = CoverageNetwork(g)
        cut = net.route(dict(enumerate(p.tolist())))
        tol = n * unit
        assert p.sum() - sum(net.routed) == pytest.approx(worst, abs=tol)
        assert coverage_flow(g, p)[1] == pytest.approx(worst, abs=tol)
        amounts = ([v for held in net.on for v in held.values()]
                   + net.load + net.routed)
        assert all((v / unit).is_integer() for v in amounts)
        assert all(load <= 1.0 for load in net.load)
        if not worst:
            assert not cut
            continue
        cuts += 1
        assert violation(cut) == pytest.approx(worst, abs=tol)
    assert cuts >= 5


def test_coverage_flow_shortfall_is_exact_far_from_the_polytope():
    # groups of 10 resources audit disjoint blocks of 20 targets, so the
    # worst Hall violation is the sum over blocks of p(block) - 10 where
    # positive, however much p overfills them
    g = grouped_game(80, 40, 10)
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = rng.random(80)
        worst = sum(max(0.0, p[b:b + 20].sum() - 10.0)
                    for b in range(0, 80, 20))
        assert coverage_flow(g, p)[1] == pytest.approx(
            worst, abs=80 * 2.0 ** -45)


def test_coverage_network_keeps_earlier_targets_routed():
    # resource 0 audits targets 0 and 1 only; target 0 routed first keeps
    # its unit, so target 1 is cut off, and a copy leaves the original
    g = validate_game(3, 2, [UTIL] * 3, [(1, 0), (1, 1)], cost_a=0.01)
    net = CoverageNetwork(g)
    assert not net.route({0: 1.0})
    later = net.copy()
    assert later.route({1: 0.5, 2: 1.0}) == {0, 1}
    assert later.routed == [1.0, 0.0, 1.0]
    assert net.routed == [1.0, 0.0, 0.0]
    later.drop([0])
    assert not later.route({1: 0.5})
    assert later.routed == [0.0, 0.5, 1.0]


def test_extreme_points_are_binary():
    rng = np.random.default_rng(17)
    for seed in range(8):
        g = rand_game(4 + seed % 3, 2, density=0.25, seed=40 + seed)
        cset = constraint_find(g)
        rows = cset.lp_rows()
        for _ in range(20):
            c = rng.normal(size=g.n_targets)
            out = solve_lp(LinearProgram(c, rows, [(0.0, 1.0)] * g.n_targets))
            assert out.status == "optimal" and out.is_vertex
            frac = np.minimum(np.abs(out.solution),
                              np.abs(out.solution - 1.0))
            assert float(frac.max()) <= 1e-9


def test_tractability_report():
    edgeless = build_intersection_graph(merge_targets(disjoint_groups_game()))
    rep = tractability_check(edgeless)
    assert rep.max_degree == 0 and rep.high_degree_nodes == 0
    assert rep.condition_bounded_degree

    # a 20-node path: target block j uses resources {j, j+1}, so
    # consecutive blocks share one resource and nothing else
    n, k = 40, 20
    restrictions = []
    for i in range(n):
        block = i // 2
        allowed = {block, block + 1} & set(range(k))
        restrictions.extend((j, i) for j in range(k) if j not in allowed)
    g = validate_game(n, k, [UTIL] * n, restrictions, cost_a=0.01)
    graph = build_intersection_graph(merge_targets(g))
    rep = tractability_check(graph)
    assert rep.max_degree == 2 and rep.high_degree_nodes == 0
    assert rep.condition_bounded_degree

    complete = [frozenset(set(range(30)) - {v}) for v in range(30)]

    class FakeMerged:
        n_targets = 30
    class FakeGraph:
        adjacency = tuple(complete)
        merged = FakeMerged()
        n_nodes = 30
        def degree(self, v):
            return len(self.adjacency[v])

    rep = tractability_check(FakeGraph())
    assert not rep.condition_small_graph
    assert not rep.condition_bounded_degree


def test_vacuous_constraints_dropped():
    # one resource, one auditable target: |P| = 1 is never > bound = 1
    g = validate_game(2, 1, [UTIL] * 2, [(0, 1)], cost_a=0.01)
    cf = constraint_find(g)
    assert cf.constraints == ()
    assert cf.pinned == (1,)
