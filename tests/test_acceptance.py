"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The benchmark
criterion (06) solves a 200-target instance in both formulations and
dominates the suite's runtime; everything else finishes in a few minutes.
"""

import functools
import math
import time
from math import comb

import numpy as np
import pytest

from auditgames import constraints as cx
from auditgames.alloc import AllocationMatrix, bvn_decompose, recover_allocation
from auditgames.cli import (
    BenchConfig,
    bench,
    counterexample_curve,
    generate_instance,
)
from auditgames.errors import Infeasible
from auditgames.fpt import SolveConfig, solve_fpt
from auditgames.fptas import solve_fptas
from auditgames.lp import LinearProgram, solve_lp
from auditgames.model import validate_game
from auditgames.poly import isolate_roots, sturm_sequence, count_roots, poly_mul, Polynomial
from auditgames.target_specific import hyperbolic_to_soc, solve_px

from helpers import (
    brute_force_connected_subsets,
    explosion_game,
    in_coverage_set,
    rand_game,
    single_resource_grid_oracle,
)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:02d}] FAIL  {title}"
                      f"  ({time.perf_counter() - start:.1f}s)")
                raise
            print(f"\n[criterion {number:02d}] PASS  {title}"
                  f"  ({time.perf_counter() - start:.1f}s)")
        return inner
    return wrap


def seeded_instance(seed, n_max, k_max, density_choices):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, min(k_max, n - 1) + 1))
    density = float(rng.choice(density_choices))
    return rand_game(n, k, density=density, seed=seed)


@criterion(1, "coverage-polytope membership == grid liftability")
def test_criterion_01_polytope_equivalence():
    start = time.perf_counter()
    disagreements = 0
    for seed in range(50):
        g = seeded_instance(seed, 6, 3, np.arange(0.1, 0.95, 0.1))
        cset = cx.extract_constraints_naive(g)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(200):
            p = rng.random(g.n_targets)
            if (in_coverage_set(cset, p, 1e-7)
                    != cx.liftable_to_grid(g, p, 1e-7)):
                disagreements += 1
    assert disagreements == 0
    assert time.perf_counter() - start < 120.0


@criterion(2, "target-side extraction defines the naive polytope")
def test_criterion_02_algorithm_equivalence():
    start = time.perf_counter()
    for seed in range(50):
        g = seeded_instance(seed, 8, 4, np.arange(0.1, 0.95, 0.1))
        naive = cx.extract_constraints_naive(g)
        merged = cx.constraint_find(g)
        assert cx.polytopes_equivalent(naive, merged, g.n_targets), seed
    assert time.perf_counter() - start < 120.0


@criterion(3, "constraint-count law on the explosion family")
def test_criterion_03_constraint_count():
    for k, expected in ((4, 3), (6, 10), (8, 35)):
        assert expected == comb(k - 1, k // 2)
        cset = cx.extract_constraints_naive(explosion_game(k))
        assert len(cset.constraints) >= expected
        family = [c for c in cset.constraints
                  if c.bound == k // 2 and len(c.target_indices) == k]
        assert len(family) == expected


@criterion(4, "all vertex optima over the coverage polytope are 0/1")
def test_criterion_04_binary_extreme_points():
    rng = np.random.default_rng(4)
    for seed in range(20):
        g = seeded_instance(300 + seed, 7, 4, [0.0, 0.2, 0.4])
        cset = cx.constraint_find(g)
        rows = cset.lp_rows()
        for _ in range(100):
            c = rng.normal(size=g.n_targets)
            out = solve_lp(LinearProgram(c, rows, [(0.0, 1.0)] * g.n_targets))
            assert out.status == "optimal" and out.is_vertex
            frac = np.minimum(np.abs(out.solution), np.abs(out.solution - 1))
            assert float(frac.max()) <= 1e-9


BENCH_REPORT = {}


@criterion(5, "grid and transformed objectives agree per (x, target)")
def test_criterion_05_formulation_agreement():
    # checked over every benchmarked pair, both at a small config here and
    # on the full benchmark run of criterion 6
    rep = bench(BenchConfig(20, 10, 5, epsilon=0.1, seed=11, repetitions=1))
    assert rep["objective_max_diff"] <= 1e-6
    assert rep["feasibility_mismatches"] == 0
    BENCH_REPORT["small"] = rep


@criterion(6, "transformed formulation reproduces the reported speedup")
def test_criterion_06_speedup():
    start = time.perf_counter()
    rep = bench(BenchConfig(200, 100, 10, epsilon=0.05, seed=0,
                            repetitions=1))
    wall = time.perf_counter() - start
    BENCH_REPORT["table1"] = rep
    t_grid = rep["timing"]["grid"]["mean"]
    t_trans = rep["timing"]["transformed"]["mean"]
    print(f"\n    grid {t_grid:.1f}s vs transformed {t_trans:.1f}s "
          f"(ratio {t_grid / t_trans:.1f}x, wall {wall:.0f}s)")
    # per-pair agreement on the full run as well (criterion 5's invariant)
    assert rep["objective_max_diff"] <= 1e-6
    assert rep["feasibility_mismatches"] == 0
    assert t_trans <= 0.75 * t_grid
    assert t_grid / t_trans > 1.0
    assert wall < 1800.0


@criterion(7, "approximation scheme matches a fine punishment grid")
def test_criterion_07_fptas_vs_fpt():
    for seed in range(30):
        g = seeded_instance(700 + seed, 6, 3, [0.0, 0.2, 0.4])
        ftas = solve_fptas(g, SolveConfig(root_bits=20))
        fine = solve_fpt(g, SolveConfig(epsilon=0.0005))
        coarse = solve_fpt(g, SolveConfig(epsilon=0.005))
        assert abs(ftas.objective - fine.objective) <= 1e-2, seed
        assert ftas.objective >= coarse.objective - 1e-3, seed


@criterion(8, "single-resource instances match a dense 2-D grid search")
def test_criterion_08_grid_oracle():
    for seed in range(10):
        n = 3 + seed % 4
        g = rand_game(n, 1, density=0.0, seed=800 + seed)
        oracle = single_resource_grid_oracle(g, step=1e-3)
        ftas = solve_fptas(g, SolveConfig(root_bits=20))
        assert abs(ftas.objective - oracle) <= 5e-3, seed


@criterion(9, "published instance shows multiple punishment-curve peaks")
def test_criterion_09_counterexample_peaks():
    points, peaks, _ = counterexample_curve(step=0.005)
    fine_points, fine_peaks, _ = counterexample_curve(step=0.0025)
    # peak locations must be stable under step halving
    for peak, fine in zip(peaks, fine_peaks):
        assert abs(peak["x"] - fine["x"]) <= 0.005
    # the published figure shows at least two strict local maxima; see the
    # decisions ledger: the published table cannot reproduce its own figure
    # (the curve is provably monotone under the stated model), so this
    # assertion is expected to fail until the discrepancy is resolved
    assert len(peaks) >= 2, (
        f"found {len(peaks)} strict local maxima; the curve from the "
        "published table is monotone decreasing (see decisions ledger)")


@criterion(10, "pure-strategy decomposition suite")
def test_criterion_10_bvn():
    rng = np.random.default_rng(10)
    for trial in range(200):
        k = int(rng.integers(1, 11))
        n = int(rng.integers(k + 1, 21))
        m = rng.random((k, n))
        if trial % 3 == 0:
            m[rng.random(m.shape) < 0.5] = 0.0
        m /= np.maximum(1.0, m.sum(axis=1, keepdims=True)
                        * rng.uniform(1.0, 1.5))
        m /= np.maximum(1.0, m.sum(axis=0, keepdims=True)
                        * rng.uniform(1.0, 1.5))
        mix = bvn_decompose(AllocationMatrix(m))
        assert np.abs(mix.reconstruct() - m).max() <= 1e-9
        assert abs(sum(mix.weights) - 1.0) <= 1e-9
        # each extraction zeroes an entry of the padded doubly stochastic
        # working matrix, so its nonzero count bounds the component count
        padded_nnz = 2 * int((m > 0).sum()) + k + n
        assert len(mix.weights) <= padded_nnz + 1
    # end-to-end: solver coverage -> allocation -> mixture marginals
    g = rand_game(6, 2, density=0.2, seed=1006)
    sol = solve_fpt(g, SolveConfig(epsilon=0.1))
    alloc = recover_allocation(g, sol.p)
    mix = bvn_decompose(alloc)
    assert np.abs(mix.column_marginals - sol.p).max() <= 1e-9


@criterion(11, "per-target punishment suite")
def test_criterion_11_target_specific():
    from test_target_specific import grid_oracle_px

    # zero punishment on the attacked target, always
    for seed in range(10):
        g = rand_game(2 + seed % 2, 1, density=0.0, seed=1100 + seed,
                      a_vec=True)
        sol = solve_px(g, SolveConfig(epsilon=0.05))
        assert sol.x[sol.star] == 0.0
    # barrier output against a dense grid oracle on tiny instances
    for seed in range(10):
        g = rand_game(2, 1, density=0.0, seed=1150 + seed, a_vec=True)
        sol = solve_px(g, SolveConfig(epsilon=0.01))
        oracle = grid_oracle_px(g, step=1e-3)
        assert abs(sol.objective - oracle) <= 5e-3, seed
    # cone form equivalence, zero misclassifications beyond the knife edge
    rng = np.random.default_rng(11)
    for _ in range(10000):
        kappa = rng.uniform(1e-3, 1.0)
        shift = rng.uniform(0.0, 1.0)
        p, x = rng.uniform(0.0, 1.0, 2)
        if abs(kappa - p * (x + shift)) <= 1e-10:
            continue
        soc = hyperbolic_to_soc(kappa, shift)
        assert soc.holds(p, x) == (kappa <= p * (x + shift))


@criterion(12, "root isolation recovers planted roots at both precisions")
def test_criterion_12_root_isolation():
    rng = np.random.default_rng(12)
    done = 0
    while done < 100:
        deg = int(rng.integers(2, 13))
        n_in = int(rng.integers(1, min(deg, 6) + 1))
        planted = np.sort(rng.uniform(0.02, 0.98, n_in))
        if any(b - a < 1e-3 for a, b in zip(planted, planted[1:])):
            continue
        outside = rng.uniform(1.05, 3.0, deg - n_in)
        poly = Polynomial.from_coeffs((1.0,))
        for r in list(planted) + list(outside):
            poly = poly_mul(poly, Polynomial.from_coeffs((-r, 1.0)))
        chain = sturm_sequence(poly)
        assert count_roots(chain, 0.0, 1.0) == n_in
        for l in (20, 30):
            roots = isolate_roots(poly, (0.0, 1.0), l)
            assert len(roots) == n_in
            for want, got in zip(planted, roots):
                assert abs(got.value - want) <= 2.0 ** -l + 1e-12
        done += 1


@criterion(13, "connected-subgraph counts match brute force and the bound")
def test_criterion_13_subgraph_enumeration():
    rng = np.random.default_rng(13)
    for trial in range(100):
        nv = int(rng.integers(1, 16))
        adjacency = [set() for _ in range(nv)]
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < rng.uniform(0.05, 0.5):
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        adjacency = [frozenset(a) for a in adjacency]
        got = set(cx.enumerate_connected_subgraphs(adjacency, 10 ** 6))
        assert got == brute_force_connected_subsets(adjacency)

    # bounded-degree graphs: measured count never exceeds the bound
    def path(nv):
        return [frozenset(x for x in (v - 1, v + 1) if 0 <= x < nv)
                for v in range(nv)]

    def cycle(nv):
        return [frozenset({(v - 1) % nv, (v + 1) % nv}) for v in range(nv)]

    def star_plus_path(nv):
        adj = [set() for _ in range(nv)]
        for v in (1, 2, 3):
            adj[0].add(v)
            adj[v].add(0)
        for v in range(3, nv - 1):
            adj[v].add(v + 1)
            adj[v + 1].add(v)
        return [frozenset(a) for a in adj]

    for make in (path, cycle, star_plus_path):
        for nv in (5, 10, 15):
            adjacency = make(nv)
            degrees = [len(a) for a in adjacency]
            d = max(degrees)
            t = sum(1 for deg in degrees if deg >= 3)
            if d > 3 or t > 2:
                continue
            count = sum(1 for _ in cx.enumerate_connected_subgraphs(
                adjacency, 10 ** 6))
            log2_bound = (2.0 * (d + 1)) ** (t + 1) \
                + ((d + 1) ** (t + 1)) * math.log2(max(nv, 2))
            assert math.log2(max(count, 1)) <= log2_bound
