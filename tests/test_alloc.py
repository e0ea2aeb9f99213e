import math

import numpy as np
import pytest

from auditgames import alloc
from auditgames.alloc import (
    AllocationMatrix,
    PureStrategyMixture,
    _perfect_matching,
    bvn_decompose,
    recover_allocation,
)
from auditgames.errors import Infeasible, NumericalResidual
from auditgames.fpt import SolveConfig, solve_fpt
from auditgames.model import validate_game

from helpers import (
    dense_restriction_game,
    grouped_game,
    peel_from_scratch,
    rand_game,
)

UTIL = (0.6, 0.5, 0.2, 0.3)


def random_substochastic(rng, k, n, sparsity=0.0):
    m = rng.random((k, n))
    if sparsity:
        m[rng.random(m.shape) < sparsity] = 0.0
    m /= np.maximum(1.0, m.sum(axis=1, keepdims=True) * rng.uniform(1.0, 1.4))
    m /= np.maximum(1.0, m.sum(axis=0, keepdims=True) * rng.uniform(1.0, 1.4))
    return m


def assert_pure_audit(pairs, k, n):
    # each resource audits at most one target, each target at most once
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(0 <= r < k for r in rows) and all(0 <= c < n for c in cols)


def test_recover_unique_single_resource():
    g = validate_game(2, 1, [UTIL, (0.7, 0.0, 0.8, 0.9)], cost_a=0.01)
    am = recover_allocation(g, [0.4, 0.6])
    assert np.allclose(am.entries, [[0.4, 0.6]])


def test_recover_zero_coverage():
    g = validate_game(3, 2, [UTIL] * 3, cost_a=0.01)
    am = recover_allocation(g, [0.0, 0.0, 0.0])
    assert np.all(am.entries == 0.0)


def test_recover_respects_restrictions_and_marginals():
    rng = np.random.default_rng(11)
    for seed in range(15):
        g = rand_game(4 + seed % 3, 2 + seed % 2, density=0.25, seed=seed)
        if g.n_resources >= g.n_targets:
            continue
        # sample a liftable marginal by generating a random allocation first
        m = random_substochastic(rng, g.n_resources, g.n_targets)
        for (j, i) in g.restrictions:
            m[j, i] = 0.0
        p = m.sum(axis=0)
        am = recover_allocation(g, p)
        assert np.all(am.entries >= -1e-12)
        assert np.all(am.entries.sum(axis=0) <= 1 + 1e-9)
        assert np.all(am.entries.sum(axis=1) <= 1 + 1e-9)
        assert np.allclose(am.entries.sum(axis=0), p, atol=1e-9)
        for (j, i) in g.restrictions:
            assert am.entries[j, i] == 0.0


def test_recover_infeasible_signals():
    g = validate_game(2, 1, [UTIL, UTIL], cost_a=0.01)
    with pytest.raises(Infeasible):
        recover_allocation(g, [0.9, 0.9])  # sums beyond one resource


def test_tight_lift_fills_resources_without_overshoot():
    # every resource is full (sum p = k): rows may not round above 1
    for seed in range(3):
        g = dense_restriction_game(12, 3, seed)
        p = solve_fpt(g, SolveConfig(epsilon=0.05)).p
        assert p.sum() == pytest.approx(g.n_resources, abs=1e-9)
        am = recover_allocation(g, p)
        assert np.all(am.entries.sum(axis=1) <= 1.0)
        assert np.abs(am.entries.sum(axis=0) - p).max() <= 1e-12
        mix = bvn_decompose(am)
        assert np.abs(mix.column_marginals - p).max() <= 1e-9
        # the flow's 2^-45 grid is peeled exactly
        assert np.array_equal(mix.reconstruct(), am.entries)
        assert math.fsum(mix.weights) == 1.0


def test_lift_reroutes_leftover_through_an_unused_edge():
    # the 2^-32 above 1/2 on target 1 fits only on resource 0, which the
    # coarse round fills; it reaches the allocation only by moving
    # target 0's share onto resource 1, an edge the coarse round left empty
    g = validate_game(3, 2, [UTIL] * 3, [(1, 1)], cost_a=0.01)
    p = np.array([0.5, 0.5 + 2.0 ** -32, 0.0])
    am = recover_allocation(g, p)
    assert np.array_equal(am.entries.sum(axis=0), p)
    assert np.all(am.entries.sum(axis=1) <= 1.0)
    assert am.entries[1, 1] == 0.0


def test_doubly_stochastic_two_by_two():
    mix = bvn_decompose(AllocationMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
    assert len(mix.weights) == 2
    assert sorted(mix.weights) == pytest.approx([0.5, 0.5])
    assert np.allclose(mix.reconstruct(), 0.5)


def test_identity_is_its_own_mixture():
    mix = bvn_decompose(AllocationMatrix(np.eye(3)))
    assert mix.weights == (1.0,)
    assert mix.assignments == (((0, 0), (1, 1), (2, 2)),)


def test_substochastic_example():
    m = np.array([[0.3, 0.2], [0.0, 0.4]])
    mix = bvn_decompose(AllocationMatrix(m))
    assert np.abs(mix.reconstruct() - m).max() <= 1e-9
    assert sum(mix.weights) == pytest.approx(1.0, abs=1e-9)
    assert 2 <= len(mix.weights) <= 5


def test_random_matrices_reconstruct():
    rng = np.random.default_rng(42)
    for trial in range(60):
        k = int(rng.integers(1, 11))
        n = int(rng.integers(k + 1, 21))
        m = random_substochastic(rng, k, n,
                                 sparsity=0.5 if trial % 3 == 0 else 0.0)
        mix = bvn_decompose(AllocationMatrix(m))
        assert np.abs(mix.reconstruct() - m).max() <= 1e-9
        assert sum(mix.weights) == pytest.approx(1.0, abs=1e-9)
        padded_nnz = 2 * int((m > 0).sum()) + k + n
        assert len(mix.weights) <= padded_nnz + 1
        for pairs in mix.assignments:
            assert_pure_audit(pairs, k, n)


def test_sparse_wide_matrix_decomposes():
    # past criterion 10's sizes (k <= 10, n <= 20): about 40 nonzeros a row
    rng = np.random.default_rng(2020)
    m = random_substochastic(rng, 20, 400, sparsity=0.9)
    mix = bvn_decompose(AllocationMatrix(m))
    assert np.abs(mix.reconstruct() - m).max() <= 1e-9
    padded_nnz = 2 * int((m > 0).sum()) + 20 + 400
    assert len(mix.weights) <= padded_nnz + 1
    for pairs in mix.assignments:
        assert_pure_audit(pairs, 20, 400)


def test_perfect_matching_stays_in_support():
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 30, 120):
        planted = rng.permutation(size)
        support = rng.random((size, size)) < 0.1
        support[np.arange(size), planted] = True
        match = _perfect_matching(support)
        assert sorted(match) == list(range(size))
        assert support[np.arange(size), match].all()


def test_perfect_matching_none_without_one():
    support = np.ones((5, 5), dtype=bool)
    support[3] = False
    assert _perfect_matching(support) is None


def test_decomposition_is_deterministic():
    m = random_substochastic(np.random.default_rng(9), 6, 15, sparsity=0.4)
    a = bvn_decompose(AllocationMatrix(m))
    b = bvn_decompose(AllocationMatrix(m))
    assert a.weights == b.weights
    assert a.assignments == b.assignments


def test_end_to_end_marginals():
    for seed in range(8):
        g = rand_game(5, 2, density=0.2, seed=seed)
        rng = np.random.default_rng(seed)
        m = random_substochastic(rng, 2, 5)
        for (j, i) in g.restrictions:
            m[j, i] = 0.0
        p = m.sum(axis=0)
        am = recover_allocation(g, p)
        mix = bvn_decompose(am)
        assert np.abs(mix.column_marginals - p).max() <= 1e-9


def test_overshoot_within_verification_tolerance_is_rescaled():
    # solver coverage that passed verification may sum to 1 + a few 1e-9;
    # one resource over six targets (a row) and two resources on one
    # target (a column)
    row = np.array([[0.2, 0.3, 0.1, 0.15, 0.25 + 5.5e-9, 0.0]])
    col = np.array([[0.6, 0.1, 0.3], [0.4 + 5.5e-9, 0.2, 0.0]])
    for m, rescaled in ((row, row / row.sum()),
                        (col, col / np.array([1.0 + 5.5e-9, 1.0, 1.0]))):
        mix = bvn_decompose(AllocationMatrix(m))
        assert np.abs(mix.reconstruct() - rescaled).max() <= 1e-9
        assert sum(mix.weights) == pytest.approx(1.0, abs=1e-9)
    for m in (row + np.array([0, 0, 0, 0, 2e-7, 0]),
              col + np.array([[0, 0, 0], [2e-7, 0, 0]])):
        with pytest.raises(NumericalResidual, match="not sub-stochastic"):
            bvn_decompose(AllocationMatrix(m))


def permutation_mixture(rng, k, n, count):
    # equal-weight sum of partial permutation matrices: ties everywhere
    m = np.zeros((k, n))
    for _ in range(count):
        m[np.arange(k), rng.permutation(n)[:k]] += 1.0 / count
    return m


def tied_matrices():
    yield np.full((3, 3), 1.0 / 3.0)
    rng = np.random.default_rng(17)
    for k, n, count in ((3, 3, 2), (4, 4, 4), (3, 7, 4), (6, 10, 8)):
        yield permutation_mixture(rng, k, n, count)
    # block-diagonal: two groups of 5 resources, each over its 10 targets
    block = np.array([8, 7, 6, 5, 4, 4, 3, 2, 1, 0]) / 8.0  # sums to 5
    yield recover_allocation(grouped_game(20, 10, 5, seed=3),
                             np.tile(block, 2)).entries


def test_repaired_peel_matches_the_from_scratch_peel_on_ties():
    for m in tied_matrices():
        k, n = m.shape
        mix = bvn_decompose(AllocationMatrix(m))
        oracle = peel_from_scratch(m)
        assert np.array_equal(mix.reconstruct(), oracle.reconstruct())
        assert math.fsum(mix.weights) == math.fsum(oracle.weights) == 1.0
        assert min(mix.weights) > 0.0
        padded_nnz = 2 * int((m > 0).sum()) + k + n
        assert len(mix.weights) <= padded_nnz + 1
        assert len(set(mix.assignments)) == len(mix.assignments)
        for pairs in mix.assignments:
            assert_pure_audit(pairs, k, n)
        again = bvn_decompose(AllocationMatrix(m))
        assert again.weights == mix.weights
        assert again.assignments == mix.assignments


def test_tied_matrices_zero_several_matched_entries_in_one_round(
        monkeypatch):
    # every zeroed entry frees its column before the first repair of the
    # round, so a repair that sees two free columns follows a tie
    repair = alloc._augment
    free_at_repair = []

    def spy(start, match, owner, support):
        free_at_repair.append(owner.count(-1))
        return repair(start, match, owner, support)

    monkeypatch.setattr(alloc, "_augment", spy)
    for m in tied_matrices():
        free_at_repair.clear()
        bvn_decompose(AllocationMatrix(m))
        assert max(free_at_repair) >= 2


def test_wide_sparse_matrix_of_fifty_by_twelve_hundred():
    m = random_substochastic(np.random.default_rng(0), 50, 1200, 0.96)
    mix = bvn_decompose(AllocationMatrix(m))
    assert np.abs(mix.reconstruct() - m).max() <= 1e-9
    padded_nnz = 2 * int((m > 0).sum()) + 50 + 1200
    assert len(mix.weights) <= padded_nnz + 1
    for pairs in mix.assignments:
        assert_pure_audit(pairs, 50, 1200)
