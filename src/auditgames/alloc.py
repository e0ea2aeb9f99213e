"""Lifting coverage marginals to allocations and mixing into pure audits.

``recover_allocation`` turns a coverage vector into a resource-by-target
probability matrix: the exact max flow of ``constraints.coverage_flow``,
whose entries are multiples of 2^-45 with row sums at most 1, accepted
when the coverage it misses is at most the LP module's 1e-9 tolerance.
The decomposition then writes that (doubly sub-stochastic) matrix as a convex
combination of 0/1 assignment matrices: the matrix is padded to a square
doubly stochastic one with slack blocks, perfect matchings (scipy's
Hopcroft-Karp) are peeled off one at a time, each zeroing its smallest
matched entry, and the slack part of each matching is stripped away.
A row or column that overshoots 1 by no more than the solvers'
verification tolerance is scaled back to 1 first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import coverage_flow
from .errors import Infeasible, NumericalResidual
from .fpt import VERIFY_TOL
from .lp import FEAS_TOL
from .model import AuditGame

RESIDUAL_TOL = 1e-9
WEIGHT_FLOOR = 1e-12   # weights below this are absorbed, not emitted
ENTRY_FLOOR = 1e-14    # matrix entries below this count as zero


@dataclass(frozen=True)
class AllocationMatrix:
    """k x n matrix; entry (j, i) is the probability resource j audits i."""

    entries: np.ndarray


@dataclass(frozen=True)
class PureStrategyMixture:
    """Weighted 0/1 assignments reconstructing an allocation matrix."""

    weights: tuple
    assignments: tuple  # of k x n 0/1 ndarrays

    def reconstruct(self) -> np.ndarray:
        total = np.zeros_like(self.assignments[0], dtype=float)
        for w, mat in zip(self.weights, self.assignments):
            total += w * mat
        return total

    @property
    def column_marginals(self) -> np.ndarray:
        return self.reconstruct().sum(axis=0)


def recover_allocation(game: AuditGame, p) -> AllocationMatrix:
    """Feasible allocation with column sums p; raises Infeasible outside
    the lifted polytope (a bug sentinel when p came from a solver)."""
    entries, shortfall = coverage_flow(game, p)
    if shortfall > FEAS_TOL:
        raise Infeasible("coverage vector is not liftable to an allocation: "
                         f"{shortfall:.1e} of it has no resource")
    return AllocationMatrix(entries=entries)


def _pad_doubly_stochastic(m: np.ndarray) -> np.ndarray:
    """Embed a k x n sub-stochastic matrix into a (k+n) square doubly
    stochastic one: [[M, diag(row slack)], [diag(col slack), M.T]]."""
    k, n = m.shape
    row_slack = 1.0 - m.sum(axis=1)
    col_slack = 1.0 - m.sum(axis=0)
    top = np.hstack([m, np.diag(row_slack)])
    bottom = np.hstack([np.diag(col_slack), m.T])
    return np.vstack([top, bottom])


def _perfect_matching(support: np.ndarray):
    """Perfect matching on a square boolean support by Hopcroft-Karp.

    Returns an array match_col[row] or None when no perfect matching exists.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match_col = maximum_bipartite_matching(csr_array(support),
                                           perm_type="column")
    return None if np.any(match_col < 0) else match_col


def bvn_decompose(alloc: AllocationMatrix) -> PureStrategyMixture:
    """Deterministic Birkhoff-style peeling of the padded matrix.

    Each round takes a perfect matching of the support and peels it off
    with the weight of its smallest matched entry, so that entry is zeroed
    and the component count stays below the padded nonzero count plus one.
    Identical stripped assignments are merged.
    """
    m = np.asarray(alloc.entries, dtype=float)
    if np.any(m < -RESIDUAL_TOL):
        raise NumericalResidual("allocation matrix has negative entries")
    k, n = m.shape
    overshoot = max(m.sum(axis=1).max(), m.sum(axis=0).max()) - 1.0
    if overshoot > VERIFY_TOL:
        raise NumericalResidual(
            f"allocation matrix is not sub-stochastic: a line sums to "
            f"1 + {overshoot:.1e}")
    # coverage the solvers' verification accepts may overshoot 1 by up to
    # VERIFY_TOL; scale such lines back to 1 and decompose that matrix
    m = np.clip(m, 0.0, 1.0)
    m = m / np.maximum(m.sum(axis=1, keepdims=True), 1.0)
    m = m / np.maximum(m.sum(axis=0, keepdims=True), 1.0)

    d = _pad_doubly_stochastic(m)
    size = k + n
    collected = {}
    remaining = 1.0
    for _ in range(size * size + 1):
        if remaining <= RESIDUAL_TOL:
            break
        support = d > ENTRY_FLOOR
        if not support.any():
            break
        match = _perfect_matching(support)
        if match is None:
            raise NumericalResidual("no perfect matching on padded support")
        rows = np.arange(size)
        smallest = int(np.argmin(d[rows, match]))
        weight = min(float(d[smallest, match[smallest]]), remaining)
        if weight <= WEIGHT_FLOOR:
            # absorb a vanishing weight by zeroing its smallest entry
            d[smallest, match[smallest]] = 0.0
            continue
        d[rows, match] -= weight
        d[d < ENTRY_FLOOR] = 0.0
        remaining -= weight
        # strip slack-touching edges: keep only the real k x n block
        key = tuple(
            (r, match[r]) for r in range(k) if match[r] < n
        )
        collected[key] = collected.get(key, 0.0) + weight
    if remaining > RESIDUAL_TOL:
        raise NumericalResidual(
            f"decomposition left residual mass {remaining:.2e}")
    if remaining > 0:
        collected[()] = collected.get((), 0.0) + remaining

    weights = []
    assignments = []
    for key in sorted(collected):
        mat = np.zeros((k, n))
        for r, c in key:
            mat[r, c] = 1.0
        weights.append(collected[key])
        assignments.append(mat)
    mixture = PureStrategyMixture(weights=tuple(weights),
                                  assignments=tuple(assignments))
    err = float(np.abs(mixture.reconstruct() - m).max())
    if err > RESIDUAL_TOL:
        raise NumericalResidual(f"reconstruction error {err:.2e}")
    return mixture
