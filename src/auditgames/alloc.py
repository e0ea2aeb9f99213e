"""Lifting coverage marginals to allocations and mixing into pure audits.

``recover_allocation`` turns a coverage vector into a resource-by-target
probability matrix: the exact max flow of ``constraints.coverage_flow``,
whose entries are multiples of 2^-45 with row sums at most 1, accepted
when the coverage it misses is at most the LP module's 1e-9 tolerance.
The decomposition then writes that (doubly sub-stochastic) matrix as a convex
combination of pure audits, each a tuple of (resource, target) pairs.  It
counts in integer units of ``constraints.UNIT`` = 2^-45: the matrix is
floored to units (a no-op on flow output) and padded with its exact line
slacks to a square matrix whose lines all sum to 2^45.  One perfect
matching (scipy's Hopcroft-Karp) is taken up front; each round peels it
off with its smallest matched entry, which it zeroes, strips the slack
part, and repairs the matching by one augmenting path per zeroed entry.
The weights are whole multiples of 2^-45 that sum to exactly 1.  A row or
column that overshoots 1 by no more than the solvers' verification
tolerance is scaled back to 1 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .constraints import UNIT, coverage_flow
from .errors import Infeasible, NumericalResidual
from .fpt import VERIFY_TOL
from .lp import FEAS_TOL
from .model import AuditGame

RESIDUAL_TOL = 1e-9
ONE = 2 ** 45  # probability 1 in units of UNIT


@dataclass(frozen=True)
class AllocationMatrix:
    """k x n matrix; entry (j, i) is the probability resource j audits i."""

    entries: np.ndarray


@dataclass(frozen=True)
class PureStrategyMixture:
    """Weighted pure audits reconstructing a k x n allocation matrix; each
    audit is a tuple of (resource, target) pairs, at most one per line."""

    weights: tuple
    assignments: tuple
    shape: tuple

    def reconstruct(self) -> np.ndarray:
        # exact in any order: every partial sum is a multiple of 2^-45
        # in [0, 1]
        sizes = [len(pairs) for pairs in self.assignments]
        idx = np.fromiter(chain.from_iterable(chain.from_iterable(
            self.assignments)), dtype=np.intp).reshape(-1, 2)
        total = np.zeros(self.shape)
        np.add.at(total, (idx[:, 0], idx[:, 1]),
                  np.repeat(self.weights, sizes))
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


def _perfect_matching(support: np.ndarray):
    """Perfect matching on a square boolean support by Hopcroft-Karp.

    Returns an array match_col[row] or None when no perfect matching exists.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match_col = maximum_bipartite_matching(csr_array(support),
                                           perm_type="column")
    return None if np.any(match_col < 0) else match_col


def _augment(start: int, match: np.ndarray, owner: list,
             support: list) -> None:
    """Re-match the free row ``start`` along one shortest augmenting path
    of the live support, found by breadth-first search."""
    via = {}  # column -> the row that reached it
    frontier = [start]
    for r in frontier:
        for c in support[r]:
            if c in via:
                continue
            via[c] = r
            if owner[c] < 0:
                while True:  # flip the path back to start
                    row = via[c]
                    prev = int(match[row])
                    match[row] = c
                    owner[c] = row
                    if row == start:
                        return
                    c = prev
            frontier.append(owner[c])
    raise NumericalResidual("no perfect matching on padded support")


def bvn_decompose(alloc: AllocationMatrix) -> PureStrategyMixture:
    """Deterministic Birkhoff-style peeling of the padded matrix in units.

    Hopcroft-Karp gives the first perfect matching of the support.  Each
    round peels the matching off with its smallest matched entry, so that
    entry is zeroed and the component count stays below the padded
    nonzero count plus one.  Every row whose matched entry hit zero loses
    that edge and is re-matched by one augmenting path over the live
    support.  What is left is a positive multiple of a doubly stochastic
    matrix, so it has a perfect matching M*, and the free row's component
    of M xor M* is such a path.  Identical stripped assignments are merged.
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

    units = np.floor(m / UNIT).astype(np.int64)
    d = np.block([[units, np.diag(ONE - units.sum(axis=1))],
                  [np.diag(ONE - units.sum(axis=0)), units.T]])
    match = _perfect_matching(d > 0)
    if match is None:
        raise NumericalResidual("no perfect matching on padded support")
    rows = np.arange(k + n)
    support = [[] for _ in rows]  # live columns of each row, ascending
    for r, c in zip(*(idx.tolist() for idx in np.nonzero(d))):
        support[r].append(c)
    owner = np.argsort(match).tolist()  # column -> matched row
    collected = {}
    left = ONE  # every line of d sums to this
    while True:
        vals = d[rows, match]
        weight = int(vals.min())
        d[rows, match] = vals - weight
        left -= weight
        # strip slack-touching edges: keep only the real k x n block
        real = match[:k] < n
        key = tuple(zip(rows[:k][real].tolist(), match[:k][real].tolist()))
        collected[key] = collected.get(key, 0) + weight
        if not left:
            break
        zeroed = np.flatnonzero(vals == weight).tolist()
        for r in zeroed:
            c = int(match[r])
            support[r].remove(c)
            owner[c] = -1
        for r in zeroed:
            _augment(r, match, owner, support)

    keys = sorted(collected)
    mixture = PureStrategyMixture(
        weights=tuple(collected[key] * UNIT for key in keys),
        assignments=tuple(keys), shape=(k, n))
    err = float(np.abs(mixture.reconstruct() - m).max())
    if err > RESIDUAL_TOL:
        raise NumericalResidual(f"reconstruction error {err:.2e}")
    return mixture
