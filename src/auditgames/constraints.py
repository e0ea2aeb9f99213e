"""Coverage-constraint extraction.

Replaces the per-resource allocation variables by linear constraints on
the coverage probabilities alone: for a resource subset L, the targets
auditable only inside L can take at most |L| units of total coverage.
Two extractors are provided — the naive enumeration over all resource
subsets, and the target-side algorithm that merges equal-audit-set
targets, builds their intersection graph, and walks its connected
induced subgraphs.  Both define the same polytope; the equivalence
oracle below checks that via pairwise LP implication.  fpt and fptas
take C from :func:`coverage_set`, which runs the target-side algorithm
while it enumerates no more than the 2^k resource subsets would, and the
resource-side enumeration otherwise, and keeps the rows that are facets
of the coverage polytope, read off one max flow per row (Edmonds,
"Submodular functions, matroids and certain polyhedra", 1970; Krogdahl,
Discrete Math. 1977).

Each row of C is a Hall inequality of the audit graph, so one max flow
decides whether p lifts to an allocation, builds that allocation and
measures p's worst violation of any row of C (max-flow/min-cut).
:class:`CoverageNetwork` is that flow, the package's only one: its
capacities are floored to multiples of 2^-45, which floats add and
subtract exactly in [0, 1], so it is exact and needs no tolerance.
:func:`coverage_flow` routes p on a fresh network, the one membership
test of the package; the tsp subproblems keep networks, route many
nearby coverage vectors on copies and read min cuts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import EnumerationCapExceeded, ResourceCapExceeded
from .lp import FEAS_TOL, IMPLIES_TOL, implies
from .model import AuditGame, audit_sets

NAIVE_RESOURCE_CAP = 22
DEFAULT_SUBGRAPH_CAP = 10 ** 6


@dataclass(frozen=True, order=True)
class CoverageConstraint:
    """sum of p over ``target_indices``  <=  ``bound`` resources."""

    target_indices: tuple  # sorted target indices
    bound: int

    def coeff_row(self, n: int) -> np.ndarray:
        row = np.zeros(n)
        row[list(self.target_indices)] = 1.0
        return row


@dataclass(frozen=True)
class ConstraintSet:
    """The set C plus the implied unit box; pinned targets have p = 0."""

    n_targets: int
    constraints: tuple
    pinned: tuple = ()  # unauditable targets
    # the side it was extracted from: "subgraphs" or "resource_subsets"
    extraction: str | None = None

    def lp_rows(self) -> list:
        pinned = tuple(CoverageConstraint((i,), 0) for i in self.pinned)
        return [(c.coeff_row(self.n_targets), "<=", float(c.bound))
                for c in (*self.constraints, *pinned)]


@dataclass(frozen=True)
class MergedTargets:
    """Auditable targets grouped by identical audit sets."""

    audit_signatures: tuple  # per class: frozenset of resources
    members: tuple           # per class: tuple of target indices
    n_targets: int


@dataclass(frozen=True)
class IntersectionGraph:
    """One node per merged class; edges where audit sets intersect."""

    merged: MergedTargets
    adjacency: tuple  # per node: frozenset of neighbour indices

    @property
    def n_nodes(self) -> int:
        return len(self.adjacency)


def extract_constraints_naive(
    game: AuditGame,
    resource_cap: int = NAIVE_RESOURCE_CAP,
) -> ConstraintSet:
    """All constraints c_{M,L} over the 2^k resource subsets, deduplicated."""
    k = game.n_resources
    if k > resource_cap:
        raise ResourceCapExceeded(
            f"naive extraction over 2^{k} subsets exceeds cap 2^{resource_cap}")
    masks = [sum(1 << j for j in auditors) for auditors in game.auditors]
    rows = set()
    for lmask in range(1 << k):
        m_targets = [
            i for i in range(game.n_targets)
            if masks[i] and masks[i] & ~lmask == 0
        ]
        size_l = bin(lmask).count("1")
        if size_l < len(m_targets):
            rows.add(CoverageConstraint(tuple(m_targets), size_l))
    return ConstraintSet(
        n_targets=game.n_targets,
        constraints=tuple(sorted(rows)),
        pinned=tuple(i for i in range(game.n_targets) if game.unauditable[i]),
        extraction="resource_subsets",
    )


def merge_targets(game: AuditGame) -> MergedTargets:
    """Group auditable targets by audit-set signature (class order follows
    the smallest member index)."""
    by_signature = {}
    for i, auditors in enumerate(game.auditors):
        if auditors:
            by_signature.setdefault(auditors, []).append(i)
    classes = sorted(by_signature.items(), key=lambda kv: kv[1][0])
    return MergedTargets(
        audit_signatures=tuple(frozenset(sig) for sig, _ in classes),
        members=tuple(tuple(m) for _, m in classes),
        n_targets=game.n_targets,
    )


def build_intersection_graph(merged: MergedTargets) -> IntersectionGraph:
    n = len(merged.audit_signatures)
    adjacency = []
    for u in range(n):
        adjacency.append(frozenset(
            v for v in range(n)
            if v != u and merged.audit_signatures[u] & merged.audit_signatures[v]
        ))
    return IntersectionGraph(merged=merged, adjacency=tuple(adjacency))


def enumerate_connected_subgraphs(graph, cap: int = DEFAULT_SUBGRAPH_CAP):
    """Yield every nonempty connected vertex subset exactly once.

    ESU extension-set walk (Wernicke, TCBB 2006): a subset is grown only
    from its smallest vertex, and only by vertices in its extension set:
    the candidates its parent left untried, plus the larger-indexed
    neighbours of the new vertex that are not already adjacent to the
    subset.  Each set is reached by exactly one path, so nothing visited
    is remembered; an explicit stack holds one frame per vertex of the
    current subset.  ``graph`` may be an :class:`IntersectionGraph` or a
    plain adjacency sequence.  Raises :class:`EnumerationCapExceeded`
    when the yield count would pass ``cap``.
    """
    adjacency = graph.adjacency if hasattr(graph, "adjacency") else graph
    masks = [sum(1 << u for u in nbrs) for nbrs in adjacency]
    count = 0
    for anchor in range(len(masks)):
        above = -1 << (anchor + 1)  # bits of the vertices after the anchor
        subset = (anchor,)
        extension = masks[anchor] & above
        closed = (1 << anchor) | masks[anchor]  # subset and its neighbours
        stack = []  # frames [subset, untried extension, closed]
        while True:
            count += 1
            if count > cap:
                raise EnumerationCapExceeded(cap, count - 1)
            yield frozenset(subset)
            stack.append([subset, extension, closed])
            while stack and not stack[-1][1]:
                stack.pop()
            if not stack:
                break
            frame = stack[-1]
            bit = frame[1] & -frame[1]
            frame[1] ^= bit
            w = bit.bit_length() - 1
            subset = frame[0] + (w,)
            extension = frame[1] | (masks[w] & ~frame[2] & above)
            closed = frame[2] | masks[w]


def constraint_find(
    game: AuditGame,
    cap: int = DEFAULT_SUBGRAPH_CAP,
) -> ConstraintSet:
    """Target-side extraction via connected induced subgraphs.

    For a connected class subset V the constraint sums the member
    probabilities of V against the number of distinct resources that can
    audit V; it is kept only when the member count exceeds that bound.
    The classes partition the targets, so no two subsets give one row.
    """
    merged = merge_targets(game)
    graph = build_intersection_graph(merged)
    rows = []
    for subset in enumerate_connected_subgraphs(graph, cap):
        members = []
        resources = set()
        for v in subset:
            members.extend(merged.members[v])
            resources |= merged.audit_signatures[v]
        if len(members) > len(resources):
            rows.append(CoverageConstraint(tuple(sorted(members)),
                                           len(resources)))
    return ConstraintSet(
        n_targets=game.n_targets,
        constraints=tuple(sorted(rows)),
        pinned=tuple(i for i in range(game.n_targets) if game.unauditable[i]),
        extraction="subgraphs",
    )


def coverage_set(game: AuditGame,
                 cap: int = DEFAULT_SUBGRAPH_CAP) -> ConstraintSet:
    """The pruned C, extracted from whichever side enumerates less.

    The target-side algorithm runs first.  When the 2^k resource subsets
    are fewer than ``cap``, it is capped at 2^k instead, and if it would
    enumerate more sets than that, the resource subsets are walked.  So
    at most 2 * min(subgraph count, 2^k) sets are enumerated, and
    :class:`EnumerationCapExceeded` is raised only when both counts
    exceed ``cap``.  ``extraction`` on the result names the side used.
    """
    k = game.n_resources
    if 2 ** k >= cap:
        return prune_implied(constraint_find(game, cap=cap), game)
    try:
        cset = constraint_find(game, cap=2 ** k)
    except EnumerationCapExceeded:
        # resource_cap=k: the cap above already bounds the 2^k subsets
        cset = extract_constraints_naive(game, resource_cap=k)
    return prune_implied(cset, game)


def prune_implied(cset: ConstraintSet, game: AuditGame) -> ConstraintSet:
    """The rows of ``cset`` that are facets of the coverage polytope, in
    order: as both extractors' rows hold every facet, the rows that no
    other row, pinned row or box row implies.  The polytope is the
    independence polytope of the audit graph's transversal matroid, so a
    Hall row x(S) <= b is a facet iff S is closed and inseparable and b is
    the rank of S (Edmonds 1970; Krogdahl 1977): no auditable target
    outside S is audited only inside N(S), S is connected through shared
    resources, and a max flow with capacity 1 on each target of S routes
    b and leaves all of S on the min cut's source side."""
    fmap = audit_sets(game)
    kept = []
    for row in cset.constraints:
        members = set(row.target_indices)
        reach = frozenset().union(*(fmap[i] for i in members))
        closed = not any(fmap[i] and fmap[i] <= reach and i not in members
                         for i in range(game.n_targets))
        net = CoverageNetwork(game)
        if (closed and net.route(dict.fromkeys(members, 1.0)) == members
                and sum(net.routed) == row.bound
                and _connected(row.target_indices, fmap)):
            kept.append(row)
    return replace(cset, constraints=tuple(kept))


def _connected(targets, fmap) -> bool:
    """Whether the targets are connected through shared resources."""
    reach, rest = fmap[targets[0]], set(targets[1:])
    while joined := {i for i in rest if fmap[i] & reach}:
        rest -= joined
        reach = reach.union(*(fmap[i] for i in joined))
    return not rest


def polytopes_equivalent(a: ConstraintSet, b: ConstraintSet, n: int) -> bool:
    """True iff each set's rows, pinned rows included, are implied by the
    other set's rows plus the box."""
    rows_a, rows_b = a.lp_rows(), b.lp_rows()
    return (all(implies(rows_b, row, n) for row in rows_a)
            and all(implies(rows_a, row, n) for row in rows_b))


@dataclass(frozen=True)
class TractabilityReport:
    n_nodes: int
    max_degree: int
    high_degree_nodes: int  # nodes with degree >= 3
    subgraph_bound: float   # may be math.inf when not representable
    log2_bound: float
    condition_small_graph: bool
    condition_bounded_degree: bool

    @property
    def tractable(self) -> bool:
        return self.condition_small_graph or self.condition_bounded_degree

    def to_dict(self) -> dict:
        return {**asdict(self), "tractable": self.tractable}


def tractability_check(
    graph: IntersectionGraph,
    max_degree_threshold: int = 3,
    high_degree_threshold: int = 2,
    small_graph_slack: float = 1.0,
) -> TractabilityReport:
    """Report which sufficient condition (if either) holds for the graph.

    Condition 1: node count at most log2(targets) + slack.  Condition 2:
    max degree and the number of degree>=3 nodes under their thresholds;
    for such graphs the connected-subgraph count obeys the bound
    ``2**((2(d+1))**(t+1)) * N**((d+1)**(t+1))`` with N the node count.
    """
    nn = graph.n_nodes
    degrees = [len(nbrs) for nbrs in graph.adjacency]
    d = max(degrees, default=0)
    t = sum(1 for deg in degrees if deg >= 3)
    if nn == 0:
        log2_bound = 0.0
    else:
        log2_bound = (2.0 * (d + 1)) ** (t + 1) + ((d + 1) ** (t + 1)) * np.log2(max(nn, 2))
    bound = float(2.0 ** log2_bound) if log2_bound < 1000 else float("inf")
    cond1 = nn <= np.log2(max(graph.merged.n_targets, 2)) + small_graph_slack
    cond2 = d <= max_degree_threshold and t <= high_degree_threshold
    return TractabilityReport(
        n_nodes=nn,
        max_degree=d,
        high_degree_nodes=t,
        subgraph_bound=bound,
        log2_bound=float(log2_bound),
        condition_small_graph=bool(cond1),
        condition_bounded_degree=bool(cond2),
    )


UNIT = 2.0 ** -45  # the flow's grid: capacities are floored to it


class CoverageNetwork:
    """A max flow source -> target i (capacity ``cap[i]``) -> allowed
    resource -> sink (capacity 1), kept as each resource's flow per
    target, for callers that route many nearby coverage vectors.

    ``route`` raises some targets' capacities and augments along shortest
    residual paths (Edmonds-Karp), each target's direct edges first.  An
    augmenting path never sends flow back into the source, so targets
    routed by an earlier call stay routed: they are routed first, and
    later calls see only the residual graph.  Capacities are floored to
    multiples of ``UNIT`` = 2^-45, so every flow, load and routed amount
    is such a multiple in [0, 1]; floats add and subtract those exactly,
    so the flow is exact and its min cut, read off the residual edges, is
    exact too.  Copies share the edges, ``resources`` = ``game.auditors``.
    """

    def __init__(self, game: AuditGame):
        self.resources = game.auditors
        self.on = [{} for _ in range(game.n_resources)]  # target -> flow
        self.load = [0.0] * game.n_resources
        self.routed = [0.0] * game.n_targets
        self.cap = [0.0] * game.n_targets

    def copy(self) -> "CoverageNetwork":
        other = object.__new__(CoverageNetwork)
        other.resources = self.resources
        other.on = [dict(held) for held in self.on]
        other.load = list(self.load)
        other.routed = list(self.routed)
        other.cap = list(self.cap)
        return other

    def drop(self, targets) -> None:
        """Remove the targets' flow and capacity."""
        for i in targets:
            for j in self.resources[i]:
                self.load[j] -= self.on[j].pop(i, 0.0)
            self.routed[i] = self.cap[i] = 0.0

    def route(self, caps: dict) -> set:
        """Set the capacities ``caps`` (target -> coverage in [0, 1], no
        less than the target routes now), floored to the grid, and route
        a maximum flow.  Returns the targets on the source side of a min
        cut (those reachable from a target short of its capacity), empty
        when every capacity routes.  Such a set needs more coverage than
        the resources it reaches."""
        on, load, cap, routed = self.on, self.load, self.cap, self.routed
        for i, c in caps.items():
            cap[i] = math.floor(c / UNIT) * UNIT
            for j in self.resources[i]:
                if cap[i] <= routed[i]:
                    break
                if load[j] < 1.0:
                    push = min(1.0 - load[j], cap[i] - routed[i])
                    on[j][i] = on[j].get(i, 0.0) + push
                    load[j] += push
                    routed[i] += push
        while True:
            starts = [i for i in range(len(cap)) if routed[i] < cap[i]]
            reached = dict.fromkeys(starts)  # target -> resource before it
            via = {}  # resource -> target before it
            end = None
            for i in starts:  # breadth first: starts grows as it runs
                for j in self.resources[i]:
                    if j in via:
                        continue
                    via[j] = i
                    if load[j] < 1.0:
                        end = j
                        break
                    for back, amount in on[j].items():
                        if amount > 0.0 and back not in reached:
                            reached[back] = j
                            starts.append(back)
                if end is not None:
                    break
            if end is None:
                return set(reached)
            push, i = 1.0 - load[end], via[end]
            while reached[i] is not None:
                push = min(push, on[reached[i]][i])
                i = via[reached[i]]
            push = min(push, cap[i] - routed[i])
            load[end] += push
            j = end
            while j is not None:
                i = via[j]
                on[j][i] = on[j].get(i, 0.0) + push
                j = reached[i]
                if j is not None:
                    on[j][i] -= push
            routed[i] += push


def coverage_flow(game: AuditGame, p):
    """(entries, shortfall) of the max flow of p clipped to the box on a
    fresh :class:`CoverageNetwork`: the k x n allocation, and sum(p) minus
    the flow, which by max-flow/min-cut is max over target sets S of
    p(S) - |N(S)|.  Entries are multiples of 2^-45, rows sum to at most 1
    exactly, columns of a liftable p are within 2^-45 of p, and the
    shortfall is at most n * 2^-45 too high."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    net = CoverageNetwork(game)
    net.route(dict(enumerate(p.tolist())))
    entries = np.zeros((game.n_resources, game.n_targets))
    for j, held in enumerate(net.on):
        entries[j, list(held)] = list(held.values())
    return entries, max(0.0, float(p.sum() - entries.sum()))


def liftable_to_grid(game: AuditGame, p, tol: float = IMPLIES_TOL) -> bool:
    """p lies in the box to ``tol`` and lifts to an allocation."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -tol) or np.any(p > 1 + tol):
        return False
    return coverage_flow(game, p)[1] <= FEAS_TOL
