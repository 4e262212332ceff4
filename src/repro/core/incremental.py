"""Incremental overlay maintenance (the paper's future-work direction).

The paper solves the *static* construction problem and re-solves it on
any change.  This module provides the repair operations a deployment
needs between full re-solves:

* :func:`add_subscription` — join one new request into an existing
  forest with the basic node-join algorithm (optionally with the CO-RJ
  victim swap as fallback);
* :func:`remove_subscription` — drop a satisfied leaf request and
  release its resources (interior nodes must keep relaying, exactly as
  an RP keeps forwarding a stream its own displays stopped watching);
* :func:`churn_rate` — how much of the existing forest a full re-solve
  would move, for deciding *when* a re-solve is worth it;
* :class:`IncrementalRepairer` — the full control-path repairer: given
  the previous round's :class:`~repro.core.base.BuildResult` and the
  next round's :class:`~repro.core.problem.ForestProblem`, it carries
  every surviving edge over untouched, prunes departed members (whole
  subtrees re-home via the node-join algorithm), and only the genuinely
  new or orphaned requests run through a join — so satisfied users are
  not disturbed by unrelated churn.

The :data:`REBUILD_POLICIES` a ``MembershipServer`` (and the
``ScenarioSpec`` that configures one) runs under pick between repair
and re-solve:

* ``"always"`` — the paper's model: re-solve from scratch every round;
* ``"incremental"`` — repair every round, falling back to a scratch
  rebuild only when the repair is infeasible (a previously-served
  request could not be re-homed: capacity exhaustion or disconnected
  residue);
* ``"hybrid"`` — repair, but quality-guard each round against the
  from-scratch solution: adopt the repair only while its rejection
  count does not exceed scratch and its forest cost stays within the
  configured drift budget.

Incremental joins never move existing edges, so satisfied users are
never disturbed; the price is that the incremental answer can be worse
than a fresh solve (quantified by :func:`churn_rate` and the hybrid
drift budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OverlayError, SubscriptionError
from repro.core.base import BuildResult
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.forest import OverlayForest
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.node_join import JoinOutcome, ParentPolicy, try_join
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.util.validation import REBUILD_POLICIES, check_rebuild_policy

#: Default hybrid drift budget: the repaired forest may cost at most
#: ``(1 + budget)`` times the from-scratch solution before the round
#: falls back to the scratch rebuild.
DEFAULT_DRIFT_BUDGET = 0.15

#: Canonical validator (the constant itself lives in
#: :mod:`repro.util.validation` so the session layer can share it).
validate_rebuild_policy = check_rebuild_policy


def overlay_cost(result: BuildResult) -> float:
    """Total relay cost of the forest: sum of every tree edge's latency.

    This is the quality metric the hybrid policy budgets: local repair
    keeps stale edges alive, so its forest drifts away from the
    from-scratch optimum; the drift budget caps how far.
    """
    problem = result.problem
    total = 0.0
    for tree in result.forest.trees.values():
        for parent, child in tree.edges():
            total += problem.edge_cost(parent, child)
    return total


def add_subscription(
    result: BuildResult,
    request: SubscriptionRequest,
    use_swap: bool = False,
    policy: ParentPolicy = ParentPolicy.MAX_RFC,
) -> JoinOutcome:
    """Join one new request into an already-built overlay.

    The request must reference a stream whose multicast group exists in
    the problem (the membership server's advertisement matching happens
    upstream); re-adding a currently-satisfied request is an error.

    With ``use_swap=True`` a rejection falls back to the CO-RJ victim
    swap (Sec. 4.4) before giving up.
    """
    problem = result.problem
    if not 0 <= request.subscriber < problem.n_nodes:
        raise SubscriptionError(f"unknown subscriber {request.subscriber}")
    if request in result.forest.satisfied:
        raise OverlayError(f"{request} is already satisfied")

    state = result.state
    forest = result.forest
    result.invalidate_caches()  # every path below may touch the rejected list
    state.open_group(request.stream)
    tree = forest.tree(request.stream)
    outcome = try_join(problem, state, tree, request.subscriber, policy=policy)
    if outcome.accepted:
        forest.satisfied.append(request)
        _drop_rejection_record(result, request)
        return outcome

    if use_swap:
        swapper = CorrelatedRandomJoinBuilder(repair_passes=0)
        _drop_rejection_record(result, request)
        if swapper.on_rejected(problem, state, forest, request, outcome):
            satisfied_cost = tree.cost_from_source(request.subscriber)
            return JoinOutcome(
                accepted=True,
                parent=tree.parent(request.subscriber),
                path_cost_ms=satisfied_cost,
            )
        forest.rejected.append((request, outcome.reason))
        return outcome

    if not _has_rejection_record(result, request):
        forest.rejected.append((request, outcome.reason))
    return outcome


def remove_subscription(
    result: BuildResult, request: SubscriptionRequest
) -> None:
    """Drop one *satisfied* request from the overlay.

    Only leaf subscribers release resources immediately; an interior
    subscriber keeps its edge because its subtree still needs the
    stream (the RP keeps relaying), and only its local delivery stops —
    we model that by leaving the forest untouched but removing the
    request from the satisfied set.
    """
    forest = result.forest
    if request not in forest.satisfied:
        raise OverlayError(f"{request} is not satisfied")
    tree = forest.trees.get(request.stream)
    if tree is None or request.subscriber not in tree:
        raise OverlayError(f"{request} has no tree node to remove")
    forest.satisfied.remove(request)
    result.invalidate_caches()
    if tree.is_leaf(request.subscriber):
        parent = tree.detach_leaf(request.subscriber)
        result.state.record_detach(tree, parent, request.subscriber)


def churn_rate(before: BuildResult, after: BuildResult) -> float:
    """Fraction of commonly-satisfied requests whose parent moved.

    Compares two builds of (possibly different) problems over the same
    node space — typically the incremental state versus a fresh
    re-solve — and reports how disruptive adopting ``after`` would be.
    """
    before_parents = {
        request: before.forest.trees[request.stream].parent(request.subscriber)
        for request in before.satisfied
    }
    common = [
        request
        for request in after.satisfied
        if request in before_parents
    ]
    if not common:
        return 0.0
    moved = sum(
        1
        for request in common
        if after.forest.trees[request.stream].parent(request.subscriber)
        != before_parents[request]
    )
    return moved / len(common)


def _has_rejection_record(
    result: BuildResult, request: SubscriptionRequest
) -> bool:
    return any(rejected == request for rejected, _ in result.forest.rejected)


def _drop_rejection_record(
    result: BuildResult, request: SubscriptionRequest
) -> None:
    """Remove a stale rejection record for ``request`` if one exists."""
    rejected = result.forest.rejected
    for index, (recorded, _reason) in enumerate(rejected):
        if recorded == request:
            del rejected[index]
            return


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :meth:`IncrementalRepairer.repair` call.

    ``feasible`` is the fallback signal: it is False when a request that
    was served last round could not be re-homed after its relay departed
    (capacity exhaustion or disconnected residue) — a scratch rebuild
    might still serve that user, so policies treat the repair as failed.
    """

    result: BuildResult
    feasible: bool
    carried: int          #: satisfied requests whose edge survived intact
    orphaned: int         #: previously-satisfied requests whose relay left
    rejoined: int         #: orphans successfully re-homed
    #: Previously-served, still-requested requests that end the repair
    #: unserved — orphans that could not be re-homed *and* carried
    #: requests later evicted by a victim swap.
    lost: int
    fresh_joined: int     #: genuinely new requests joined
    fresh_rejected: int   #: genuinely new requests rejected
    dropped_trees: int    #: trees whose stream left the problem entirely

    @property
    def touched(self) -> int:
        """Requests the repair actually had to (re-)join."""
        return self.orphaned + self.fresh_joined + self.fresh_rejected

    def touched_fraction(self, total_requests: int) -> float:
        """``touched`` as a fraction of the round's request volume.

        This is the per-round increment of the scratch-free hybrid's
        drift estimate: every request the repair had to place greedily
        on top of the stale forest is a potential deviation from the
        from-scratch optimum.
        """
        return self.touched / total_requests if total_requests > 0 else 0.0


@dataclass
class IncrementalRepairer:
    """Patches a surviving overlay onto the next round's problem.

    The repair walks the previous forest top-down and carries every edge
    whose child is still a satisfied requester *and* whose parent chain
    survived; because degree bounds and the cost matrix are per-session
    constants, a carried subset of a feasible forest is itself feasible,
    so no constraint re-checks are needed on the carry path.  Members
    whose request disappeared (site leave, failure, FOV change) are
    pruned; their descendants become *orphans* and re-join through the
    basic node-join algorithm, exactly like fresh requests — optionally
    with the CO-RJ victim swap as a last resort (``use_swap``).

    The repaired :class:`~repro.core.base.BuildResult` references the
    *new* problem and a freshly-replayed
    :class:`~repro.core.state.BuilderState`, so it satisfies every
    invariant the auditor re-derives (degree ledger, reservation
    accounting, request accounting) by construction.
    """

    policy: ParentPolicy = field(default=ParentPolicy.MAX_RFC)
    use_swap: bool = False
    #: Accumulated drift estimate since the last from-scratch anchor:
    #: the sum of each repair's touched fraction.  The scratch-free
    #: hybrid policy compares this against its drift budget to decide
    #: when a verification re-solve is due; it re-anchors via
    #: :meth:`reset_drift` whenever a scratch solution is computed.
    _drift_estimate: float = field(default=0.0, init=False, repr=False)

    @property
    def drift_estimate(self) -> float:
        """Estimated cost drift accumulated since the last anchor."""
        return self._drift_estimate

    def reset_drift(self, value: float = 0.0) -> None:
        """Re-anchor the drift estimate (after a scratch solve).

        ``value`` lets a verification that *kept* the repair re-anchor
        on the drift it actually measured instead of zero.
        """
        self._drift_estimate = value

    def repair(
        self, previous: BuildResult, problem: ForestProblem
    ) -> RepairReport:
        """Carry the surviving forest into ``problem``; join the rest."""
        forest = OverlayForest()
        state = BuilderState(problem)
        prev_forest = previous.forest
        prev_satisfied = set(prev_forest.satisfied)
        new_streams = {group.stream for group in problem.groups}
        dropped_trees = sum(
            1
            for stream, tree in prev_forest.trees.items()
            if stream not in new_streams and len(tree) > 1
        )

        carried = 0
        orphans: list[SubscriptionRequest] = []
        handled: set[SubscriptionRequest] = set()
        for group in sorted(problem.groups, key=lambda g: g.stream):
            state.open_group(group.stream)
            tree = forest.tree(group.stream)
            old_tree = prev_forest.trees.get(group.stream)
            if old_tree is None:
                continue
            wanted = group.subscribers
            # Old members iterate source-first in attach order, so every
            # carried node finds its parent already attached; a node whose
            # ancestor was pruned sees its parent missing and orphans.
            for node in old_tree.members():
                if node == old_tree.source:
                    continue
                request = SubscriptionRequest(subscriber=node, stream=group.stream)
                if node not in wanted or request not in prev_satisfied:
                    continue  # no longer requested: prune (subtree orphans)
                handled.add(request)
                parent = old_tree.parent(node)
                if parent in tree and self._edge_fits(
                    problem, state, tree, parent, node
                ):
                    tree.attach(parent, node, problem.edge_cost(parent, node))
                    state.record_attach(tree, parent, node)
                    forest.satisfied.append(request)
                    carried += 1
                else:
                    orphans.append(request)

        swapper = (
            CorrelatedRandomJoinBuilder(repair_passes=0) if self.use_swap else None
        )

        def rejoin(request: SubscriptionRequest) -> bool:
            tree = forest.tree(request.stream)
            outcome = try_join(
                problem, state, tree, request.subscriber, policy=self.policy
            )
            if outcome.accepted:
                forest.satisfied.append(request)
                return True
            if swapper is not None and swapper.on_rejected(
                problem, state, forest, request, outcome
            ):
                return True
            forest.rejected.append((request, outcome.reason))
            return False

        rejoined = 0
        for request in orphans:
            if rejoin(request):
                rejoined += 1
        fresh_joined = fresh_rejected = 0
        for request in problem.all_requests():
            if request in handled:
                continue
            if rejoin(request):
                fresh_joined += 1
            else:
                fresh_rejected += 1

        result = BuildResult(
            problem=problem,
            forest=forest,
            state=state,
            algorithm=previous.algorithm,
        )
        # A user served last round whose request still stands must still
        # be served, whether the repair orphaned them (no re-home found)
        # or a victim swap evicted them after the carry.
        satisfied_now = set(forest.satisfied)
        lost = sum(
            1
            for request in handled
            if request in prev_satisfied and request not in satisfied_now
        )
        report = RepairReport(
            result=result,
            feasible=lost == 0,
            carried=carried,
            orphaned=len(orphans),
            rejoined=rejoined,
            lost=lost,
            fresh_joined=fresh_joined,
            fresh_rejected=fresh_rejected,
            dropped_trees=dropped_trees,
        )
        self._drift_estimate += report.touched_fraction(problem.total_requests())
        return report

    @staticmethod
    def _edge_fits(
        problem: ForestProblem,
        state: BuilderState,
        tree,
        parent: int,
        node: int,
    ) -> bool:
        """Re-validate one carried edge against the *new* problem.

        On the live control path bounds and costs are session constants,
        so a carried subset of a feasible forest always fits and this
        never fires; it guards direct API use against problems with
        tightened capacities or costs, degrading the edge to an orphan
        re-join instead of returning a constraint-violating forest.
        """
        return (
            state.dout[parent] < problem.outbound_limit(parent)
            and state.din[node] < problem.inbound_limit(node)
            and tree.cost_from_source(parent) + problem.edge_cost(parent, node)
            < problem.latency_bound_ms
        )
