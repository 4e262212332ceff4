"""Runtime invariant auditing for the control plane.

The overlay machinery (ViewCast subscription, node join, multicast
forest growth under per-RP capacity ``m̂`` and latency bound ``B_cost``)
is exactly the kind of code whose bugs only surface under adversarial
sequences of joins, leaves, FOV changes and failures.  The
:class:`InvariantAuditor` hooks a running control plane and, after every
control-plane event, re-derives the structural invariants from first
principles:

* **acyclicity** — every tree member reaches its source by walking
  parent links, without revisiting a node;
* **parent/child symmetry** — the parent map and the children lists of
  each tree describe the same edge set;
* **degree bounds** — per-RP in/out degree across the forest never
  exceeds ``I(v)`` / ``O(v)``, the builder's degree ledger matches a
  recount from the forest edges, and the reservation counter ``m̂``
  equals, per node, the number of *opened* groups it sources whose
  streams have not yet been disseminated (Sec. 4.3.1's accounting);
* **latency bound** — every satisfied subscriber's tree path costs less
  than ``B_cost``;
* **pub-sub ↔ forest consistency** — the directive repeats the forest
  edge-for-edge, every RP's whole forwarding table (no entry the
  directive did not dictate) and receiving set match the directive,
  streams are delivered only to sites that requested them, and every
  satisfied request is actually receivable at its subscriber.

Every audit checks every tree, node, site and satisfied request.  It
stays cheap by deriving each view once per call and sharing it: one
canonically sorted forest edge list (degree recount, directive
comparison, digest), one per-site index of the directive (expected
tables and receiving sets), and a per-tree soundness test that sends
only a broken tree down the exact path that names each breach.

Every audited event appends a canonical line (event label, forest
fingerprint, violation count) to an internal log; the SHA-256 over that
log is the :attr:`AuditReport.digest`, so two runs of the same scenario
and seed can be compared bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.base import BuildResult
from repro.core.forest import MulticastTree, OverlayForest, edge_sort_key
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pubsub.messages import Edge, OverlayDirective
    from repro.pubsub.rp import RPAgent
    from repro.session.streams import StreamId


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed during an audit."""

    invariant: str
    detail: str
    event: str = ""
    time_ms: float = 0.0

    def render(self) -> str:
        """One human-readable line."""
        stamp = f"t={self.time_ms:.1f}ms " if self.time_ms else ""
        where = f" [{self.event}]" if self.event else ""
        return f"{stamp}{self.invariant}: {self.detail}{where}"


@dataclass
class AuditReport:
    """Aggregate outcome of one audited run."""

    events_audited: int
    checks_run: int
    violations: list[Violation]
    digest: str

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def summary(self) -> str:
        """Multi-line report suitable for CLI output."""
        lines = [
            f"audit: {self.events_audited} events, {self.checks_run} checks, "
            f"{len(self.violations)} violations",
            f"digest: {self.digest}",
        ]
        for violation in self.violations[:20]:
            lines.append(f"  VIOLATION {violation.render()}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


class InvariantAuditor:
    """Re-derives control-plane invariants after every audited event.

    Parameters
    ----------
    strict:
        Raise :class:`~repro.errors.SimulationError` on the first
        violation instead of accumulating it.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.events_audited = 0
        self.checks_run = 0
        self.violations: list[Violation] = []
        self._log = hashlib.sha256()

    # -- audit entry points -------------------------------------------------------

    def audit_build(
        self, result: BuildResult, event: str = "build", time_ms: float = 0.0
    ) -> list[Violation]:
        """Audit one build result (forest + state, no pub-sub layer)."""
        edges = _canonical_edges(result.forest)
        found = self._check_build(result, edges)
        self._commit(event, time_ms, result.forest, edges, found)
        return found

    def audit_round(
        self,
        result: BuildResult,
        directive: "OverlayDirective",
        rps: Mapping[int, "RPAgent"],
        active: Iterable[int],
        event: str = "round",
        time_ms: float = 0.0,
    ) -> list[Violation]:
        """Audit one full control round: build plus directive installation."""
        edges = _canonical_edges(result.forest)
        found = self._check_build(result, edges)
        found.extend(
            self._check_membership(result, edges, directive, rps, set(active))
        )
        self._commit(event, time_ms, result.forest, edges, found)
        return found

    def report(self) -> AuditReport:
        """Finalize and return the aggregate report (auditor stays usable)."""
        return AuditReport(
            events_audited=self.events_audited,
            checks_run=self.checks_run,
            violations=list(self.violations),
            digest=self._log.hexdigest(),
        )

    # -- individual invariants -----------------------------------------------------

    def _check_build(self, result: BuildResult, edges: list[Edge]) -> list[Violation]:
        """The forest-and-state invariants shared by both entry points."""
        found = self._check_forest_structure(result.forest)
        found.extend(self._check_degrees(result, edges))
        found.extend(self._check_latency(result))
        found.extend(self._check_accounting(result))
        return found

    def _check_forest_structure(self, forest: OverlayForest) -> list[Violation]:
        """Acyclicity, reachability and parent/child symmetry per tree."""
        found: list[Violation] = []
        for stream, tree in forest.trees.items():
            self.checks_run += 1
            if not _tree_is_sound(tree):
                found.extend(self._check_tree(stream, tree))
        return found

    def _check_tree(self, stream, tree: MulticastTree) -> list[Violation]:
        """Name every structural breach of one tree (the slow, exact path)."""
        found: list[Violation] = []
        members = set(tree.members())
        # Parent/child symmetry: both adjacency views carry the same edges.
        parent_edges = {(parent, child) for parent, child in tree.edges()}
        child_edges = {
            (node, child) for node in members for child in tree.children(node)
        }
        for parent, child in parent_edges - child_edges:
            found.append(
                Violation(
                    "parent-child-symmetry",
                    f"edge {parent}->{child} in parent map only, tree {stream}",
                )
            )
        for parent, child in child_edges - parent_edges:
            found.append(
                Violation(
                    "parent-child-symmetry",
                    f"edge {parent}->{child} in children lists only, tree {stream}",
                )
            )
        # Acyclicity + reachability: walk parents from every member.
        for node in members:
            seen: set[int] = set()
            current = node
            while current != tree.source:
                if current in seen:
                    found.append(
                        Violation(
                            "acyclicity",
                            f"cycle through {current} in tree {stream}",
                        )
                    )
                    break
                seen.add(current)
                parent = tree.parent(current)
                if parent is None or parent not in members:
                    found.append(
                        Violation(
                            "acyclicity",
                            f"{node} cannot reach source of tree {stream}",
                        )
                    )
                    break
                current = parent
        return found

    def _check_degrees(self, result: BuildResult, edges: list[Edge]) -> list[Violation]:
        """Per-RP capacity bounds and ledger/forest agreement."""
        found: list[Violation] = []
        problem, state, forest = result.problem, result.state, result.forest
        n_nodes = problem.n_nodes
        din = [0] * n_nodes
        dout = [0] * n_nodes
        for _, parent, child in edges:
            dout[parent] += 1
            din[child] += 1
        # Reservation accounting: m̂_i must equal the number of opened
        # groups sourced at i whose streams are not yet disseminated.
        expected_m_hat = [0] * n_nodes
        if state.reservations:
            for group in problem.groups:
                tree = forest.trees.get(group.stream)
                disseminated = tree is not None and tree.disseminated
                if state.is_open(group.stream) and not disseminated:
                    expected_m_hat[group.source] += 1
        inbound, outbound = problem.inbound_limits(), problem.outbound_limits()
        self.checks_run += n_nodes
        for node in range(n_nodes):
            if din[node] > inbound[node]:
                found.append(
                    Violation(
                        "inbound-bound",
                        f"node {node}: din {din[node]} > I {inbound[node]}",
                    )
                )
            if dout[node] > outbound[node]:
                found.append(
                    Violation(
                        "outbound-bound",
                        f"node {node}: dout {dout[node]} > O {outbound[node]}",
                    )
                )
            if din[node] != state.din[node] or dout[node] != state.dout[node]:
                found.append(
                    Violation(
                        "degree-ledger",
                        f"node {node}: forest degrees ({din[node]}, "
                        f"{dout[node]}) != ledger ({state.din[node]}, "
                        f"{state.dout[node]})",
                    )
                )
            if not 0 <= state.m_hat[node] <= state.m[node]:
                found.append(
                    Violation(
                        "reservation-range",
                        f"node {node}: m̂ {state.m_hat[node]} outside "
                        f"[0, m={state.m[node]}]",
                    )
                )
            if state.m_hat[node] != expected_m_hat[node]:
                found.append(
                    Violation(
                        "reservation-accounting",
                        f"node {node}: m̂ {state.m_hat[node]} != "
                        f"{expected_m_hat[node]} opened undisseminated "
                        f"sourced groups",
                    )
                )
        return found

    def _check_latency(self, result: BuildResult) -> list[Violation]:
        """Path cost < B_cost for every satisfied subscriber."""
        found: list[Violation] = []
        bound = result.problem.latency_bound_ms
        trees = result.forest.trees
        self.checks_run += len(result.satisfied)
        for request in result.satisfied:
            tree = trees.get(request.stream)
            if tree is None or request.subscriber not in tree:
                found.append(
                    Violation(
                        "membership",
                        f"satisfied {request} absent from its tree",
                    )
                )
                continue
            cost = tree.cost_from_source(request.subscriber)
            if cost >= bound:
                found.append(
                    Violation(
                        "latency-bound",
                        f"{request}: path {cost:.1f}ms >= B_cost {bound:.1f}ms",
                    )
                )
        return found

    def _check_accounting(self, result: BuildResult) -> list[Violation]:
        """Every request resolved exactly once, none both ways."""
        self.checks_run += 1
        found: list[Violation] = []
        expected = result.problem.total_requests()
        if result.total_requests != expected:
            found.append(
                Violation(
                    "request-accounting",
                    f"{result.total_requests} resolved, {expected} in problem",
                )
            )
        satisfied = set(result.satisfied)
        rejected = {request for request, _ in result.rejected}
        for request in satisfied & rejected:
            found.append(
                Violation(
                    "request-accounting",
                    f"{request} both satisfied and rejected",
                )
            )
        return found

    def _check_membership(
        self,
        result: BuildResult,
        edges: list[Edge],
        directive: "OverlayDirective",
        rps: Mapping[int, "RPAgent"],
        active: set[int],
    ) -> list[Violation]:
        """Pub-sub membership ↔ forest consistency."""
        found: list[Violation] = []
        self.checks_run += 1
        # Both edge lists are in canonical order, so equal lists mean equal
        # sets; only a mismatch needs the set differences that name it.
        faithful = tuple(edges) == directive.edges
        if not faithful:
            forest_edges = set(result.forest.edges())
            directive_edges = set(directive.edges)
            for edge in forest_edges - directive_edges:
                found.append(
                    Violation("directive-fidelity", f"forest edge {edge} not dictated")
                )
            for edge in directive_edges - forest_edges:
                found.append(
                    Violation("directive-fidelity", f"phantom directive edge {edge}")
                )
        # Delivery only to requesters: each receiving site asked for the stream.
        subscribers = {
            group.stream: group.subscribers for group in result.problem.groups
        }
        for stream, _, child in set(directive.edges):
            self.checks_run += 1
            if child not in subscribers.get(stream, _NOBODY):
                found.append(
                    Violation(
                        "membership",
                        f"site {child} receives unrequested stream {stream}",
                    )
                )
        # Per-site expected tables, indexed in one pass over the directive.
        tables: dict[int, dict[StreamId, list[int]]] = {}
        receiving: dict[int, set[StreamId]] = {}
        for stream, parent, child in directive.edges:
            tables.setdefault(parent, {}).setdefault(stream, []).append(child)
            receiving.setdefault(child, set()).add(stream)
        for site in sorted(active):
            rp = rps.get(site)
            if rp is None:
                found.append(
                    Violation("membership", f"active site {site} has no RP agent")
                )
                continue
            self.checks_run += 1
            if rp.epoch != directive.epoch:
                found.append(
                    Violation(
                        "directive-fidelity",
                        f"site {site} at epoch {rp.epoch}, directive "
                        f"{directive.epoch}",
                    )
                )
            expected_table = tables.get(site, {})
            table = rp.forwarding_table()
            if table != expected_table:
                found.extend(_table_divergence(site, table, expected_table))
            if rp.received_streams() != receiving.get(site, set()):
                found.append(
                    Violation(
                        "forwarding-table",
                        f"site {site} receiving set diverges from directive",
                    )
                )
        self.checks_run += len(result.satisfied)
        for request in result.satisfied:
            rp = rps.get(request.subscriber)
            if rp is not None and not rp.is_receiving(request.stream):
                found.append(
                    Violation(
                        "membership",
                        f"satisfied {request} not receivable at its RP",
                    )
                )
        return found

    # -- log / digest ----------------------------------------------------------------

    def _commit(
        self,
        event: str,
        time_ms: float,
        forest: OverlayForest,
        edges: list[Edge],
        found: list[Violation],
    ) -> None:
        """Stamp the audited event into the report and the digest log."""
        self.events_audited += 1
        stamped = [
            Violation(v.invariant, v.detail, event=event, time_ms=time_ms)
            for v in found
        ]
        self.violations.extend(stamped)
        fingerprint = ",".join(
            f"{stream}:{parent}>{child}" for stream, parent, child in edges
        )
        line = (
            f"{time_ms:.3f}|{event}|{fingerprint}|"
            f"sat={len(forest.satisfied)}|rej={len(forest.rejected)}|"
            f"viol={len(stamped)}\n"
        )
        self._log.update(line.encode("utf-8"))
        if self.strict and stamped:
            raise SimulationError(f"invariant violated: {stamped[0].render()}")


#: Subscriber set of a stream no group requests.
_NOBODY: frozenset[int] = frozenset()


def _canonical_edges(forest: OverlayForest) -> list[Edge]:
    """The forest's relay edges, once, in canonical (directive) order."""
    edges = [
        (stream, parent, child)
        for stream, tree in forest.trees.items()
        for child, parent in tree.parent_map().items()
    ]
    edges.sort(key=edge_sort_key)
    return edges


def _tree_is_sound(tree: MulticastTree) -> bool:
    """True when :meth:`InvariantAuditor._check_tree` would find nothing.

    A sufficient test in O(members), without the two edge sets: every member
    but the source has a parent that was reached before it (so all reach
    the source, acyclically), and the children lists, read child ->
    parent, rebuild the parent map exactly with no entry repeated (so
    both views hold one edge set).  False only sends the tree down the
    exact path, which then names each breach.
    """
    parents, children = tree.parent_map(), tree.children_map()
    if len(parents) != len(children) - 1 or tree.source in parents:
        return False
    reached = {tree.source}
    for child, parent in parents.items():
        if parent not in reached or child not in children:
            return False
        reached.add(child)
    rebuilt = {kid: node for node, kids in children.items() for kid in kids}
    return rebuilt == parents and sum(map(len, children.values())) == len(parents)


def _table_divergence(
    site: int,
    table: Mapping[StreamId, list[int]],
    expected: Mapping[StreamId, list[int]],
) -> list[Violation]:
    """Name how an RP's forwarding table differs from the dictated one.

    Child order is not significant; an entry the directive never
    dictated is.
    """
    found: list[Violation] = []
    for stream, children in expected.items():
        hops = table.get(stream, [])
        if sorted(hops) != sorted(children):
            found.append(
                Violation(
                    "forwarding-table",
                    f"site {site} forwards {stream} to {list(hops)}, "
                    f"directive says {children}",
                )
            )
    for stream in sorted(table.keys() - expected.keys()):
        found.append(
            Violation(
                "forwarding-table",
                f"site {site} forwards {stream} to {list(table[stream])}, "
                f"directive dictates no such entry",
            )
        )
    return found
