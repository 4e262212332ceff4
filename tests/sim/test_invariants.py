"""Tests for the runtime invariant auditor.

Every mutation test pins the auditor's *exact* output: the ordered
``(invariant, detail)`` list and the ``checks_run`` count (strict mode
raises on the first violation, so order is part of the contract).  The
records in :data:`PINNED` were taken from the straightforward
re-derive-everything auditor; the single-pass auditor must reproduce
each of them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.model import RejectionReason
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.errors import SimulationError
from repro.pubsub.system import PubSubSystem
from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioRuntime
from repro.session.streams import StreamId
from repro.sim.invariants import InvariantAuditor, Violation
from repro.util.rng import RngStream
from tests.conftest import complete_cost


@pytest.fixture
def clean_result(small_problem, rng):
    return RandomJoinBuilder().build(small_problem, rng.spawn("build"))


@pytest.fixture
def chain_result():
    """One group whose tree is a chain 0 -> ... (every out-degree is 1).

    Node 6 requests nothing, so it is never a member of the tree.
    """
    problem = ForestProblem.from_tables(
        cost=complete_cost(7, off_diagonal=10.0),
        inbound={node: 1 for node in range(7)},
        outbound={node: 1 for node in range(7)},
        group_members={StreamId(0, 0): {1, 2, 3, 4, 5}},
        latency_bound_ms=100.0,
    )
    return RandomJoinBuilder().build(problem, RngStream(5, label="chain"))


def invariants_of(violations: list[Violation]) -> set[str]:
    return {violation.invariant for violation in violations}


def assert_pinned(auditor: InvariantAuditor, found: list[Violation], key: str):
    """The audit reproduces the recorded violation list and check count."""
    observed = (
        auditor.checks_run,
        [(violation.invariant, violation.detail) for violation in found],
    )
    assert observed == PINNED[key]


def chain_of(tree) -> list[int]:
    """Members of a chain-shaped tree, source first."""
    chain = [tree.source]
    while tree.children(chain[-1]):
        (child,) = tree.children(chain[-1])
        chain.append(child)
    return chain


def forked_tree(result):
    """The first tree whose source relays to at least two children."""
    return next(
        tree
        for tree in result.forest.trees.values()
        if tree.child_count(tree.source) >= 2
    )


class TestCleanBuild:
    def test_no_violations(self, clean_result):
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert found == []
        report = auditor.report()
        assert report.ok
        assert report.events_audited == 1
        assert report.checks_run > 0
        assert len(report.digest) == 64
        assert_pinned(auditor, found, "clean-build")

    def test_clean_chain(self, chain_result):
        tree = chain_result.forest.trees[StreamId(0, 0)]
        assert len(chain_of(tree)) == 6
        auditor = InvariantAuditor()
        found = auditor.audit_build(chain_result)
        assert found == []
        assert_pinned(auditor, found, "clean-chain")

    def test_digest_deterministic_across_auditors(self, clean_result):
        first = InvariantAuditor()
        second = InvariantAuditor()
        first.audit_build(clean_result, event="e", time_ms=5.0)
        second.audit_build(clean_result, event="e", time_ms=5.0)
        assert first.report().digest == second.report().digest

    def test_digest_pinned(self, clean_result):
        auditor = InvariantAuditor()
        auditor.audit_build(clean_result, event="e", time_ms=5.0)
        assert auditor.report().digest == PINNED_DIGEST

    def test_digest_sensitive_to_event_label(self, clean_result):
        first = InvariantAuditor()
        second = InvariantAuditor()
        first.audit_build(clean_result, event="a")
        second.audit_build(clean_result, event="b")
        assert first.report().digest != second.report().digest

    def test_report_summary_mentions_counts(self, clean_result):
        auditor = InvariantAuditor()
        auditor.audit_build(clean_result)
        summary = auditor.report().summary()
        assert "1 events" in summary
        assert "0 violations" in summary


class TestStructuralViolations:
    def test_cycle_detected(self, clean_result):
        tree = next(
            t for t in clean_result.forest.trees.values() if len(t) >= 2
        )
        member = next(n for n in tree.members() if n != tree.source)
        # Corrupt: point the member's parent back at itself.
        tree._parent[member] = member
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "acyclicity" in invariants_of(found)
        assert_pinned(auditor, found, "self-parent-cycle")

    def test_cycle_beside_the_walked_node(self, chain_result):
        tree = chain_result.forest.trees[StreamId(0, 0)]
        _, _, b, _, d, _ = chain_of(tree)
        # Corrupt: b -> d closes the loop b, c, d; the chain's tail walks
        # into that loop without being part of it.
        tree._parent[b] = d
        auditor = InvariantAuditor()
        found = auditor.audit_build(chain_result)
        assert "acyclicity" in invariants_of(found)
        assert_pinned(auditor, found, "cycle-beside-walk")

    def test_orphaned_subtree(self, chain_result):
        tree = chain_result.forest.trees[StreamId(0, 0)]
        assert 6 not in tree
        _, _, b, _, _, _ = chain_of(tree)
        # Corrupt: hang b's subtree under node 6, which is no member.
        tree._parent[b] = 6
        auditor = InvariantAuditor()
        found = auditor.audit_build(chain_result)
        assert "acyclicity" in invariants_of(found)
        assert_pinned(auditor, found, "orphaned-subtree")

    def test_symmetry_breach_detected(self, clean_result):
        tree = next(
            t for t in clean_result.forest.trees.values() if len(t) >= 2
        )
        member = next(n for n in tree.members() if n != tree.source)
        # Corrupt: drop the child from its parent's children list.
        tree._children[tree._parent[member]].remove(member)
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "parent-child-symmetry" in invariants_of(found)
        assert_pinned(auditor, found, "child-list-drop")

    def test_duplicated_child(self, clean_result):
        tree = forked_tree(clean_result)
        kids = tree._children[tree.source]
        # Corrupt: the first child appears twice; both edge *sets* agree.
        kids.append(kids[0])
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        # The pinned record is empty because symmetry compares edge *sets*,
        # which a repeated child does not change: a known auditor gap,
        # tracked as a defect by test_duplicated_child_flagged below.
        assert_pinned(auditor, found, "duplicated-child")

    @pytest.mark.xfail(
        strict=True,
        reason="known gap: parent/child symmetry compares edge sets, so a "
        "child listed twice in one children list audits clean",
    )
    def test_duplicated_child_flagged(self, clean_result):
        tree = forked_tree(clean_result)
        kids = tree._children[tree.source]
        kids.append(kids[0])
        found = InvariantAuditor().audit_build(clean_result)
        assert "parent-child-symmetry" in invariants_of(found)

    def test_duplicate_replacing_a_sibling(self, clean_result):
        tree = forked_tree(clean_result)
        kids = tree._children[tree.source]
        # Corrupt: child counts still match the parent map, edge sets not.
        kids[1] = kids[0]
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "parent-child-symmetry" in invariants_of(found)
        assert_pinned(auditor, found, "duplicate-replaces-sibling")

    def test_degree_ledger_mismatch_detected(self, clean_result):
        clean_result.state.dout[0] += 1
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "degree-ledger" in invariants_of(found)
        assert_pinned(auditor, found, "dout-ledger")

    def test_inbound_bound_violation_detected(self, clean_result):
        node = clean_result.satisfied[0].subscriber
        clean_result.problem.inbound[node] = 0
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "inbound-bound" in invariants_of(found)
        assert_pinned(auditor, found, "inbound-zero")

    def test_outbound_bound_violation_detected(self, clean_result):
        tree = forked_tree(clean_result)
        clean_result.problem.outbound[tree.source] = 1
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "outbound-bound" in invariants_of(found)
        assert_pinned(auditor, found, "outbound-overflow")

    def test_latency_violation_detected(self, clean_result):
        request = clean_result.satisfied[0]
        tree = clean_result.forest.trees[request.stream]
        tree._cost_from_source[request.subscriber] = 10_000.0
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "latency-bound" in invariants_of(found)
        assert_pinned(auditor, found, "latency")

    def test_reservation_accounting_mismatch_detected(self, clean_result):
        source = clean_result.problem.groups[0].source
        clean_result.state.m_hat[source] += 1
        clean_result.state.m[source] += 1  # keep the range check quiet
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "reservation-accounting" in invariants_of(found)
        assert_pinned(auditor, found, "m-hat")

    def test_accounting_mismatch_detected(self, clean_result):
        clean_result.forest.satisfied.pop()
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "request-accounting" in invariants_of(found)
        assert_pinned(auditor, found, "satisfied-pop")

    def test_satisfied_and_rejected(self, clean_result):
        request = clean_result.satisfied[1]
        clean_result.forest.rejected.append(
            (request, RejectionReason.TREE_SATURATED)
        )
        auditor = InvariantAuditor()
        found = auditor.audit_build(clean_result)
        assert "request-accounting" in invariants_of(found)
        assert_pinned(auditor, found, "satisfied-and-rejected")

    def test_strict_mode_raises(self, clean_result):
        clean_result.state.dout[0] += 1
        with pytest.raises(SimulationError, match="invariant violated"):
            InvariantAuditor(strict=True).audit_build(clean_result)

    def test_violations_carry_event_and_time(self, clean_result):
        clean_result.state.dout[0] += 1
        auditor = InvariantAuditor()
        auditor.audit_build(clean_result, event="probe", time_ms=42.0)
        violation = auditor.report().violations[0]
        assert violation.event == "probe"
        assert violation.time_ms == 42.0
        assert "probe" in violation.render()


@pytest.fixture
def round_state(small_session):
    """One full control round through the pub-sub façade."""
    rng = RngStream(99, label="round")
    system = PubSubSystem(
        session=small_session,
        builder=RandomJoinBuilder(),
        latency_bound_ms=200.0,
    )
    for site in small_session.sites:
        remote = sorted(
            stream_id
            for other in small_session.sites
            if other.index != site.index
            for stream_id in other.stream_ids
        )[:3]
        system.subscribe_display(
            site.index, site.displays[0].display_id, remote
        )
    directive = system.run_control_round(rng)
    return system, directive


def audit_system(system, directive, rps=None, active=None):
    """Audit the façade's last round; returns (auditor, violations)."""
    auditor = InvariantAuditor()
    found = auditor.audit_round(
        system.last_result,
        directive,
        system.rps if rps is None else rps,
        active=range(system.session.n_sites) if active is None else active,
    )
    return auditor, found


class TestAuditRound:
    def test_clean_round(self, round_state):
        system, directive = round_state
        auditor, found = audit_system(system, directive)
        assert found == []
        assert_pinned(auditor, found, "clean-round")

    def test_phantom_directive_edge_detected(self, round_state):
        system, directive = round_state
        phantom = (StreamId(0, 999), 0, 1)
        corrupted = replace(directive, edges=directive.edges + (phantom,))
        auditor, found = audit_system(system, corrupted)
        assert "directive-fidelity" in invariants_of(found)
        assert_pinned(auditor, found, "phantom-directive-edge")

    def test_duplicated_directive_edge(self, round_state):
        system, directive = round_state
        corrupted = replace(directive, edges=directive.edges + directive.edges[:1])
        auditor, found = audit_system(system, corrupted)
        assert "forwarding-table" in invariants_of(found)
        assert_pinned(auditor, found, "duplicated-directive-edge")

    def test_stale_rp_epoch_detected(self, round_state):
        system, directive = round_state
        system.rps[0]._epoch = directive.epoch + 5
        auditor, found = audit_system(system, directive)
        assert "directive-fidelity" in invariants_of(found)
        assert_pinned(auditor, found, "stale-rp-epoch")

    def test_forwarding_table_tamper_detected(self, round_state):
        system, directive = round_state
        rp = next(
            rp for rp in system.rps.values() if rp._forwarding
        )
        stream = next(iter(rp._forwarding))
        rp._forwarding[stream] = rp._forwarding[stream] + [0]
        auditor, found = audit_system(system, directive)
        assert "forwarding-table" in invariants_of(found)
        assert_pinned(auditor, found, "forwarding-tamper")

    def test_missing_rp_for_active_site_detected(self, round_state):
        system, directive = round_state
        rps = dict(system.rps)
        del rps[0]
        auditor, found = audit_system(system, directive, rps=rps)
        assert "membership" in invariants_of(found)
        assert_pinned(auditor, found, "missing-rp")


@pytest.fixture
def thrash_runtime():
    """A clean, audited ``fov-thrash`` N=8 run (incremental delta rounds)."""
    runtime = ScenarioRuntime(
        get_scenario("fov-thrash", sites=8, seed=7), audit=True, strict=True
    )
    runtime.run()
    return runtime


def audit_runtime(runtime):
    """Audit the runtime's last round again; returns (auditor, violations)."""
    auditor = InvariantAuditor()
    found = auditor.audit_round(
        runtime.server.last_result,
        runtime.directives[-1],
        runtime.rps,
        runtime.active,
    )
    return auditor, found


class TestAuditRuntimeRound:
    def test_clean_round(self, thrash_runtime):
        auditor, found = audit_runtime(thrash_runtime)
        assert found == []
        assert_pinned(auditor, found, "thrash-clean")

    def test_reordered_children_are_not_a_violation(self, thrash_runtime):
        rp = next(
            rp
            for rp in thrash_runtime.rps.values()
            if any(len(children) >= 2 for children in rp._forwarding.values())
        )
        for children in rp._forwarding.values():
            children.reverse()
        auditor, found = audit_runtime(thrash_runtime)
        assert found == []
        assert_pinned(auditor, found, "thrash-clean")

    def test_satisfied_request_not_receiving(self, thrash_runtime):
        request = thrash_runtime.server.last_result.satisfied[0]
        thrash_runtime.rps[request.subscriber]._receiving.discard(request.stream)
        auditor, found = audit_runtime(thrash_runtime)
        assert "membership" in invariants_of(found)
        assert_pinned(auditor, found, "satisfied-not-receiving")

    def test_phantom_forwarding_entry_detected(self, thrash_runtime):
        site, other = sorted(thrash_runtime.active)[:2]
        rp = thrash_runtime.rps[site]
        # An entry no directive ever dictated: the whole table is compared,
        # not only the streams the directive lists for this site.
        rp._forwarding[StreamId(site, 77)] = [other]
        auditor, found = audit_runtime(thrash_runtime)
        assert "forwarding-table" in invariants_of(found)
        assert_pinned(auditor, found, "phantom-forwarding-entry")

    def test_emptied_forwarding_entry_detected(self, thrash_runtime):
        rp = next(rp for rp in thrash_runtime.rps.values() if rp._forwarding)
        stream = next(iter(rp._forwarding))
        rp._forwarding[stream] = []
        auditor, found = audit_runtime(thrash_runtime)
        assert "forwarding-table" in invariants_of(found)
        assert_pinned(auditor, found, "emptied-forwarding-entry")


#: Recorded ``(checks_run, [(invariant, detail), ...])`` per mutation.
PINNED: dict[str, tuple[int, list[tuple[str, str]]]] = {
    "clean-build": (62, []),
    "clean-chain": (14, []),
    "self-parent-cycle": (
        62,
        [
            ("parent-child-symmetry", "edge 2->2 in parent map only, tree s1^3"),
            ("parent-child-symmetry", "edge 1->2 in children lists only, tree s1^3"),
            ("acyclicity", "cycle through 2 in tree s1^3"),
            ("degree-ledger", "node 1: forest degrees (8, 6) != ledger (8, 7)"),
            ("degree-ledger", "node 2: forest degrees (7, 11) != ledger (7, 10)"),
        ],
    ),
    "cycle-beside-walk": (
        14,
        [
            ("parent-child-symmetry", "edge 3->2 in parent map only, tree s0^0"),
            ("parent-child-symmetry", "edge 1->2 in children lists only, tree s0^0"),
            ("acyclicity", "cycle through 2 in tree s0^0"),
            ("acyclicity", "cycle through 3 in tree s0^0"),
            ("acyclicity", "cycle through 4 in tree s0^0"),
            ("acyclicity", "cycle through 3 in tree s0^0"),
            ("degree-ledger", "node 1: forest degrees (1, 0) != ledger (1, 1)"),
            ("outbound-bound", "node 3: dout 2 > O 1"),
            ("degree-ledger", "node 3: forest degrees (1, 2) != ledger (1, 1)"),
        ],
    ),
    "orphaned-subtree": (
        14,
        [
            ("parent-child-symmetry", "edge 6->2 in parent map only, tree s0^0"),
            ("parent-child-symmetry", "edge 1->2 in children lists only, tree s0^0"),
            ("acyclicity", "2 cannot reach source of tree s0^0"),
            ("acyclicity", "3 cannot reach source of tree s0^0"),
            ("acyclicity", "4 cannot reach source of tree s0^0"),
            ("acyclicity", "5 cannot reach source of tree s0^0"),
            ("degree-ledger", "node 1: forest degrees (1, 0) != ledger (1, 1)"),
            ("degree-ledger", "node 6: forest degrees (0, 1) != ledger (0, 0)"),
        ],
    ),
    "child-list-drop": (
        62,
        [
            ("parent-child-symmetry", "edge 1->2 in parent map only, tree s1^3"),
        ],
    ),
    # Not the contract: a repeated child should be a symmetry breach
    # (see test_duplicated_child_flagged); recorded as the auditor has it.
    "duplicated-child": (62, []),
    "duplicate-replaces-sibling": (
        62,
        [
            ("parent-child-symmetry", "edge 3->2 in parent map only, tree s3^2"),
        ],
    ),
    "dout-ledger": (
        62,
        [
            ("degree-ledger", "node 0: forest degrees (10, 8) != ledger (10, 9)"),
        ],
    ),
    "inbound-zero": (
        62,
        [
            ("inbound-bound", "node 2: din 7 > I 0"),
        ],
    ),
    "outbound-overflow": (
        62,
        [
            ("outbound-bound", "node 3: dout 8 > O 1"),
        ],
    ),
    "latency": (
        62,
        [
            ("latency-bound", "r2(s1^3): path 10000.0ms >= B_cost 200.0ms"),
        ],
    ),
    "m-hat": (
        62,
        [
            (
                "reservation-accounting",
                "node 0: m̂ 1 != 0 opened undisseminated sourced groups",
            ),
        ],
    ),
    "satisfied-pop": (
        61,
        [
            ("request-accounting", "32 resolved, 33 in problem"),
        ],
    ),
    "satisfied-and-rejected": (
        62,
        [
            ("request-accounting", "34 resolved, 33 in problem"),
            ("request-accounting", "r0(s3^0) both satisfied and rejected"),
        ],
    ),
    "clean-round": (52, []),
    "phantom-directive-edge": (
        53,
        [
            (
                "directive-fidelity",
                "phantom directive edge (StreamId(site=0, index=999), 0, 1)",
            ),
            ("membership", "site 1 receives unrequested stream s0^999"),
            ("forwarding-table", "site 0 forwards s0^999 to [], directive says [1]"),
            ("forwarding-table", "site 1 receiving set diverges from directive"),
        ],
    ),
    "duplicated-directive-edge": (
        52,
        [
            ("forwarding-table", "site 0 forwards s0^0 to [1], directive says [1, 1]"),
        ],
    ),
    "stale-rp-epoch": (
        52,
        [
            ("directive-fidelity", "site 0 at epoch 6, directive 1"),
        ],
    ),
    "forwarding-tamper": (
        52,
        [
            ("forwarding-table", "site 0 forwards s0^0 to [1, 0], directive says [1]"),
        ],
    ),
    "missing-rp": (
        51,
        [
            ("membership", "active site 0 has no RP agent"),
        ],
    ),
    "thrash-clean": (366, []),
    "satisfied-not-receiving": (
        366,
        [
            ("forwarding-table", "site 3 receiving set diverges from directive"),
            ("membership", "satisfied r3(s7^16) not receivable at its RP"),
        ],
    ),
    # Not a record of the re-derive-everything auditor, which compared
    # only the streams the directive lists for the site and returned [].
    "phantom-forwarding-entry": (
        366,
        [
            (
                "forwarding-table",
                "site 0 forwards s0^77 to [1], directive dictates no such entry",
            ),
        ],
    ),
    "emptied-forwarding-entry": (
        366,
        [
            ("forwarding-table", "site 0 forwards s0^2 to [], directive says [5]"),
        ],
    ),
}

#: Digest of one clean ``audit_build(clean_result, "e", 5.0)``.
PINNED_DIGEST = "e9b22b325bce8564a0966c99a2b7b4cb208b3ed5ac948301883c85f6daf3c95b"
