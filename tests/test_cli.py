"""Unit tests for the CLI argument parser (integration runs elsewhere)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.pubsub.faults import PartitionWindow, ServerOutageWindow


class TestParser:
    def test_fig8_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.command == "fig8"
        assert args.workload == "random"
        assert args.nodes == "uniform"
        assert args.samples == 200
        assert args.seed == 42
        assert not args.no_plot

    def test_fig8_options(self):
        args = build_parser().parse_args(
            ["fig8", "--workload", "zipf", "--nodes", "heterogeneous",
             "--samples", "10", "--seed", "3", "--no-plot"]
        )
        assert args.workload == "zipf"
        assert args.nodes == "heterogeneous"
        assert args.samples == 10
        assert args.seed == 3
        assert args.no_plot

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--workload", "gaussian"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["fig9", "fig10", "fig11", "all"])
    def test_other_figures_parse(self, command):
        args = build_parser().parse_args([command, "--samples", "5"])
        assert args.command == command
        assert args.samples == 5

    def test_demo_options(self):
        args = build_parser().parse_args(["demo", "--sites", "7", "--seed", "9"])
        assert args.sites == 7
        assert args.seed == 9

    def test_backbone_option(self):
        args = build_parser().parse_args(["fig9", "--backbone", "abilene"])
        assert args.backbone == "abilene"

    def test_audit_flag_on_figures(self):
        args = build_parser().parse_args(["fig8", "--audit"])
        assert args.audit
        args = build_parser().parse_args(["fig8"])
        assert not args.audit


class TestScenarioParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        assert args.command == "scenario"
        assert args.scenario_command == "run"
        assert args.name == "flash-crowd"
        assert args.sites == 8
        assert args.seed == 7
        assert args.audit
        assert not args.strict
        assert args.algorithm is None

    def test_run_options(self):
        args = build_parser().parse_args(
            ["scenario", "run", "mixed-churn", "--sites", "12", "--seed", "3",
             "--algorithm", "co-rj", "--audit", "--strict"]
        )
        assert args.sites == 12
        assert args.seed == 3
        assert args.algorithm == "co-rj"
        assert args.audit
        assert args.strict

    def test_no_audit(self):
        args = build_parser().parse_args(
            ["scenario", "run", "fov-thrash", "--no-audit"]
        )
        assert not args.audit

    def test_audit_and_no_audit_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "fov-thrash", "--audit", "--no-audit"]
            )

    def test_list(self):
        args = build_parser().parse_args(["scenario", "list"])
        assert args.scenario_command == "list"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_rebuild_policy_default_none(self):
        args = build_parser().parse_args(["scenario", "run", "mass-leave"])
        assert args.rebuild_policy is None

    def test_rebuild_policy_choices(self):
        args = build_parser().parse_args(
            ["scenario", "run", "mass-leave", "--rebuild-policy", "incremental"]
        )
        assert args.rebuild_policy == "incremental"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "mass-leave", "--rebuild-policy", "never"]
            )

    def test_async_control_flags(self):
        args = build_parser().parse_args(
            ["scenario", "run", "flash-crowd", "--async-control",
             "--control-delay-ms", "50", "--debounce-ms", "15"]
        )
        assert args.async_control
        assert args.control_delay_ms == 50.0
        assert args.debounce_ms == 15.0

    def test_async_control_defaults_off(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        assert not args.async_control
        assert args.control_delay_ms is None
        assert args.debounce_ms is None

    def test_chaos_flags(self):
        args = build_parser().parse_args(
            ["scenario", "run", "flash-crowd", "--loss-rate", "0.2",
             "--jitter-ms", "8", "--duplicate-rate", "0.05",
             "--partition", "0:600:1100", "--heartbeat-ms", "40",
             "--miss-threshold", "3", "--retransmit-timeout-ms", "60",
             "--max-unrecovered", "0"]
        )
        assert args.loss_rate == 0.2
        assert args.jitter_ms == 8.0
        assert args.duplicate_rate == 0.05
        assert args.partition == ["0:600:1100"]
        assert args.heartbeat_ms == 40.0
        assert args.miss_threshold == 3
        assert args.retransmit_timeout_ms == 60.0
        assert args.max_unrecovered == 0

    def test_chaos_flags_default_none(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        assert args.loss_rate is None
        assert args.heartbeat_ms is None
        assert args.retransmit_timeout_ms is None
        assert args.partition is None
        assert args.max_unrecovered is None

    def test_partition_format_rejected(self):
        from repro.cli import _parse_partition

        with pytest.raises(SystemExit):
            _parse_partition("0:600")
        with pytest.raises(SystemExit):
            _parse_partition("a:b:c")

    @pytest.mark.parametrize(
        "flag", ["--problem-assembly", "--delta-source", "--drift-mode"]
    )
    def test_reference_mode_flags_removed(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "flash-crowd", flag, "diffed"]
            )
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConvergenceParser:
    def test_defaults(self):
        args = build_parser().parse_args(["convergence"])
        assert args.command == "convergence"
        assert args.scenario == "flash-crowd"
        assert args.delays == "0,20,50,100"
        assert args.sites == 8
        assert args.debounce_ms == 10.0
        assert not args.audit

    def test_options(self):
        args = build_parser().parse_args(
            ["convergence", "--scenario", "mixed-churn", "--delays", "0,80",
             "--sites", "12", "--debounce-ms", "25", "--audit", "--no-plot"]
        )
        assert args.scenario == "mixed-churn"
        assert args.delays == "0,80"
        assert args.sites == 12
        assert args.debounce_ms == 25.0
        assert args.audit
        assert args.no_plot


class TestDisruptionParser:
    def test_defaults(self):
        args = build_parser().parse_args(["disruption"])
        assert args.command == "disruption"
        assert args.scenario == "mixed-churn"
        assert args.sizes == "8,16,32"
        assert args.seed == 7
        assert not args.audit

    def test_options(self):
        args = build_parser().parse_args(
            ["disruption", "--scenario", "mass-leave", "--sizes", "4,6",
             "--seed", "3", "--audit", "--no-plot"]
        )
        assert args.scenario == "mass-leave"
        assert args.sizes == "4,6"
        assert args.audit and args.no_plot


class TestPerfCompareParser:
    def test_ratchet_defaults(self):
        args = build_parser().parse_args(["perf", "compare", "a.json", "b.json"])
        assert not args.ratchet
        assert args.threshold == 2.0

    def test_ratchet_options(self):
        args = build_parser().parse_args(
            ["perf", "compare", "a.json", "b.json", "--ratchet",
             "--threshold", "1.5"]
        )
        assert args.ratchet
        assert args.threshold == 1.5


class TestScenarioCommands:
    def test_list_prints_all(self, capsys):
        from repro.cli import main
        from repro.scenarios import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_small_scenario_clean(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "4", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violations" in out
        assert "digest" in out

    def test_run_with_rebuild_policy(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "mass-leave", "--sites", "4", "--seed", "2",
             "--rebuild-policy", "incremental"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overlay maintenance [incremental]" in out
        assert "0 violations" in out


class TestChaosCommands:
    def test_list_prints_chaos_family(self, capsys):
        from repro.cli import main
        from repro.scenarios import chaos_scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in chaos_scenario_names():
            assert name in out

    def test_run_chaos_scenario_gated(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "lossy-flash-crowd", "--sites", "6",
             "--seed", "2", "--max-unrecovered", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos:" in out
        assert "0 violations" in out

    def test_unrecovered_gate_fails_loudly(self, capsys):
        from repro.cli import main

        # An impossible bound: any run with at least one detection
        # cannot satisfy max-unrecovered below zero.
        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "4", "--seed", "2",
             "--async-control", "--max-unrecovered", "-1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_data_chaos_flags_run_the_nack_plane(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "5", "--seed", "3",
             "--data-loss-rate", "0.2", "--data-jitter-ms", "5",
             "--data-nack", "--data-max-repair-attempts", "30",
             "--data-repair-deadline-factor", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "data chaos:" in out
        assert "0 violations" in out
        # Crucially the data knobs did NOT drag in the async control
        # plane (no control chaos, no convergence line).
        assert "async control" not in out

    def test_unrecovered_frames_gate_fails_loudly(self, capsys):
        from repro.cli import main

        # Same impossible-bound trick for the data-plane gate.
        code = main(
            ["scenario", "run", "flash-crowd", "--sites", "4", "--seed", "2",
             "--max-unrecovered-frames", "-1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "unrecovered frame" in out


class TestDisruptionCommand:
    def test_sweep_prints_policy_series(self, capsys):
        from repro.cli import main

        code = main(
            ["disruption", "--scenario", "mass-leave", "--sizes", "4,5",
             "--seed", "3", "--no-plot"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "always" in out
        assert "incremental" in out
        assert "hybrid" in out


#: Every ``scenario run`` flag that overrides a spec field: flag
#: arguments -> expected (field, value) pairs.  Values differ from every
#: named scenario's default so a dropped override cannot pass unseen.
CONTROL_OVERRIDES = {
    "--async-control": ([], {}),
    "--control-delay-ms": (["7"], {"control_delay_ms": 7.0}),
    "--debounce-ms": (["3"], {"debounce_ms": 3.0}),
    "--loss-rate": (["0.1"], {"loss_rate": 0.1}),
    "--jitter-ms": (["2"], {"jitter_ms": 2.0}),
    "--duplicate-rate": (["0.05"], {"duplicate_rate": 0.05}),
    "--partition": (
        ["1:100:200"],
        {"partitions": (PartitionWindow(site=1, start_ms=100.0, end_ms=200.0),)},
    ),
    "--heartbeat-ms": (["40"], {"heartbeat_ms": 40.0}),
    "--miss-threshold": (["4"], {"miss_threshold": 4}),
    "--retransmit-timeout-ms": (["60"], {"retransmit_timeout_ms": 60.0}),
    "--server-outage": (
        ["300:400"],
        {"server_outages": (ServerOutageWindow(start_ms=300.0, end_ms=400.0),)},
    ),
    "--phi-threshold": (["8"], {"phi_threshold": 8.0}),
    "--checkpoint-interval-ms": (["50"], {"checkpoint_interval_ms": 50.0}),
}
DATA_OVERRIDES = {
    "--data-loss-rate": (["0.2"], {"data_loss_rate": 0.2}),
    "--data-jitter-ms": (["1.5"], {"data_jitter_ms": 1.5}),
    "--data-duplicate-rate": (["0.1"], {"data_duplicate_rate": 0.1}),
    "--data-nack": ([], {"data_nack": True}),
    "--data-max-repair-attempts": (["7"], {"data_max_repair_attempts": 7}),
    "--data-repair-deadline-factor": (
        ["4"], {"data_repair_deadline_factor": 4.0}
    ),
}
SPEC_OVERRIDES = {
    "--algorithm": (["co-rj"], {"algorithm": "co-rj"}),
    "--rebuild-policy": (["hybrid"], {"rebuild_policy": "hybrid"}),
    "--backend": (["python"], {"backend": "python"}),
    **CONTROL_OVERRIDES,
    **DATA_OVERRIDES,
}
#: ``scenario run`` options that steer the run, not the spec.
RUN_OPTIONS = {
    "command", "scenario_command", "name", "sites", "seed", "audit",
    "strict", "dataplane", "max_unrecovered", "max_unrecovered_reports",
    "max_unrecovered_frames",
}


def _flags(*names: str) -> list[str]:
    argv: list[str] = []
    for name in names:
        argv += [name, *SPEC_OVERRIDES[name][0]]
    return argv


class TestScenarioOverrideMapping:
    """``scenario run`` flags land on the spec handed to ``run_scenario``."""

    @pytest.fixture
    def run_spec(self, monkeypatch):
        import repro.scenarios
        from repro.cli import main
        from repro.scenarios.runtime import ScenarioReport

        def run(argv: list[str]):
            captured = []

            def fake_run(spec, audit, strict, dataplane):
                captured.append(spec)
                return ScenarioReport(
                    name=spec.name,
                    seed=spec.seed,
                    n_sites=spec.n_sites,
                    duration_ms=spec.duration_ms,
                )

            monkeypatch.setattr(repro.scenarios, "run_scenario", fake_run)
            assert main(["scenario", "run", "flash-crowd", *argv]) == 0
            (spec,) = captured
            return spec

        return run

    def test_every_override_flag_is_covered(self):
        args = build_parser().parse_args(["scenario", "run", "flash-crowd"])
        dests = {
            flag[2:].replace("-", "_") for flag in SPEC_OVERRIDES
        }
        assert set(vars(args)) - RUN_OPTIONS == dests

    def test_every_flag_lands_on_its_field(self, run_spec):
        spec = run_spec(_flags(*SPEC_OVERRIDES))
        for _argv, expected in SPEC_OVERRIDES.values():
            for field, value in expected.items():
                assert getattr(spec, field) == value, field
        assert spec.async_control

    def test_unset_flags_keep_the_scenario(self, run_spec):
        from repro.scenarios import get_scenario

        assert run_spec([]) == get_scenario("flash-crowd", sites=8, seed=7)

    @pytest.mark.parametrize("flag", sorted(CONTROL_OVERRIDES))
    def test_control_flag_implies_async_control(self, flag, run_spec):
        # A nonzero phi threshold needs heartbeats, and any outage needs
        # heartbeats plus retransmission, to validate.  Phi is checked
        # alone at 0; an outage cannot be, so it rides with both.
        argv = {
            "--phi-threshold": ["--phi-threshold", "0"],
            "--server-outage": _flags(
                "--server-outage", "--heartbeat-ms", "--retransmit-timeout-ms"
            ),
        }.get(flag, _flags(flag))
        spec = run_spec(argv)
        assert spec.async_control

    def test_data_flags_leave_async_control_off(self, run_spec):
        spec = run_spec(_flags(*DATA_OVERRIDES))
        assert not spec.async_control
        for _argv, expected in DATA_OVERRIDES.values():
            for field, value in expected.items():
                assert getattr(spec, field) == value, field
