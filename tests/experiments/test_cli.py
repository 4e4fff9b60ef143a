"""Tests for the experiment command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main
from repro.pricing.registry import available_strategies
from repro.simulation.scenarios import available_scenarios


class TestParser:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig6-W" in output
        assert "fig8-real2" in output
        assert "fig10-alpha" in output
        for scenario in available_scenarios():
            assert scenario in output

    def test_figure_required_without_list(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig99"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["--figure", "fig6-W"])
        assert args.scale is None  # resolved per mode (figure: 0.01)
        assert args.metrics is None  # figure mode resolves to revenue/time/memory
        assert args.strategies is None
        assert args.window is None  # resolved to 1.0 in streaming mode
        assert not hasattr(args, "backend")
        assert not args.streaming

    def test_epilog_sources_the_registries(self):
        """--help lists the actually registered strategies and scenarios
        (no hardcoded strings)."""
        epilog = build_parser().epilog
        for strategy in available_strategies():
            assert strategy in epilog
        for scenario in available_scenarios():
            assert scenario in epilog

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "synthetic", "--scale", "-1"],
            ["--scenario", "synthetic", "--scale", "0"],
            ["--scenario", "city_scale", "--scale", "0"],
            ["--scenario", "synthetic", "--scale", "nan"],
            ["--figure", "fig6-W", "--scale", "-1"],
        ],
    )
    def test_non_positive_scale_is_a_clean_cli_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse error, not a traceback
        assert "--scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "hotspot_burst", "--scale", "0.0001"],
            ["--scenario", "churn_city", "--streaming", "--scale", "0.0001"],
        ],
    )
    def test_empty_workload_is_a_clean_cli_error(self, argv, capsys):
        """A positive scale too small to yield a task names the scenario
        and scale in one argparse error instead of a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--no-memory-tracking"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert argv[1] in errors[0] and "--scale 0.0001" in errors[0]

    def test_figure_and_scenario_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig6-W", "--scenario", "synthetic"])

    def test_streaming_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig6-W", "--streaming"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["--scenario", "metaverse"])

    def test_window_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["--scenario", "synthetic", "--streaming", "--window", "0"])

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--window", "inf"),
            ("--window", "nan"),
            ("--task-lifetime", "inf"),
            ("--task-lifetime", "nan"),
        ],
    )
    def test_non_finite_spans_are_clean_cli_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scenario", "synthetic", "--streaming", "--dynamic", flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be positive and finite" in capsys.readouterr().err

    def test_window_requires_streaming(self):
        with pytest.raises(SystemExit):
            main(["--scenario", "synthetic", "--window", "0.5"])

    def test_figure_only_flags_rejected_in_scenario_mode(self):
        with pytest.raises(SystemExit):
            main(["--scenario", "synthetic", "--values", "3", "4"])
        with pytest.raises(SystemExit):
            main(["--scenario", "synthetic", "--metrics", "served"])

    def test_dynamic_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig6-W", "--dynamic"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "synthetic", "--dynamic"],
            ["--scenario", "synthetic", "--shards", "2", "--dynamic"],
        ],
    )
    def test_dynamic_requires_streaming(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--dynamic requires --streaming" in capsys.readouterr().err

    def test_there_is_no_dynamic_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scenario", "synthetic", "--backend", "dynamic"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend dynamic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--figure", "fig6-W", "--backend", "matroid"],
            ["--scenario", "synthetic", "--backend", "matroid"],
            ["--scenario", "synthetic", "--streaming", "--dynamic",
             "--backend", "matroid"],
        ],
    )
    def test_there_is_no_backend_flag(self, argv, capsys):
        # The matroid greedy is the only matcher, so there is nothing to pick.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "churn_city", "--scale", "0.1", "--jobs", "2"],
            ["--figure", "fig6-W", "--scale", "0.005", "--jobs", "2"],
            ["--scenario", "synthetic", "--jobs", "0"],
        ],
    )
    def test_profile_requires_one_job(self, argv, capsys):
        # A pool's worker processes run the engines; cProfile would see
        # only the parent waiting on them.
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--profile", "6"])
        assert excinfo.value.code == 2
        assert "--profile requires --jobs 1" in capsys.readouterr().err

    def test_task_lifetime_requires_dynamic_streaming(self):
        with pytest.raises(SystemExit):
            main(["--scenario", "synthetic", "--task-lifetime", "2"])
        with pytest.raises(SystemExit):
            main(
                ["--scenario", "synthetic", "--streaming", "--dynamic",
                 "--task-lifetime", "0"]
            )

    def test_dynamic_streaming_rejects_conflicting_flags(self):
        with pytest.raises(SystemExit):
            main(
                ["--scenario", "synthetic", "--streaming", "--dynamic",
                 "--shards", "2"]
            )

    def test_there_is_no_warm_start_flag(self):
        # Per-period solves are cold by construction: a dispatched worker
        # leaves the pool, so a cross-period hint could never fire.
        with pytest.raises(SystemExit):
            main(["--scenario", "synthetic", "--streaming", "--warm-start"])


class TestExecution:
    def test_small_run_prints_tables(self, capsys):
        exit_code = main(
            [
                "--figure",
                "fig6-W",
                "--scale",
                "0.005",
                "--values",
                "1250",
                "5000",
                "--strategies",
                "MAPS",
                "BaseP",
                "--metrics",
                "revenue",
                "--no-memory-tracking",
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "fig6-W — revenue" in output
        assert "MAPS" in output and "BaseP" in output
        assert "revenue winners" in output
        # The overridden parameter values appear as table rows.
        assert "1250" in output and "5000" in output

    def test_value_parsing_handles_floats(self, capsys):
        exit_code = main(
            [
                "--figure",
                "fig6-tmu",
                "--scale",
                "0.005",
                "--values",
                "0.5",
                "--strategies",
                "BaseP",
                "--metrics",
                "revenue",
                "--no-memory-tracking",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "0.5" in output


class TestProfile:
    def test_profile_prints_the_engine_hotspots(self, capsys):
        exit_code = main(
            ["--scenario", "synthetic", "--scale", "0.01", "--profile", "5"]
        )
        assert exit_code == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("# top 5 hotspots (cumulative time)")
        assert any("repro/" in line for line in lines[header + 1 :])


class TestScenarioExecution:
    def test_batch_scenario_run(self, capsys):
        exit_code = main(
            [
                "--scenario",
                "synthetic",
                "--scale",
                "0.004",
                "--strategies",
                "BaseP",
                "SDR",
                "--no-memory-tracking",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mode = batch" in output
        assert "BaseP" in output and "SDR" in output
        assert "revenue winner" in output

    def test_streaming_scenario_run(self, capsys):
        exit_code = main(
            [
                "--scenario",
                "hotspot_burst",
                "--scale",
                "0.05",
                "--streaming",
                "--window",
                "2",
                "--strategies",
                "BaseP",
                "--no-memory-tracking",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mode = streaming (window=2)" in output
        assert "revenue winner" in output

    def test_dynamic_streaming_scenario_run(self, capsys):
        exit_code = main(
            [
                "--scenario",
                "hotspot_burst",
                "--scale",
                "0.05",
                "--streaming",
                "--dynamic",
                "--task-lifetime",
                "2",
                "--strategies",
                "BaseP",
                "--no-memory-tracking",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mode = dynamic streaming (window=1, lifetime=2)" in output
        assert "revenue winner" in output

    def test_streaming_matches_batch_at_period_window(self, capsys):
        """--streaming --window 1.0 prints the exact batch numbers."""
        common = [
            "--scenario",
            "synthetic",
            "--scale",
            "0.004",
            "--strategies",
            "BaseP",
            "--no-memory-tracking",
        ]
        assert main(common) == 0
        batch_out = capsys.readouterr().out
        assert main(common + ["--streaming", "--window", "1.0"]) == 0
        stream_out = capsys.readouterr().out

        def revenue_row(output):
            for line in output.splitlines():
                if line.strip().startswith("BaseP"):
                    return line.split()[1:5]  # revenue/served/accepted/accept%
            raise AssertionError(f"no BaseP row in:\n{output}")

        assert revenue_row(batch_out) == revenue_row(stream_out)


class TestServiceForwarding:
    """``serve`` / ``replay`` leading tokens route to the service CLI."""

    def test_replay_subcommand_is_forwarded(self):
        # The service parser owns the subcommand: replay without --port
        # is its error (exit 2), not the legacy parser's "--figure or
        # --scenario is required".
        with pytest.raises(SystemExit) as excinfo:
            main(["replay"])
        assert excinfo.value.code == 2

    def test_serve_help_comes_from_the_service_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--admission" in capsys.readouterr().out

    def test_legacy_flags_still_reach_the_legacy_parser(self):
        with pytest.raises(SystemExit):
            main([])  # "--figure or --scenario is required"
