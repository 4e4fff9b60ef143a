"""The ``serve`` / ``replay`` command line, end to end over a subprocess."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

import pytest

from repro.service import cli as service_cli
from repro.service.cli import build_service_parser, service_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestParser:
    def test_serve_defaults(self):
        args = build_service_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.admission == "block"
        assert args.slo_ms is None

    def test_replay_requires_port(self):
        with pytest.raises(SystemExit):
            build_service_parser().parse_args(["replay"])

    def test_maps_cannot_be_served(self):
        with pytest.raises(SystemExit):
            build_service_parser().parse_args(["serve", "--strategy", "MAPS"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--scale", "0"],
            ["serve", "--scale", "nan"],
            ["replay", "--port", "1", "--scale", "-1"],
        ],
    )
    def test_non_positive_scale_is_a_clean_cli_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            service_main(argv)
        assert excinfo.value.code == 2
        assert "--scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--task-lifetime", "0"], "task_lifetime must be positive"),
            (["--max-degree", "0"], "max_degree must be a positive integer"),
            (["--queue-size", "0"], "queue_size must be positive"),
            (["--degrade-fraction", "2"], "degrade_fraction must be in (0, 1]"),
            (["--slo-ms", "-1"], "slo_ms must be positive"),
        ],
    )
    def test_serve_config_errors_are_clean_cli_errors(
        self, flags, message, capsys, monkeypatch
    ):
        # Refused before the server binds: exit 2 and one usage error
        # line, not a traceback or a listening server that refuses every
        # hello.
        def _no_server(config):
            raise AssertionError(f"server built from an invalid config {config}")

        monkeypatch.setattr("repro.service.cli.DispatchServer", _no_server)
        with pytest.raises(SystemExit) as excinfo:
            service_main(["serve", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ]
        assert "Traceback" not in err

    def test_there_is_no_universe_matcher_flag(self):
        # The degree cap alone picks the session matcher.
        with pytest.raises(SystemExit):
            build_service_parser().parse_args(["serve", "--universe-matcher"])


class TestEndToEnd:
    def test_serve_once_and_replay(self, capsys, monkeypatch):
        """Boot ``serve --once`` in a subprocess, replay in-process, and
        assert the server exits cleanly and unlinks its segment."""
        reports = []
        run_replay = service_cli.run_replay

        def spy(*args, **kwargs):
            reports.append(run_replay(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(service_cli, "run_replay", spy)
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--scenario", "churn_city", "--scale", "0.05", "--seed", "3",
                "--port", "0", "--once",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=REPO_ROOT,
        )
        try:
            assert child.stdout is not None
            banner = child.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no port in banner: {banner!r}"
            port = int(match.group(1))
            status = service_main(
                [
                    "replay", "--port", str(port),
                    "--scenario", "churn_city", "--scale", "0.05", "--seed", "3",
                ]
            )
            assert status == 0
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - defensive
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == 0
        out = capsys.readouterr().out
        assert "revenue" in out
        assert "p99" in out
        # A --once exit must not strand its arena in /dev/shm.  The final
        # stats reply names the child's own segment, so a segment another
        # process owns at the same time is not mistaken for a leak.
        segment = reports[0].stats["segment"]
        assert segment and segment.startswith("repro_arena_")
        time.sleep(0.2)
        assert not os.path.exists(os.path.join("/dev/shm", segment))
