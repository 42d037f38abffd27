"""CLI tests (direct main() invocation; no subprocesses)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.graph == "LJ"
        assert args.algo == "SSSP"
        assert args.system == "graphdyns"

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "tpu"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_service_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig8", "--jobs", "4",
             "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True

    def test_service_flag_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.executor == "thread"

    def test_executor_flag(self):
        args = build_parser().parse_args(
            ["figure", "fig6", "--jobs", "2", "--executor", "process"]
        )
        assert args.executor == "process"

    def test_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--executor", "fiber"])

    def test_profile_flag(self):
        assert build_parser().parse_args(["run"]).profile is False
        assert build_parser().parse_args(["run", "--profile"]).profile is True

    def test_matrix_defaults(self):
        args = build_parser().parse_args(["matrix"])
        assert args.algorithms is None
        assert args.graphs is None
        assert args.retries == 3
        assert args.timeout is None
        assert args.backoff == 0.05
        assert args.checkpoint is None
        assert args.resume is None
        assert args.inject == []
        assert args.output is None

    def test_matrix_inject_is_repeatable(self):
        args = build_parser().parse_args(
            ["matrix", "--inject", "crash:1", "--inject", "flaky-store:1"]
        )
        assert args.inject == ["crash:1", "flaky-store:1"]

    def test_matrix_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--algorithms", "DFS"])

    def test_matrix_shares_service_flags(self):
        args = build_parser().parse_args(
            ["matrix", "--jobs", "2", "--executor", "process", "--no-cache"]
        )
        assert args.jobs == 2
        assert args.executor == "process"
        assert args.no_cache is True

    def test_sharding_flag_defaults(self):
        for argv in (["run"], ["matrix"], ["trace", "bfs", "FR"]):
            args = build_parser().parse_args(argv)
            assert args.storage == "memory"
            assert args.shards == 1

    def test_sharding_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--storage", "mmap", "--shards", "4"]
        )
        assert args.storage == "mmap"
        assert args.shards == 4

    def test_rejects_unknown_storage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--storage", "tape"])

    def test_matrix_accepts_sharding_flags(self):
        args = build_parser().parse_args(
            ["matrix", "--storage", "mmap", "--shards", "2", "--jobs", "2"]
        )
        assert args.storage == "mmap"
        assert args.shards == 2


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "LiveJournal" in out
        assert "RMAT scale 26" in out

    def test_datasets_lists_aliases_and_paper_scale(self, capsys):
        # S1: alias and *-FULL spellings are discoverable from the CLI.
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "RM12" in out
        assert "proxy-scale RMAT alias" in out
        assert "RM22-FULL" in out
        assert "paper scale" in out

    def test_run_sharded_mmap_matches_default(self, capsys):
        assert main(["run", "--graph", "FR", "--algo", "BFS"]) == 0
        baseline = capsys.readouterr().out
        assert main(
            ["run", "--graph", "FR", "--algo", "BFS",
             "--storage", "mmap", "--shards", "3"]
        ) == 0
        assert capsys.readouterr().out == baseline

    def test_run_graphdyns(self, capsys):
        assert main(["run", "--graph", "FR", "--algo", "BFS"]) == 0
        out = capsys.readouterr().out
        assert "GraphDynS" in out
        assert "GTEPS" in out

    def test_run_profiled(self, capsys):
        assert main(
            ["run", "--graph", "FR", "--algo", "BFS", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "GTEPS" in out  # the normal report still prints
        assert "cumulative" in out  # plus the cProfile table

    def test_run_baseline_system(self, capsys):
        assert main(
            ["run", "--graph", "FR", "--algo", "CC", "--system", "gunrock"]
        ) == 0
        assert "Gunrock" in capsys.readouterr().out

    def test_compare(self, capsys, tmp_path):
        assert main(
            ["compare", "--graph", "FR", "--algo", "BFS",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        for system in ("Gunrock", "Graphicionado", "GraphDynS"):
            assert system in out

    def test_compare_second_run_served_from_cache(self, capsys, tmp_path):
        argv = ["compare", "--graph", "FR", "--algo", "BFS",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert list(tmp_path.glob("*.json")), "no cache entry written"

    def test_figure_fig14c_second_run_served_from_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        services = []
        make = cli._service_from_args

        def recording(args, **kwargs):
            services.append(make(args, **kwargs))
            return services[-1]

        monkeypatch.setattr(cli, "_service_from_args", recording)
        argv = ["figure", "fig14c", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert services[0].stats.stores == 5  # one envelope per algorithm
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert services[1].stats.misses == 0
        assert services[1].stats.hits == 5

    def test_backends_lists_registered_systems(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for system in ("GraphDynS", "Graphicionado", "Gunrock"):
            assert system in out

    def test_figure_static(self, capsys):
        assert main(["figure", "fig8", "table2"]) == 0
        out = capsys.readouterr().out
        assert "power/area" in out
        assert "Process_Edge" in out


class TestChurnCommand:
    def test_churn_defaults_parse(self):
        args = build_parser().parse_args(["churn"])
        assert args.graph == "FR"
        assert args.algo == "BFS"
        assert args.batches == 8
        assert args.insert_fraction == 0.5

    def test_insert_only_session_stays_on_delta_path(self, capsys):
        rc = main(
            ["churn", "--graph", "FR", "--algo", "SSSP", "--batches", "3",
             "--batch-edges", "16", "--insert-fraction", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "delta path on 3/3 steps" in out
        assert "False" not in out  # every row bit-identical
        assert "ERROR" not in out

    def test_mixed_session_reports_fallbacks(self, capsys):
        rc = main(
            ["churn", "--graph", "FR", "--algo", "BFS", "--batches", "2",
             "--batch-edges", "8", "--insert-fraction", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "full" in out
        assert "ERROR" not in out

    def test_churn_key_cleaned_up_after_session(self):
        from repro.graph import dynamic

        assert main(["churn", "--batches", "1", "--batch-edges", "4"]) == 0
        assert not dynamic.is_registered("FR-CHURN")


class TestMatrixCommand:
    _BASE = ["matrix", "--algorithms", "BFS", "CC", "--graphs", "FR",
             "--backoff", "0"]

    def test_injected_crash_output_matches_clean_run(self, capsys, tmp_path):
        clean = tmp_path / "clean.json"
        faulted = tmp_path / "faulted.json"
        assert main(
            self._BASE + ["--no-cache", "-o", str(clean)]
        ) == 0
        assert main(
            self._BASE
            + ["--no-cache", "--inject", "crash:1", "-o", str(faulted)]
        ) == 0
        assert clean.read_bytes() == faulted.read_bytes()
        out = capsys.readouterr().out
        assert "retries" in out

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(
            self._BASE + cache
            + ["--checkpoint", str(manifest), "-o", str(first)]
        ) == 0
        assert manifest.exists()
        assert main(
            self._BASE + cache
            + ["--resume", str(manifest), "-o", str(second)]
        ) == 0
        assert first.read_bytes() == second.read_bytes()
        out = capsys.readouterr().out
        assert f"checkpoint manifest: {manifest}" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8177
        assert args.journal == "repro-jobs.jsonl"
        assert args.capacity == 64
        assert args.max_running == 1
        assert args.executor == "thread"
        assert args.inject == []
        assert args.announce is None

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--journal", "w.jsonl",
             "--capacity", "8",
             "--max-running", "2", "--executor", "process",
             "--deadline", "30", "--inject", "kill-daemon:2",
             "--inject", "queue-overflow:1:1", "--announce", "a.json",
             "--storage", "mmap", "--shards", "4"]
        )
        assert args.port == 0
        assert args.capacity == 8
        assert args.executor == "process"
        assert args.inject == ["kill-daemon:2", "queue-overflow:1:1"]
        assert args.announce == "a.json"
        assert args.storage == "mmap" and args.shards == 4

    def test_serve_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--rate", "5"],
            ["serve", "--burst", "4"],
            ["submit", "--algorithms", "BFS", "--graphs", "FR",
             "--priority", "2"],
            ["submit", "--algorithms", "BFS", "--graphs", "FR",
             "--client", "me"],
            ["run-spec", "x.yaml", "--priority", "2"],
        ],
    )
    def test_queue_policy_flags_do_not_exist(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_submit_requires_algorithms_and_graphs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--graphs", "FR"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--algorithms", "BFS"])

    def test_submit_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--algorithms", "NOPE", "--graphs", "FR"]
            )

    def test_jobs_optional_id(self):
        assert build_parser().parse_args(["jobs"]).job_id is None
        args = build_parser().parse_args(["jobs", "j000001-aaaa"])
        assert args.job_id == "j000001-aaaa"


class TestServeClients:
    """submit/jobs client commands against an in-process daemon."""

    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.harness.serve import DaemonConfig, SimulationDaemon

        daemon = SimulationDaemon(
            DaemonConfig(
                port=0,
                journal_path=str(tmp_path / "jobs.jsonl"),
                cache_dir=str(tmp_path / "cache"),
                poll_interval=0.01,
                drain_timeout=1.0,
            )
        )
        daemon.start()
        yield daemon
        daemon.stop(drain=False)

    def test_submit_wait_writes_result(self, daemon, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            ["submit", "--url", daemon.base_url,
             "--algorithms", "BFS", "--graphs", "RM22",
             "--wait", "--timeout", "90", "-o", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "accepted as j" in captured
        assert "final state: done" in captured
        assert out.read_text().startswith("[")

    def test_jobs_lists_submitted_job(self, daemon, capsys):
        assert main(
            ["submit", "--url", daemon.base_url,
             "--algorithms", "BFS", "--graphs", "RM22",
             "--wait", "--timeout", "90"]
        ) == 0
        capsys.readouterr()
        assert main(["jobs", "--url", daemon.base_url]) == 0
        listing = capsys.readouterr().out
        assert "done" in listing and "BFS" in listing

    def test_jobs_inspect_unknown_id_fails(self, daemon, capsys):
        assert main(["jobs", "--url", daemon.base_url, "nope"]) == 1

    def test_submit_rejected_when_draining(self, daemon, capsys):
        daemon.drain()
        code = main(
            ["submit", "--url", daemon.base_url,
             "--algorithms", "BFS", "--graphs", "FR"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "rejected [503]" in err
        assert "Retry-After" in err


class TestSpecCommands:
    """The declarative plan / run-spec surface."""

    SPEC = "name: clitest\nalgorithms: [BFS]\ngraphs: [RM12]\nselect: [cycles]\n"

    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(self.SPEC)
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["plan", "x.yaml"])
        assert args.json is False and args.url is None
        args = build_parser().parse_args(["run-spec", "x.yaml"])
        assert args.dry_run is False
        assert args.output is None and args.plan_out is None

    def test_plan_requires_spec_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_plan_json_is_canonical(self, spec_path, capsys):
        import json

        assert main(["plan", spec_path, "--no-cache", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["spec"]["name"] == "clitest"
        assert parsed["totals"]["pending"] == 1
        assert parsed["schedule"] == [["base", "BFS", "RM12"]]

    def test_run_spec_writes_outputs(self, spec_path, tmp_path, capsys):
        out = tmp_path / "cells.json"
        plan_out = tmp_path / "plan.json"
        code = main(
            ["run-spec", spec_path, "--no-cache",
             "-o", str(out), "--plan-out", str(plan_out)]
        )
        assert code == 0
        assert out.read_text().startswith("[")
        assert '"schedule"' in plan_out.read_text()
        output = capsys.readouterr().out
        assert "spec clitest" in output
        assert "BFS" in output and "cycles" in output

    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        assert main(["plan", str(tmp_path / "nope.yaml")]) == 2
        assert "spec error" in capsys.readouterr().err

    def test_plan_and_run_spec_against_daemon(self, tmp_path, capsys):
        from repro.harness.serve import DaemonConfig, SimulationDaemon

        daemon = SimulationDaemon(
            DaemonConfig(
                port=0,
                journal_path=str(tmp_path / "jobs.jsonl"),
                cache_dir=str(tmp_path / "cache"),
                poll_interval=0.01,
                drain_timeout=1.0,
            )
        )
        daemon.start()
        try:
            spec_path = tmp_path / "spec.yaml"
            spec_path.write_text(
                "name: clid\nalgorithms: [BFS]\ngraphs: [RM22]\n"
            )
            assert main(["plan", str(spec_path), "--url",
                         daemon.base_url]) == 0
            assert '"totals"' in capsys.readouterr().out

            assert main(["run-spec", str(spec_path), "--url",
                         daemon.base_url]) == 0
            body = capsys.readouterr().out
            assert '"jobs"' in body

            bad = tmp_path / "bad.yaml"
            bad.write_text("name: x\nalgorithms: [NOPE]\ngraphs: [RM22]\n")
            assert main(["plan", str(bad), "--url", daemon.base_url]) == 1
            assert "daemon rejected plan (400)" in capsys.readouterr().err
        finally:
            daemon.stop(drain=False)
