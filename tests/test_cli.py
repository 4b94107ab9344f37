"""Tests for the ``python -m repro`` command line (repro.cli)."""

import json

import pytest

from repro.cli import main


class TestListScenarios:
    def test_lists_and_counts(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "figure1a" in out
        assert "iscas-s27" in out
        assert "scenario(s)" in out

    def test_family_filter(self, capsys):
        assert main(["list-scenarios", "--family", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "fork-join-early" in out
        assert "figure1a" not in out


class TestRun:
    def test_unknown_target_fails_cleanly(self, capsys):
        assert main(["run", "no-such-thing"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_run_scenario_with_params(self, capsys):
        code = main([
            "run", "figure1a", "--param", "alpha=0.9",
            "--cycles", "800", "--epsilon", "0.2", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theta_lp" in out
        assert "delta_percent" in out

    def test_run_motivational_matches_paper(self, capsys):
        code = main([
            "run", "motivational", "--alphas", "0.9", "--cycles", "4000",
            "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1b" in out
        assert "0.719" in out  # the paper's quoted throughput appears

    def test_progress_events_are_rendered(self, capsys):
        code = main([
            "run", "figure1a", "--param", "alpha=0.9",
            "--cycles", "500", "--epsilon", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline: 1 job(s), serial" in out
        assert "done in" in out

    def test_seed_is_a_root_seed(self, capsys):
        args = ["run", "iscas", "--param", "name=s27", "--param", "scale=0.2",
                "--cycles", "800", "--epsilon", "0.2", "--quiet"]
        assert main(args + ["--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--seed", "5"]) == 0
        repeat = capsys.readouterr().out
        assert main(args + ["--seed", "6"]) == 0
        reseeded = capsys.readouterr().out
        # Same root seed reproduces the table; a new seed regenerates the
        # graph (an explicit --param seed=... would win over --seed).
        assert repeat == first
        assert reseeded != first

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit):
            main(["run", "figure1a", "--param", "alpha0.9", "--quiet"])


class TestProfileArtifact:
    RUN = ["run", "figure1a", "--param", "alpha=0.9", "--cycles", "500",
           "--epsilon", "0.2", "--quiet", "--profile"]

    @pytest.fixture(autouse=True)
    def no_global_sink(self):
        from repro.obs.trace import set_trace_sink

        yield
        set_trace_sink(None)  # --profile --store points it at the store

    @staticmethod
    def _trace_id(out):
        return next(
            line.split(": ", 1)[1]
            for line in out.splitlines() if line.startswith("trace: ")
        )

    def test_run_profile_with_store_writes_beside_the_sink(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        store = tmp_path / "store"
        assert main(self.RUN + ["--store", str(store)]) == 0
        trace_id = self._trace_id(capsys.readouterr().out)
        assert not list(tmp_path.glob("trace-*.json"))
        artifact = store / "traces" / f"trace-{trace_id}.json"
        assert json.loads(artifact.read_text())["traceEvents"]

    def test_run_profile_without_store_writes_to_cwd(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN) == 0
        trace_id = self._trace_id(capsys.readouterr().out)
        assert (tmp_path / f"trace-{trace_id}.json").is_file()


class TestRunReportRoundtrip:
    def test_output_and_report(self, tmp_path, capsys):
        result_file = tmp_path / "result.json"
        code = main([
            "run", "table2-small", "--names", "s27", "--store",
            str(tmp_path / "store"), "--output", str(result_file), "--quiet",
        ])
        assert code == 0
        first = capsys.readouterr().out
        assert "s27" in first

        saved = json.loads(result_file.read_text())
        assert saved["target"] == "table2-small"
        assert saved["rows"]

        assert main(["report", str(result_file)]) == 0
        reported = capsys.readouterr().out
        assert "s27" in reported
        assert "target: table2-small" in reported

    def test_cached_second_run_is_identical(self, tmp_path, capsys):
        args = [
            "run", "table2-small", "--names", "s27",
            "--store", str(tmp_path / "store"), "--quiet",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert second == first

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]", encoding="utf-8")
        assert main(["report", str(bad)]) == 2
        assert main(["report", str(tmp_path / "missing.json")]) == 2


class TestEventFormats:
    def test_json_events_stream_one_object_per_line(self, capsys):
        code = main([
            "run", "figure1a", "--param", "alpha=0.9",
            "--cycles", "500", "--epsilon", "0.2", "--events", "json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()
                  if line.startswith("{")]
        kinds = [event["kind"] for event in events]
        assert "pipeline-start" in kinds
        assert "job-start" in kinds  # json mode renders every event
        assert "pipeline-done" in kinds

    def test_text_output_is_unchanged_by_the_json_renderer(self, capsys):
        args = ["run", "figure1a", "--param", "alpha=0.9",
                "--cycles", "500", "--epsilon", "0.2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "pipeline: 1 job(s), serial" in out
        assert "job-start" not in out  # text mode still skips job-start


class TestServeAndSubmit:
    def test_submit_matches_run_and_hits_cache(self, tmp_path, capsys):
        from repro.service import ServerThread, ServiceClient

        with ServerThread(store=str(tmp_path / "store")) as server:
            ServiceClient(port=server.port).wait_until_healthy()
            run_args = ["run", "figure1a", "--param", "alpha=0.9",
                        "--cycles", "600", "--epsilon", "0.2", "--quiet"]
            submit_args = [
                "submit", "figure1a", "--port", str(server.port),
                "--param", "alpha=0.9", "--cycles", "600",
                "--epsilon", "0.2", "--quiet",
            ]
            assert main(run_args) == 0
            direct = capsys.readouterr().out
            assert main(submit_args) == 0
            via_service = capsys.readouterr().out
            assert via_service == direct  # bit-identical rendering
            # The repeat answers from cache and says so when not quiet.
            assert main(submit_args[:-1]) == 0
            repeat = capsys.readouterr().out
            assert "answered from memory cache" in repeat

    def test_submit_unknown_target_is_a_clean_error(self, capsys):
        from repro.service import ServerThread, ServiceClient

        with ServerThread() as server:
            ServiceClient(port=server.port).wait_until_healthy()
            code = main(["submit", "definitely-not-a-target",
                         "--port", str(server.port), "--quiet"])
            assert code == 2
            assert "unknown run target" in capsys.readouterr().err

    def test_submit_against_no_server_fails_cleanly(self, capsys):
        code = main(["submit", "figure1a", "--port", "1",  # nothing listens
                     "--quiet", "--timeout", "2"])
        assert code == 2
        assert "service error" in capsys.readouterr().err
