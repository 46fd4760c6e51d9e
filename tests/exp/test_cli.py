"""End-to-end driver tests: at-most-once execution, artifacts, fan-out."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp import registry, runcache
from repro.exp.artifacts import VOLATILE_KEYS, validate_artifact
from repro.exp.runcache import ProgramKey, RunCache, run_program
from repro.exp.runner import _worker_experiment, run_experiments
from repro.exp.spec import EvalOptions

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


class TestProgramsExecuteAtMostOnce:
    def test_figure12_latency_ablation_share_runs(self, monkeypatch):
        """The pre-framework driver executed matmul three times across the
        figure12/latency/ablation sections; the run cache collapses that
        to one execution per (program, size, nodes)."""
        fresh = RunCache()
        monkeypatch.setattr(runcache, "_CACHE", fresh)
        specs = [registry.get(name) for name in ("figure12", "latency", "ablation")]
        run_experiments(specs, EvalOptions())
        log = fresh.execution_log
        assert len(log) == len(set(log)), f"a program ran twice: {log}"
        # figure12 runs matmul@default + gamteb@default; latency and
        # ablation share one matmul@24.
        assert sorted(set(log), key=str) == sorted(
            {
                ProgramKey("matmul", 40, 16),
                ProgramKey("gamteb", 64, 16),
                ProgramKey("matmul", 24, 16),
            },
            key=str,
        )

    def test_worker_reads_the_runs_it_was_given(self, monkeypatch):
        """A ``--jobs`` experiment worker prices the stats its parent
        handed it and executes no program itself."""
        params = registry.get("latency").params(EvalOptions())
        key = ProgramKey("matmul", params["size"], params["nodes"])
        stats = run_program("matmul", size=params["size"], nodes=params["nodes"])
        fresh = RunCache()
        monkeypatch.setattr(runcache, "_CACHE", fresh)
        outcome = _worker_experiment("latency", params, {key: stats})
        assert fresh.execution_log == []
        assert fresh.get(key) is stats
        assert outcome.artifact["data"]["points"]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched executor",
    )
    def test_each_run_executes_once_across_workers(self, tmp_path, monkeypatch):
        """Under ``--jobs`` one worker executes each run; the sections
        that price it, in any worker, execute nothing."""
        log = tmp_path / "executions"
        execute = runcache._execute

        def logged(key):
            with log.open("a") as out:
                out.write(f"{key.program}@{key.size}\n")
            return execute(key)

        monkeypatch.setattr(runcache, "_CACHE", RunCache())
        monkeypatch.setattr(runcache, "_execute", logged)
        specs = [registry.get(name) for name in ("figure12", "latency", "ablation")]
        run_experiments(specs, EvalOptions(), jobs=2)
        assert sorted(log.read_text().split()) == ["gamteb@64", "matmul@24", "matmul@40"]


class TestCliSmoke:
    def test_only_survey_with_json_dir(self, tmp_path):
        json_dir = tmp_path / "artifacts"
        result = _run_cli("--only", "survey", "--json-dir", str(json_dir), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "# Section 1 survey (extension)" in result.stdout
        assert "[artifact]" in result.stdout
        # Only the selected section ran.
        assert "# Table 1" not in result.stdout

        artifact = json.loads((json_dir / "survey.json").read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "survey"
        assert artifact["data"]["rows"], "survey artifact carries no rows"

    def test_no_json_writes_nothing(self, tmp_path):
        result = _run_cli("--only", "survey", "--no-json", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "[artifact]" not in result.stdout
        assert not (tmp_path / "results").exists()

    def test_skip_excludes_a_section(self, tmp_path):
        result = _run_cli(
            "--only", "survey", "throughput",
            "--skip", "survey",
            "--no-json",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "survey" not in result.stdout
        assert "# Steady-state service-loop throughput" in result.stdout

    def test_bad_jobs_rejected(self, tmp_path):
        result = _run_cli("--jobs", "0", cwd=tmp_path)
        assert result.returncode != 0

    @pytest.mark.parametrize(
        "selection",
        [("--only",), ("--only", "survey", "--skip", "survey")],
        ids=["only-nothing", "skip-everything-selected"],
    )
    def test_empty_selection_rejected(self, tmp_path, selection):
        result = _run_cli(*selection, "--profile", cwd=tmp_path)
        assert result.returncode == 2
        assert "no sections selected" in result.stderr
        assert result.stdout == ""
        assert not (tmp_path / "results").exists()

    def test_profile_with_jobs_rejected(self, tmp_path):
        """The workers' timings never reach the parent, so the pair would
        report nothing."""
        result = _run_cli(
            "--profile", "--jobs", "2", "--only", "table1", "--no-json", cwd=tmp_path
        )
        assert result.returncode == 2
        assert "--profile" in result.stderr
        assert "# Table 1" not in result.stdout

    def test_profile_writes_where_json_and_the_same_artifacts(self, tmp_path):
        sections = ("--only", "table1", "flowcontrol")
        plain = _run_cli(*sections, "--json-dir", "plain", cwd=tmp_path)
        profiled = _run_cli(
            *sections, "--profile", "--json-dir", "profiled", cwd=tmp_path
        )
        assert plain.returncode == 0, plain.stderr
        assert profiled.returncode == 0, profiled.stderr
        # The section reports are unchanged; the profile tables follow them.
        report = [line for line in plain.stdout.splitlines() if "[artifact]" not in line]
        lines = [line for line in profiled.stdout.splitlines() if "[artifact]" not in line]
        assert lines[: len(report)] == report
        assert "profile: flowcontrol" in "\n".join(lines[len(report):])
        for name in ("table1.json", "flowcontrol.json"):
            a = json.loads((tmp_path / "plain" / name).read_text())
            b = json.loads((tmp_path / "profiled" / name).read_text())
            for key in VOLATILE_KEYS:
                a.pop(key), b.pop(key)
            assert a == b, f"{name} differs under --profile"

        where = json.loads((tmp_path / "profiled" / "where.json").read_text())
        assert where["schema"] == "repro-where/v1"
        assert list(where["sections"]) == ["table1", "flowcontrol"]
        for name, section in where["sections"].items():
            boundaries = section["boundaries"]
            assert boundaries["run_one"]["calls"] == 1, name
            own = sum(entry["self_s"] for entry in boundaries.values())
            assert own == pytest.approx(section["total_s"]), name
        flowcontrol = json.loads((tmp_path / "profiled" / "flowcontrol.json").read_text())
        fabric_steps = where["sections"]["flowcontrol"]["boundaries"]["Fabric.step"]
        assert fabric_steps["calls"] == flowcontrol["data"]["cycles"]

    def test_trace_writes_chrome_trace_and_metrics(self, tmp_path):
        json_dir = tmp_path / "artifacts"
        result = _run_cli(
            "--only", "flowcontrol", "--trace", "--json-dir", str(json_dir),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        artifact = json.loads((json_dir / "flowcontrol.json").read_text())
        validate_artifact(artifact)
        assert artifact["data"]["serviced"] == artifact["data"]["offered"]

        trace = json.loads(
            (json_dir / "traces" / "flowcontrol_trace.json").read_text()
        )
        assert trace["traceEvents"], "chrome trace holds no events"
        metrics = json.loads(
            (json_dir / "traces" / "flowcontrol_metrics.json").read_text()
        )
        assert metrics["series"]["in_flight"]["values"]
        assert metrics["crossings"], "no threshold crossings recorded"

    def test_untraced_flowcontrol_writes_no_trace_files(self, tmp_path):
        json_dir = tmp_path / "artifacts"
        result = _run_cli(
            "--only", "flowcontrol", "--json-dir", str(json_dir), cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert (json_dir / "flowcontrol.json").exists()
        assert not (json_dir / "traces").exists()


class TestParallelEquivalence:
    def test_jobs_output_matches_serial(self, tmp_path):
        """figure12, latency and ablation read program runs, so their
        workers price stats that another worker executed."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        sections = (
            "--only", "table1", "throughput", "survey", "figure12", "latency", "ablation",
        )

        serial = _run_cli(*sections, "--json-dir", str(serial_dir), cwd=tmp_path)
        parallel = _run_cli(
            *sections, "--jobs", "2", "--json-dir", str(parallel_dir), cwd=tmp_path
        )
        assert serial.returncode == 0, serial.stderr
        assert parallel.returncode == 0, parallel.stderr

        def strip_artifact_lines(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[artifact]")
            ]

        assert strip_artifact_lines(serial.stdout) == strip_artifact_lines(
            parallel.stdout
        )

        for path in sorted(serial_dir.glob("*.json")):
            a = json.loads(path.read_text())
            b = json.loads((parallel_dir / path.name).read_text())
            for key in VOLATILE_KEYS:
                a.pop(key), b.pop(key)
            assert a == b, f"{path.name} differs between serial and --jobs"
