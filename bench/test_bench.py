"""Smoke test of the benchmark: ``pytest bench/``.

Two rounds at ``--smoke`` sizes plus the traced round, in well under a
minute.  Checks that the report names every metric of BENCHMARK.json
with its unit, that simulated output repeats across rounds and under
tracing, that the checks catch a wrong digest, the A/B verdicts, and
that a probed region leaves the probes' time out of its host seconds.
"""

import time

import pytest

from ab import judge
from probe import Region
from run import HERE, SPEC, Run, parse_args, render, result_line
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def smoke_run():
    run = Run(parse_args(["--smoke", "--rounds", "2"]))
    run.execute()
    return run


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def test_every_metric_printed_with_its_unit(smoke_run):
    report = render(smoke_run, smoke_run.failures())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(
            metric["name"] in line.split() and metric["unit"] in line.split()
            for line in report.splitlines()
        ), metric["name"]


def test_all_samples_pass(smoke_run):
    assert smoke_run.failures() == {name: [] for name in WORKLOADS}


def test_traced_result_line_holds_end_to_end_and_per_layer_metrics(smoke_run):
    line = result_line(smoke_run, smoke_run.failures())
    assert line["correct"] and line["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in WORKLOADS:
        printed = {k.split(".", 1)[1] for k in line["metrics"] if k.startswith(workload + ".")}
        assert printed == names, workload


def test_digests_repeat_across_rounds_and_under_tracing(smoke_run):
    for name in WORKLOADS:
        untraced = [r["digest"] for r in smoke_run.samples[name]]
        traced = [r["digest"] for r in smoke_run.traced[name]]
        assert len(untraced) == 2 and len(traced) == 1
        assert len(set(untraced + traced)) == 1, name
    assert (
        smoke_run.samples["hotspot16_observed"][0]["digest"]
        == smoke_run.samples["hotspot16"][0]["digest"]
    )


def test_observers_cost_nothing_when_off(smoke_run):
    for name, spec in WORKLOADS.items():
        layers = smoke_run.traced[name][0]["layers"]
        calls = sum(layers[k] for k in layers if k.startswith("obs.") and k.endswith(".calls"))
        assert (calls > 0) == bool(spec.observes), name


def test_wrong_golden_digest_fails_every_sample(smoke_run):
    golden = smoke_run.golden
    smoke_run.golden = {"seed": 42, "smoke": {name: "0" * 64 for name in WORKLOADS}}
    try:
        failures = smoke_run.failures()
    finally:
        smoke_run.golden = golden
    assert all(len(reasons) == 3 for reasons in failures.values())


def test_ab_verdicts():
    run_s = next(m for m in SPEC["end_to_end"] if m["name"] == "run_s")
    base = [1.0 + 0.001 * i for i in range(10)]
    slower = [b * (1 + run_s["bound"] / 2) for b in base]
    far_slower = [b * (1 + 2 * run_s["bound"]) for b in base]
    assert judge(base, base, run_s)["verdict"] == "within bound"
    assert judge(base, slower, run_s)["verdict"] == "worse, within bound"
    assert judge(base, far_slower, run_s)["verdict"] == "REGRESSION"
    assert judge(slower, base, run_s)["verdict"] == "gain"


def test_probed_region_takes_probe_time_out():
    region = Region()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    host_s, speed = region.stop()
    probed = sum(region.durations)
    assert len(region.durations) >= 5
    assert host_s == pytest.approx(0.3 - probed + region.durations[0], abs=0.02)
    assert speed > 0
    assert Region(probing=False).stop()[1] is None


def test_tree_without_simulator_is_refused():
    with pytest.raises(SystemExit) as exit_info:
        parse_args(["--src", str(HERE)])
    assert exit_info.value.code != 0
