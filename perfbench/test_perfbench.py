"""Self-test of the benchmark: every workload at a tiny size, the gate
against injected faults, and the tracer's invariants.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

CLI = worker.import_cli()
SEED = 7


@pytest.fixture(scope="module")
def expected():
    return gate.load_expected()


def tiny_pass(workload, workdir, tracer=None):
    """(commands, outcomes) of one in-process tiny pass."""
    commands = workloads.build(workload, SEED, "tiny", str(workdir))
    return commands, worker.run_pass(CLI.main, commands, tracer)


def failed_ids(workload, commands, outcomes, expected, digests=None):
    return [cid for cid, _ in gate.judge(workload, commands, outcomes, expected, digests or {})]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_the_gate(workload, tmp_path, expected):
    commands, outcomes = tiny_pass(workload, tmp_path)
    assert failed_ids(workload, commands, outcomes, expected) == []
    assert workloads.HEAVIEST[workload] in [c.id for c in commands]


def test_gate_counts_a_flipped_verdict(tmp_path, expected):
    commands, outcomes = tiny_pass("reflect-rational", tmp_path)
    flipped = json.loads(json.dumps(expected))
    entry = flipped["workloads"]["reflect-rational"]["expect"]["verify nre --case trig-3refl-poly-2"]
    entry["verdict"] = "pass"
    assert failed_ids("reflect-rational", commands, outcomes, flipped) == [
        "verify nre --case trig-3refl-poly-2"]


def test_gate_counts_a_changed_digest(tmp_path, expected):
    commands, outcomes = tiny_pass("gaudin-exact", tmp_path)
    digests = {o["id"]: o["digest"] for o in outcomes}
    assert failed_ids("gaudin-exact", commands, outcomes, expected, digests) == []
    digests["gaudin hamiltonians two-L3"] = "0" * 16
    assert failed_ids("gaudin-exact", commands, outcomes, expected, digests) == [
        "gaudin hamiltonians two-L3"]


def test_gate_counts_a_raised_exception(tmp_path, expected, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(CLI, "cmd_simulate", broken)
    commands, outcomes = tiny_pass("flow-rk4", tmp_path)
    failed = gate.judge("flow-rk4", commands, outcomes, expected, {})
    assert [cid for cid, _ in failed] == [c.id for c in commands]
    assert all(any("injected fault" in p for p in found) for _, found in failed)


def test_gate_counts_drift_and_missing_rows(tmp_path, expected):
    commands, outcomes = tiny_pass("flow-rk4", tmp_path)
    outcomes[0]["drifts"] = outcomes[0]["drifts"] + [2e-8]
    outcomes[1]["csv_rows"] -= 1
    assert failed_ids("flow-rk4", commands, outcomes, expected) == [commands[0].id, commands[1].id]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_is_consistent_and_restores_the_program(workload, tmp_path, expected):
    import layers
    from tracer import Tracer

    before = (CLI.nre_residual, CLI.reporting.dumps, vars(CLI.gaudin)["rbar_matrix"],
              vars(sys.modules["nreflect.scalars"].Cyclotomic)["__mul__"])
    tracer = Tracer()
    tracer.install()
    try:
        commands, outcomes = tiny_pass(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()
    after = (CLI.nre_residual, CLI.reporting.dumps, vars(CLI.gaudin)["rbar_matrix"],
             vars(sys.modules["nreflect.scalars"].Cyclotomic)["__mul__"])
    assert after == before
    assert failed_ids(workload, commands, outcomes, expected) == []
    path = str(tmp_path / "spans")
    tracer.dump(path, outcomes)
    spans = layers.Spans(path)
    assert spans.check() == []
    values = layers.metrics(spans)
    assert values["cli.self_s"] >= 0
    # inclusive times leave out the probes, as the wall times do
    covered = spans.inclusive_s([n for n in spans.names if n != "probe"])
    assert covered == pytest.approx(values["traced_wall_s"] - values["cli.self_s"], rel=1e-9)
    assert set(values) | {"trace_overhead"} == set(layers.UNITS)


def test_span_check_catches_a_reversed_span(tmp_path):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _, outcomes = tiny_pass("gaudin-exact", tmp_path, tracer)
    finally:
        tracer.uninstall()
    longest = max(range(len(tracer.start)), key=lambda i: tracer.end[i] - tracer.start[i])
    tracer.start[longest], tracer.end[longest] = tracer.end[longest], tracer.start[longest]
    path = str(tmp_path / "spans")
    tracer.dump(path, outcomes)
    found = layers.Spans(path).check()
    assert "a span ends before it starts" in found
    assert "a span is shorter than its children" in found


def test_traced_counts_repeat_exactly(tmp_path):
    import layers
    from tracer import Tracer

    counts = []
    for attempt in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            _, outcomes = tiny_pass("reflect-cyclotomic", tmp_path, tracer)
        finally:
            tracer.uninstall()
        path = str(tmp_path / f"spans{attempt}")
        tracer.dump(path, outcomes)
        values = layers.metrics(layers.Spans(path))
        counts.append({k: v for k, v in values.items() if k in layers.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["scalars.cyc_mul_calls"] > 0


def test_benchmark_json_matches_the_metrics():
    import layers

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_a_result_line():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "flow-rk4",
                           "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow-rk4", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
