"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(BENCH)]

from flumenbench.common import PassResult  # noqa: E402
from flumenbench.measure import (  # noqa: E402
    SPAN_METRICS,
    measure_traced,
    measure_untraced,
)
from flumenbench.spans import self_times  # noqa: E402
from flumenbench.sweep import SweepPaper  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny(name: str, seed: int = 3):
    from run import make_workload
    workload = make_workload(name, seed, "tiny")
    workload.setup()
    return workload


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert f"digest {workload}:" in proc.stdout


def test_failing_sweep_point_is_counted_not_dropped():
    from repro.analysis.engine import PointSpec

    bogus = PointSpec(key="no_such_workload/mesh",
                      params={"workload": "no_such_workload",
                              "configuration": "mesh", "shapes": "small"})
    workload = SweepPaper(3, shapes="small", workloads=("rotation3d",),
                          configurations=("mesh", "flumen_a"))
    workload.setup()
    workload.points.append(bogus)
    outcome = measure_untraced(workload, 0.0, [1.0])
    passes = SweepPaper.min_passes
    assert outcome.attempted == 3 * passes and outcome.failed == passes
    assert not outcome.correct
    assert all(f.startswith("no_such_workload/mesh:")
               for f in outcome.failures)


def test_failing_serve_session_is_counted_not_dropped(monkeypatch):
    from repro.serve import ServeDaemon

    workload = _tiny("serve_bursty_drift")
    doomed = workload.configs[1].seed
    run = ServeDaemon.run

    def flaky(self):
        if self.config.seed == doomed:
            raise RuntimeError("injected failure")
        return run(self)

    monkeypatch.setattr(ServeDaemon, "run", flaky)
    outcome = measure_untraced(workload, 0.0, [1.0])
    assert outcome.attempted == 4 and outcome.failed == 2
    assert not outcome.correct


def test_failed_output_check_counts_the_session():
    workload = _tiny("serve_mvm_saturated")
    workload._expected[0] = -1  # a generator that lost work
    result = workload.run_pass()
    assert result.attempted == 2 and result.failed == 1
    assert "pre-drawn arrivals" in result.failures[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_the_traced_total(workload, tmp_path):
    bench = _tiny(workload)
    spans_path = tmp_path / "spans.npz"
    outcome = measure_traced(bench, 0.0, spans_path)
    assert outcome.correct, outcome.failures
    with np.load(spans_path) as data:
        tables = json.loads(str(data["tables"]))
        spans = {k: data[k] for k in data.files if k != "tables"}
    own, problems = self_times(spans, tables["names"])
    assert problems == []
    assert set(own) <= set(SPAN_METRICS)
    # Every span of an operation shares the operation id of its parent.
    nested = spans["parent"] >= 0
    parents = spans["parent"][nested]
    root_level = spans["op_id"][parents] == -1
    assert (spans["op_id"][nested][~root_level]
            == spans["op_id"][parents][~root_level]).all()
    metrics = outcome.metrics
    assert 0.0 < metrics["trace.attributed_share"] <= 1.0
    assert "trace.overhead_ratio" in metrics


class _Misbehaving:
    """A one-operation workload whose traced pass records a bad span."""

    name = "misbehaving"

    def __init__(self, fault: str) -> None:
        self.fault = fault

    def layer_targets(self, recorder) -> list:
        return []

    def run_pass(self, recorder=None) -> PassResult:
        result = PassResult(attempted=1)
        start = perf_counter_ns()
        sum(range(100_000))
        if recorder is not None:
            if self.fault == "overlap":
                # Closed out of order: the inner span outlives the outer.
                outer = recorder.open(recorder.intern("core.system"))
                inner = recorder.open(recorder.intern("noc.kernel.run"))
                sum(range(10_000))
                recorder.close(outer)
                sum(range(10_000))
                recorder.close(inner)
            elif self.fault == "unmapped":
                with recorder.span("no.such.layer"):
                    sum(range(100_000))
            elif self.fault == "unclosed":
                recorder.open(recorder.intern("core.system"))
        result.timed("op", start, perf_counter_ns())
        result.pass_intervals.append((start, perf_counter_ns()))
        return result


@pytest.mark.parametrize("fault", ["overlap", "unmapped", "unclosed"])
def test_layer_sum_check_fails_on_a_bad_span(fault):
    outcome = measure_traced(_Misbehaving(fault), 0.0)
    assert not outcome.correct
    assert outcome.failed == 0 and outcome.failures


def test_span_table_with_two_roots_is_refused():
    spans = {"name_id": np.array([0, 1, 0], dtype=np.int32),
             "start_ns": np.array([0, 10, 200], dtype=np.int64),
             "end_ns": np.array([100, 50, 300], dtype=np.int64),
             "parent": np.array([-1, 0, -1], dtype=np.int32),
             "op_id": np.zeros(3, dtype=np.int32)}
    own, problems = self_times(spans, ["bench.pass", "core.system"])
    assert own == {"bench.pass": 160, "core.system": 40}
    assert problems == ["2 root spans, not 1"]
    spans["parent"][2] = 0
    spans["start_ns"][2] = 40
    spans["end_ns"][2] = 90
    assert self_times(spans, ["bench.pass", "core.system"])[1] \
        == ["sibling spans overlap"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_agree_on_model_metrics_and_digest(workload):
    first, second = _run(workload, 0, seed=5), _run(workload, 0, seed=5)
    assert first.returncode == second.returncode == 0

    def model(proc):
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        digest = [line for line in proc.stdout.splitlines()
                  if line.strip().startswith("digest")]
        return ({k: v["value"] for k, v in metrics.items()
                 if k.startswith("model.")}, digest)

    assert model(first) == model(second)
    assert model(first)[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("sweep_paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{")
