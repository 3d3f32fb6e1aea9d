"""Run one workload for the requested time and assemble its metrics.

With tracing off, passes repeat until ``seconds`` have elapsed (and at
least ``workload.min_passes`` times, so every operation has a same-seed
repeat), and the end-to-end metrics come from those passes, timed by a
:class:`~flumenbench.hostclock.HostClock`.  With tracing on, untraced
and traced passes alternate for the same time; per-layer metrics come
from the traced passes and the tracing overhead from comparing the two.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import numpy as np

from .hostclock import HostClock
from .spans import SpanRecorder, self_times

#: Span name -> the per-layer self-time metric it is reported under.
#: Every span the traced run records must appear here exactly once, so
#: the reported self times plus the residual add up to the traced total.
SPAN_METRICS = {
    "bench.pass": "trace.unattributed_s",
    "bench.host_probe": "trace.host_probe_s",
    "bench.gc": "trace.gc_s",
    "analysis.engine": "analysis.engine.overhead_s",
    "core.system": "core.system.self_s",
    "workloads.build": "workloads.build_s",
    "multicore.cache.stream": "multicore.cache.stream_s",
    "noc.kernel.run": "noc.kernel.run_s",
    "core.scheduler.cosim": "core.scheduler.cosim_s",
    "photonics.compute_model": "photonics.compute_model_s",
    "serve.daemon.build": "serve.daemon.build_s",
    "serve.arrivals.prebuild": "serve.arrivals.prebuild_s",
    "serve.admission.precompute": "serve.admission.precompute_s",
    "serve.daemon.run": "serve.daemon.self_s",
    "core.scheduler.tick": "core.scheduler.tick_s",
    # Evaluation ticks are ticks too: tick_s covers both span names and
    # eval_s reports the evaluation share on its own.
    "core.scheduler.eval": "core.scheduler.tick_s",
    "core.scheduler.skip": "core.scheduler.skip_s",
    "core.control_unit.flush": "core.control_unit.flush_s",
    "core.control_unit.advise": "core.control_unit.advise_s",
    "noc.flumen_net.step": "noc.flumen_net.step_s",
    "noc.flumen_net.skip": "noc.flumen_net.skip_s",
    "noc.flumen_net.beta": "noc.flumen_net.beta_s",
    "faults.injector.tick": "faults.injector.tick_s",
    "faults.recovery.service": "faults.recovery.service_s",
    "faults.recovery.action": "faults.recovery.action_s",
    "photonics.calibration": "photonics.calibration_s",
    "obs.events.emit": "obs.events.emit_s",
    "obs.sampler.tick": "obs.sampler.tick_s",
}
#: Host seconds per traced pass by which the summed per-layer self
#: times may differ from the pass timed independently around its root
#: span (the root span's own opening and closing).
LAYER_SUM_TOLERANCE_S = 1e-3


class Outcome:
    """Totals and metrics of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, str] = {}
        self.notes: list[str] = []
        self.checks_ok = True

    def fail_check(self, problem: str) -> None:
        """A failed check of the measurement itself (not of an
        operation's output)."""
        self.checks_ok = False
        self.failures.append(problem)

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.failures.extend(result.failures)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks_ok


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_probe_seconds(probe_command: list[str], probes: int) -> list[float]:
    """Fresh-interpreter set-up times: spawn to the child's ready line,
    normalised by the probes the child ran on its own clock."""
    times = []
    for _ in range(probes):
        start = perf_counter_ns()
        child = subprocess.Popen(probe_command, stdout=subprocess.PIPE,
                                 text=True)
        try:
            line = child.stdout.readline()
            elapsed = perf_counter_ns() - start
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        words = line.split()
        if code != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        factor, probe_ns = float(words[1]), int(words[2])
        times.append((elapsed - probe_ns) * 1e-9 * factor)
    return times


def _keep_going(started: float, seconds: float, passes: list[float],
                minimum: int) -> bool:
    """Another pass fits in the time budget (or the minimum is not met)."""
    if len(passes) < minimum:
        return True
    return perf_counter() - started + statistics.median(passes) <= seconds


def measure_untraced(workload, seconds: float, setup_s: list[float]
                     ) -> Outcome:
    """End-to-end metrics from repeated untraced passes.

    Host times are normalised for host contention
    (:mod:`flumenbench.hostclock`).  ``pass_s`` is the median pass;
    ``op_ms_p50``/``op_ms_p90`` are percentiles over every operation
    sample of every pass.
    """
    out = Outcome()
    clock = HostClock()
    passes, loop_s = [], []
    start = perf_counter()
    while _keep_going(start, seconds, loop_s, workload.min_passes):
        begun = perf_counter()
        with clock.running():
            result = workload.run_pass()
        loop_s.append(perf_counter() - begun)
        out.add(result)
        passes.append(result)
    ops_ms = [1000.0 * clock.normalised(begin, end)
              for result in passes for _, begin, end in result.ops]
    pass_s = statistics.median(_pass_seconds(clock, result)
                               for result in passes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": pass_s,
        "op_ms_p50": _percentile(ops_ms, 50.0),
        "op_ms_p90": _percentile(ops_ms, 90.0),
        "work_per_s": _ratio(statistics.median(p.work for p in passes),
                             pass_s),
    }
    model = workload.model_metrics()
    metrics.update(model)
    out.metrics = metrics
    out.samples = {"setup_s": f"{len(setup_s)} set-ups",
                   "peak_rss_mb": "1 process",
                   "pass_s": f"median of {len(passes)} passes",
                   "op_ms_p50": f"{len(ops_ms)} samples",
                   "op_ms_p90": f"{len(ops_ms)} samples",
                   "work_per_s": f"median of {len(passes)} passes"}
    out.samples.update(dict.fromkeys(model, workload.model_samples()))
    speed, _ = clock.speed()
    out.notes.append(f"host clock: {len(clock.cost)} probes, mean speed "
                     f"{speed:.3f} of the reference")
    return out


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def measure_traced(workload, seconds: float, spans_path=None) -> Outcome:
    """Per-layer metrics from traced passes, alternating with untraced
    passes that give the overhead baseline.

    Both kinds of pass run under a :class:`HostClock`, so the overhead
    compares normalised times.  A traced pass records each clock probe
    as a ``bench.host_probe`` span inside the span it interrupted, so
    layer self times leave the probes out.  The layer-sum check compares
    the summed per-layer self times with the pass timed independently
    around its root span, after every span table has been checked for
    proper nesting.
    """
    out = Outcome()
    recorder = SpanRecorder()
    clock = HostClock()
    untraced, traced = [], []
    self_ns: dict[str, int] = {}
    span_calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    timed_ns = 0
    loop_s: list[float] = []
    start = perf_counter()
    while _keep_going(start, seconds, loop_s, minimum=1):
        begun = perf_counter()
        with clock.running():
            result = workload.run_pass()
        out.add(result)
        untraced.append(_pass_seconds(clock, result))
        recorder.clear()
        first_probe = len(clock.at)
        with recorder.patch(workload.layer_targets(recorder)):
            pass_start = perf_counter_ns()
            with recorder.span("bench.pass"), clock.running():
                result = workload.run_pass(recorder)
            timed_ns += perf_counter_ns() - pass_start
        out.add(result)
        traced.append(_pass_seconds(clock, result))
        recorder.add_leaves(
            "bench.host_probe", clock.at[first_probe:],
            [at + cost for at, cost in zip(clock.at[first_probe:],
                                           clock.cost[first_probe:])])
        spans = recorder.arrays()
        pass_self, problems = self_times(spans, recorder.names)
        for problem in problems:
            out.fail_check(f"traced pass {len(traced)}: {problem}")
        calls = np.bincount(spans["name_id"], minlength=len(recorder.names))
        for ident, name in enumerate(recorder.names):
            self_ns[name] = self_ns.get(name, 0) + pass_self[name]
            span_calls[name] = span_calls.get(name, 0) + int(calls[ident])
        for name, value in recorder.counts.items():
            counts[name] = counts.get(name, 0) + value
        loop_s.append(perf_counter() - begun)
    if spans_path is not None:
        recorder.write(spans_path)
    unmapped = sorted(name for name, ns in self_ns.items()
                      if name not in SPAN_METRICS)
    if unmapped:
        out.fail_check(f"spans without a layer metric: {unmapped}")
    out.metrics = layer_metrics(
        self_ns, span_calls, counts, len(traced),
        overhead=_ratio(statistics.median(traced),
                        statistics.median(untraced)) - 1.0)
    layer_s = sum(out.metrics[m] for m in set(SPAN_METRICS.values()))
    timed_s = timed_ns * 1e-9 / len(traced)
    if abs(layer_s - timed_s) > LAYER_SUM_TOLERANCE_S:
        out.fail_check(f"per-layer self times sum to {layer_s:.6f} s, "
                       f"the pass took {timed_s:.6f} s")
    out.notes.append(f"layer sum {layer_s:.6f} s, pass timed "
                     f"{timed_s:.6f} s per traced pass")
    return out


def _pass_seconds(clock: HostClock, result) -> float:
    """Normalised host seconds of one pass."""
    return sum(clock.normalised(begin, end)
               for begin, end in result.pass_intervals)


def layer_metrics(self_ns: dict[str, int], calls: dict[str, int],
                  counts: dict[str, int], passes: int,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics, per traced pass.

    Times are self times in seconds; counts come from the program's own
    counters or from span call counts.  A layer the workload does not
    reach reports zero.
    """
    per = 1.0 / passes
    seconds: dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        seconds[metric] = seconds.get(metric, 0.0) \
            + self_ns.get(span, 0) * 1e-9 * per
    n = {k: v * per for k, v in calls.items()}
    c = {k: v * per for k, v in counts.items()}

    def get(table, key):
        return table.get(key, 0.0)

    m = dict(seconds)
    m["core.scheduler.eval_s"] = get(self_ns, "core.scheduler.eval") \
        * 1e-9 * per
    kernel_steps = get(c, "noc.kernel.cycles") - get(c, "noc.kernel.idle_cycles")
    flumen_steps = get(n, "noc.flumen_net.step")
    attempts = get(c, "core.scheduler.granted") + get(c, "core.scheduler.deferred")
    memo = get(c, "core.control_unit.memo_hits") \
        + get(c, "core.control_unit.memo_misses")
    cycles = get(c, "serve.daemon.cycles")
    steps = get(c, "serve.daemon.steps")
    probes = get(c, "faults.recovery.probes")
    events = get(c, "obs.events.count")
    total = sum(seconds.values())
    m.update({
        "multicore.cache.accesses": get(c, "multicore.cache.accesses"),
        "multicore.cache.l1_hit_ratio": _ratio(
            get(c, "multicore.cache.l1_hits"),
            get(c, "multicore.cache.accesses")),
        "noc.kernel.cycles": get(c, "noc.kernel.cycles"),
        "noc.kernel.steps": kernel_steps,
        "noc.kernel.us_per_step": 1e6 * _ratio(m["noc.kernel.run_s"],
                                               kernel_steps),
        "noc.kernel.packets": get(c, "noc.kernel.packets"),
        "serve.admission.admitted_ratio": _ratio(
            get(c, "serve.admitted"), get(c, "serve.offered")),
        "serve.daemon.steps": steps,
        "serve.daemon.skipped_cycles": cycles - steps,
        "serve.daemon.skip_ratio": _ratio(cycles - steps, cycles),
        "serve.daemon.batches": get(c, "serve.daemon.batches"),
        "serve.daemon.batch_mean_size": _ratio(
            get(c, "serve.mvm_completed"), get(c, "serve.daemon.batches")),
        "core.scheduler.ticks": get(n, "core.scheduler.tick")
            + get(n, "core.scheduler.eval"),
        "core.scheduler.evals": get(n, "core.scheduler.eval"),
        "core.scheduler.attempts": attempts,
        "core.scheduler.grant_yield": _ratio(
            get(c, "core.scheduler.granted"), attempts),
        "core.control_unit.flushes": get(n, "core.control_unit.flush"),
        "core.control_unit.mvms": get(c, "core.control_unit.mvms"),
        "core.control_unit.memo_hit_ratio": _ratio(
            get(c, "core.control_unit.memo_hits"), memo),
        "core.control_unit.advise_calls": get(n, "core.control_unit.advise"),
        "noc.flumen_net.steps": flumen_steps,
        "noc.flumen_net.us_per_step": 1e6 * _ratio(
            m["noc.flumen_net.step_s"], flumen_steps),
        "noc.flumen_net.delivered": get(c, "noc.flumen_net.delivered"),
        "noc.flumen_net.beta_calls": get(n, "noc.flumen_net.beta"),
        "faults.recovery.probes": probes,
        "faults.recovery.probe_memo_hit_ratio": _ratio(
            get(c, "faults.recovery.probe_memo_hits"), probes),
        "faults.recovery.recalibrations":
            get(c, "faults.recovery.recalibrations"),
        "obs.events.count": events,
        "obs.events.defer_share": _ratio(
            get(c, "obs.events.partition_defer"), events),
        "obs.snapshots": get(c, "obs.snapshots"),
        "trace.attributed_share": _ratio(
            total - m["trace.unattributed_s"], total),
        "trace.overhead_ratio": overhead,
    })
    return m


def run_workload(workload, seconds: float, trace: bool,
                 probe_command: list[str] | None, probes: int,
                 spans_path=None) -> Outcome:
    """Set the workload up in this process and measure it."""
    setup_s = [] if trace else setup_probe_seconds(probe_command, probes)
    workload.setup()
    if trace:
        return measure_traced(workload, seconds, spans_path)
    return measure_untraced(workload, seconds, setup_s)


def ready(clock: HostClock) -> None:
    """Tell a set-up probe's parent that set-up is done, with the speed
    and probe time of the child's clock."""
    speed, probe_ns = clock.speed()
    sys.stdout.write(f"ready {speed!r} {probe_ns}\n")
    sys.stdout.flush()
