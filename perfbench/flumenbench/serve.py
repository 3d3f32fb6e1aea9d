"""``serve_*``: ``ServeDaemon`` sessions under two traffic mixes.

Each session is open loop on the simulated clock: its arrivals are
pre-drawn per tenant and offered whatever the backlog.  The benchmark
drives sessions closed loop, one after another, in one process: no
``ReplicaSet`` pool, no HTTP observer, no threads.  One pass runs a
fixed list of sessions whose seeds derive from the workload seed; later
passes repeat the same sessions, and every repeat must reproduce its
first report byte for byte.

Before each session the benchmark collects the cyclic garbage earlier
sessions left, outside the timed ``run()``.  A ``repro serve`` process
runs one session, so it never pays for another session's garbage; left
to the collector's own schedule, that garbage moves both the session
times and the peak RSS from pass to pass.
"""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter
from time import perf_counter_ns

import numpy as np

from .common import PassResult, digest

#: Traffic mixes (``ServeConfig`` fields; the geometry is the default
#: 16 nodes / 8 ports and the session length the default 4096 cycles).
MIXES = {
    "serve_mvm_saturated": dict(
        tenants=12, arrival="poisson", rate=0.2, mvm_fraction=0.9),
    "serve_bursty_drift": dict(
        tenants=12, arrival="bursty", rate=0.1, mvm_fraction=0.1,
        fault="phase_drift"),
}
#: Sessions per pass.  Session cost varies with the seed (bursts and
#: drift events land differently), so the lighter bursty mix runs more
#: sessions to keep that variation small between workload seeds.
SESSIONS = {"serve_mvm_saturated": 8, "serve_bursty_drift": 16}
#: Serving cycles of the warm-up session run during setup.
WARMUP_CYCLES = 256


class ServeMix:
    """One traffic mix as a benchmark workload."""

    aliases = {
        "pass_s": "serve.pass_s",
        "op_ms_p50": "serve.session_ms_p50",
        "op_ms_p90": "serve.session_ms_p90",
        "work_per_s": "serve.req_per_s",
        "model.gain": "model.goodput_per_kcycle",
        "model.efficiency": "model.completed_per_offered",
        "model.mvm_cycles": "model.mvm_p90_cycles",
        "model.comm_cycles": "model.comm_p99_cycles",
    }

    #: Fewest passes per run: a second pass repeats every session.
    min_passes = 2

    def __init__(self, name: str, seed: int, sessions: int | None = None,
                 duration: int | None = None) -> None:
        self.name = name
        self.seed = seed
        self.sessions = sessions or SESSIONS[name]
        self.duration = duration
        self._digests: dict[int, str] = {}
        self._expected: dict[int, int] = {}
        self._prebuilt: list = []
        self._mvm: list[int] = []
        self._comm: list[int] = []
        self._pooled: set[int] = set()
        self._totals: Counter[str] = Counter()

    def setup(self) -> None:
        """Import, warm the lazy caches with a short session, and build
        the first pass's daemons (arrival wheel, admission replay and
        tenant matrix preload all happen at construction)."""
        from repro.analysis.engine import point_seed
        from repro.serve import ServeConfig, ServeDaemon

        mix = dict(MIXES[self.name])
        if self.duration is not None:
            mix["duration"] = self.duration
        self.configs = [
            ServeConfig(seed=point_seed(self.seed,
                                        f"perfbench/{self.name}/{i}"),
                        **mix)
            for i in range(self.sessions)]
        warm = dataclasses.replace(
            self.configs[0], duration=WARMUP_CYCLES,
            seed=point_seed(self.seed, f"perfbench/{self.name}/warmup"))
        ServeDaemon(warm).run()
        self._prebuilt = self._build()

    def _build(self) -> list:
        """One untraced pass's daemons.  Every pass builds all of its
        daemons before the first session runs, as set-up does for the
        first pass, so that every pass runs from the same heap state."""
        from repro.serve import ServeDaemon

        return [ServeDaemon(config) for config in self.configs]

    # -- one pass ----------------------------------------------------------

    def run_pass(self, recorder=None) -> PassResult:
        from repro.serve import ServeDaemon

        result = PassResult()
        if recorder is None:
            daemons, self._prebuilt = self._prebuilt or self._build(), []
        for i, config in enumerate(self.configs):
            label = f"session{i}/seed{config.seed}"
            result.attempted += 1
            try:
                if recorder is None:
                    daemon, daemons[i] = daemons[i], None
                    gc.collect()
                    start = perf_counter_ns()
                    report = daemon.run()
                    result.timed(label, start, perf_counter_ns())
                else:
                    recorder.begin_op(label)
                    with recorder.span("serve.daemon.build"):
                        daemon = ServeDaemon(config)
                    with recorder.span("bench.gc"):
                        gc.collect()
                    with recorder.patch(session_targets(recorder, daemon)):
                        start = perf_counter_ns()
                        with recorder.span("serve.daemon.run"):
                            report = daemon.run()
                        result.timed(label, start, perf_counter_ns())
            except Exception as exc:  # a failed session is counted, not fatal
                result.fail(label, f"raised {type(exc).__name__}: {exc}")
                continue
            problems = self._check(i, config, report)
            if problems:
                result.fail(label, "; ".join(problems))
                continue
            result.work += report["ledger"]["completed"]
            if recorder is not None:
                recorder.counts.update(session_counts(daemon, report))
            if i not in self._pooled:
                self._pool(i, daemon, report)
        result.pass_intervals = [(start, end) for _, start, end in result.ops]
        return result

    def _check(self, index: int, config, report: dict) -> list[str]:
        from repro.analysis.engine import canonical_json
        from repro.serve import ClientPopulation, make_arrival

        problems = []
        ledger = report["ledger"]
        if not report["conserved"]:
            problems.append("ledger not conserved")
        if not report["drained"]:
            problems.append("did not drain")
        if ledger["in_flight"] != 0:
            problems.append(f"in_flight={ledger['in_flight']}")
        expected = self._expected.get(index)
        if expected is None:
            # The pre-drawn arrival count, from an independent draw of
            # the session's client population.
            expected = self._expected[index] = ClientPopulation(
                config.tenant_names(), make_arrival(config.arrival),
                config.rate, config.mvm_fraction, config.nodes,
                config.seed).prebuild(config.duration).total
        if ledger["offered"] != expected:
            problems.append(f"offered {ledger['offered']} of "
                            f"{expected} pre-drawn arrivals")
        text = digest(canonical_json(report))
        if self._digests.setdefault(index, text) != text:
            problems.append("report differs from a same-seed repeat")
        return problems

    def _pool(self, index: int, daemon, report: dict) -> None:
        """Keep a session's simulated results for the model guards.

        Raw latency samples are read the way ``repro.serve.cluster``
        pools them across replicas.
        """
        self._mvm.extend(daemon._mvm_latencies)
        self._comm.extend(daemon.net.latency.latencies)
        ledger = report["ledger"]
        self._pooled.add(index)
        self._totals["completed"] += ledger["completed"]
        self._totals["offered"] += ledger["offered"]
        self._totals["cycles"] += report["cycles"]

    # -- outputs -----------------------------------------------------------

    def digest(self) -> str:
        return digest("".join(self._digests.get(i, "-")
                              for i in range(self.sessions)))

    def model_metrics(self) -> dict[str, float]:
        """Simulated-result guards, pooled over the pass's sessions."""
        totals = self._totals
        return {
            "model.gain": (1000.0 * totals["completed"] / totals["cycles"]
                           if totals["cycles"] else 0.0),
            "model.efficiency": (totals["completed"] / totals["offered"]
                                 if totals["offered"] else 0.0),
            "model.mvm_cycles": _percentile(self._mvm, 90.0),
            "model.comm_cycles": _percentile(self._comm, 99.0),
        }

    def model_samples(self) -> str:
        return f"{len(self._pooled)} sessions"

    def reference(self) -> dict[str, float]:
        return {}

    def model_details(self) -> list[str]:
        """Latency percentiles with their pooled sample counts."""
        return [f"model.{kind}_p{q}_cycles = "
                f"{_percentile(samples, q):.6g} cycles "
                f"(n={len(samples)} requests)"
                for kind, samples in (("mvm", self._mvm),
                                      ("comm", self._comm))
                for q in (50, 90, 99)]

    def layer_targets(self, recorder) -> list:
        """Process-wide wraps for work done at daemon construction and
        by the recovery layer's calibration calls."""
        import repro.faults.recovery as recovery
        import repro.serve.daemon as daemon_module
        from repro.serve import ClientPopulation

        return [
            (ClientPopulation, "prebuild",
             recorder.timed("serve.arrivals.prebuild")),
            (daemon_module, "precompute_decisions",
             recorder.timed("serve.admission.precompute")),
            (recovery, "calibrate_by_decomposition",
             recorder.timed("photonics.calibration")),
        ]


def _percentile(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def session_targets(recorder, daemon) -> list:
    """Per-instance wraps on one built daemon's per-cycle boundaries."""
    counts = recorder.counts
    scheduler = daemon.scheduler
    control = daemon.control
    net = daemon.net
    recovery = daemon.recovery
    obs = daemon.obs

    def count_steps(step):
        def counted():
            counts["serve.daemon.steps"] += 1
            return step()
        return counted

    def tick_spans(tick):
        # A tick entered on a tau boundary runs the Algorithm 1
        # partitioner; it is recorded under its own span name.
        tick_id = recorder.intern("core.scheduler.tick")
        eval_id = recorder.intern("core.scheduler.eval")
        tau = scheduler.cfg.tau_cycles
        open_, close = recorder.open, recorder.close

        def traced():
            index = open_(eval_id if scheduler.cycle % tau == 0
                          else tick_id)
            try:
                return tick()
            finally:
                close(index)
        return traced

    def flushed(_state, _args, results):
        counts["core.control_unit.mvms"] += len(results)

    targets = [
        (daemon, "step", count_steps),
        (scheduler, "tick", tick_spans),
        (scheduler, "skip_quiet_cycles",
         recorder.timed("core.scheduler.skip")),
        (scheduler, "skip_idle_cycles",
         recorder.timed("core.scheduler.skip")),
        (control, "flush_mvms",
         recorder.timed("core.control_unit.flush", after=flushed)),
        (control, "advise_offload",
         recorder.timed("core.control_unit.advise")),
        (net, "step", recorder.timed("noc.flumen_net.step")),
        (net, "skip_quiet_cycles", recorder.timed("noc.flumen_net.skip")),
        (net, "buffer_utilization", recorder.timed("noc.flumen_net.beta")),
        (daemon.injector, "tick", recorder.timed("faults.injector.tick")),
        (recovery, "service", recorder.timed("faults.recovery.service")),
        (recovery, "run_ladder_action",
         recorder.timed("faults.recovery.action")),
        (obs.events, "emit", recorder.timed("obs.events.emit")),
    ]
    if obs.sampler is not None:
        targets.append((obs.sampler, "tick",
                        recorder.timed("obs.sampler.tick")))
    return targets


def session_counts(daemon, report: dict) -> Counter:
    """The program's own counters after one session (exact under a
    fixed seed), keyed by the per-layer metric they feed."""
    stats = daemon.scheduler.stats
    control = daemon.control
    recovery = daemon.recovery
    events = Counter(record["type"] for record in daemon.obs.events.events)
    return Counter({
        "serve.daemon.cycles": report["cycles"],
        "serve.daemon.batches": control.requests_received,
        "serve.mvm_completed": report["latency"]["mvm"]["count"],
        "serve.offered": report["ledger"]["offered"],
        "serve.admitted": report["ledger"]["admitted"],
        "core.scheduler.granted": stats.granted,
        "core.scheduler.deferred": stats.deferred_evaluations,
        "core.control_unit.memo_hits": control.mvm_memo_hits,
        "core.control_unit.memo_misses": control.mvm_memo_misses,
        "noc.flumen_net.delivered": len(daemon.net.latency.latencies),
        "faults.recovery.probes": recovery.monitor.probes,
        "faults.recovery.probe_memo_hits": recovery.probe_memo_hits,
        "faults.recovery.recalibrations": recovery.recalibrations,
        "obs.events.count": sum(events.values()),
        "obs.events.partition_defer": events["partition_defer"],
        "obs.snapshots": report["snapshots"],
    })
