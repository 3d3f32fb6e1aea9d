"""``sweep_paper``: the Fig. 13-15 system grid through the sweep engine.

One pass is the full paper-shape grid, 5 workloads x 5 configurations,
run by ``SweepEngine(jobs=1, cache=None).run("system_point", ...)``:
closed loop, one point at a time, no result cache.  The simulated
results do not depend on the seed (the system model draws no random
numbers), so every seed measures the same modelled work; the seed only
feeds the engine's per-point seeds.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter_ns

from .common import PassResult, digest, geomean

#: The five paper workloads of Figs. 13-15.
WORKLOADS = ("image_blur", "vgg16_fc", "resnet50_conv3", "jpeg",
             "rotation3d")
#: The five paper configurations, pinned so that a configuration
#: registered later does not change the amount of work in a pass.
CONFIGURATIONS = ("ring", "mesh", "optbus", "flumen_i", "flumen_a")
TASK = "system_point"


class SweepPaper:
    """The paper-grid sweep as a benchmark workload."""

    name = "sweep_paper"
    #: Workload-specific names of the generic end-to-end metrics.
    aliases = {
        "pass_s": "sweep.grid_s",
        "op_ms_p50": "sweep.point_ms_p50",
        "op_ms_p90": "sweep.point_ms_p90",
        "work_per_s": "sweep.points_per_s",
        "model.gain": "model.speedup_vs_mesh_gmean",
        "model.efficiency": "model.edp_gain_vs_mesh_gmean",
        "model.mvm_cycles": "model.flumen_a_mzim_cycles_gmean",
        "model.comm_cycles": "model.flumen_a_packet_latency_gmean",
    }

    #: Fewest passes per run: 4 passes give 100 point samples, so the
    #: p90 point time has ten samples beyond it.
    min_passes = 4

    def __init__(self, seed: int, shapes: str = "paper",
                 workloads: tuple[str, ...] = WORKLOADS,
                 configurations: tuple[str, ...] = CONFIGURATIONS) -> None:
        self.seed = seed
        self.shapes = shapes
        self.workloads = workloads
        self.configurations = configurations
        self.records: dict[str, dict] = {}
        self._digests: dict[str, str] = {}

    # -- setup -------------------------------------------------------------

    def _grid(self, shapes: str) -> list:
        from repro.analysis.engine import PointSpec

        return [PointSpec(key=_key(w, c),
                          params={"workload": w, "configuration": c,
                                  "shapes": shapes})
                for w in self.workloads for c in self.configurations]

    def setup(self) -> None:
        """Import, build the point list, and warm the lazy caches.

        The warm-up runs the same grid at small shapes, which touches
        every configuration's code path without the paper-shape cost.
        """
        from repro.analysis.engine import SweepEngine

        self.points = self._grid(self.shapes)
        SweepEngine(jobs=1, cache=None).run(
            TASK, self._grid("small"), base_seed=self.seed)

    # -- one pass ----------------------------------------------------------

    def run_pass(self, recorder=None) -> PassResult:
        from repro.analysis.engine import SweepEngine, canonical_json

        engine = SweepEngine(jobs=1, cache=None)
        result = PassResult()
        if recorder is None:
            with _wrapped_task(_timed_points(result)):
                start = perf_counter_ns()
                run = engine.run(TASK, self.points, base_seed=self.seed)
                result.pass_intervals.append((start, perf_counter_ns()))
        else:
            with _wrapped_task(_traced_points(recorder)), \
                    recorder.span("analysis.engine"):
                start = perf_counter_ns()
                run = engine.run(TASK, self.points, base_seed=self.seed)
                result.pass_intervals.append((start, perf_counter_ns()))
        for point in run.results:
            result.attempted += 1
            if not point.ok:
                result.fail(point.key, point.error or "failed")
                continue
            metrics = point.metrics
            if not (math.isfinite(metrics["runtime_s"])
                    and math.isfinite(metrics["energy_total_j"])):
                result.fail(point.key, "non-finite runtime or energy")
                continue
            record = point.record()
            text = digest(canonical_json(record))
            first = self._digests.setdefault(point.key, text)
            if text != first:
                result.fail(point.key, "differs from a same-seed repeat")
                continue
            self.records.setdefault(point.key, record)
            result.work += 1
        return result

    # -- outputs -----------------------------------------------------------

    def digest(self) -> str:
        """Digest of every point's first-pass record, in grid order."""
        return digest("".join(self._digests.get(p.key, "-")
                              for p in self.points))

    def _pairs(self):
        """(mesh, flumen_a) metrics per workload that has both."""
        for name in self.workloads:
            mesh = self.records.get(f"{name}/mesh")
            flumen = self.records.get(f"{name}/flumen_a")
            if mesh and flumen:
                yield mesh["metrics"], flumen["metrics"]

    def model_metrics(self) -> dict[str, float]:
        """Simulated-result guards, from the first pass's records."""
        pairs = list(self._pairs())
        return {
            "model.gain": geomean(m["runtime_s"] / f["runtime_s"]
                                  for m, f in pairs),
            "model.efficiency": geomean(m["edp_js"] / f["edp_js"]
                                        for m, f in pairs),
            "model.mvm_cycles": geomean(f["mzim_cycles"]
                                        for _, f in pairs),
            "model.comm_cycles": geomean(f["avg_packet_latency"]
                                         for _, f in pairs),
        }

    def model_samples(self) -> str:
        return f"{len(list(self._pairs()))} mesh/flumen_a pairs"

    def reference(self) -> dict[str, float]:
        """Paper values for the model guards that have one."""
        from benchmarks.common import PAPER_GEOMEAN

        return {"model.gain": PAPER_GEOMEAN["speedup"],
                "model.efficiency": PAPER_GEOMEAN["edp"]}

    def model_details(self) -> list[str]:
        return []

    # -- tracing -----------------------------------------------------------

    def layer_targets(self, recorder) -> list:
        """Process-wide wraps at the sweep path's coarse boundaries.

        The per-cycle calls (``net.step``, ``scheduler.tick``) are left
        alone here: on this path the layer boundary is the kernel run,
        the cache stream and the co-simulation, not the cycle.
        """
        import repro.workloads as workloads
        from repro.core.system import SystemModel
        from repro.multicore.cache import CacheHierarchy
        from repro.noc.kernel import SimKernel
        from repro.photonics.compute_energy import MZIMComputeModel

        counts = recorder.counts

        def stream_done(_state, _args, hierarchy_counts):
            counts["multicore.cache.accesses"] += hierarchy_counts.l1.accesses
            counts["multicore.cache.l1_hits"] += hierarchy_counts.l1.hits

        def run_begin(args):
            net = args[0]
            return net.cycle, net.injected_packets

        def run_done(state, args, _result):
            net = args[0]
            counts["noc.kernel.cycles"] += net.cycle - state[0]
            counts["noc.kernel.packets"] += net.injected_packets - state[1]

        def count_idle(advance_idle):
            # Idle fast-forward is one call per skipped stretch, so
            # counting it costs nothing per cycle.
            def counted(kernel, idle_cycles):
                if recorder.innermost() == "noc.kernel.run":
                    counts["noc.kernel.idle_cycles"] += idle_cycles
                return advance_idle(kernel, idle_cycles)
            return counted

        return [
            (workloads, "make_workload", recorder.timed("workloads.build")),
            (CacheHierarchy, "access_stream",
             recorder.timed("multicore.cache.stream", after=stream_done)),
            (SimKernel, "run",
             recorder.timed("noc.kernel.run", run_begin, run_done)),
            (SimKernel, "_advance_idle", count_idle),
            (SystemModel, "_scheduler_overhead",
             recorder.timed("core.scheduler.cosim")),
            (MZIMComputeModel, "matmul_energy",
             recorder.timed("photonics.compute_model")),
        ]


def _key(workload: str, configuration: str) -> str:
    return f"{workload}/{configuration}"


def _timed_points(result: PassResult):
    """Task wrapper recording each point's host interval in ``result``."""
    def wrap(fn):
        def point(params, seed):
            start = perf_counter_ns()
            try:
                return fn(params, seed)
            finally:
                result.timed(_key(params["workload"],
                                  params["configuration"]),
                             start, perf_counter_ns())
        return point
    return wrap


def _traced_points(recorder):
    """Task wrapper making each point a ``core.system`` span that opens
    its own operation id."""
    def wrap(fn):
        timed = recorder.wrap(fn, "core.system")

        def point(params, seed):
            recorder.begin_op(_key(params["workload"],
                                   params["configuration"]))
            return timed(params, seed)
        return point
    return wrap


@contextmanager
def _wrapped_task(wrap):
    """Re-register the sweep task as ``wrap(original)``; the original is
    restored after."""
    from repro.analysis.engine import get_task, register_task

    spec = get_task(TASK)
    register_task(TASK, context=spec.context)(wrap(spec.fn))
    try:
        yield
    finally:
        register_task(TASK, context=spec.context)(spec.fn)
