"""Shared infrastructure for the per-figure benchmark modules.

The Figure 13/14/15 benches all consume the same 5 workloads x 5
configurations sweep.  It now runs through the parallel sweep engine:
points fan out across worker processes (``FLUMEN_JOBS`` overrides the
count) and land in the on-disk result cache (``FLUMEN_CACHE_DIR``,
default ``.flumen_cache/``), so a bench session after an unrelated edit
replays the sweep from disk instead of re-simulating 25 system points.
"""

from __future__ import annotations

import functools

from repro.analysis.engine import (
    PointSpec,
    ResultCache,
    SweepEngine,
    default_jobs,
)
from repro.analysis.tasks import run_from_record
from repro.core.pipelines import CONFIGURATIONS
from repro.core.system import WorkloadRun

#: Paper-reported values used in the printed comparisons.
PAPER_SPEEDUP_VS_MESH = {
    "image_blur": 3.3, "vgg16_fc": 2.0, "resnet50_conv3": 4.5,
    "jpeg": 4.0, "rotation3d": 5.2,
}
PAPER_ENERGY_VS_MESH = {
    "image_blur": 1.5, "vgg16_fc": 1.9, "resnet50_conv3": 2.9,
    "jpeg": 2.6, "rotation3d": 4.8,
}
PAPER_EDP_VS_MESH = {
    "image_blur": 5.1, "vgg16_fc": 3.9, "resnet50_conv3": 13.0,
    "jpeg": 10.5, "rotation3d": 25.2,
}
PAPER_GEOMEAN = {"speedup": 3.6, "energy": 2.5, "edp": 9.3}


@functools.lru_cache(maxsize=1)
def full_sweep() -> dict[str, dict[str, WorkloadRun]]:
    """All (workload, configuration) runs at paper shapes — cached.

    ``traffic_seed`` is pinned to the :class:`SystemModel` default so
    the engine path reproduces the historical serial sweep exactly.
    """
    points = [
        PointSpec(key=f"{name}/{cfg}",
                  params={"workload": name, "configuration": cfg,
                          "shapes": "paper", "traffic_seed": 17})
        for name in workload_names() for cfg in CONFIGURATIONS.names()]
    engine = SweepEngine(jobs=default_jobs(), cache=ResultCache())
    run = engine.run("system_point", points).raise_failures()
    results: dict[str, dict[str, WorkloadRun]] = {}
    for point, result in zip(points, run.results):
        name = point.params["workload"]
        results.setdefault(name, {})[point.params["configuration"]] = \
            run_from_record(result.metrics)
    return results


def workload_names() -> list[str]:
    return ["image_blur", "vgg16_fc", "resnet50_conv3", "jpeg",
            "rotation3d"]


def configurations() -> tuple[str, ...]:
    return CONFIGURATIONS.names()
