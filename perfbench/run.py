"""Benchmark of the Flumen reproduction: one workload per invocation.

    python3 perfbench/run.py --workload sweep_paper --seed 1 \\
        --seconds 25 --trace 0

Run it from the root of a checkout; it imports the program from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of a traced
run.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

WORKLOADS = ("sweep_paper", "serve_mvm_saturated", "serve_bursty_drift")
#: Fresh-interpreter set-up measurements per run (their median is
#: ``setup_s``).
SETUP_PROBES = 3


def _locate_program() -> None:
    """Put the checkout's ``src/`` (and the root, for ``benchmarks``)
    first on the import path; refuse to run without them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() \
            or not (ROOT / "benchmarks" / "common.py").is_file():
        raise SystemExit(f"error: no program sources under {ROOT}; run "
                         f"from the root of a full checkout")
    sys.path[:0] = [str(src), str(ROOT), str(HERE)]


def make_workload(name: str, seed: int, size: str):
    """The named workload at benchmark size, or tiny for self-tests."""
    from flumenbench.serve import ServeMix
    from flumenbench.sweep import SweepPaper

    tiny = size == "tiny"
    if name == "sweep_paper":
        if tiny:
            return SweepPaper(seed, shapes="small",
                              workloads=("image_blur", "rotation3d"),
                              configurations=("mesh", "flumen_a"))
        return SweepPaper(seed)
    if tiny:
        return ServeMix(name, seed, sessions=2, duration=256)
    return ServeMix(name, seed)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long self-test sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _report(args, workload, outcome, spec) -> dict:
    """Print the human-readable lines; return the result object."""
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    missing = sorted(set(units) ^ set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"{missing}")
    _emit(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"attempted {outcome.attempted}, failed {outcome.failed}")
    for failure in outcome.failures[:20]:
        _emit(f"  FAILED {failure}")
    for note in outcome.notes:
        _emit(f"  {note}")
    reference = workload.reference()
    for name, unit in units.items():
        value = outcome.metrics[name]
        alias = getattr(workload, "aliases", {}).get(name)
        label = f"{alias} ({name})" if alias else name
        extra = ""
        if name in outcome.samples:
            extra = f"  ({outcome.samples[name]})"
        if name in reference:
            error = value / reference[name] - 1.0
            extra += f"  paper {reference[name]} (error {error:+.1%})"
        _emit(f"  {label:58s} {value:14.6g} {unit}{extra}")
    if not args.trace:
        for line in workload.model_details():
            _emit(f"  {line}")
    _emit(f"  digest {workload.name}: {workload.digest()}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    _locate_program()
    if args.setup_probe:
        from flumenbench.hostclock import HostClock
        clock = HostClock()
        with clock.running():
            from flumenbench.measure import ready
            make_workload(args.workload, args.seed, args.size).setup()
        ready(clock)
        return 0
    from flumenbench.measure import run_workload

    workload = make_workload(args.workload, args.seed, args.size)
    spec = _spec()
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size]
    spans = SPANS_DIR / f"spans-{args.workload}.npz" if args.trace else None
    outcome = run_workload(workload, args.seconds, bool(args.trace),
                           probe, SETUP_PROBES, spans)
    result = _report(args, workload, outcome, spec)
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        result["correct"] = False
    _emit(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
