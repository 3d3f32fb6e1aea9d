"""Ablations of Flumen fabric design choices (DESIGN.md Section 7).

1. **Attenuator-column loss equalization** (Section 3.1.2): without the
   added column, receivers on short paths see more power than receivers
   on long paths for the same modulated value; the column levels them.
2. **DAC phase resolution**: the 6 ns compute programming buys accuracy —
   coarse phases corrupt the implemented matrix.
3. **Wavefront vs sequential arbitration** in the control unit: the
   wavefront arbiter's maximal matching sustains full-permutation
   throughput a one-grant-per-cycle controller cannot.
4. **Pipelined setup**: overlapping the next circuit's programming with
   the current transfer recovers the reconfiguration bubble.
"""

import numpy as np

from repro.analysis.engine import default_jobs
from repro.analysis.report import format_table
from repro.analysis.sweep import sweep_task
from repro.noc.simulation import SweepConfig
from repro.photonics.fabric import FlumenFabric
from repro.photonics.noise import matrix_fidelity_vs_bits

CONFIG = SweepConfig(cycles=2000, warmup=600)


def _pairs_with_unequal_paths() -> dict[int, int]:
    """Find a communication map whose paths traverse different MZI counts.

    Path lengths depend on the routed permutation (Section 3.1.2 quotes a
    7-vs-4 spread); scan seeds until the map shows one.
    """
    for seed in range(64):
        targets = list(np.random.default_rng(seed).permutation(8))
        pairs = {s: d for s, d in enumerate(targets) if s != d}
        fabric = FlumenFabric(8)
        fabric.configure_communication(pairs)
        hops = [fabric.path_mzi_count(s, d) for s, d in pairs.items()]
        if max(hops) - min(hops) >= 2:
            return pairs
    raise RuntimeError("no unequal-path permutation found")


def equalization_spread():
    """Per-destination loss spread with and without equalization (dB)."""
    pairs = _pairs_with_unequal_paths()

    def spread(equalize: bool) -> float:
        fabric = FlumenFabric(8)
        fabric.configure_communication(pairs)
        if not equalize:
            fabric.attenuator_transmission = np.ones(8)
        losses = [fabric.path_loss_db(s, d) for s, d in pairs.items()]
        return max(losses) - min(losses)

    return {"without": spread(False), "with": spread(True)}


def arbitration_throughput():
    """Accepted throughput under permutation traffic, both arbiters."""
    points = sweep_task(
        "arbitration", ["wavefront", "sequential"], task="noc_latency",
        base_params={"topology": "flumen", "pattern": "bit_reversal",
                     "load": 0.6, "packet_size": 4, "traffic_seed": 9,
                     "cycles": CONFIG.cycles, "warmup": CONFIG.warmup},
        jobs=default_jobs())
    return {p.value: p.metrics["throughput"] for p in points}


def pipelined_setup_latency():
    """Average latency at high load with and without setup pipelining."""
    points = sweep_task(
        "pipelined_setup", [True, False], task="noc_latency",
        base_params={"topology": "flumen", "pattern": "shuffle",
                     "load": 0.7, "packet_size": 4, "traffic_seed": 11,
                     "cycles": CONFIG.cycles, "warmup": CONFIG.warmup},
        jobs=default_jobs())
    return {p.value: p.metrics["avg_latency"] for p in points}


def test_equalization(benchmark):
    spread = benchmark(equalization_spread)
    print()
    print(format_table(
        ["attenuator column", "loss spread (dB)"],
        [["disabled", f"{spread['without']:.3f}"],
         ["enabled", f"{spread['with']:.3f}"]],
        title="Ablation: loss equalization (Section 3.1.2)"))
    assert spread["with"] < 0.05
    assert spread["without"] > spread["with"]


def test_phase_resolution(benchmark):
    m = np.random.default_rng(1).standard_normal((8, 8))
    fid = benchmark.pedantic(
        lambda: matrix_fidelity_vs_bits(m, [4, 6, 8, 10, 12]),
        rounds=1, iterations=1)
    rows = [[bits, f"{err * 100:.3f}%"] for bits, err in fid.items()]
    print()
    print(format_table(["phase DAC bits", "matrix error"], rows,
                       title="Ablation: phase programming resolution"))
    assert fid[4] > 0.05       # coarse phases are unusable
    assert fid[8] < 0.02       # the paper's 8-bit operating point
    errors = [fid[b] for b in (4, 6, 8, 10, 12)]
    assert errors == sorted(errors, reverse=True)


def test_arbitration(benchmark):
    tp = benchmark.pedantic(arbitration_throughput, rounds=1, iterations=1)
    print()
    print(format_table(
        ["arbiter", "accepted flits/node/cycle @0.6 offered"],
        [[m, f"{v:.3f}"] for m, v in tp.items()],
        title="Ablation: wavefront vs sequential arbitration"))
    # Accepted rate = flits ejected in the 1400-cycle window (Booksim).
    # Offered: bit reversal on 16 nodes maps 4 sources onto themselves
    # and that traffic is dropped, so 0.6 * 12/16 = 0.45 is offered.
    # Wavefront: a permutation is one conflict-free matching, so the
    # fabric accepts what is offered.  Injection is Bernoulli at 0.15
    # packets/source/cycle: ~2520 window packets, sigma ~1.8%; the band
    # is ~4 sigma plus <= 16 circuits in flight at either window edge.
    # Sequential: one grant (one 4-flit packet) per cycle caps it at
    # 4/16 = 0.25, plus at most 16 packets granted before the window
    # (one per reserved output) whose tails eject inside it.
    nodes, window = 16, CONFIG.cycles - CONFIG.warmup
    offered = 0.6 * 12 / nodes
    assert 0.92 * offered <= tp["wavefront"] <= 1.08 * offered
    assert tp["sequential"] <= 4 * (window + nodes) / (nodes * window)
    assert tp["wavefront"] > 1.5 * tp["sequential"]


def test_pipelined_setup(benchmark):
    lat = benchmark.pedantic(pipelined_setup_latency, rounds=1, iterations=1)
    print()
    print(format_table(
        ["setup pipelining", "avg latency @0.7 shuffle"],
        [["enabled", f"{lat[True]:.1f}"],
         ["disabled", f"{lat[False]:.1f}"]],
        title="Ablation: pipelined reconfiguration"))
    assert lat[True] < lat[False]
