"""Cycle-accurate network-on-package simulator (Booksim substitute).

Implements the four evaluated NoP topologies (Figure 10): electrical ring
and mesh as flit-level VC wormhole networks, the shared optical bus as a
token-arbitrated MWSR circuit network, and the Flumen MZIM as a
wavefront-arbitrated non-blocking crossbar with reconfiguration delays and
scheduler-controllable port blocking.
"""

from repro.noc.arbiter import (
    RoundRobinArbiter,
    SeparableAllocator,
    WavefrontArbiter,
)
from repro.noc.energy import EnergyReport, NetworkEnergyModel
from repro.noc.flumen_net import DEFAULT_RECONFIG_CYCLES, FlumenNetwork
from repro.noc.kernel import SimKernel
from repro.noc.network import Network
from repro.noc.optbus import OptBusNetwork
from repro.noc.packet import Flit, Packet, reset_packet_ids
from repro.noc.registry import BACKENDS
from repro.noc.router import Router, VCState
from repro.noc.simulation import (
    TOPOLOGIES,
    SweepConfig,
    load_sweep,
    make_network,
    run_point,
    saturation_load,
    zero_load_latency,
)
from repro.noc.stats import LatencyStats, SimulationResult, UtilizationTracker
from repro.noc.topology import (
    LOCAL_PORT,
    MeshTopology,
    RingTopology,
    Topology,
    make_topology,
)
from repro.noc.traffic import (
    PATTERNS,
    TracePlayback,
    TrafficGenerator,
    make_pattern,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_RECONFIG_CYCLES",
    "EnergyReport",
    "Flit",
    "FlumenNetwork",
    "LOCAL_PORT",
    "LatencyStats",
    "MeshTopology",
    "Network",
    "NetworkEnergyModel",
    "OptBusNetwork",
    "PATTERNS",
    "Packet",
    "RingTopology",
    "RoundRobinArbiter",
    "Router",
    "SeparableAllocator",
    "SimKernel",
    "SimulationResult",
    "SweepConfig",
    "TOPOLOGIES",
    "Topology",
    "TracePlayback",
    "TrafficGenerator",
    "UtilizationTracker",
    "VCState",
    "WavefrontArbiter",
    "load_sweep",
    "make_network",
    "make_pattern",
    "make_topology",
    "reset_packet_ids",
    "run_point",
    "saturation_load",
    "zero_load_latency",
]
