"""Shared optical bus (OptBus) network model (Figure 10c, Section 4.1).

Corona-style MWSR organization: every node owns a receive waveguide; all
other nodes arbitrate (token-based) for write access to it.  The shared
medium is the point of the baseline — multiple writers to one receiver
serialize, which is where OptBus loses to Flumen's non-blocking fabric
under adversarial patterns (Section 5.2).

The model is packet-granular: a granted writer holds its destination bus
for ``size_flits`` cycles (one flit per cycle at the wavelength-parallel
channel width), after a fixed token/arbitration delay.

Injection, the run/drain loop, latency sampling, and result assembly come
from :class:`~repro.noc.kernel.SimKernel`; this module is the token
arbitration and bus-circuit logic only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.kernel import SimKernel
from repro.noc.packet import Packet
from repro.obs import NULL_OBS, Obs


@dataclass
class _BusCircuit:
    packet: Packet
    remaining_flits: int


class OptBusNetwork(SimKernel):
    """MWSR optical bus network with token arbitration."""

    name = "optbus"

    def __init__(self, nodes: int, arbitration_delay: int = 4,
                 propagation_delay: int = 2,
                 utilization_interval: int = 100,
                 obs: Obs = NULL_OBS) -> None:
        if nodes < 2:
            raise ValueError("need at least two nodes")
        super().__init__(name=self.name, num_links=nodes,
                         utilization_interval=utilization_interval,
                         obs=obs)
        self.nodes = nodes
        #: Cycles for the token grant to reach a requester (optical token
        #: round trip across the package).
        self.arbitration_delay = arbitration_delay
        #: Waveguide propagation (cycles) from writer to reader.
        self.propagation_delay = propagation_delay
        #: Per-source FIFO of packets awaiting their destination bus.
        self.source_queues: list[deque[Packet]] = [
            deque() for _ in range(nodes)]
        #: Per-destination-bus arbiter and active circuit.
        self._arbiters = [RoundRobinArbiter(nodes) for _ in range(nodes)]
        self._active: list[_BusCircuit | None] = [None] * nodes
        #: Cycles of setup delay left before an active circuit transmits.
        self._setup_left = [0] * nodes

    def _enqueue(self, packet: Packet) -> None:
        self.source_queues[packet.src].append(packet)

    def step(self) -> None:
        busy = 0
        # 1. Advance active circuits in ascending bus order.
        for bus, circuit in enumerate(self._active):
            if circuit is None:
                continue
            if self._setup_left[bus] > 0:
                self._setup_left[bus] -= 1
                continue
            circuit.remaining_flits -= 1
            busy += 1
            self.flit_hops += 1
            self.link_traversals += 1
            if circuit.remaining_flits == 0:
                delivered = self.cycle + self.propagation_delay
                self._deliver(circuit.packet, delivered, f"bus{bus}")
                self._active[bus] = None
        # 2. Arbitrate free buses among heads of source queues.
        requests_per_bus: dict[int, list[bool]] = {}
        for src, queue in enumerate(self.source_queues):
            if not queue:
                continue
            dst = queue[0].dst
            if self._active[dst] is None:
                requests_per_bus.setdefault(dst, [False] * self.nodes)
                requests_per_bus[dst][src] = True
        for bus, lines in requests_per_bus.items():
            winner = self._arbiters[bus].grant(lines)
            if winner is None:
                continue
            packet = self.source_queues[winner].popleft()
            self._active[bus] = _BusCircuit(
                packet=packet, remaining_flits=packet.size_flits)
            self._setup_left[bus] = self.arbitration_delay
        self.utilization.record_cycle(busy)
        self.cycle += 1

    def quiescent(self) -> bool:
        return (all(not q for q in self.source_queues)
                and all(c is None for c in self._active))

    def total_queued_flits(self) -> int:
        queued = sum(p.size_flits for q in self.source_queues for p in q)
        active = sum(c.remaining_flits for c in self._active if c)
        return queued + active
