"""Algorithm 1: the Flumen scheduling process.

``SchedulerMain`` loops over partition evaluation periods of ``tau``
cycles.  At each period boundary the ``Partitioner`` scans the compute
request buffer; a request is granted a compute partition when the request
buffers of the nodes it would displace are under the utilization threshold
``eta`` at scan depth ``zeta``.  Completed computations return their
results through a many-to-one configuration and the partition rejoins the
communication set.

This module drives a :class:`~repro.noc.flumen_net.CrossbarBase` network
(port blocking models the partition stealing fabric bandwidth) and
accounts the compute timeline from the Table 1 parameters (6 ns
programming, 5 GHz input modulation, WDM width).

Reliability hook (DESIGN.md §12): an optional
:class:`~repro.faults.ladder.DegradationLadder` modulates Algorithm 1
when the health monitor has flagged the fabric — partition sizes are
capped (SHRINK rung), placement avoids retired ports (REROUTE rung),
and at the terminal ELECTRICAL rung the partitioner stops granting the
photonic fabric entirely, servicing every queued request on the
electrical core path instead (:func:`electrical_duration_cycles`).
With no ladder attached the scheduling path is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import SystemConfig
from repro.core.accelerator import OffloadPlan
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.obs import NULL_OBS, Obs

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.ladder import DegradationLadder
    from repro.photonics.fabric import FlumenFabric, Partition


def compute_duration_cycles(plan: OffloadPlan,
                            system: SystemConfig) -> int:
    """Network cycles a compute partition holds the fabric for one job.

    Phase programming per matrix switch (6 ns), one input-modulation cycle
    per optical window (5 GHz against the 2.5 GHz network clock), and the
    many-to-one result return (reconfiguration plus one flit per result
    vector group).
    """
    freq = system.core.frequency_hz
    program = math.ceil(system.compute.mzim_switch_delay_s * freq)
    input_cycles = math.ceil(
        plan.optical_windows * freq / system.compute.input_modulation_hz)
    return_config = math.ceil(system.compute.comm_switch_delay_s * freq)
    return_flits = plan.block_rows * math.ceil(
        plan.vectors / plan.wavelengths)
    return (plan.matrix_switches * program
            + input_cycles
            + return_config + return_flits)


def electrical_duration_cycles(plan: OffloadPlan,
                               system: SystemConfig,
                               cores: int = 4) -> int:
    """Network cycles the electrical fallback needs for the same job.

    The terminal rung of the degradation ladder runs the offloaded MACs
    on the requesting chiplet's SIMD cores (the same cost model the
    offload policy uses for its local-vs-photonic break-even), scaled
    from core clock to network clock.
    """
    from repro.multicore.cpu import CoreModel

    core = CoreModel(system.core)
    cost = core.phase_cost(plan.macs_offloaded, 0, None, None, cores)
    return max(1, int(math.ceil(cost.total_cycles)))


def _first_fit(taken: list[bool], ports: int) -> tuple[int, int] | None:
    """First contiguous run of ``ports`` free fabric ports, as ``[lo, hi)``."""
    run = 0
    for p, busy in enumerate(taken):
        run = 0 if busy else run + 1
        if run == ports:
            return p - ports + 1, p + 1
    return None


def _widest_free_run(taken: list[bool]) -> int:
    """Length of the longest contiguous run of free fabric ports."""
    widest = run = 0
    for busy in taken:
        run = 0 if busy else run + 1
        widest = max(widest, run)
    return widest


@dataclass
class _ElectricalJob:
    """A compute request being serviced on the electrical fallback path."""

    request: ComputeRequest
    total_cycles: int
    remaining_cycles: int
    start_cycle: int


@dataclass
class ActiveComputation:
    """A compute partition currently holding fabric ports."""

    request: ComputeRequest
    lo_port: int
    hi_port: int
    total_cycles: int
    remaining_cycles: int
    started: bool = False
    grant_cycle: int = 0
    start_cycle: int = 0
    #: Mirrored photonic partition (only when the scheduler drives a
    #: :class:`~repro.photonics.fabric.FlumenFabric`).
    fabric_partition: Partition | None = None

    @property
    def ports(self) -> tuple[int, int]:
        return self.lo_port, self.hi_port


@dataclass
class SchedulerStats:
    granted: int = 0
    completed: int = 0
    deferred_evaluations: int = 0
    total_wait_cycles: int = 0
    total_drain_cycles: int = 0
    busy_port_cycles: int = 0
    #: Requests completed on the electrical fallback path (ladder rung).
    electrical_completions: int = 0

    @property
    def average_wait(self) -> float:
        return self.total_wait_cycles / self.granted if self.granted else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot of the Algorithm 1 counters."""
        return {
            "granted": self.granted,
            "completed": self.completed,
            "deferred_evaluations": self.deferred_evaluations,
            "total_wait_cycles": self.total_wait_cycles,
            "total_drain_cycles": self.total_drain_cycles,
            "busy_port_cycles": self.busy_port_cycles,
            "electrical_completions": self.electrical_completions,
            "average_wait": self.average_wait,
        }


class FlumenScheduler:
    """SchedulerMain + Partitioner (Algorithm 1) over a Flumen network.

    ``fabric`` optionally attaches a
    :class:`~repro.photonics.fabric.FlumenFabric` mirror: grants split
    the fabric, partition starts program the SVD circuit, completions
    configure the many-to-one result return and release the ports — so
    the photonic layer's reprogramming timeline (phase-write counts per
    event) appears in traces alongside the scheduling decisions.
    """

    def __init__(self, control_unit: MZIMControlUnit,
                 system: SystemConfig | None = None,
                 obs: Obs = NULL_OBS,
                 fabric: FlumenFabric | None = None,
                 ladder: DegradationLadder | None = None) -> None:
        self.control = control_unit
        self.system = system or control_unit.system
        self.cfg = self.system.scheduler
        self.active: list[ActiveComputation] = []
        #: Jobs running on the electrical fallback path (ELECTRICAL rung).
        self.electrical: list[_ElectricalJob] = []
        #: Optional degradation ladder (DESIGN.md §12); None = no faults.
        self.ladder = ladder
        self.stats = SchedulerStats()
        self.cycle = 0
        #: Completed request ids, with completion cycles (for callers).
        self.completions: dict[int, int] = {}
        self.obs = obs
        self._tracer = obs.tracer
        self._events = obs.events
        self._m_grants = obs.metrics.counter("core.partition_grants")
        self._m_deferrals = obs.metrics.counter("core.partition_deferrals")
        self._m_completed = obs.metrics.counter("core.partitions_completed")
        self._m_electrical = obs.metrics.counter(
            "core.electrical_fallback_jobs")
        self._h_beta = obs.metrics.histogram(
            "core.beta", bounds=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                 0.8, 0.9, 1.0))
        self.fabric = fabric
        if fabric is not None:
            if fabric.n != control_unit.fabric_ports:
                raise ValueError(
                    f"fabric has {fabric.n} ports; control unit manages "
                    f"{control_unit.fabric_ports}")
            fabric.obs_clock = lambda: self.cycle
            # Boot state: the whole fabric is one communication partition
            # with no circuits programmed yet.
            fabric.configure_communication({})

    def _account_tenant(self, name: str, tenant: str,
                        amount: int = 1) -> None:
        """Per-tenant accounting series (grant-rate events, off hot path)."""
        self.obs.metrics.counter(name, tenant=tenant).inc(amount)

    def take_completions(self) -> dict[int, int]:
        """Drain and return completed request ids -> completion cycles.

        Batch callers read :attr:`completions` once after a run and let
        it grow; a long-lived daemon polls every cycle and must not
        accumulate an unbounded map, so this hands the current batch to
        the caller and resets the dict.  Photonic and electrical-rung
        completions both land here, so a daemon consuming this stream
        never loses an admitted request to a ladder transition.
        """
        done, self.completions = self.completions, {}
        return done

    def skip_idle_cycles(self, cycles: int) -> None:
        """Advance ``cycles`` cycles with no work anywhere in the stack.

        Only legal while the scheduler is fully idle — no active
        computations, no electrical jobs, an empty compute buffer.  An
        idle :meth:`tick` then mutates nothing but the cycle counter
        (the tau-periodic partitioner scan iterates an empty buffer),
        so a bulk advance is byte-equivalent to ``cycles`` empty ticks.
        """
        if cycles <= 0:
            return
        if self.active or self.electrical or self.control.compute_buffer:
            raise RuntimeError("skip_idle_cycles with queued or active "
                               "work would skip its lifecycle")
        self.cycle += cycles

    def quiet_countdown(self) -> int | None:
        """Cycles until the earliest in-flight completion.

        ``None`` means the scheduler is fully idle (nothing queued or
        in flight); ``0`` means it is *not* quiet — a granted
        computation still draining its port endpoints, or a partitioner
        evaluation due this very tick — and per-cycle ticks must run.
        A positive return ``r`` means the next ``r - 1`` ticks are pure
        countdown: :meth:`skip_quiet_cycles` may bulk-apply any strict
        prefix of them.  Queued requests are inert between the
        tau-periodic partitioner evaluations, so a non-empty compute
        buffer merely bounds the countdown at the next evaluation
        instead of forbidding the skip.
        """
        countdown: int | None = None
        for comp in self.active:
            if not comp.started:
                return 0
            if countdown is None or comp.remaining_cycles < countdown:
                countdown = comp.remaining_cycles
        for job in self.electrical:
            if countdown is None or job.remaining_cycles < countdown:
                countdown = job.remaining_cycles
        if self.control.compute_buffer:
            phase = self.cycle % self.cfg.tau_cycles
            if phase == 0:
                return 0
            until_eval = self.cfg.tau_cycles - phase + 1
            if countdown is None or until_eval < countdown:
                countdown = until_eval
        return countdown

    def skip_quiet_cycles(self, cycles: int) -> None:
        """Advance ``cycles`` pure-countdown cycles in one bulk step.

        Legal when every active computation has started, nothing
        completes within the window (``cycles < quiet_countdown()``),
        and — if requests are queued — no tau-periodic partitioner
        evaluation falls inside it.  Each such tick does exactly:
        decrement every in-flight job's remaining cycles and accrue the
        active computations' busy-port accounting (an empty-buffer
        partitioner scan changes nothing, and a non-empty buffer is
        inert between evaluations).  The bulk application is
        byte-equivalent to ``cycles`` individual ticks.
        """
        if cycles <= 0:
            return
        if self.control.compute_buffer:
            phase = self.cycle % self.cfg.tau_cycles
            if phase == 0 or phase + cycles > self.cfg.tau_cycles:
                raise RuntimeError("skip_quiet_cycles across a "
                                   "partitioner evaluation would stall "
                                   "queued work")
        for comp in self.active:
            if not comp.started:
                raise RuntimeError("skip_quiet_cycles before a "
                                   "computation starts would skip its "
                                   "drain accounting")
            if comp.remaining_cycles <= cycles:
                raise RuntimeError("skip_quiet_cycles across a "
                                   "completion would skip its lifecycle")
        for job in self.electrical:
            if job.remaining_cycles <= cycles:
                raise RuntimeError("skip_quiet_cycles across a "
                                   "completion would skip its lifecycle")
        for comp in self.active:
            comp.remaining_cycles -= cycles
            self.stats.busy_port_cycles += \
                cycles * (comp.hi_port - comp.lo_port)
        for job in self.electrical:
            job.remaining_cycles -= cycles
        self.cycle += cycles

    # -- Algorithm 1, lines 19-28 ---------------------------------------

    def _partitioner(self) -> None:
        """Scan the compute buffer, granting partitions where buffers allow.

        One evaluation builds the port-occupancy bitmap once -- active
        partitions plus the ladder's retired ports -- and marks each
        grant's ``[lo, hi)`` in place; nothing else that placement
        depends on (ladder cap, retired ports, network buffers) changes
        inside an evaluation.  A request wider than the widest free run
        is deferred without a first-fit scan; otherwise first-fit
        returns exactly the placement a per-request rebuild would.
        Once the widest free run is below 2 ports no request can be
        placed (every partition is >= 2 ports wide, after the ladder's
        cap too), so the rest of the buffer is kept as it stands.

        ``partition_defer`` (and its trace instant) records a state
        change: it is emitted on a request's first deferral only, which
        marks :attr:`ComputeRequest.deferred`; later deferrals emit
        nothing, and ``partition_grant`` carries the total wait.
        Deferred requests keep their buffer order, the buffer (the same
        deque object) is rewritten once at the end, and the deferral
        counters still count every deferral, added once per evaluation
        (nothing reads them mid-tick).
        """
        if self.ladder is not None and self.ladder.electrical_fallback:
            self._fallback_to_electrical()
            return
        buffer = self.control.compute_buffer
        if not buffer:
            return
        network = self.control.network
        taken = self._port_occupancy()
        widest = _widest_free_run(taken)
        kept: list[ComputeRequest] = []
        for request in buffer:
            placement = None
            # A full fabric (no two adjacent free ports) places nothing,
            # so the rest of the buffer is kept without a look.
            if widest >= 2:
                needed = self._effective_ports(request.ports_needed)
                if needed <= widest:
                    placement = _first_fit(taken, needed)
            if placement is None:
                kept.append(request)
                if not request.deferred:
                    self._defer(request, "no_ports",
                                ports_needed=request.ports_needed)
                continue
            lo, hi = placement
            endpoints = self.control.port_range_endpoints(lo, hi)
            beta = network.buffer_utilization(
                sorted(endpoints), scan_depth=self.cfg.zeta)
            granted = beta <= self.cfg.eta
            self._h_beta.observe(beta)
            if self._tracer.enabled:
                self._tracer.instant(
                    "core", "alg1", "beta_eval", self.cycle,
                    request_id=request.request_id, beta=round(beta, 6),
                    eta=self.cfg.eta, zeta=self.cfg.zeta, granted=granted)
            if granted:
                self._grant(request, lo, hi, endpoints, beta)
                taken[lo:hi] = [True] * (hi - lo)
                widest = _widest_free_run(taken)
            else:
                kept.append(request)
                if not request.deferred:
                    self._defer(request, "beta", beta=round(beta, 6),
                                eta=self.cfg.eta)
        deferred = len(kept)
        self.stats.deferred_evaluations += deferred
        self._m_deferrals.inc(deferred)
        if deferred != len(buffer):
            buffer.clear()
            buffer.extend(kept)

    def _defer(self, request: ComputeRequest, reason: str,
               **payload: object) -> None:
        """Mark and record ``request``'s first deferral (callers skip the
        later ones, which emit nothing).

        A ``beta`` deferral has no trace instant of its own: its
        ``beta_eval`` instant already records the decision.
        """
        request.deferred = True
        if self._events.enabled:
            self._events.emit(
                "partition_defer", self.cycle, tenant=request.tenant,
                request_id=request.request_id, reason=reason, **payload)
        if self._tracer.enabled and reason == "no_ports":
            self._tracer.instant(
                "core", "alg1", "partition_defer", self.cycle,
                request_id=request.request_id, reason=reason, **payload)

    def _port_occupancy(self) -> list[bool]:
        """Per fabric port: held by an active partition or retired by
        the ladder (dead-link endpoints never join a placement)."""
        taken = [False] * self.control.fabric_ports
        for comp in self.active:
            for p in range(comp.lo_port, comp.hi_port):
                taken[p] = True
        if self.ladder is not None:
            for p in self.ladder.unusable_ports:
                if 0 <= p < len(taken):
                    taken[p] = True
        return taken

    def _grant(self, request: ComputeRequest, lo: int, hi: int,
               endpoints: set[int], beta: float) -> None:
        """Block ``[lo, hi)`` for ``request`` and start its partition."""
        self.control.network.block_ports(endpoints)
        duration = (request.duration_override
                    if request.duration_override is not None
                    else compute_duration_cycles(request.plan, self.system))
        comp = ActiveComputation(
            request=request, lo_port=lo, hi_port=hi,
            total_cycles=duration, remaining_cycles=duration,
            grant_cycle=self.cycle)
        if self.fabric is not None:
            comp.fabric_partition = self.fabric.split(lo, hi)
        self.active.append(comp)
        self.stats.granted += 1
        self._m_grants.inc()
        wait = self.cycle - request.submit_cycle
        self.stats.total_wait_cycles += wait
        self._account_tenant("core.tenant_partition_grants", request.tenant)
        self._account_tenant("core.tenant_wait_cycles", request.tenant, wait)
        if self._events.enabled:
            self._events.emit(
                "partition_grant", self.cycle, tenant=request.tenant,
                request_id=request.request_id, lo_port=lo, hi_port=hi,
                beta=round(beta, 6), wait_cycles=wait, duration=duration)
        if self._tracer.enabled:
            self._tracer.instant(
                "core", "alg1", "mzim_block", self.cycle,
                request_id=request.request_id, lo_port=lo, hi_port=hi,
                endpoints=sorted(endpoints))

    def _effective_ports(self, ports_needed: int) -> int:
        """Partition size after the ladder's SHRINK cap (even, >= 2)."""
        if self.ladder is None:
            return ports_needed
        capped = min(ports_needed, self.ladder.partition_ports_cap)
        capped -= capped % 2
        return max(2, capped)

    def _fallback_to_electrical(self) -> None:
        """ELECTRICAL rung: drain the buffer onto the core-side path.

        No fabric ports are blocked and no photonic partitions are
        programmed, so communication traffic keeps flowing (and packet
        conservation holds) while compute requests are serviced
        electrically.
        """
        for request in list(self.control.compute_buffer):
            duration = electrical_duration_cycles(request.plan, self.system)
            self.electrical.append(_ElectricalJob(
                request=request, total_cycles=duration,
                remaining_cycles=duration, start_cycle=self.cycle))
            self.control.compute_buffer.remove(request)
            self._m_electrical.inc()
            self._account_tenant("core.tenant_electrical_jobs",
                                 request.tenant)
            if self._events.enabled:
                self._events.emit(
                    "electrical_fallback", self.cycle,
                    tenant=request.tenant,
                    request_id=request.request_id, node=request.node,
                    duration=duration)
            if self._tracer.enabled:
                self._tracer.instant(
                    "core", "faults", "electrical_fallback", self.cycle,
                    request_id=request.request_id, node=request.node,
                    duration=duration)

    # -- Algorithm 1, lines 1-18 -----------------------------------------

    def tick(self) -> None:
        """Advance the scheduler one network cycle.

        The caller steps the underlying network itself; this method manages
        the partition lifecycle around it.
        """
        # done(a) checks (lines 6-11).
        network = self.control.network
        still_active: list[ActiveComputation] = []
        for comp in self.active:
            if not comp.started:
                endpoints = self.control.port_range_endpoints(*comp.ports)
                if network.ports_clear(endpoints):
                    comp.started = True
                    comp.start_cycle = self.cycle
                    if comp.fabric_partition is not None:
                        size = comp.hi_port - comp.lo_port
                        self.fabric.program_compute(
                            comp.fabric_partition, np.eye(size))
                else:
                    self.stats.total_drain_cycles += 1
                    still_active.append(comp)
                    continue
            comp.remaining_cycles -= 1
            self.stats.busy_port_cycles += comp.hi_port - comp.lo_port
            if comp.remaining_cycles <= 0:
                endpoints = self.control.port_range_endpoints(*comp.ports)
                network.unblock_ports(endpoints)
                self.stats.completed += 1
                self._m_completed.inc()
                self.completions[comp.request.request_id] = self.cycle
                self._account_tenant("core.tenant_partitions_completed",
                                     comp.request.tenant)
                self._account_tenant("core.tenant_busy_port_cycles",
                                     comp.request.tenant,
                                     comp.total_cycles
                                     * (comp.hi_port - comp.lo_port))
                if self._events.enabled:
                    self._events.emit(
                        "partition_complete", self.cycle,
                        tenant=comp.request.tenant,
                        request_id=comp.request.request_id,
                        duration=self.cycle - comp.grant_cycle,
                        lo_port=comp.lo_port, hi_port=comp.hi_port,
                        drain_cycles=comp.start_cycle - comp.grant_cycle)
                if comp.fabric_partition is not None:
                    self.fabric.configure_gather(
                        comp.fabric_partition, comp.lo_port)
                    self.fabric.release(comp.fabric_partition)
                    comp.fabric_partition = None
                if self._tracer.enabled:
                    self._tracer.instant(
                        "core", "alg1", "mzim_unblock", self.cycle,
                        request_id=comp.request.request_id,
                        endpoints=sorted(endpoints))
                    self._tracer.complete(
                        "core", "partitions", "partition",
                        comp.grant_cycle, self.cycle,
                        request_id=comp.request.request_id,
                        lo_port=comp.lo_port, hi_port=comp.hi_port,
                        drain_cycles=comp.start_cycle - comp.grant_cycle)
            else:
                still_active.append(comp)
        self.active = still_active

        # Electrical fallback jobs progress independently of the fabric.
        still_electrical: list[_ElectricalJob] = []
        for job in self.electrical:
            job.remaining_cycles -= 1
            if job.remaining_cycles <= 0:
                self.stats.completed += 1
                self.stats.electrical_completions += 1
                self._m_completed.inc()
                self.completions[job.request.request_id] = self.cycle
                self._account_tenant("core.tenant_partitions_completed",
                                     job.request.tenant)
                if self._events.enabled:
                    self._events.emit(
                        "partition_complete", self.cycle,
                        tenant=job.request.tenant,
                        request_id=job.request.request_id,
                        duration=self.cycle - job.start_cycle,
                        lo_port=-1, hi_port=-1, drain_cycles=0,
                        electrical=True)
                if self._tracer.enabled:
                    self._tracer.complete(
                        "core", "partitions", "electrical_job",
                        job.start_cycle, self.cycle,
                        request_id=job.request.request_id,
                        node=job.request.node)
            else:
                still_electrical.append(job)
        self.electrical = still_electrical

        # Partition evaluation every tau cycles (lines 3-5).
        if self.cycle % self.cfg.tau_cycles == 0:
            self._partitioner()
        self.cycle += 1

    def run(self, cycles: int, traffic=None) -> None:
        """Co-simulate scheduler + network for ``cycles`` cycles."""
        network = self.control.network
        sampler = self.obs.sampler
        for _ in range(cycles):
            if traffic is not None:
                for packet in traffic.packets_for_cycle(network.cycle):
                    network.offer_packet(packet)
            self.tick()
            network.step()
            # Throttled snapshot offer (same rationale as SimKernel.run:
            # the sampler's cycle cadence stays the authority).
            if sampler is not None and self.cycle & 63 == 0:
                sampler.tick(self.cycle)
        if sampler is not None:
            sampler.tick(self.cycle)

    def drain(self, max_cycles: int = 100_000) -> None:
        """Run until all compute requests and packets complete."""
        network = self.control.network
        sampler = self.obs.sampler
        budget = max_cycles
        while budget > 0 and (self.active or self.electrical
                              or self.control.compute_buffer
                              or not network.quiescent()):
            self.tick()
            network.step()
            if sampler is not None and self.cycle & 63 == 0:
                sampler.tick(self.cycle)
            budget -= 1
        if sampler is not None:
            sampler.tick(self.cycle)
