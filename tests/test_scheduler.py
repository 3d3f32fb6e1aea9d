"""Tests for the MZIM control unit and Algorithm 1 scheduler."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import canonical_json
from repro.config import SchedulerConfig, SystemConfig
from repro.core.accelerator import BlockMatmul, plan_offload
from repro.core.control_unit import (
    ComputeRequest,
    MatrixMemory,
    MZIMControlUnit,
)
from repro.core.scheduler import (
    ActiveComputation,
    FlumenScheduler,
    compute_duration_cycles,
)
from repro.faults.ladder import DegradationLadder
from repro.noc.flumen_net import FlumenNetwork
from repro.noc.packet import Packet
from repro.obs import Obs
from repro.photonics.fabric import FlumenFabric
from repro.serve import ServeConfig, ServeDaemon


def small_plan(vectors=8):
    return plan_offload(8, 8, vectors, 8, 8)


def make_stack(scheduler_cfg: SchedulerConfig | None = None):
    system = SystemConfig() if scheduler_cfg is None else \
        SystemConfig().replace(scheduler=scheduler_cfg)
    net = FlumenNetwork(16)
    control = MZIMControlUnit(net, system)
    scheduler = FlumenScheduler(control, system)
    return net, control, scheduler


def submit(control, cycle=0, ports=4, vectors=8, node=0):
    bm = BlockMatmul(np.eye(8), 8)
    key = f"m{control.requests_received}"
    control.matrix_memory.store(key, bm)
    req = ComputeRequest(node=node, plan=small_plan(vectors),
                         matrix_key=key, submit_cycle=cycle,
                         ports_needed=ports)
    control.submit(req, cycle)
    return req


class TestMatrixMemory:
    def test_store_and_get(self):
        mem = MatrixMemory(16)
        bm = BlockMatmul(np.eye(4), 4)
        mem.store("id", bm)
        assert "id" in mem
        assert mem.get("id") is bm

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            MatrixMemory().get("nope")

    def test_lru_eviction(self):
        mem = MatrixMemory(capacity_blocks=2)
        mem.store("a", BlockMatmul(np.eye(4), 4))   # 1 block
        mem.store("b", BlockMatmul(np.eye(4), 4))   # 1 block
        mem.get("a")  # touch a so b is LRU
        mem.store("c", BlockMatmul(np.eye(4), 4))
        assert "a" in mem and "c" in mem
        assert "b" not in mem

    def test_oversized_matrix_rejected(self):
        mem = MatrixMemory(capacity_blocks=1)
        with pytest.raises(ValueError):
            mem.store("big", BlockMatmul(np.ones((16, 16)), 4))


class TestControlUnit:
    def test_submit_requires_preloaded_matrix(self):
        _, control, _ = make_stack()
        req = ComputeRequest(node=0, plan=small_plan(), matrix_key="nope",
                             submit_cycle=0)
        with pytest.raises(KeyError):
            control.submit(req, 0)

    def test_submit_enqueues(self):
        _, control, _ = make_stack()
        submit(control)
        assert len(control.compute_buffer) == 1
        assert control.requests_received == 1

    def test_port_range_endpoints(self):
        _, control, _ = make_stack()
        # 16 endpoints over 8 fabric ports: 2 per port.
        assert control.port_range_endpoints(0, 4) == set(range(8))
        assert control.port_range_endpoints(4, 8) == set(range(8, 16))

    def test_request_too_many_ports_rejected(self):
        _, control, _ = make_stack()
        bm = BlockMatmul(np.eye(8), 8)
        control.matrix_memory.store("m", bm)
        req = ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                             submit_cycle=0, ports_needed=16)
        with pytest.raises(ValueError):
            control.submit(req, 0)

    def test_request_odd_ports_rejected(self):
        with pytest.raises(ValueError):
            ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                           submit_cycle=0, ports_needed=3)

    def test_advise_offload_on_idle_network(self):
        _, control, _ = make_stack()
        assert control.advise_offload()

    def test_advise_against_offload_when_hot(self):
        net, control, _ = make_stack()
        net.block_ports(set(range(16)))
        for src in range(8):
            for _ in range(32):
                net.offer_packet(Packet(src=src, dst=15, size_flits=1,
                                        create_cycle=0))
        # Top-zeta scan sees the 8 saturated buffers: utilization 1.0.
        assert not control.advise_offload(utilization_ceiling=0.8)


class TestDuration:
    def test_duration_includes_programming_and_windows(self):
        plan = small_plan(vectors=8)
        cycles = compute_duration_cycles(plan, SystemConfig())
        # 1 matrix switch x 15 cycles + 1 window at 5 GHz (>=1 cycle)
        # + return configuration + return flits.
        assert cycles >= 15 + 1 + 3

    def test_duration_grows_with_blocks(self):
        small = compute_duration_cycles(plan_offload(8, 8, 8, 8, 8),
                                        SystemConfig())
        large = compute_duration_cycles(plan_offload(64, 64, 8, 8, 8),
                                        SystemConfig())
        assert large > small * 10


class TestScheduler:
    def test_grant_on_idle_network(self):
        net, control, sched = make_stack()
        submit(control)
        sched.run(5)
        assert sched.stats.granted == 1
        assert net.blocked_ports == set(range(8))

    def test_completion_releases_ports(self):
        net, control, sched = make_stack()
        submit(control)
        sched.run(2000)
        sched.drain()
        assert sched.stats.completed == 1
        assert not net.blocked_ports

    def test_eta_threshold_blocks_grant(self):
        # Saturate the request buffers of the would-be partition nodes.
        cfg = SchedulerConfig(tau_cycles=10, eta=0.05, zeta=1.0)
        net, control, sched = make_stack(cfg)
        net.block_ports(set(range(16)))  # hold traffic in buffers
        for src in range(8):
            for _ in range(8):
                net.offer_packet(Packet(src=src, dst=15, size_flits=4,
                                        create_cycle=0))
        submit(control)
        for _ in range(30):
            sched.tick()
        assert sched.stats.granted == 0
        assert sched.stats.deferred_evaluations > 0

    def test_permissive_eta_grants(self):
        cfg = SchedulerConfig(tau_cycles=10, eta=0.9, zeta=0.5)
        net, control, sched = make_stack(cfg)
        for src in range(4):
            net.offer_packet(Packet(src=src, dst=15, size_flits=4,
                                    create_cycle=0))
        submit(control)
        sched.run(50)
        assert sched.stats.granted == 1

    def test_partition_waits_for_draining_circuits(self):
        net, control, sched = make_stack()
        # Long transfer occupying endpoint 0 (inside the partition).
        net.offer_packet(Packet(src=0, dst=3, size_flits=40, create_cycle=0))
        net.step()
        net.step()
        submit(control)
        sched.tick()  # grants and blocks, but cannot start yet
        assert sched.stats.granted == 1
        assert not sched.active[0].started
        sched.run(200)
        assert sched.active == [] or sched.active[0].started

    def test_two_partitions_coexist(self):
        net, control, sched = make_stack()
        submit(control, ports=4, vectors=4096)
        submit(control, ports=4, vectors=4096)
        sched.run(5)
        assert sched.stats.granted == 2
        ranges = sorted((c.lo_port, c.hi_port) for c in sched.active)
        assert ranges == [(0, 4), (4, 8)]

    def test_no_room_defers(self):
        net, control, sched = make_stack()
        submit(control, ports=8, vectors=4096)
        submit(control, ports=4)
        sched.run(5)
        assert sched.stats.granted == 1
        assert len(control.compute_buffer) == 1

    def test_duration_override_respected(self):
        net, control, sched = make_stack()
        bm = BlockMatmul(np.eye(8), 8)
        control.matrix_memory.store("m", bm)
        req = ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                             submit_cycle=0, ports_needed=4,
                             duration_override=7)
        control.submit(req, 0)
        sched.run(30)
        assert sched.stats.completed == 1
        assert sched.completions[req.request_id] <= 15

    def test_tau_spacing_of_partitioner(self):
        cfg = SchedulerConfig(tau_cycles=50, eta=0.4, zeta=0.5)
        net, control, sched = make_stack(cfg)
        sched.run(5)  # partitioner ran at cycle 0 only
        submit(control, cycle=5)
        sched.run(30)  # cycles 5..35: no tau boundary yet
        assert sched.stats.granted == 0
        sched.run(20)  # crosses cycle 50
        assert sched.stats.granted == 1

    def test_communication_flows_beside_partition(self):
        net, control, sched = make_stack()
        submit(control, ports=4, vectors=100000)
        sched.run(3)
        assert sched.stats.granted == 1
        # Endpoints 8..15 are free: traffic among them completes.
        net.offer_packet(Packet(src=9, dst=14, size_flits=4, create_cycle=0))
        sched.run(60)
        assert net.latency.received == 1


# ---------------------------------------------------------------------------
# The incremental partitioner against a per-request oracle


def reference_partitioner(sched: FlumenScheduler) -> None:
    """Plain Algorithm 1 partitioner scan (no electrical rung).

    Rebuilds port occupancy from the active partitions and retired ports
    for every queued request, and removes each granted request from the
    buffer as it is granted.  Every deferral is counted; only a
    request's first one emits ``partition_defer``.  Emits and counts
    exactly what :meth:`FlumenScheduler._partitioner` must.
    """
    control, network = sched.control, sched.control.network

    def first_fit(ports_needed):
        taken = [False] * control.fabric_ports
        for comp in sched.active:
            for p in range(comp.lo_port, comp.hi_port):
                taken[p] = True
        if sched.ladder is not None:
            for p in sched.ladder.unusable_ports:
                if 0 <= p < len(taken):
                    taken[p] = True
        run = 0
        for p in range(control.fabric_ports):
            run = run + 1 if not taken[p] else 0
            if run == ports_needed:
                return p - ports_needed + 1, p + 1
        return None

    for request in list(control.compute_buffer):
        placement = first_fit(sched._effective_ports(request.ports_needed))
        if placement is None:
            sched.stats.deferred_evaluations += 1
            sched._m_deferrals.inc()
            if not request.deferred:
                request.deferred = True
                sched._events.emit(
                    "partition_defer", sched.cycle, tenant=request.tenant,
                    request_id=request.request_id, reason="no_ports",
                    ports_needed=request.ports_needed)
                sched._tracer.instant(
                    "core", "alg1", "partition_defer", sched.cycle,
                    request_id=request.request_id, reason="no_ports",
                    ports_needed=request.ports_needed)
            continue
        lo, hi = placement
        endpoints = control.port_range_endpoints(lo, hi)
        beta = network.buffer_utilization(sorted(endpoints),
                                          scan_depth=sched.cfg.zeta)
        granted = beta <= sched.cfg.eta
        sched._h_beta.observe(beta)
        sched._tracer.instant(
            "core", "alg1", "beta_eval", sched.cycle,
            request_id=request.request_id, beta=round(beta, 6),
            eta=sched.cfg.eta, zeta=sched.cfg.zeta, granted=granted)
        if not granted:
            sched.stats.deferred_evaluations += 1
            sched._m_deferrals.inc()
            if not request.deferred:
                request.deferred = True
                sched._events.emit(
                    "partition_defer", sched.cycle, tenant=request.tenant,
                    request_id=request.request_id, reason="beta",
                    beta=round(beta, 6), eta=sched.cfg.eta)
            continue
        network.block_ports(endpoints)
        duration = (request.duration_override
                    if request.duration_override is not None
                    else compute_duration_cycles(request.plan, sched.system))
        comp = ActiveComputation(
            request=request, lo_port=lo, hi_port=hi,
            total_cycles=duration, remaining_cycles=duration,
            grant_cycle=sched.cycle)
        if sched.fabric is not None:
            comp.fabric_partition = sched.fabric.split(lo, hi)
        sched.active.append(comp)
        sched.stats.granted += 1
        sched._m_grants.inc()
        wait = sched.cycle - request.submit_cycle
        sched.stats.total_wait_cycles += wait
        control.compute_buffer.remove(request)
        sched._account_tenant("core.tenant_partition_grants",
                              request.tenant)
        sched._account_tenant("core.tenant_wait_cycles", request.tenant,
                              wait)
        sched._events.emit(
            "partition_grant", sched.cycle, tenant=request.tenant,
            request_id=request.request_id, lo_port=lo, hi_port=hi,
            beta=round(beta, 6), wait_cycles=wait, duration=duration)
        sched._tracer.instant(
            "core", "alg1", "mzim_block", sched.cycle,
            request_id=request.request_id, lo_port=lo, hi_port=hi,
            endpoints=sorted(endpoints))


@st.composite
def partitioner_cases(draw):
    """One partitioner evaluation's starting state (8 fabric ports).

    ``fill`` sometimes starts the evaluation on a full fabric (no two
    adjacent free ports): ``"held"`` packs every free aligned pair with
    an active partition, ``"split"`` retires every odd port.
    """
    occupied: set[int] = set()
    active = []
    fill = draw(st.sampled_from((None, None, "held", "split")))
    spans = draw(st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from((2, 4))),
        max_size=3))
    if fill == "held":
        spans = spans + [(lo, 2) for lo in range(0, 8, 2)]
    for lo, size in spans:
        span = set(range(lo, lo + size))
        if lo + size <= 8 and not span & occupied:
            occupied |= span
            active.append((lo, lo + size))
    ladder = draw(st.none() | st.tuples(
        st.integers(2, 8), st.sets(st.integers(-2, 10), max_size=3)))
    if fill == "split":
        cap, retired = ladder or (8, set())
        ladder = (cap, retired | {1, 3, 5, 7})
    return {
        "active": active,
        "ladder": ladder,
        "fabric": draw(st.booleans()),
        "eta": draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0))),
        "zeta": draw(st.sampled_from((0.25, 0.5, 1.0))),
        # Packets queued at each of the 16 endpoints' request buffers.
        "backlog": draw(st.lists(st.integers(0, 20), min_size=16,
                                 max_size=16)),
        "requests": draw(st.lists(
            st.tuples(st.sampled_from((2, 4, 6, 8)),
                      st.integers(0, 40),
                      st.none() | st.integers(1, 50),
                      st.sampled_from(("a", "b", "c")),
                      # Already deferred by an earlier evaluation.
                      st.booleans()),
            max_size=40)),
    }


def build_partitioner_stack(case: dict) -> FlumenScheduler:
    """A fresh, fully observed scheduler in the case's state."""
    system = SystemConfig().replace(scheduler=SchedulerConfig(
        tau_cycles=10, eta=case["eta"], zeta=case["zeta"]))
    obs = Obs.active()
    net = FlumenNetwork(16)
    for src, count in enumerate(case["backlog"]):
        for _ in range(count):
            net.offer_packet(Packet(src=src, dst=(src + 5) % 16,
                                    size_flits=2, create_cycle=0))
    control = MZIMControlUnit(net, system, obs=obs)
    ladder = None
    if case["ladder"] is not None:
        cap, retired = case["ladder"]
        ladder = DegradationLadder(fabric_ports=8, obs=obs)
        ladder.partition_ports_cap = cap
        ladder.unusable_ports = set(retired)
    fabric = FlumenFabric(8, obs=obs) if case["fabric"] else None
    sched = FlumenScheduler(control, system, obs=obs, fabric=fabric,
                            ladder=ladder)
    sched.cycle = 50
    for lo, hi in case["active"]:
        request = ComputeRequest(node=0, plan=small_plan(),
                                 matrix_key="held", submit_cycle=0,
                                 ports_needed=hi - lo, request_id=1000 + lo)
        comp = ActiveComputation(request=request, lo_port=lo, hi_port=hi,
                                 total_cycles=99, remaining_cycles=99)
        if fabric is not None:
            comp.fabric_partition = fabric.split(lo, hi)
        net.block_ports(control.port_range_endpoints(lo, hi))
        sched.active.append(comp)
    for i, (ports, submit_cycle, duration, tenant, deferred) in \
            enumerate(case["requests"]):
        request = ComputeRequest(
            node=i % 16, plan=small_plan(), matrix_key=f"m{i}",
            submit_cycle=submit_cycle, ports_needed=ports,
            duration_override=duration, tenant=tenant, request_id=i)
        request.deferred = deferred
        control.compute_buffer.append(request)
    return sched


def partitioner_outcome(sched: FlumenScheduler) -> dict:
    """Everything one evaluation can change, in comparable form."""
    obs = sched.obs
    return {
        "grants": [(c.request.request_id, c.lo_port, c.hi_port,
                    c.total_cycles) for c in sched.active],
        "events": list(obs.events.events),
        "trace": list(obs.tracer.events),
        "stats": sched.stats.to_dict(),
        "metrics": obs.metrics.to_dict(),
        "buffer": [(r.request_id, r.deferred)
                   for r in sched.control.compute_buffer],
        "blocked": sorted(sched.control.network.blocked_ports),
        "fabric": (None if sched.fabric is None else
                   [(p.lo, p.hi, p.kind.name)
                    for p in sched.fabric.partitions]),
    }


@settings(max_examples=200, deadline=None)
@given(partitioner_cases())
def test_partitioner_matches_per_request_oracle(case):
    """One occupancy scan per evaluation is byte-identical to a rescan
    per request: grants, events, trace, counters, metric series and the
    kept requests' buffer order."""
    fast = build_partitioner_stack(case)
    buffer = fast.control.compute_buffer
    fast._partitioner()
    assert fast.control.compute_buffer is buffer
    oracle = build_partitioner_stack(case)
    reference_partitioner(oracle)
    assert partitioner_outcome(fast) == partitioner_outcome(oracle)


def test_partitioner_grants_several_per_evaluation():
    """Grants update occupancy in place: the next request in the same
    scan sees the ports the previous grant took.  The first request
    exactly fills the widest free run ([0, 2) or [4, 6); port 6 is
    retired and 12 is out of range)."""
    case = {"active": [(2, 4)], "ladder": (8, {6, 12}), "fabric": True,
            "eta": 1.0, "zeta": 0.5, "backlog": [0] * 16,
            "requests": [(2, 0, 5, "a", False), (4, 0, 5, "b", False),
                         (2, 0, 5, "a", False), (2, 0, 5, "c", False),
                         (2, 0, 5, "b", False)]}
    fast = build_partitioner_stack(case)
    fast._partitioner()
    oracle = build_partitioner_stack(case)
    reference_partitioner(oracle)
    assert partitioner_outcome(fast) == partitioner_outcome(oracle)
    assert [(c.lo_port, c.hi_port) for c in fast.active] == \
        [(2, 4), (0, 2), (4, 6)]
    assert [r.request_id for r in fast.control.compute_buffer] == [1, 3, 4]


def test_partition_defer_emitted_once_per_request():
    """A request passed over at k >= 3 evaluations logs one
    ``partition_defer`` (and one trace instant), at its first deferral,
    then one ``partition_grant`` whose ``wait_cycles`` spans the whole
    wait; the deferral counter still counts every evaluation."""
    system = SystemConfig().replace(scheduler=SchedulerConfig(
        tau_cycles=10, eta=1.0, zeta=0.5))
    obs = Obs.active()
    control = MZIMControlUnit(FlumenNetwork(16), system, obs=obs)
    sched = FlumenScheduler(control, system, obs=obs)
    control.matrix_memory.store("m", BlockMatmul(np.eye(8), 8))

    def request(ports, submit_cycle, duration):
        return ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                              submit_cycle=submit_cycle, ports_needed=ports,
                              duration_override=duration)

    holder = request(8, 0, 45)  # the whole fabric, granted at cycle 0
    control.submit(holder, 0)
    sched.run(5)
    waiter = request(4, 5, 5)
    control.submit(waiter, 5)
    sched.run(100)

    defers = [e for e in obs.events.events
              if e["type"] == "partition_defer"]
    grant, = [e for e in obs.events.events
              if e["type"] == "partition_grant"
              and e["request_id"] == waiter.request_id]
    # Deferred at the evaluations of cycles 10, 20, 30 and 40.
    assert (sched.stats.deferred_evaluations, grant["cycle"]) == (4, 50)
    assert [(e["request_id"], e["cycle"], e["reason"]) for e in defers] \
        == [(waiter.request_id, 10, "no_ports")]
    assert [(i["ts"], i["args"]["request_id"]) for i in obs.tracer.events
            if i["name"] == "partition_defer"] == [(10, waiter.request_id)]
    assert grant["wait_cycles"] == grant["cycle"] - waiter.submit_cycle
    assert waiter.deferred and not holder.deferred


# ---------------------------------------------------------------------------
# Tier-1 pin of the saturated serve path


def test_saturated_serve_session_pinned():
    """A seeded 12-tenant, rate-0.2, 90%-MVM session: the long-backlog
    regime where every tau evaluation rescans hundreds of requests.
    The stats predate the incremental partitioner; the event counts
    and report digest are event schema v2's (one ``partition_defer``
    per deferred request, so the report's event total moved)."""
    daemon = ServeDaemon(ServeConfig(tenants=12, rate=0.2,
                                     mvm_fraction=0.9, duration=1024,
                                     seed=1))
    report = daemon.run()
    assert daemon.scheduler.stats.to_dict() == {
        "granted": 210, "completed": 210, "deferred_evaluations": 4457,
        "total_wait_cycles": 456581, "total_drain_cycles": 89,
        "busy_port_cycles": 25848, "electrical_completions": 0,
        "average_wait": 2174.195238095238}
    assert Counter(e["type"] for e in daemon.obs.events.events) == {
        "admission_reject": 704, "mvm_flush": 120,
        "partition_complete": 210, "partition_defer": 206,
        "partition_grant": 210, "serve_transition": 3}
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() \
        == "1aeb21c529ceaac60502508ecab8b128ce9e69848474d0b86dd4b172b834d577"
