"""Struct-of-arrays NoC backends vs. their per-object oracles.

Every registered topology with a vectorized twin must reproduce the
oracle *bit for bit*: same delivered packets, same individual flit
latencies, same arbitration outcomes, same counters, same utilization
timeline — across random traffic, idle/active transitions, and the idle
fast-forward path.  All assertions are exact equality; any tolerance
would hide an ordering bug.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiter import RoundRobinArbiter, WavefrontArbiter
from repro.noc.registry import BACKENDS
from repro.noc.simulation import make_network
from repro.noc.stats import UtilizationTracker
from repro.noc.traffic import TracePlayback, TrafficGenerator

def _has_twin(topology: str) -> bool:
    try:
        BACKENDS.get(topology, vectorized=True)
    except ValueError:
        return False
    return True


VECTORIZED = [t for t in BACKENDS.names() if _has_twin(t)]


def _summary(net) -> dict:
    return {
        "cycle": net.cycle,
        "injected": net.injected_packets,
        "received": net.latency.received,
        "latencies": list(net.latency.latencies),
        "flit_hops": net.flit_hops,
        "link_traversals": net.link_traversals,
        "utilization": list(net.utilization.timeline),
        "queued": net.total_queued_flits(),
        "quiescent": net.quiescent(),
    }


def _run_pair(topology, traffic_fn, cycles, **kwargs):
    nets = [make_network(topology, 16, vectorized=v, **kwargs)
            for v in (False, True)]
    for net in nets:
        net.run(traffic_fn(), cycles=cycles, drain=True,
                max_drain_cycles=30_000)
    return nets


#: Topologies registered without a struct-of-arrays twin, and why.
#: ``mesh_wf``'s west-first route draws a random productive port on
#: every hop, which a precomputed route table cannot replay.
ORACLE_ONLY = {"mesh_wf"}


def test_every_vectorized_backend_is_registered():
    # Every topology ships a struct-of-arrays twin unless it is listed
    # in ORACLE_ONLY; a new topology without one must be listed there.
    assert set(VECTORIZED) == set(BACKENDS.names()) - ORACLE_ONLY
    assert not any(_has_twin(t) for t in ORACLE_ONLY)


def test_backend_factory_prefers_vectorized():
    for topology in VECTORIZED:
        oracle = BACKENDS.get(topology, vectorized=False)
        fast = BACKENDS.get(topology, vectorized=True)
        assert oracle is not fast
        assert BACKENDS.get(topology) is fast


@settings(max_examples=20, deadline=None)
@given(topology=st.sampled_from(VECTORIZED),
       pattern=st.sampled_from(["uniform", "bit_reversal", "shuffle",
                                "tornado", "neighbor"]),
       load=st.floats(min_value=0.02, max_value=0.5),
       packet_size=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_soa_matches_oracle(topology, pattern, load, packet_size,
                                     seed):
    def traffic():
        return TrafficGenerator(16, pattern, load,
                                packet_size=packet_size, seed=seed)

    oracle, soa = _run_pair(topology, traffic, cycles=300)
    assert _summary(soa) == _summary(oracle)


@settings(max_examples=12, deadline=None)
@given(topology=st.sampled_from(VECTORIZED),
       gap=st.integers(min_value=5, max_value=1200),
       bursts=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_idle_fast_forward_is_invisible(topology, gap, bursts,
                                                 seed):
    # Bursty traces exercise the quiescent fast-forward: the oracle steps
    # every cycle, the SoA twin skips dead stretches, and nothing —
    # including the interval-quantized utilization timeline and the
    # post-skip arbitration state — may differ.
    events = []
    for b in range(bursts):
        start = b * gap
        for i in range(10):
            src = (i * 5 + b + seed) % 16
            dst = (i * 11 + 3 * b + 7 + seed) % 16
            if src != dst:
                events.append((start + i // 4, src, dst, 3))
    cycles = bursts * gap + 50

    oracle, soa = _run_pair(topology, lambda: TracePlayback(list(events)),
                            cycles=cycles)
    assert _summary(soa) == _summary(oracle)


@settings(max_examples=8, deadline=None)
@given(reconfig=st.integers(min_value=1, max_value=6),
       arbitration=st.sampled_from(["wavefront", "sequential"]),
       pipelined=st.booleans(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_flumen_variants_match(reconfig, arbitration, pipelined,
                                        seed):
    def traffic():
        return TrafficGenerator(16, "uniform", 0.3, seed=seed)

    oracle, soa = _run_pair(
        "flumen", traffic, cycles=300, reconfig_cycles=reconfig,
        arbitration=arbitration, pipelined_setup=pipelined)
    assert _summary(soa) == _summary(oracle)
    assert soa.arbiter_conflicts == oracle.arbiter_conflicts
    assert soa.reconfigurations == oracle.reconfigurations


def test_flumen_scheduler_hooks_match_after_blocking():
    observed = []
    for vectorized in (False, True):
        net = make_network("flumen", 16, vectorized=vectorized)
        traffic = TrafficGenerator(16, "uniform", 0.3, seed=9)
        net.block_ports(set(range(8)))
        net.run(traffic, cycles=200)
        blocked = [net.buffer_occupancy(p) for p in range(8)]
        util = net.buffer_utilization(scan_depth=0.5)
        net.unblock_ports(set(range(8)))
        budget = 30_000
        while not net.quiescent() and budget:
            net.step()
            budget -= 1
        observed.append((blocked, util, _summary(net)))
    assert observed[0] == observed[1]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       last=st.integers(min_value=0, max_value=11),
       lines=st.sets(st.integers(min_value=0, max_value=11), min_size=1),
       seed=st.integers(min_value=0, max_value=100))
def test_property_sparse_rr_matches_dense(n, last, lines, seed):
    lines = sorted(x for x in lines if x < n)
    if not lines:
        return
    last = last % n
    arbiter = RoundRobinArbiter(n)
    arbiter._last = last
    dense = arbiter.grant([x in lines for x in range(n)])
    arbiter._last = last
    sparse = arbiter.grant_sparse(lines)
    assert dense == sparse


@st.composite
def _wavefront_requests(draw, wide: bool):
    """``(n, priority, pairs)``; ``wide`` forces the >16-pair branch."""
    n = draw(st.integers(min_value=5 if wide else 2, max_value=32))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(cell, unique=True,
                          min_size=17 if wide else 0,
                          max_size=min(n * n, 64 if wide else 16)))
    return n, draw(st.integers(0, n - 1)), pairs


@pytest.mark.parametrize("wide", [False, True],
                         ids=["sorted_le16", "wavefront_ranks_gt16"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_sparse_wavefront_matches_dense(wide, data):
    """``allocate_sparse(pairs)`` is ``allocate`` on the dense matrix.

    Same grants in the same order, and the same priority diagonal
    afterwards — on both the small-list sort and the ``wavefront_ranks``
    path (more than 16 pairs).
    """
    import numpy as np

    n, priority, pairs = data.draw(_wavefront_requests(wide))
    assert (len(pairs) > 16) == wide
    dense, sparse = WavefrontArbiter(n), WavefrontArbiter(n)
    dense._priority = sparse._priority = priority
    requests = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        requests[i, j] = True
    assert sparse.allocate_sparse(pairs) == dense.allocate(requests)
    assert sparse._priority == dense._priority


def test_wavefront_rotate_matches_repeated_empty_allocates():
    import numpy as np

    a, b = WavefrontArbiter(7), WavefrontArbiter(7)
    for _ in range(5):
        a.allocate(np.zeros((7, 7), dtype=bool))
    b.rotate(5)
    requests = [(i, (i * 3) % 7) for i in range(7)]
    assert a.allocate_sparse(list(requests)) == \
        b.allocate_sparse(list(requests))


def test_record_idle_cycles_equals_repeated_zero_cycles():
    flushes = []
    stepped = UtilizationTracker(num_links=10, interval_cycles=7)
    stepped.on_flush = lambda i, f: flushes.append(("s", i, f))
    skipped = UtilizationTracker(num_links=10, interval_cycles=7)
    skipped.on_flush = lambda i, f: flushes.append(("k", i, f))

    stepped.record_cycle(3)
    skipped.record_cycle(3)
    for _ in range(25):
        stepped.record_cycle(0)
    skipped.record_idle_cycles(25)
    stepped.record_cycle(5)
    skipped.record_cycle(5)
    assert stepped.timeline == skipped.timeline
    assert [f for f in flushes if f[0] == "s"] == \
        [("s",) + f[1:] for f in flushes if f[0] == "k"]


def test_trace_playback_next_event_cycle():
    trace = TracePlayback([(5, 0, 1, 2), (9, 2, 3, 1)])
    assert trace.next_event_cycle(0) == 5
    trace.packets_for_cycle(5)
    assert trace.next_event_cycle(5) == 9
    trace.packets_for_cycle(9)
    assert trace.next_event_cycle(9) is None
