"""Registry of NoP network backends.

:data:`BACKENDS` maps a topology name to a factory
``(nodes, **kwargs) -> SimKernel``.
:func:`~repro.noc.simulation.make_network`, the system-model pipelines,
and the property-test suite all resolve backends here, so adding a
topology is one ``BACKENDS.register`` call — no edits to the factory
if-chain, the system model, or the sweeps.

Each name may carry **two** factories (the :class:`~repro.registry.
Registry` slots): the per-object reference implementation (the
bit-identity *oracle*) and a struct-of-arrays ``vectorized=True`` twin.
Dispatch prefers the twin, while ``BACKENDS.get(name, vectorized=False)``
always reaches the oracle, which is how the equivalence suite pins the
two implementations against each other.  Production code builds every
backend through here, so it runs the twin; only tests and the serve
daemon's ``--loop oracle`` slot ask for the oracle.

The four paper topologies register both slots below with lazy imports
(the factories import their backend module on first use), keeping this
module import-cycle-free and cheap to load.  ``mesh_wf`` is oracle-only:
its west-first route draws a random productive port on every hop, which
the twin's precomputed route table cannot replay.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.registry import Registry

#: topology name -> ``(nodes, **kwargs) -> SimKernel`` factory.
BACKENDS: Registry[Callable] = Registry("topology")


# -- the paper's four topologies (Figure 10) ---------------------------------
#
# Each registers its per-object oracle and its struct-of-arrays twin;
# dispatch serves the twin, the equivalence suite diffs the two.

@BACKENDS.register("ring")
def _make_ring(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("ring", nodes), **kwargs)


@BACKENDS.register("ring", vectorized=True)
def _make_ring_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("ring", nodes), **kwargs)


@BACKENDS.register("mesh")
def _make_mesh(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("mesh", nodes), **kwargs)


@BACKENDS.register("mesh", vectorized=True)
def _make_mesh_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("mesh", nodes), **kwargs)


@BACKENDS.register("optbus")
def _make_optbus(nodes: int = 16, **kwargs):
    from repro.noc.optbus import OptBusNetwork
    return OptBusNetwork(nodes, **kwargs)


@BACKENDS.register("optbus", vectorized=True)
def _make_optbus_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAOptBusNetwork
    return SoAOptBusNetwork(nodes, **kwargs)


@BACKENDS.register("flumen")
def _make_flumen(nodes: int = 16, **kwargs):
    from repro.noc.flumen_net import FlumenNetwork
    return FlumenNetwork(nodes, **kwargs)


@BACKENDS.register("flumen", vectorized=True)
def _make_flumen_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAFlumenNetwork
    return SoAFlumenNetwork(nodes, **kwargs)


# -- oracle-only topologies ---------------------------------------------------

@BACKENDS.register("mesh_wf")
def _make_mesh_wf(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("mesh_wf", nodes), **kwargs)
