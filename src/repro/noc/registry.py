"""Registry of NoP network backends.

Maps a topology name to a factory ``(nodes, **kwargs) -> SimKernel``.
:func:`~repro.noc.simulation.make_network`, the system-model pipelines,
and the property-test suite all resolve backends here, so adding a
topology is one :func:`register_backend` call — no edits to the factory
if-chain, the system model, or the sweeps.

Each name may carry **two** factories: the per-object reference
implementation (the bit-identity *oracle*) and a struct-of-arrays
``vectorized=True`` twin.  Dispatch prefers the vectorized factory when
one exists — callers are none the wiser — while
``backend_factory(name, vectorized=False)`` always reaches the oracle,
which is how the equivalence suite pins the two implementations
against each other.  Production code builds every backend through
here, so it runs the twin; only tests and the serve daemon's
``--loop oracle`` slot ask for the oracle.

The four paper topologies register both slots below with lazy imports
(the factories import their backend module on first use), keeping this
module import-cycle-free and cheap to load.  ``mesh_wf`` is oracle-only:
its west-first route draws a random productive port on every hop, which
the twin's precomputed route table cannot replay.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

#: name -> [oracle factory | None, vectorized factory | None].
_BACKENDS: dict[str, list[Callable | None]] = {}


def register_backend(name: str, factory: Callable | None = None,
                     *, vectorized: bool = False, replace: bool = False):
    """Register a network backend factory under ``name``.

    Usable directly (``register_backend("ring", make_ring)``) or as a
    decorator (``@register_backend("ring")``).  ``vectorized=True``
    registers the struct-of-arrays twin, which becomes the default
    dispatch for the name; the plain registration remains reachable as
    the oracle via ``backend_factory(name, vectorized=False)``.
    Re-registering an existing slot raises unless ``replace=True``.
    """
    slot = 1 if vectorized else 0

    def _register(fn: Callable) -> Callable:
        entry = _BACKENDS.setdefault(name, [None, None])
        if not replace and entry[slot] is not None:
            kind = "vectorized" if vectorized else "reference"
            raise ValueError(f"{kind} backend {name!r} is already "
                             f"registered; pass replace=True to override")
        entry[slot] = fn
        return fn
    if factory is not None:
        return _register(factory)
    return _register


def unregister_backend(name: str, *, vectorized: bool | None = None) -> None:
    """Remove a backend (primarily for test cleanup).

    By default both slots go; pass ``vectorized`` to drop just one.
    """
    if vectorized is None:
        _BACKENDS.pop(name, None)
        return
    entry = _BACKENDS.get(name)
    if entry is not None:
        entry[1 if vectorized else 0] = None
        if entry[0] is None and entry[1] is None:
            del _BACKENDS[name]


def backend_factory(name: str, vectorized: bool | None = None) -> Callable:
    """Look up one backend factory, or raise listing what exists.

    ``vectorized=None`` (the default) prefers the vectorized factory
    and falls back to the oracle; ``True`` requires the vectorized one;
    ``False`` requires the oracle.
    """
    try:
        entry = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; "
            f"known: {registered_topologies()}") from None
    if vectorized is None:
        factory = entry[1] if entry[1] is not None else entry[0]
    else:
        factory = entry[1] if vectorized else entry[0]
    if factory is None:
        kind = "vectorized" if vectorized else "reference"
        raise ValueError(f"backend {name!r} has no {kind} implementation")
    return factory


def has_vectorized(name: str) -> bool:
    """True when ``name`` has a registered vectorized twin."""
    entry = _BACKENDS.get(name)
    return entry is not None and entry[1] is not None


def registered_topologies() -> tuple[str, ...]:
    """Names of every registered backend, in registration order."""
    return tuple(_BACKENDS)


@contextmanager
def temporary_backend(name: str, factory: Callable,
                      *, vectorized: bool = False) -> Iterator[None]:
    """Register a backend for the duration of a ``with`` block."""
    register_backend(name, factory, vectorized=vectorized)
    try:
        yield
    finally:
        unregister_backend(name, vectorized=vectorized)


# -- the paper's four topologies (Figure 10) ---------------------------------
#
# Each registers its per-object oracle and its struct-of-arrays twin;
# dispatch serves the twin, the equivalence suite diffs the two.

@register_backend("ring")
def _make_ring(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("ring", nodes), **kwargs)


@register_backend("ring", vectorized=True)
def _make_ring_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("ring", nodes), **kwargs)


@register_backend("mesh")
def _make_mesh(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("mesh", nodes), **kwargs)


@register_backend("mesh", vectorized=True)
def _make_mesh_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoANetwork
    from repro.noc.topology import make_topology
    return SoANetwork(make_topology("mesh", nodes), **kwargs)


@register_backend("optbus")
def _make_optbus(nodes: int = 16, **kwargs):
    from repro.noc.optbus import OptBusNetwork
    return OptBusNetwork(nodes, **kwargs)


@register_backend("optbus", vectorized=True)
def _make_optbus_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAOptBusNetwork
    return SoAOptBusNetwork(nodes, **kwargs)


@register_backend("flumen")
def _make_flumen(nodes: int = 16, **kwargs):
    from repro.noc.flumen_net import FlumenNetwork
    return FlumenNetwork(nodes, **kwargs)


@register_backend("flumen", vectorized=True)
def _make_flumen_soa(nodes: int = 16, **kwargs):
    from repro.noc.soa import SoAFlumenNetwork
    return SoAFlumenNetwork(nodes, **kwargs)


# -- oracle-only topologies ---------------------------------------------------

@register_backend("mesh_wf")
def _make_mesh_wf(nodes: int = 16, **kwargs):
    from repro.noc.network import Network
    from repro.noc.topology import make_topology
    return Network(make_topology("mesh_wf", nodes), **kwargs)
