"""One name -> implementation registry for every plug-in point.

NoP backends (:data:`repro.noc.registry.BACKENDS`), mesh architectures
(:data:`repro.photonics.registry.MESHES`), fault kinds
(:data:`repro.faults.models.FAULTS`), arrival processes
(:data:`repro.serve.arrivals.ARRIVALS`), system configurations
(:data:`repro.core.pipelines.CONFIGURATIONS`) and sweep tasks
(:data:`repro.analysis.engine.TASKS`) are all instances of
:class:`Registry`, so they share one contract:

* each name holds a *reference* slot and an optional *vectorized* slot;
  ``get(name)`` prefers the vectorized entry, ``vectorized=False`` pins
  the reference oracle, ``vectorized=True`` requires the twin;
* registering a taken slot raises unless ``replace=True``;
* names list in registration order;
* ``temporary`` shadows a slot for a ``with`` block and restores it;
* an unknown name raises ``ValueError("unknown <kind> 'x'; known: (...)")``
  listing the live names.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import Generic, TypeVar

T = TypeVar("T")

_SLOTS = ("reference", "vectorized")


class Registry(Generic[T]):
    """Named entries, each with a reference and a vectorized slot."""

    def __init__(self, kind: str) -> None:
        #: Noun naming one entry in error messages ("topology", "task").
        self.kind = kind
        self._entries: dict[str, tuple[T | None, T | None]] = {}

    def register(self, name: str, entry: T | None = None, *,
                 vectorized: bool = False, replace: bool = False):
        """Register ``entry`` under ``name``; a decorator without ``entry``.

        Re-registering a filled slot raises unless ``replace=True``.
        """
        slot = int(vectorized)

        def _register(value: T) -> T:
            current = self._entries.get(name, (None, None))[slot]
            if current is not None and not replace:
                raise ValueError(
                    f"{_SLOTS[slot]} {self.kind} {name!r} is already "
                    f"registered; pass replace=True to override")
            self._set(name, slot, value)
            return value
        if entry is None:
            return _register
        return _register(entry)

    def unregister(self, name: str, *, vectorized: bool | None = None) -> None:
        """Drop ``name`` (both slots by default, or just one)."""
        if vectorized is None:
            self._entries.pop(name, None)
        else:
            self._set(name, int(vectorized), None)

    def _set(self, name: str, slot: int, value: T | None) -> None:
        pair = list(self._entries.get(name, (None, None)))
        pair[slot] = value
        if pair[0] is None and pair[1] is None:
            self._entries.pop(name, None)
        else:
            self._entries[name] = (pair[0], pair[1])

    def get(self, name: str, vectorized: bool | None = None) -> T:
        """The entry for ``name``, or raise listing the live names.

        ``vectorized=None`` prefers the vectorized slot and falls back to
        the reference; ``True``/``False`` require that slot.
        """
        try:
            reference, twin = self._entries[name]
        except KeyError:
            raise ValueError(f"unknown {self.kind} {name!r}; "
                             f"known: {self.names()}") from None
        if vectorized is None:
            entry = reference if twin is None else twin
        else:
            entry = twin if vectorized else reference
        if entry is None:
            raise ValueError(f"{self.kind} {name!r} has no "
                             f"{_SLOTS[bool(vectorized)]} implementation")
        return entry

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    @contextmanager
    def temporary(self, name: str, entry: T, *,
                  vectorized: bool = False) -> Iterator[None]:
        """Register ``entry`` for a ``with`` block, shadowing any prior one.

        On exit ``name`` holds exactly what it held before (or nothing).
        """
        previous = self._entries.get(name)
        self.register(name, entry, vectorized=vectorized, replace=True)
        try:
            yield
        finally:
            if previous is None:
                self._entries.pop(name, None)
            else:
                self._entries[name] = previous
