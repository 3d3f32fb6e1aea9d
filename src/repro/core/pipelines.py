"""Registry of system configurations as pluggable pipelines.

A :class:`ConfigPipeline` declares everything :class:`~repro.core.system.
SystemModel` needs to evaluate a workload under one configuration:

* ``topology`` — which NoP backend carries the memory traffic (a name in
  :data:`repro.noc.registry.BACKENDS`),
* ``link_energy`` — which :class:`~repro.noc.energy.NetworkEnergyModel`
  accounting applies ("electrical", "optbus", or "flumen"),
* ``compute_path`` — where the MACs run ("core" keeps all compute on the
  multicore substrate; "mzim" offloads matmul phases to the photonic
  fabric with the Algorithm 1 scheduler co-simulation).

The five paper configurations (Figure 13's x-axis) register themselves
in :data:`CONFIGURATIONS` below.  Adding a configuration — a new
topology, a different energy model, another execution mode — is one
``CONFIGURATIONS.register(pipeline.name, pipeline)`` call;
``SystemModel``, the sweep tasks, the trace runner, and the CLI all
iterate this registry and need no edits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry import Registry

#: Energy accountings NetworkEnergyModel.of() can dispatch to.
LINK_ENERGY_KINDS = ("electrical", "optbus", "flumen")
#: Execution modes SystemModel implements.
COMPUTE_PATHS = ("core", "mzim")


@dataclass(frozen=True)
class ConfigPipeline:
    """One system configuration: backend + energy model + compute path."""

    name: str
    topology: str
    link_energy: str = "electrical"
    compute_path: str = "core"
    #: Mesh arrangement for the photonic compute path (a
    #: :data:`repro.photonics.registry.MESHES` name); ``None`` inherits
    #: ``SystemConfig.mesh_architecture``.
    mesh_architecture: str | None = None

    def __post_init__(self) -> None:
        if self.link_energy not in LINK_ENERGY_KINDS:
            raise ValueError(
                f"link_energy must be one of {LINK_ENERGY_KINDS}, "
                f"got {self.link_energy!r}")
        if self.compute_path not in COMPUTE_PATHS:
            raise ValueError(
                f"compute_path must be one of {COMPUTE_PATHS}, "
                f"got {self.compute_path!r}")
        if self.mesh_architecture is not None:
            from repro.photonics.registry import MESHES
            MESHES.get(self.mesh_architecture)  # raises listing known ones


#: configuration name -> :class:`ConfigPipeline`, in the paper's order.
CONFIGURATIONS: Registry[ConfigPipeline] = Registry("configuration")

# -- the five paper configurations (Figures 13-15) ---------------------------

for _pipeline in (
    ConfigPipeline(name="ring", topology="ring", link_energy="electrical"),
    ConfigPipeline(name="mesh", topology="mesh", link_energy="electrical"),
    ConfigPipeline(name="optbus", topology="optbus", link_energy="optbus"),
    # Flumen-I: the MZIM fabric used for interconnect only.
    ConfigPipeline(name="flumen_i", topology="flumen", link_energy="flumen"),
    # Flumen-A: interconnect plus matmul offload onto the MZIM compute path.
    ConfigPipeline(name="flumen_a", topology="flumen", link_energy="flumen",
                   compute_path="mzim"),
):
    CONFIGURATIONS.register(_pipeline.name, _pipeline)
