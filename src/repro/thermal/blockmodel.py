"""HotSpot-style block-level compact model.

Builds a :class:`~repro.thermal.network.ThermalNetwork` from a floorplan,
following the layer structure of HotSpot's block mode (Skadron et al.):

* one **silicon node per block** — heat is injected here; adjacent blocks
  couple laterally through the die slab (conductance ∝ shared edge length /
  centre distance);
* one **spreader node per block** — the copper heat spreader is cut into
  per-block cells; each block conducts vertically into its cell through the
  half-die + TIM + constriction resistance; spreader cells couple laterally
  through the copper (much stronger than silicon);
* a per-cell vertical path into a lumped **sink** node, plus a **periphery**
  path for cells on the die boundary: the part of the spreader that extends
  beyond the die collects heat from boundary cells in proportion to their
  *exposed* boundary length.  This term is what makes positions thermally
  distinct — in any stack whose per-layer vertical conductances are uniform,
  the *average* block temperature provably depends only on total power
  (lateral terms cancel in the sum), which would blind the paper's
  ``Avg_Temp`` scheduling term on homogeneous platforms.  Real packages are
  not such stacks precisely because boundary regions spread outward;
* the sink convects to **ambient**.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..errors import ThermalError
from ..floorplan.geometry import Floorplan
from ..thermal.materials import COPPER
from ..units import MM, mm2_to_m2
from .network import ThermalNetwork
from .package import PackageConfig, default_package

__all__ = [
    "SINK_NODE",
    "spreader_node",
    "build_block_network",
    "block_power_vector",
]

#: The lumped heat-sink node (convects to ambient).
SINK_NODE = "__sink__"

#: Prefix of per-block spreader-cell nodes.
_SPREADER_PREFIX = "__sp__"


def spreader_node(block_name: str) -> str:
    """Name of the spreader cell under *block_name*."""
    return _SPREADER_PREFIX + block_name


def _exposed_boundary_mm(
    floorplan: Floorplan,
    name: str,
    adjacency: Optional[Mapping[Tuple[str, str], float]] = None,
) -> float:
    """Block perimeter not shared with any other block (mm).

    Pass a precomputed ``floorplan.adjacency()`` to amortise the O(n²)
    pair scan across the per-block calls of one network build.
    """
    block = floorplan.block(name)
    perimeter = 2.0 * (block.rect.w + block.rect.h)
    if adjacency is None:
        adjacency = floorplan.adjacency()
    shared = 0.0
    for (a, b), contact in adjacency.items():
        if name in (a, b):
            shared += contact
    return max(0.0, perimeter - shared)


def _overhang_m(floorplan: Floorplan, package: PackageConfig) -> float:
    """Copper overhang width past the die edge (m); bbox-dependent."""
    return max(
        package.spreader_thickness_m,
        (package.spreader_side_m - max(floorplan.die_size()) * MM) / 2.0,
    )


def _vertical_conductances(
    area_mm2: float, package: PackageConfig
) -> Tuple[float, float]:
    """(block→cell, cell→sink) vertical conductances for one block area."""
    area_m2 = mm2_to_m2(area_mm2)
    vertical = 1.0 / package.vertical_resistance(area_m2)
    cell_to_sink = COPPER.conduction_resistance(
        package.spreader_thickness_m / 2.0, area_m2
    ) + COPPER.conduction_resistance(package.sink_thickness_m / 2.0, area_m2)
    return vertical, 1.0 / cell_to_sink


def _periphery_conductance(
    exposed_mm: float, package: PackageConfig, overhang_m: float
) -> float:
    """Spreader-cell → sink conductance through the copper overhang."""
    exposed_m = exposed_mm * MM
    if exposed_m <= 0.0:
        return 0.0
    return (
        COPPER.conductivity * package.spreader_thickness_m * exposed_m / overhang_m
    )


def _lateral_conductances(
    rect_a, rect_b, shared_mm: float, package: PackageConfig
) -> Tuple[float, float]:
    """(silicon, copper) lateral conductances for one abutting pair."""
    distance_mm = max(rect_a.manhattan_distance(rect_b), 1e-6 / MM)
    silicon = package.lateral_conductance(shared_mm * MM, distance_mm * MM)
    copper = (
        COPPER.conductivity
        * package.spreader_thickness_m
        * (shared_mm * MM)
        / (distance_mm * MM)
    )
    return silicon, copper


def _edge_conductances(
    floorplan: Floorplan, package: PackageConfig
) -> Dict[Tuple[str, str], float]:
    """Every edge conductance of the block model, keyed by node-name pair.

    Keys are lexicographically ordered ``(a, b)`` name pairs; each value
    is the sum of the vertical, periphery and lateral terms between the
    two nodes, accumulated in that fixed order.  This is the geometric
    half of the model; :func:`build_block_network` adds the nodes and
    their capacitances and connects one edge per entry.
    """
    edges: Dict[Tuple[str, str], float] = {}
    adjacency = floorplan.adjacency()

    def add(name_a: str, name_b: str, conductance: float) -> None:
        key = (name_a, name_b) if name_a < name_b else (name_b, name_a)
        edges[key] = edges.get(key, 0.0) + conductance

    # vertical paths: block -> its spreader cell -> sink
    for block in floorplan:
        vertical, cell_to_sink = _vertical_conductances(block.area, package)
        add(block.name, spreader_node(block.name), vertical)
        add(spreader_node(block.name), SINK_NODE, cell_to_sink)

    # periphery paths: boundary cells spread outward through the copper
    # overhang toward the sink; conductance scales with exposed boundary
    overhang_m = _overhang_m(floorplan, package)
    for block in floorplan:
        conductance = _periphery_conductance(
            _exposed_boundary_mm(floorplan, block.name, adjacency),
            package,
            overhang_m,
        )
        if conductance <= 0.0:
            continue
        add(spreader_node(block.name), SINK_NODE, conductance)

    # lateral paths: silicon between abutting blocks, copper between their
    # spreader cells
    for (name_a, name_b), shared_mm in adjacency.items():
        silicon, copper = _lateral_conductances(
            floorplan.block(name_a).rect,
            floorplan.block(name_b).rect,
            shared_mm,
            package,
        )
        add(name_a, name_b, silicon)
        add(spreader_node(name_a), spreader_node(name_b), copper)

    return edges


def build_block_network(
    floorplan: Floorplan,
    package: Optional[PackageConfig] = None,
) -> ThermalNetwork:
    """Build the block-level RC network for *floorplan*.

    The floorplan must be non-empty and overlap-free (``validate()`` is
    called here).  Block names become silicon node names; per-block spreader
    cells and the :data:`SINK_NODE` are appended.
    """
    if len(floorplan) == 0:
        raise ThermalError("cannot build a thermal model for an empty floorplan")
    package = package or default_package()
    for block in floorplan:
        if block.name == SINK_NODE or block.name.startswith(_SPREADER_PREFIX):
            raise ThermalError(
                f"floorplan uses reserved block name {block.name!r}"
            )
    floorplan.validate()
    network = ThermalNetwork(package.ambient_c)

    total_area_m2 = mm2_to_m2(floorplan.block_area)
    spreader_area_m2 = package.spreader_side_m**2
    spare_spreader_fraction = max(
        0.1, 1.0 - min(1.0, total_area_m2 / spreader_area_m2)
    )

    # silicon nodes
    for block in floorplan:
        area_m2 = mm2_to_m2(block.area)
        network.add_node(block.name, capacitance=package.block_capacitance(area_m2))

    # spreader cells: capacitance proportional to covered area; the spare
    # copper (periphery) capacitance is lumped into the sink node below
    for block in floorplan:
        cell_fraction = mm2_to_m2(block.area) / spreader_area_m2
        network.add_node(
            spreader_node(block.name),
            capacitance=package.spreader_capacitance() * min(1.0, cell_fraction),
        )
    network.add_node(
        SINK_NODE,
        capacitance=package.sink_capacitance()
        + package.spreader_capacitance() * spare_spreader_fraction,
        ambient_conductance=1.0 / package.convection_resistance,
    )

    # conduction edges — vertical, periphery, and lateral terms summed
    # per node pair
    for (name_a, name_b), conductance in _edge_conductances(
        floorplan, package
    ).items():
        network.connect(name_a, name_b, conductance)

    network.check_grounded()
    return network


def block_power_vector(
    network: ThermalNetwork, power_by_block: Mapping[str, float]
):
    """Power vector for *network* with package nodes at zero power."""
    for name in power_by_block:
        if name == SINK_NODE or name.startswith(_SPREADER_PREFIX):
            raise ThermalError(f"cannot inject power into package node {name!r}")
    return network.power_vector(power_by_block)
