"""coarselab: exact coarse-geometry experiments on finite graph truncations.

Spaces (broom trees, regular trees, Farey windows, grids), geodesic
families, annulus covers with verified diameter/multiplicity bounds,
exact-rational partition-of-unity maps with their variation bounds,
capacity/growth probes, and an asymptotic-dimension formula calculator.
"""

from .a1 import (
    A1Map,
    ClaimViolation,
    FatCover,
    FatCoverOrderError,
    ScopeTooSmallError,
    a1_map,
    build_fat_cover,
    check_a1_maps,
    lebesgue_check,
    phi,
    variation,
    variation_sweep,
)
from .calculator import (
    Bound,
    Surface,
    artin_bound,
    asdim_mod,
    asdim_pi1,
    braid_bound,
    complexity,
    euler,
    farey_asdim,
    hyperbolic_group_asdim_upper,
    torelli,
    vcd_mod,
)
from .cover import (
    Cover,
    CoverParams,
    CoverSet,
    MultiplicityReport,
    asdim_upper_from_D,
    build_cover,
    multiplicity,
    store_cover,
    verify_diameters,
)
from .geodesics import (
    GeodesicFamily,
    HyperbolicityReport,
    PropertyBReport,
    PropertyBViolation,
    check_property_b,
    thin_delta,
)
from .graphs import (
    GraphFormatError,
    MetricGraph,
    Path,
    all_geodesics,
    ball,
    bfs_distances,
    canonical_geodesic,
    distance,
    load_graph,
    multi_source_distances,
    set_diameter,
    set_diameters,
    sphere,
    store_graph,
)
from .probes import DiscreteSubsetReport, GrowthProbeReport, discrete_capacity, growth_probe, ray_points
from .spaces import (
    ProjectiveRational,
    LabeledGraph,
    VertexLabels,
    broom_tree,
    farey_safe_radius,
    farey_truncation,
    grid,
    regular_tree,
)

__version__ = "0.1.0"
