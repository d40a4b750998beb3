"""zipfold: fold equilateral convex polygons into convex polyhedra by
perimeter halving, realize the hexagon cases as tetrahedra in 3D, and audit
that the Hamiltonian zipper path follows polyhedron edges and unfolds back
to the source polygon."""

from .embed import (
    TetraMetric,
    Tetrahedron3D,
    cayley_menger_volume2,
    congruent_tetrahedra,
    embed,
    vertex_angle_sums,
    write_obj,
)
from .errors import (
    GaussBonnetError,
    GeodesicError,
    GeodesicNotFoundError,
    GluingError,
    MalformedPolygonError,
    MetricError,
    NetError,
    SamplingBudgetError,
    ZipfoldError,
)
from .geodesic import DevelopmentEngine, GeodesicPath, overhang_audit, tetra_metric
from .gluing import (
    ConePoint,
    CurvatureVector,
    HalvingGluing,
    cone_angles,
    curvature_collision_relations,
    distinct_check,
    enumerate_halvings,
    glue_halving,
)
from .net import PlanarNet, congruent_to_polygon, cut_and_unfold, is_simple
from .pipeline import PipelineConfig, audit_halving, sweep_one, verify_polygon
from .polygon import (
    AngleProfile,
    EquilateralPolygon,
    IndependenceReport,
    Tolerances,
    ValidationReport,
    check_independence,
    diagonal_lengths,
    interior_angles,
    load_polygon,
    polygon_from_dict,
    regular_ngon,
    sample_fat_hexagon,
    sample_fat_ngon,
    save_polygon,
    solve_closure,
    validate,
)
from .svgout import svg_net, svg_polygon

__version__ = "0.1.0"
