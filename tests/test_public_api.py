"""The names the package exports.

Pinned so that adding or removing a public name is a deliberate edit here.
"""

import types

import zipfold

PUBLIC = {
    "AngleProfile", "ConePoint", "CurvatureVector", "DevelopmentEngine",
    "EquilateralPolygon", "GaussBonnetError", "GeodesicError", "GeodesicNotFoundError",
    "GeodesicPath", "GluingError", "HalvingGluing", "IndependenceReport",
    "MalformedPolygonError", "MetricError", "NetError", "PipelineConfig", "PlanarNet",
    "SamplingBudgetError", "TetraMetric", "Tetrahedron3D", "Tolerances",
    "ValidationReport", "ZipfoldError", "audit_halving", "cayley_menger_volume2",
    "check_independence", "cone_angles", "congruent_tetrahedra", "congruent_to_polygon",
    "curvature_collision_relations", "cut_and_unfold", "diagonal_lengths",
    "distinct_check", "embed", "enumerate_halvings", "glue_halving", "interior_angles",
    "is_simple", "load_polygon", "overhang_audit", "polygon_from_dict", "regular_ngon",
    "sample_fat_hexagon", "sample_fat_ngon", "save_polygon", "solve_closure",
    "svg_net", "svg_polygon", "sweep_one", "tetra_metric", "validate",
    "verify_polygon", "vertex_angle_sums", "write_obj",
}


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(zipfold).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
