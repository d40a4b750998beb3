"""The names the package exports, the README's example of them, and the
contract of the value types a query or a gluing builds.

Pinned so that adding or removing a public name is a deliberate edit here.
"""

import ast
import glob
import os
import types

import pytest

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


def test_the_readme_library_example_runs():
    """The fenced `python` block under "## Library example" in README.md."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")) as fh:
        section = fh.read().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "congruent_to_polygon" in code
    exec(compile(code, "README.md", "exec"), {})


def test_no_default_argument_is_a_numeric_literal():
    """A tolerance default reads its `Tolerances` field or a named constant,
    and so does a default bound, cap or budget, so each value is stated
    once; only 0, 1, 0.0 and 1.0 may be written inline."""
    src = os.path.dirname(os.path.abspath(zipfold.__file__))
    literals = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                value = default.operand if isinstance(default, ast.UnaryOp) else default
                if isinstance(value, ast.Constant) and type(value.value) in (int, float) and value.value not in (0, 1):
                    literals.append(f"{os.path.basename(path)}:{default.lineno} {ast.unparse(default)}")
    assert literals == []


def test_the_value_types_built_per_query_or_gluing_keep_their_contract(regular_hexagon):
    """Each is a named tuple: its fields in order, immutable and hashable,
    equal to the tuple of its fields, with its properties."""
    from zipfold.geodesic import DiskReport, EnumerationResult, ShortestResult
    from zipfold.gluing import EdgeIdentification

    g = zipfold.glue_halving(regular_hexagon, 0)
    table = zipfold.DevelopmentEngine(g).distance_table()
    res = table.result(0, 2)
    values = {
        zipfold.GeodesicPath: (
            res.path, ("source", "target", "source_vertex", "target_vertex", "length", "edge_path"),
        ),
        ShortestResult: (res, ("status", "path", "developments", "frontier")),
        EnumerationResult: (table.enumerations[0, 2], ("paths", "complete", "developments")),
        DiskReport: (table.disk(0), ("status", "center", "radius", "witness")),
        zipfold.ConePoint: (g.cone_points[2], ("vertices", "cone_angle")),
        EdgeIdentification: (g.identifications[1], ("a0", "a1", "b0", "b1")),
    }
    for cls, (value, fields) in values.items():
        assert type(value) is cls
        assert cls._fields == fields
        assert value == tuple(getattr(value, name) for name in fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert hash(value) == hash(tuple(value))
    assert res.found and res.path.length == 1.0
    assert res.path.source == (0,) and res.path.target == g.cone_points[2].vertices
    cone = g.cone_points[2]
    assert cone.curvature == zipfold.polygon.TWO_PI - cone.cone_angle
    assert (cone.vertices, g.identifications[1]) == ((1, 5), (1, 2, 5, 4))
