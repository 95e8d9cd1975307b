"""Per-layer metrics of a traced run, computed from its spans and counters.

Times are busy seconds summed over threads; ``<module>.self_s`` is the
module's span time not covered by child spans (see ``arith.self_times``).
"""
from __future__ import annotations

from collections import defaultdict

import arith

MB = 2**20

UNITS = {
    "pipeline.self_s": "s",
    "pipeline.build_ssm_efficiency": "ratio",
    "pipeline.slice_efficiency": "ratio",
    "pipeline.evaluate_efficiency": "ratio",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "synth.self_s": "s",
    "mesh.load_calls": "count",
    "mesh.load_s": "s",
    "mesh.load_mb": "MB",
    "mesh.save_calls": "count",
    "mesh.save_s": "s",
    "mesh.validate_closed_calls": "count",
    "mesh.validate_closed_s": "s",
    "mesh.volume_calls": "count",
    "mesh.volume_s": "s",
    "mesh.sample_s": "s",
    "mesh.self_s": "s",
    "mesh.redundant_loads": "count",
    "mesh.redundant_closed_checks": "count",
    "spatial.index_builds": "count",
    "spatial.index_build_s": "s",
    "spatial.redundant_index_builds": "count",
    "spatial.query_calls": "count",
    "spatial.query_points": "count",
    "spatial.query_s": "s",
    "spatial.query_us_per_point": "us",
    "spatial.self_s": "s",
    "spatial.triangle_tests": "count",
    "spatial.tests_per_point": "tests/point",
    "register.fit_calls": "count",
    "register.fit_s": "s",
    "register.queries_per_fit": "queries/fit",
    "register.procrustes_s": "s",
    "register.self_s": "s",
    "shape_space.build_s": "s",
    "shape_space.save_s": "s",
    "shape_space.load_calls": "count",
    "shape_space.load_s": "s",
    "shape_space.project_calls": "count",
    "shape_space.reconstruct_calls": "count",
    "shape_space.self_s": "s",
    "slicer.cross_section_calls": "count",
    "slicer.cross_section_s": "s",
    "slicer.rasterize_calls": "count",
    "slicer.rasterize_s": "s",
    "slicer.mask_save_s": "s",
    "slicer.mask_load_calls": "count",
    "slicer.mask_load_s": "s",
    "slicer.self_s": "s",
    "regressor.train_s": "s",
    "regressor.epochs": "count",
    "regressor.sgd_steps": "count",
    "regressor.step_ms": "ms",
    "regressor.params_built": "count",
    "regressor.flops": "FLOP",
    "regressor.gflop_per_s": "GFLOP/s",
    "regressor.forward_calls": "count",
    "regressor.forward_s": "s",
    "regressor.weights_load_calls": "count",
    "regressor.weights_load_s": "s",
    "regressor.weights_save_s": "s",
    "regressor.weights_mb": "MB",
    "regressor.self_s": "s",
    "metrics.mesh_metrics_calls": "count",
    "metrics.mesh_metrics_s": "s",
    "metrics.self_s": "s",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, counts, distinct, threads: int) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = arith.self_times(spans)
    module_self = defaultdict(float)
    for s in spans:
        module_self[s.name.split(".", 1)[0]] += own[s.id]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def stage_efficiency(stage):
        wall = sum(s.end - s.start for s in by_name[f"pipeline.cmd_{stage}"])
        work = sum(s.end - s.start for s in by_name["pipeline.subject"] if s.context == stage)
        return arith.efficiency(work, wall, threads)

    parents = {s.id: s for s in spans}

    def under_fit(s):
        while s.parent is not None:
            s = parents[s.parent]
            if s.name == "register.nonrigid_fit":
                return True
        return False

    query = "spatial.SurfaceIndex.query"
    query_points = counts["spatial.query_points"]
    index_builds = calls("spatial.SurfaceIndex.__init__")
    sgd_steps = counts["regressor.sgd_steps"]
    m = {
        "pipeline.self_s": module_self["pipeline"],
        "pipeline.build_ssm_efficiency": stage_efficiency("build_ssm"),
        "pipeline.slice_efficiency": stage_efficiency("slice"),
        "pipeline.evaluate_efficiency": stage_efficiency("evaluate"),
        "synth.generate_s": busy("synth.generate_population"),
        "synth.write_s": busy("synth.write_population"),
        "synth.self_s": module_self["synth"],
        "mesh.load_calls": calls("mesh.load_mesh"),
        "mesh.load_s": busy("mesh.load_mesh"),
        "mesh.load_mb": counts["mesh.load_bytes"] / MB,
        "mesh.save_calls": calls("mesh.save_mesh"),
        "mesh.save_s": busy("mesh.save_mesh"),
        "mesh.validate_closed_calls": calls("mesh.validate_closed"),
        "mesh.validate_closed_s": busy("mesh.validate_closed"),
        "mesh.volume_calls": calls("mesh.signed_volume"),
        "mesh.volume_s": busy("mesh.signed_volume"),
        "mesh.sample_s": busy("mesh.surface_samples"),
        "mesh.self_s": module_self["mesh"],
        "mesh.redundant_loads": calls("mesh.load_mesh") - len(distinct["mesh.load_paths"]),
        "mesh.redundant_closed_checks": calls("mesh.validate_closed") - len(distinct["mesh.closed_faces"]),
        "spatial.index_builds": index_builds,
        "spatial.index_build_s": busy("spatial.SurfaceIndex.__init__"),
        "spatial.redundant_index_builds": index_builds - len(distinct["spatial.index_meshes"]),
        "spatial.query_calls": calls(query),
        "spatial.query_points": query_points,
        "spatial.query_s": busy(query),
        "spatial.query_us_per_point": 1e6 * _div(busy(query), query_points),
        "spatial.self_s": module_self["spatial"],
        "spatial.triangle_tests": counts["spatial.triangle_tests"],
        "spatial.tests_per_point": _div(counts["spatial.triangle_tests"], query_points),
        "register.fit_calls": calls("register.nonrigid_fit"),
        "register.fit_s": busy("register.nonrigid_fit"),
        "register.queries_per_fit": _div(sum(map(under_fit, by_name[query])), calls("register.nonrigid_fit")),
        "register.procrustes_s": busy("register.generalized_procrustes"),
        "register.self_s": module_self["register"],
        "shape_space.build_s": busy("shape_space.build_ssm"),
        "shape_space.save_s": busy("shape_space.save_ssm"),
        "shape_space.load_calls": calls("shape_space.load_ssm"),
        "shape_space.load_s": busy("shape_space.load_ssm"),
        "shape_space.project_calls": calls("shape_space.project"),
        "shape_space.reconstruct_calls": calls("shape_space.reconstruct"),
        "shape_space.self_s": module_self["shape_space"],
        "slicer.cross_section_calls": calls("slicer.cross_section"),
        "slicer.cross_section_s": busy("slicer.cross_section"),
        "slicer.rasterize_calls": calls("slicer.rasterize"),
        "slicer.rasterize_s": busy("slicer.rasterize"),
        "slicer.mask_save_s": busy("slicer.save_mask_stack"),
        "slicer.mask_load_calls": calls("slicer.load_mask_stack"),
        "slicer.mask_load_s": busy("slicer.load_mask_stack"),
        "slicer.self_s": module_self["slicer"],
        "regressor.train_s": busy("regressor.train"),
        "regressor.epochs": counts["regressor.epochs"],
        "regressor.sgd_steps": sgd_steps,
        "regressor.step_ms": 1e3 * _div(busy("regressor.train"), sgd_steps),
        "regressor.params_built": counts["regressor.params_built"],
        "regressor.flops": counts["regressor.flops"],
        "regressor.gflop_per_s": 1e-9 * _div(counts["regressor.flops"], busy("regressor.train")),
        "regressor.forward_calls": calls("regressor.forward"),
        "regressor.forward_s": busy("regressor.forward"),
        "regressor.weights_load_calls": calls("regressor.load_weights"),
        "regressor.weights_load_s": busy("regressor.load_weights"),
        "regressor.weights_save_s": busy("regressor.save_weights"),
        "regressor.weights_mb": counts["regressor.weights_bytes"] / MB,
        "regressor.self_s": module_self["regressor"],
        "metrics.mesh_metrics_calls": calls("metrics.mesh_metrics"),
        "metrics.mesh_metrics_s": busy("metrics.mesh_metrics"),
        "metrics.self_s": module_self["metrics"],
    }
    return m
