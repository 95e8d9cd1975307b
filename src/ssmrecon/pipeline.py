"""End-to-end workflow: synthesize, register and build the shape space,
slice to masks, train the regressor, reconstruct and evaluate.

Every stage is deterministic given the config (and its seeds); reruns
produce byte-identical artifacts. Per-subject work runs through a thread
pool capped by the SSMRECON_THREADS environment variable, with results
always reduced in subject-id order.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from . import metrics, regressor, shape_space, sidecar, stats, synth
from .config import PipelineConfig
from .errors import ConfigError, DataError, NumericalError
from .mesh import TriMesh, load_mesh, save_mesh, signed_volume
from .register import generalized_procrustes, nonrigid_fit, smoothing_system
from .slicer import (
    STACK_MANIFEST,
    MaskStack,
    SliceProtocol,
    Window,
    load_mask_stack,
    make_mask_stack,
    save_mask_stack,
    window_for_population,
)
from .threads import parallel_map as _parallel_map  # perfbench's tracer replaces pipeline._parallel_map


# ---------------------------------------------------------------------------
# Subjects and splits


def population_ids(cfg: PipelineConfig) -> list[str]:
    manifest = synth.load_population_manifest(cfg.population_dir)
    return sorted(manifest["subjects"])


def split_ids(cfg: PipelineConfig) -> tuple[list[str], list[str]]:
    """Seeded disjoint train/test split covering the population exactly."""
    ids = population_ids(cfg)
    rng = np.random.default_rng(cfg.split.seed)
    order = rng.permutation(len(ids))
    n_train = int(round(cfg.split.train_fraction * len(ids)))
    n_train = min(max(n_train, 2), len(ids) - 1)
    train = sorted(ids[i] for i in order[:n_train])
    test = sorted(ids[i] for i in order[n_train:])
    return train, test


def _subject_mesh(cfg: PipelineConfig, sid: str) -> TriMesh:
    path = cfg.population_dir / f"{sid}.obj"
    if not path.exists():
        raise DataError(f"subject mesh not found: {path}")
    return load_mesh(path)


def _window_path(cfg: PipelineConfig) -> Path:
    return cfg.ssm_stem.with_name(cfg.ssm_stem.name + ".window.json")


def _load_window(cfg: PipelineConfig) -> Window:
    path = _window_path(cfg)
    if not path.exists():
        raise DataError(f"dataset window not found: {path} (run build-ssm first)")
    doc = sidecar.read_manifest(path, "dataset window", ("window",))
    try:
        return Window.from_dict(doc["window"])
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"dataset window {path} is malformed: {exc!r}") from exc


def _registered_dir(cfg: PipelineConfig) -> Path:
    return cfg.output_dir / "registered"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(cfg: PipelineConfig) -> Path:
    """Generate the synthetic population and its ground-truth manifest."""
    meshes, volumes = synth.generate_population(cfg.synth)
    return synth.write_population(meshes, volumes, cfg.synth, cfg.population_dir)


def cmd_build_ssm(cfg: PipelineConfig) -> Path:
    """Register the training split to its first mesh, align, and fit the PCA space.

    Also records the dataset's shared slicing window (training bounding box
    plus a 10% margin) and the registered meshes that training targets are
    projected from. Each subject's mesh is loaded by the pool task that fits
    it, so parsing overlaps the other threads' fits. All fits share the
    reference's smoothing system, factored here, on the thread that frees it.
    Every fit, and so every prediction, takes the reference's faces, so an
    inward-oriented reference is a data error here, before any fit.
    """
    train, _ = split_ids(cfg)
    if len(train) < 2:
        raise DataError("need at least 2 subjects to build a shape space")
    reference = _subject_mesh(cfg, train[0])
    try:
        volume = signed_volume(reference)
        smoothing_system(reference)
    except DataError as exc:
        raise DataError(f"subject {train[0]}: {exc}") from exc
    if volume < 0:
        raise DataError(f"subject {train[0]}: reference mesh is inward-oriented (signed volume {volume:.6g} cm^3)")

    def fit_one(sid: str) -> tuple[TriMesh, TriMesh]:
        mesh = reference if sid == train[0] else _subject_mesh(cfg, sid)
        try:
            fitted, _ = nonrigid_fit(reference, mesh)
            return mesh, fitted
        except (DataError, NumericalError) as exc:
            raise type(exc)(f"subject {sid}: {exc}") from exc

    meshes, fitted = zip(*_parallel_map(fit_one, train))
    aligned = generalized_procrustes(list(fitted))

    n_components = min(cfg.ssm.components, len(train) - 1)
    space = shape_space.build_ssm(aligned, n_components)
    manifest_path, _ = shape_space.save_ssm(space, cfg.ssm_stem)

    sidecar.write_json(_window_path(cfg), {"window": window_for_population(meshes).as_dict()})

    reg_dir = _registered_dir(cfg)
    for sid, mesh in zip(train, aligned):
        save_mesh(mesh, reg_dir / f"{sid}.obj")
    return manifest_path


def _protocol(cfg: PipelineConfig) -> SliceProtocol:
    return SliceProtocol(cfg.slicer.offsets, _load_window(cfg), cfg.slicer.resolution)


def cmd_slice(cfg: PipelineConfig) -> list[Path]:
    """Cut and rasterize every subject with the dataset's shared protocol."""
    protocol = _protocol(cfg)
    ids = population_ids(cfg)

    def slice_one(sid: str) -> Path:
        stack = make_mask_stack(_subject_mesh(cfg, sid), protocol)
        return save_mask_stack(stack, cfg.masks_dir / sid, protocol)

    return _parallel_map(slice_one, ids)


def _load_stack(cfg: PipelineConfig, sid: str) -> MaskStack:
    manifest = cfg.masks_dir / sid / STACK_MANIFEST
    if not manifest.exists():
        raise DataError(f"mask stack not found: {manifest} (run slice first)")
    return load_mask_stack(manifest, _protocol(cfg))


def cmd_train(cfg: PipelineConfig) -> Path:
    """Train the regressor on training-split masks and projected targets."""
    space = shape_space.load_ssm(cfg.ssm_stem)
    train_ids, _ = split_ids(cfg)
    reg_dir = _registered_dir(cfg)
    dataset = []
    for sid in train_ids:
        reg_path = reg_dir / f"{sid}.obj"
        if not reg_path.exists():
            raise DataError(f"registered mesh not found: {reg_path} (run build-ssm first)")
        target = shape_space.project(space, load_mesh(reg_path))
        dataset.append((_load_stack(cfg, sid), target))

    params, log = regressor.train(dataset, cfg.train)
    manifest_path, _ = regressor.save_weights(params, cfg.weights_stem)

    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["epoch", "train_loss", "val_loss"])
    for epoch, t_loss, v_loss in log.rows():
        writer.writerow([epoch, repr(t_loss), repr(v_loss)])
    sidecar.write(cfg.output_dir / "training_log.csv", rows.getvalue().encode("utf-8"))
    return manifest_path


def _truth_volume(cfg: PipelineConfig, manifest: dict, subject: str) -> float:
    """A subject's recorded volume in cm^3; a missing or non-numeric one is a data error."""
    entry = manifest["subjects"][subject]
    volume = entry.get("volume_cm3") if isinstance(entry, dict) else None
    if type(volume) not in (int, float) or not math.isfinite(volume):
        raise DataError(
            f"population manifest {cfg.population_dir / synth.POPULATION_MANIFEST}: "
            f"subject {subject} has no numeric 'volume_cm3' (got {volume!r})"
        )
    return float(volume)


def _predict(space, params, stack: MaskStack, subject: str) -> tuple[TriMesh, float]:
    """The shape space's mesh for the regressor's prediction from one mask stack, and its volume in cm^3.

    A predicted mesh shares the shape space's faces, which are outward-oriented
    on the mean shape, so a negative signed volume means the predicted
    parameters turned the surface inside out: a numerical failure.
    """
    mesh = shape_space.reconstruct(space, regressor.forward(params, stack))
    volume = signed_volume(mesh)
    if volume < 0:
        raise NumericalError(f"reconstruction of {subject} is inward-oriented (signed volume {volume:.6g} cm^3)")
    return mesh, volume


def cmd_reconstruct(cfg: PipelineConfig, subject: str | None = None, stack_path=None) -> tuple[Path, float]:
    """Predict shape parameters from one mask stack, save the mesh, return volume."""
    if (subject is None) == (stack_path is None):
        raise ConfigError("reconstruct needs exactly one of --subject or --stack")
    if subject is not None:
        stack = _load_stack(cfg, synth.check_subject_id(subject))
    else:
        stack = load_mask_stack(stack_path, _protocol(cfg))
        subject = Path(stack_path).resolve().parent.name
    space = shape_space.load_ssm(cfg.ssm_stem)
    params = regressor.load_weights(cfg.weights_stem)
    mesh, volume = _predict(space, params, stack, subject)
    out_path = cfg.output_dir / "recon" / f"{subject}.obj"
    save_mesh(mesh, out_path)
    return out_path, volume


def cmd_evaluate(cfg: PipelineConfig) -> tuple[Path, Path]:
    """Score the test split and write the JSON + text evaluation report.

    Every report carries a zero-parameter mean-shape baseline row, which
    anchors whether the regressor learnt anything beyond the population mean.
    """
    train_ids, test_ids = split_ids(cfg)
    if len(test_ids) < 2:
        raise DataError(
            f"test split has {len(test_ids)} of {len(train_ids) + len(test_ids)} subjects, evaluate needs "
            f"at least 2 (split.train_fraction {cfg.split.train_fraction})"
        )
    space = shape_space.load_ssm(cfg.ssm_stem)
    params = regressor.load_weights(cfg.weights_stem)
    manifest = synth.load_population_manifest(cfg.population_dir)
    truth_volumes = {sid: _truth_volume(cfg, manifest, sid) for sid in test_ids}
    baseline_mesh = space.mean_mesh()
    baseline_volume = signed_volume(baseline_mesh)
    n_samples = cfg.evaluate.samples
    seed = cfg.evaluate.seed
    baseline = metrics.sampled_surface(baseline_mesh, n_samples, seed)

    def eval_one(sid: str) -> dict:
        truth = metrics.sampled_surface(_subject_mesh(cfg, sid), n_samples, seed)
        pred_mesh, pred_volume = _predict(space, params, _load_stack(cfg, sid), sid)
        pred = metrics.mesh_metrics(pred_mesh, truth, n_samples, seed)
        base = metrics.mesh_metrics(baseline, truth, n_samples, seed)
        return {
            "subject": sid,
            "volume_truth_cm3": truth_volumes[sid],
            "volume_predicted_cm3": pred_volume,
            "volume_baseline_cm3": baseline_volume,
            "chamfer_mm": pred.chamfer_mm,
            "msd_mm": pred.msd_mm,
            "chamfer_baseline_mm": base.chamfer_mm,
            "msd_baseline_mm": base.msd_mm,
        }

    rows = _parallel_map(eval_one, test_ids)
    truth = [r["volume_truth_cm3"] for r in rows]
    pred = [r["volume_predicted_cm3"] for r in rows]
    base = [r["volume_baseline_cm3"] for r in rows]
    paired = stats.paired_t_test(truth, pred)
    paired_baseline = stats.paired_t_test(truth, base)

    report = {
        "n_test": len(rows),
        "subjects": rows,
        "aggregate": {
            "rmse_cm3": metrics.rmse(pred, truth),
            "rmse_baseline_cm3": metrics.rmse(base, truth),
            "paired_test": paired.as_dict(),
            "paired_test_baseline": paired_baseline.as_dict(),
            "summary": {
                "truth": _moments(truth),
                "predicted": _moments(pred),
                "baseline": _moments(base),
            },
        },
    }
    json_path = cfg.output_dir / "evaluation.json"
    sidecar.write_json(json_path, report)
    text_path = cfg.output_dir / "evaluation.txt"
    tests = (("truth & predicted", paired), ("truth & baseline", paired_baseline))
    sidecar.write(text_path, _report_text(report, tests).encode("utf-8"))
    return json_path, text_path


def _moments(values) -> dict:
    mean, std = stats.summary(values)
    return {"mean": mean, "std": std}


def _report_text(report: dict, tests) -> str:
    """The fixed-column table of ``report``, with one row per ``(label, PairedTestReport)``."""
    agg = report["aggregate"]
    lines = [
        f"test subjects: {report['n_test']}",
        f"RMSE (cm^3): predicted {agg['rmse_cm3']:.1f}, baseline {agg['rmse_baseline_cm3']:.1f}",
        "",
        stats.PairedTestReport.text_header(),
        *(test.text_row(label) for label, test in tests),
        "",
        f"{'subject':<8} {'truth':>9} {'pred':>9} {'base':>9} "
        f"{'CD':>8} {'MSD':>8} {'CD.base':>8} {'MSD.base':>8}",
    ]
    for r in report["subjects"]:
        lines.append(
            f"{r['subject']:<8} {r['volume_truth_cm3']:>9.1f} {r['volume_predicted_cm3']:>9.1f} "
            f"{r['volume_baseline_cm3']:>9.1f} {r['chamfer_mm']:>8.2f} {r['msd_mm']:>8.2f} "
            f"{r['chamfer_baseline_mm']:>8.2f} {r['msd_baseline_mm']:>8.2f}"
        )
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reference arithmetic vectors for the paired-test report

# (label, (mean_diff, std_diff, n), ((field, reference, tolerance), ...)); a field
# with no tolerance must lie below its reference.
STATS_VECTORS = (
    ("pair-1", (-201.5, 234.8, 35),
     (("sem", 39.7, 0.05), ("t", -5.1, 0.05), ("ci_lo", -282.1, 0.15), ("ci_hi", -120.8, 0.15), ("p", 0.001, None))),
    ("pair-2", (78.1, 268.4, 35),
     (("sem", 45.4, 0.05), ("t", 1.7, 0.05), ("ci_lo", -14.1, 0.15), ("ci_hi", 170.3, 0.15), ("p", 0.094, 0.002))),
)


def check_stats_vectors() -> tuple[bool, str]:
    """Push the published summary vectors through the report arithmetic.

    Returns (all_ok, printable table of computed vs reference values).
    """
    lines = [f"{'pair':<8} {'field':<6} {'computed':>12} {'reference':>12} {'tol':>8} {'status':>7}"]
    all_ok = True
    for label, moments, fields in STATS_VECTORS:
        report = stats.report_from_moments(*moments)
        computed = dict(zip(("sem", "t", "ci_lo", "ci_hi", "p"), (report.sem, report.t, *report.ci95, report.p)))
        for field, reference, tol in fields:
            value = computed[field]
            if tol is None:
                ok = value < reference
                cells = (f"{value:.6f}", f"<{reference}", "")
            else:
                ok = abs(value - reference) <= tol
                cells = (f"{value:.4f}", f"{reference:.4f}", f"{tol:.3f}")
            all_ok &= ok
            status = "pass" if ok else "FAIL"
            lines.append(f"{label:<8} {field:<6} {cells[0]:>12} {cells[1]:>12} {cells[2]:>8} {status:>7}")
    return all_ok, "\n".join(lines)
