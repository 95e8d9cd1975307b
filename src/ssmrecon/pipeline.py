"""End-to-end workflow: synthesize, register and build the shape space,
slice to masks, train the regressor, reconstruct and evaluate.

Every stage is deterministic given the config (and its seeds); reruns
produce byte-identical artifacts. Per-subject work runs through a thread
pool capped by the SSMRECON_THREADS environment variable, with results
always reduced in subject-id order.
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import metrics, regressor, shape_space, stats, synth
from .config import PipelineConfig
from .errors import ConfigError, DataError, NumericalError
from .mesh import MM3_PER_CM3, TriMesh, load_mesh, oriented_volume_mm3, save_mesh, signed_volume
from .register import generalized_procrustes, nonrigid_fit
from .slicer import (
    MaskStack,
    SliceProtocol,
    Window,
    load_mask_stack,
    make_mask_stack,
    save_mask_stack,
    window_for_population,
)


def thread_count() -> int:
    env = os.environ.get("SSMRECON_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SSMRECON_THREADS must be an integer, got {env!r}") from exc
    return max(1, os.cpu_count() or 1)


def _parallel_map(fn, items):
    items = list(items)
    workers = min(thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read dataset window {path} (run build-ssm first): {exc}") from exc
    return Window.from_dict(doc["window"])


def _registered_dir(cfg: PipelineConfig) -> Path:
    return cfg.output_dir / "registered"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(cfg: PipelineConfig) -> Path:
    """Generate the synthetic population and its ground-truth manifest."""
    meshes, volumes = synth.generate_population(cfg.synth)
    return synth.write_population(meshes, volumes, cfg.synth, cfg.population_dir)


def cmd_build_ssm(cfg: PipelineConfig) -> Path:
    """Register the population to its first mesh, align, and fit the PCA space.

    Also records the dataset's shared slicing window (training bounding box
    plus a 10% margin) and the registered meshes that training targets are
    projected from.
    """
    train, _ = split_ids(cfg)
    ids = train if cfg.ssm.train_only else population_ids(cfg)
    if len(ids) < 2:
        raise DataError("need at least 2 subjects to build a shape space")
    meshes = {sid: _subject_mesh(cfg, sid) for sid in ids}
    reference = meshes[ids[0]]

    def fit_one(sid: str) -> TriMesh:
        try:
            return nonrigid_fit(reference, meshes[sid], cfg.fit)
        except (DataError, NumericalError) as exc:
            raise type(exc)(f"subject {sid}: {exc}") from exc

    fitted = _parallel_map(fit_one, ids)
    aligned = generalized_procrustes(fitted)

    n_components = min(cfg.ssm.components, len(ids) - 1)
    space = shape_space.build_ssm(aligned, n_components)
    manifest_path, _ = shape_space.save_ssm(space, cfg.ssm_stem)

    window = window_for_population([meshes[sid] for sid in train])
    _write_json(_window_path(cfg), {"format_version": 1, "window": window.as_dict()})

    reg_dir = _registered_dir(cfg)
    reg_dir.mkdir(parents=True, exist_ok=True)
    for sid, mesh in zip(ids, aligned):
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
        return save_mask_stack(stack, cfg.masks_dir / sid, protocol.offsets, protocol.window)

    return _parallel_map(slice_one, ids)


def _load_stack(cfg: PipelineConfig, sid: str) -> MaskStack:
    manifest = cfg.masks_dir / sid / "stack.json"
    if not manifest.exists():
        raise DataError(f"mask stack not found: {manifest} (run slice first)")
    return load_mask_stack(manifest)[0]


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

    params, log = regressor.train(dataset, cfg.train, n_hidden=cfg.train.hidden)
    manifest_path, _ = regressor.save_weights(params, cfg.weights_stem)

    log_path = cfg.output_dir / "training_log.csv"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, t_loss, v_loss in log.rows():
            writer.writerow([epoch, repr(t_loss), repr(v_loss)])
    return manifest_path


def _predicted_volume(mesh: TriMesh, subject: str) -> float:
    """Volume in cm^3 of a reconstruction; an inward-oriented one is a numerical failure.

    A predicted mesh shares the shape space's faces, which are outward-oriented
    on the mean shape, so a negative signed volume means the predicted
    parameters turned the surface inside out.
    """
    raw = oriented_volume_mm3(mesh)
    if raw < 0:
        raise NumericalError(f"reconstruction of {subject} is inward-oriented (signed volume {raw:.6g} mm^3)")
    return raw / MM3_PER_CM3


def cmd_reconstruct(cfg: PipelineConfig, subject: str | None = None, stack_path=None) -> tuple[Path, float]:
    """Predict shape parameters from one mask stack, save the mesh, return volume."""
    if (subject is None) == (stack_path is None):
        raise ConfigError("reconstruct needs exactly one of --subject or --stack")
    if subject is not None:
        stack = _load_stack(cfg, subject)
    else:
        stack = load_mask_stack(stack_path)[0]
        subject = Path(stack_path).resolve().parent.name
    space = shape_space.load_ssm(cfg.ssm_stem)
    params = regressor.load_weights(cfg.weights_stem)
    mesh = shape_space.reconstruct(space, regressor.forward(params, stack))
    volume = _predicted_volume(mesh, subject)
    out_path = cfg.output_dir / "recon" / f"{subject}.obj"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, out_path)
    return out_path, volume


def cmd_evaluate(cfg: PipelineConfig) -> tuple[Path, Path]:
    """Score the test split and write the JSON + text evaluation report.

    Every report carries a zero-parameter mean-shape baseline row, which
    anchors whether the regressor learnt anything beyond the population mean.
    """
    space = shape_space.load_ssm(cfg.ssm_stem)
    params = regressor.load_weights(cfg.weights_stem)
    manifest = synth.load_population_manifest(cfg.population_dir)
    _, test_ids = split_ids(cfg)
    if not test_ids:
        raise DataError("test split is empty")
    baseline_mesh = space.mean_mesh()
    baseline_volume = signed_volume(baseline_mesh)
    n_samples = cfg.evaluate.samples
    seed = cfg.evaluate.seed
    baseline = metrics.sampled_surface(baseline_mesh, n_samples, seed)

    def eval_one(sid: str) -> dict:
        truth_mesh = _subject_mesh(cfg, sid)
        truth = metrics.sampled_surface(truth_mesh, n_samples, seed)
        truth_volume = float(manifest["subjects"][sid]["volume_cm3"])
        if cfg.evaluate.oracle_injection:
            pred_mesh = truth_mesh
            pred_volume = truth_volume
        else:
            alpha = regressor.forward(params, _load_stack(cfg, sid))
            pred_mesh = shape_space.reconstruct(space, alpha)
            pred_volume = _predicted_volume(pred_mesh, sid)
        pred = metrics.mesh_metrics(pred_mesh, truth, n_samples, seed)
        base = metrics.mesh_metrics(baseline, truth, n_samples, seed)
        return {
            "subject": sid,
            "volume_truth_cm3": truth_volume,
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

    report = {
        "format_version": 1,
        "n_test": len(rows),
        "subjects": rows,
        "aggregate": {
            "rmse_cm3": metrics.rmse(pred, truth),
            "rmse_baseline_cm3": metrics.rmse(base, truth),
            "paired_test": stats.paired_t_test(truth, pred).as_dict(),
            "paired_test_baseline": stats.paired_t_test(truth, base).as_dict(),
            "summary": {
                "truth": _moments(truth),
                "predicted": _moments(pred),
                "baseline": _moments(base),
            },
        },
    }
    json_path = cfg.output_dir / "evaluation.json"
    _write_json(json_path, report)
    text_path = cfg.output_dir / "evaluation.txt"
    text_path.write_text(_report_text(report), encoding="utf-8")
    return json_path, text_path


def _moments(values) -> dict:
    mean, std = stats.summary(values) if len(values) > 1 else (float(values[0]), 0.0)
    return {"mean": mean, "std": std}


def _report_text(report: dict) -> str:
    agg = report["aggregate"]
    lines = []
    lines.append(f"test subjects: {report['n_test']}")
    lines.append(
        f"RMSE (cm^3): predicted {agg['rmse_cm3']:.1f}, baseline {agg['rmse_baseline_cm3']:.1f}"
    )
    lines.append("")
    lines.append(stats.PairedTestReport.text_header())
    for label, test_key in (
        ("truth & predicted", "paired_test"),
        ("truth & baseline", "paired_test_baseline"),
    ):
        t = agg[test_key]
        row = stats.PairedTestReport(
            t["n"], t["mean_diff"], t["std_diff"], t["sem"],
            (t["ci95_lower"], t["ci95_upper"]), t["t"], t["df"], t["p"],
        )
        lines.append(row.text_row(label))
    lines.append("")
    lines.append(
        f"{'subject':<8} {'truth':>9} {'pred':>9} {'base':>9} "
        f"{'CD':>8} {'MSD':>8} {'CD.base':>8} {'MSD.base':>8}"
    )
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


STATS_VECTORS = (
    {
        "label": "pair-1",
        "mean_diff": -201.5,
        "std_diff": 234.8,
        "n": 35,
        "sem": 39.7,
        "t": -5.1,
        "ci95": (-282.1, -120.8),
        "p_below": 0.001,
    },
    {
        "label": "pair-2",
        "mean_diff": 78.1,
        "std_diff": 268.4,
        "n": 35,
        "sem": 45.4,
        "t": 1.7,
        "ci95": (-14.1, 170.3),
        "p": 0.094,
    },
)

_TOL = {"sem": 0.05, "t": 0.05, "ci": 0.15, "p": 0.002}


def check_stats_vectors() -> tuple[bool, str]:
    """Push the published summary vectors through the report arithmetic.

    Returns (all_ok, printable table of computed vs reference values).
    """
    lines = [
        f"{'pair':<8} {'field':<6} {'computed':>12} {'reference':>12} {'tol':>8} {'status':>7}"
    ]
    all_ok = True

    def check(label, field, computed, reference, tol):
        nonlocal all_ok
        ok = abs(computed - reference) <= tol
        all_ok &= ok
        lines.append(
            f"{label:<8} {field:<6} {computed:>12.4f} {reference:>12.4f} {tol:>8.3f} "
            f"{'pass' if ok else 'FAIL':>7}"
        )

    for vec in STATS_VECTORS:
        report = stats.report_from_moments(vec["mean_diff"], vec["std_diff"], vec["n"])
        check(vec["label"], "sem", report.sem, vec["sem"], _TOL["sem"])
        check(vec["label"], "t", report.t, vec["t"], _TOL["t"])
        check(vec["label"], "ci_lo", report.ci95[0], vec["ci95"][0], _TOL["ci"])
        check(vec["label"], "ci_hi", report.ci95[1], vec["ci95"][1], _TOL["ci"])
        if "p" in vec:
            check(vec["label"], "p", report.p, vec["p"], _TOL["p"])
        else:
            ok = report.p < vec["p_below"]
            all_ok &= ok
            lines.append(
                f"{vec['label']:<8} {'p':<6} {report.p:>12.6f} {'<' + str(vec['p_below']):>12} "
                f"{'':>8} {'pass' if ok else 'FAIL':>7}"
            )
    return all_ok, "\n".join(lines)
