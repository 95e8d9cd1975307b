"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
share one 60-subject pipeline run; repeat runs land in separate directories
so determinism can be checked byte for byte.
"""
import hashlib
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import gradient, loss, voxel_volume_cm3

from ssmrecon import mesh as M
from ssmrecon import pipeline, synth
from ssmrecon.config import load_config
from ssmrecon.metrics import mask_metrics, mesh_metrics
from ssmrecon.regressor import init_params, MlpParams
from ssmrecon.register import generalized_procrustes
from ssmrecon.shape_space import build_ssm, project, reconstruct, save_ssm
from ssmrecon.stats import report_from_moments


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


PIPELINE_DOC = {
    "paths": {
        "population_dir": "population",
        "ssm": "out/model",
        "weights": "out/weights",
        "masks_dir": "out/masks",
        "output_dir": "out",
    },
    "synth": {
        "n": 60,
        "seed": 2024,
        "volume_range": [800, 1600],
        "jitter_levels": [3, 4],
        "mode_count": 6,
        "amplitude": 0.1,
    },
    "ssm": {"components": 20},
    "slicer": {"offsets": [0.35, 0.5, 0.65], "resolution": 192},
    "train": {
        "learning_rate": 0.001,
        "epochs": 200,
        "batch_size": 16,
        "validation_fraction": 0.15,
        "patience": 30,
        "seed": 0,
        "hidden": 256,
    },
    "split": {"train_fraction": 0.75, "seed": 11},
}


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_pipeline_doc_is_the_benchmark_acceptance_config():
    """The benchmark's ``ACCEPTANCE`` workload and ``PIPELINE_DOC`` stay one config."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert PIPELINE_DOC == workloads.ACCEPTANCE


def run_pipeline(root: Path, overrides=None) -> dict:
    doc = json.loads(json.dumps(PIPELINE_DOC))
    for section, payload in (overrides or {}).items():
        doc.setdefault(section, {}).update(payload)
    root.mkdir(parents=True, exist_ok=True)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    t0 = time.time()
    pipeline.cmd_synth(cfg)
    pipeline.cmd_build_ssm(cfg)
    pipeline.cmd_slice(cfg)
    pipeline.cmd_train(cfg)
    json_path, text_path = pipeline.cmd_evaluate(cfg)
    return {
        "cfg": cfg,
        "root": root,
        "report": json.loads(json_path.read_text()),
        "elapsed": time.time() - t0,
    }


def tree_digests(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "config.json":
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("accept") / "run_a")


def build_exactness_population():
    cfg = synth.SynthConfig(n=20, seed=7, jitter_levels=(3,))
    meshes, _ = synth.generate_population(cfg)
    return generalized_procrustes(meshes)


# ---------------------------------------------------------------------------


def test_criterion_1_table_arithmetic():
    t0 = time.time()
    row_a = report_from_moments(78.1, 268.4, 35)
    ok = (
        abs(row_a.sem - 45.4) <= 0.05
        and abs(row_a.t - 1.7) <= 0.05
        and abs(row_a.ci95[0] - (-14.1)) <= 0.15
        and abs(row_a.ci95[1] - 170.3) <= 0.15
        and abs(row_a.p - 0.094) <= 0.002
    )
    row_b = report_from_moments(-201.5, 234.8, 35)
    ok &= (
        abs(row_b.sem - 39.7) <= 0.05
        and abs(row_b.t - (-5.1)) <= 0.05
        and abs(row_b.ci95[0] - (-282.1)) <= 0.15
        and abs(row_b.ci95[1] - (-120.8)) <= 0.15
        and row_b.p < 0.001
    )
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    announce(
        "1 (published test arithmetic)",
        ok,
        f"sem {row_a.sem:.3f}/{row_b.sem:.3f}, t {row_a.t:.3f}/{row_b.t:.3f}, "
        f"p {row_a.p:.4f}/{row_b.p:.6f} in {elapsed:.3f}s",
    )


def test_criterion_2_shape_space_exactness():
    t0 = time.time()
    aligned = build_exactness_population()
    space = build_ssm(aligned, 19)
    gram = space.components.T @ space.components
    orth_err = float(np.abs(gram - np.eye(19)).max())
    scores = np.stack([project(space, m) for m in aligned])
    mean_err = float(np.abs(scores.mean(axis=0)).max())
    std_err = float(np.abs(scores.std(axis=0) - 1.0).max())
    recon_err = 0.0
    for mesh in aligned:
        rebuilt = reconstruct(space, project(space, mesh))
        rel = np.abs(rebuilt.vertices - mesh.vertices).max() / np.linalg.norm(np.ptp(mesh.vertices, axis=0))
        recon_err = max(recon_err, float(rel))
    elapsed = time.time() - t0
    ok = recon_err < 1e-8 and orth_err < 1e-9 and mean_err < 1e-8 and std_err < 1e-8 and elapsed < 30.0
    announce(
        "2 (shape space exactness)",
        ok,
        f"recon {recon_err:.2e}, orth {orth_err:.2e}, score mean {mean_err:.2e}, "
        f"score std {std_err:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_volume_correctness():
    t0 = time.time()
    cube_vol = M.signed_volume(M.cube(10.0))
    ok = abs(cube_vol - 1.0) < 1e-9

    analytic = 4.0 / 3.0 * np.pi * 10.0**3 / 1000.0
    ico_vol = M.signed_volume(M.icosphere(10.0, 4))
    ok &= abs(ico_vol - analytic) / analytic < 0.005

    inner, outer = M.icosphere(10.0, 4), M.icosphere(12.0, 4)
    cd = mesh_metrics(inner, outer, 8000, 1).chamfer_mm
    ok &= abs(cd - 4.0) / 4.0 < 0.02

    cfg = synth.SynthConfig(n=5, seed=77, jitter_levels=(3, 4))
    meshes, vols = synth.generate_population(cfg)
    worst = 0.0
    for mesh, vol in zip(meshes, vols):
        oracle = voxel_volume_cm3(mesh, h=0.25)
        worst = max(worst, abs(oracle - vol) / vol)
    ok &= worst < 0.01
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    announce(
        "3 (volume correctness)",
        ok,
        f"cube {cube_vol:.9f}, icosphere rel {abs(ico_vol - analytic) / analytic:.4f}, "
        f"nested CD {cd:.3f}, voxel worst rel {worst:.5f} in {elapsed:.1f}s",
    )


def test_criterion_4_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(300 + trial)
        d, h, k = 12, 5, 3
        params = init_params(d, h, k, seed=trial)
        batch = [(rng.integers(0, 2, d).astype(float), rng.normal(size=k)) for _ in range(4)]
        g = gradient(params, batch)
        eps = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(params, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index

                def loss_at(value):
                    arrays = {n: getattr(params, n).copy() for n in ("w1", "b1", "w2", "b2")}
                    arrays[name][idx] = value
                    return loss(MlpParams(**arrays), batch)

                x0 = arr[idx]
                fd = (loss_at(x0 + eps) - loss_at(x0 - eps)) / (2 * eps)
                an = getattr(g, name)[idx]
                denom = max(abs(fd), abs(an), 1e-8)
                worst = max(worst, abs(fd - an) / denom)
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    announce("4 (gradient fidelity)", ok, f"max rel err {worst:.2e} in {elapsed:.1f}s")


def _volume_criteria(report: dict) -> tuple[float, float, float, float]:
    rows = report["subjects"]
    rel = [
        abs(r["volume_predicted_cm3"] - r["volume_truth_cm3"]) / r["volume_truth_cm3"]
        for r in rows
    ]
    beats = sum(r["chamfer_mm"] < r["chamfer_baseline_mm"] for r in rows) / len(rows)
    return (
        float(np.median(rel)),
        report["aggregate"]["rmse_cm3"],
        report["aggregate"]["rmse_baseline_cm3"],
        beats,
    )


def test_criterion_5_end_to_end(pipeline_run):
    median_rel, rmse_pred, rmse_base, beats = _volume_criteria(pipeline_run["report"])
    elapsed = pipeline_run["elapsed"]
    ok = median_rel < 0.10 and rmse_pred < rmse_base and beats >= 0.80 and elapsed < 900.0
    announce(
        "5 (end-to-end synthetic pipeline)",
        ok,
        f"median rel vol err {median_rel:.4f}, RMSE {rmse_pred:.1f} vs baseline {rmse_base:.1f}, "
        f"CD beats baseline on {beats:.0%} of subjects, in {elapsed:.0f}s",
    )


def test_criterion_6_ablation_machinery(pipeline_run, tmp_path_factory):
    base = tmp_path_factory.mktemp("ablate")
    results = {}
    for name, overrides in (
        ("slices=2", {"slicer": {"offsets": [0.40, 0.60]}}),
        ("K=10", {"ssm": {"components": 10}}),
        ("K=50", {"ssm": {"components": 50}}),
    ):
        run = run_pipeline(base / name.replace("=", "_"), overrides)
        agg = run["report"]["aggregate"]
        results[name] = agg["rmse_cm3"]
        finite = np.isfinite(
            [agg["rmse_cm3"], agg["rmse_baseline_cm3"], agg["paired_test"]["t"], agg["paired_test"]["p"]]
        ).all()
        rows_complete = all(
            np.isfinite([r["volume_predicted_cm3"], r["chamfer_mm"], r["msd_mm"]]).all()
            for r in run["report"]["subjects"]
        )
        assert finite and rows_complete, f"ablation {name} emitted non-finite values"
    # K is clamped to N-1 = 44 only above that; 50 -> effective 44
    detail = ", ".join(f"{k}: RMSE {v:.1f}" for k, v in results.items())
    announce("6 (ablation machinery)", True, detail)


def test_criterion_7_metric_identities():
    t0 = time.time()
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(40):
        a = (rng.random((14, 14)) < 0.4).astype(np.uint8)
        b = (rng.random((14, 14)) < 0.4).astype(np.uint8)
        m = mask_metrics(a, b, 1.0)
        ok &= abs(m.dice - 2 * m.iou / (1 + m.iou)) < 1e-12
        ok &= mask_metrics(b, a, 1.0).hausdorff_mm == m.hausdorff_mm

    empty = np.zeros((8, 8), dtype=np.uint8)
    full = np.ones((8, 8), dtype=np.uint8)
    both = mask_metrics(empty, empty, 1.0)
    ok &= (both.dice, both.iou, both.hausdorff_mm) == (1.0, 1.0, 0.0)
    one = mask_metrics(full, empty, 1.0)
    ok &= one.dice == 0.0 and one.iou == 0.0 and one.hausdorff_mm == pytest.approx(np.hypot(8, 8))

    blob_cfg = synth.SynthConfig(n=2, seed=55, jitter_levels=(2,))
    (mesh_a, mesh_b), _ = synth.generate_population(blob_cfg)
    cd = mesh_metrics(mesh_a, mesh_b, 3000, 5).chamfer_mm
    ok &= mesh_metrics(mesh_a, mesh_b, 3000, 5).msd_mm == cd / 2.0
    ok &= mesh_metrics(mesh_b, mesh_a, 3000, 5).chamfer_mm == cd
    theta = np.deg2rad(35.0)
    rot = np.array([[np.cos(theta), -np.sin(theta), 0], [np.sin(theta), np.cos(theta), 0], [0, 0, 1]])
    moved_a = mesh_a.with_vertices(mesh_a.vertices @ rot.T + np.array([12.0, -4.0, 9.0]))
    moved_b = mesh_b.with_vertices(mesh_b.vertices @ rot.T + np.array([12.0, -4.0, 9.0]))
    ok &= abs(mesh_metrics(moved_a, moved_b, 3000, 5).chamfer_mm - cd) / cd < 0.01
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    announce("7 (metric identities)", bool(ok), f"all identities hold in {elapsed:.1f}s")


def test_criterion_8_determinism(pipeline_run, tmp_path_factory):
    # shape space build repeated: byte-identical files
    tmp = tmp_path_factory.mktemp("det")
    aligned = build_exactness_population()
    save_ssm(build_ssm(aligned, 19), tmp / "a")
    save_ssm(build_ssm(build_exactness_population(), 19), tmp / "b")
    ssm_ok = (tmp / "a.ssm.json").read_bytes() == (tmp / "b.ssm.json").read_bytes() and (
        tmp / "a.ssm.bin"
    ).read_bytes() == (tmp / "b.ssm.bin").read_bytes()

    # full pipeline repeated with identical seeds: byte-identical artifacts
    run_b = run_pipeline(pipeline_run["root"].parent / "run_b")
    digests_a = tree_digests(pipeline_run["root"])
    digests_b = tree_digests(run_b["root"])
    mismatched = [k for k in digests_a if digests_a[k] != digests_b.get(k)]
    pipe_ok = digests_a.keys() == digests_b.keys() and not mismatched
    ok = ssm_ok and pipe_ok
    announce(
        "8 (determinism)",
        ok,
        f"shape space files identical: {ssm_ok}; pipeline artifacts identical: "
        f"{pipe_ok} ({len(digests_a)} files" + (f", first mismatch {mismatched[0]}" if mismatched else "") + ")",
    )
