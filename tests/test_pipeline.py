import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from ssmrecon import pipeline, regressor, sidecar
from ssmrecon.cli import main
from ssmrecon.config import load_config
from ssmrecon.errors import DataError
from ssmrecon.metrics import rmse
from ssmrecon.mesh import load_mesh, oriented_volume_mm3, signed_volume
from ssmrecon.regressor import load_weights, save_weights
from ssmrecon.shape_space import load_ssm, reconstruct

SMALL_DOC = {
    "paths": {
        "population_dir": "population",
        "ssm": "out/model",
        "weights": "out/weights",
        "masks_dir": "out/masks",
        "output_dir": "out",
    },
    "synth": {
        "n": 8,
        "seed": 5,
        "volume_range": [900, 1500],
        "jitter_levels": [2, 3],
        "base_subdivision": 2,
    },
    "ssm": {"components": 4},
    "slicer": {"offsets": [0.35, 0.5, 0.65], "resolution": 48},
    "train": {
        "learning_rate": 0.001,
        "epochs": 25,
        "batch_size": 4,
        "validation_fraction": 0.2,
        "patience": 10,
        "seed": 3,
        "hidden": 16,
    },
    "split": {"train_fraction": 0.75, "seed": 1},
}


def make_config(tmp_path, overrides=None, name="config.json") -> Path:
    doc = json.loads(json.dumps(SMALL_DOC))
    for section, payload in (overrides or {}).items():
        doc.setdefault(section, {}).update(payload)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_all(cfg):
    pipeline.cmd_synth(cfg)
    pipeline.cmd_build_ssm(cfg)
    pipeline.cmd_slice(cfg)
    pipeline.cmd_train(cfg)
    return pipeline.cmd_evaluate(cfg)


def tree_digests(root: Path, skip={"config.json"}) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = load_config(make_config(tmp))
    json_path, text_path = run_all(cfg)
    return tmp, cfg, json_path, text_path


# ---------------------------------------------------------------------------
# stage behaviour


def test_synth_manifest_volumes_match_meshes(small_run):
    tmp, cfg, _, _ = small_run
    manifest = json.loads((cfg.population_dir / "population.json").read_text())
    for sid, entry in manifest["subjects"].items():
        mesh = load_mesh(cfg.population_dir / f"{sid}.obj")
        assert signed_volume(mesh) == pytest.approx(entry["volume_cm3"], abs=1e-9)


def test_split_disjoint_and_covering(small_run):
    _, cfg, _, _ = small_run
    train, test = pipeline.split_ids(cfg)
    assert sorted(train + test) == pipeline.population_ids(cfg)
    assert not set(train) & set(test)
    assert len(train) == 6 and len(test) == 2


def test_ssm_has_reference_vertex_count(small_run):
    _, cfg, _, _ = small_run
    train, _ = pipeline.split_ids(cfg)
    space = load_ssm(cfg.ssm_stem)
    reference = load_mesh(cfg.population_dir / f"{train[0]}.obj")
    assert space.n_vertices == reference.n_vertices


def test_components_clamped_to_population(small_run):
    _, cfg, _, _ = small_run
    space = load_ssm(cfg.ssm_stem)
    # config asks for 4, training split has 6 subjects, so K=4 fits as-is
    assert space.n_components == 4


def test_mask_stacks_exist_for_all_subjects(small_run):
    _, cfg, _, _ = small_run
    for sid in pipeline.population_ids(cfg):
        stack = pipeline._load_stack(cfg, sid)
        assert len(stack.masks) == 3
        assert stack.masks[0].shape == (48, 48)


def test_training_targets_exclude_test_subjects(small_run):
    _, cfg, _, _ = small_run
    _, test = pipeline.split_ids(cfg)
    reg_dir = cfg.output_dir / "registered"
    registered = {p.stem for p in reg_dir.glob("*.obj")}
    assert registered.isdisjoint(test)


def test_training_log_shows_progress(small_run):
    _, cfg, _, _ = small_run
    rows = (cfg.output_dir / "training_log.csv").read_text().strip().splitlines()
    header, first, last = rows[0], rows[1], rows[-1]
    assert header == "epoch,train_loss,val_loss"
    assert float(last.split(",")[1]) < float(first.split(",")[1])


# ---------------------------------------------------------------------------
# evaluation report


def test_report_self_consistent_rmse(small_run):
    _, _, json_path, _ = small_run
    doc = json.loads(json_path.read_text())
    truth = [r["volume_truth_cm3"] for r in doc["subjects"]]
    pred = [r["volume_predicted_cm3"] for r in doc["subjects"]]
    assert doc["aggregate"]["rmse_cm3"] == pytest.approx(rmse(pred, truth), abs=1e-12)


def test_report_has_baseline_row(small_run):
    _, _, json_path, text_path = small_run
    doc = json.loads(json_path.read_text())
    assert "rmse_baseline_cm3" in doc["aggregate"]
    assert "paired_test_baseline" in doc["aggregate"]
    assert "truth & baseline" in text_path.read_text()


def test_report_per_subject_count(small_run):
    _, cfg, json_path, _ = small_run
    doc = json.loads(json_path.read_text())
    _, test = pipeline.split_ids(cfg)
    assert doc["n_test"] == len(test)
    assert [r["subject"] for r in doc["subjects"]] == test


def test_oracle_injection_gives_null_result(small_run):
    tmp, cfg, _, _ = small_run
    oracle_cfg = load_config(
        make_config(
            tmp,
            {"evaluate": {"oracle_injection": True}, "paths": {"output_dir": "out_oracle"}},
            name="config_oracle.json",
        )
    )
    json_path, _ = pipeline.cmd_evaluate(oracle_cfg)
    doc = json.loads(json_path.read_text())
    agg = doc["aggregate"]
    assert agg["rmse_cm3"] == 0.0
    assert agg["paired_test"]["t"] == 0.0
    assert agg["paired_test"]["p"] == 1.0
    assert all(r["chamfer_mm"] < 1e-9 for r in doc["subjects"])


# ---------------------------------------------------------------------------
# reconstruct command


def test_output_independent_of_thread_cap(small_run, monkeypatch):
    tmp, cfg, json_path, _ = small_run
    serial_cfg = load_config(
        make_config(tmp, {"paths": {"output_dir": "out_serial"}}, name="config_serial.json")
    )
    monkeypatch.setenv("SSMRECON_THREADS", "1")
    serial_json, _ = pipeline.cmd_evaluate(serial_cfg)
    assert serial_json.read_bytes() == json_path.read_bytes()


def test_reconstruct_by_subject_and_stack_agree(small_run):
    tmp, cfg, _, _ = small_run
    _, test = pipeline.split_ids(cfg)
    sid = test[0]
    path_a, vol_a = pipeline.cmd_reconstruct(cfg, subject=sid)
    bytes_a = path_a.read_bytes()
    path_b, vol_b = pipeline.cmd_reconstruct(cfg, stack_path=cfg.masks_dir / sid / "stack.json")
    assert vol_a == vol_b
    assert bytes_a == path_b.read_bytes()
    # repeated runs are byte-identical
    path_c, _ = pipeline.cmd_reconstruct(cfg, subject=sid)
    assert bytes_a == path_c.read_bytes()


def test_reconstruct_missing_weights_names_path(small_run):
    tmp, _, _, _ = small_run
    cfg = load_config(
        make_config(tmp, {"paths": {"weights": "nowhere/weights"}}, name="config_noweights.json")
    )
    with pytest.raises(DataError, match="nowhere"):
        pipeline.cmd_reconstruct(cfg, subject="s000")


def test_reconstruct_checks_each_new_weights_version(small_run, tmp_path):
    cfg = load_config(shutil.copytree(small_run[0], tmp_path / "run") / "config.json")
    sid = pipeline.split_ids(cfg)[1][0]
    _, old_volume = pipeline.cmd_reconstruct(cfg, subject=sid)
    old = load_weights(cfg.weights_stem)
    new = regressor.MlpParams(old.w1, old.b1, 1.5 * old.w2, old.b2 + 0.25)
    save_weights(new, cfg.weights_stem)
    _, volume = pipeline.cmd_reconstruct(cfg, subject=sid)
    expected = reconstruct(load_ssm(cfg.ssm_stem), regressor.forward(new, pipeline._load_stack(cfg, sid)))
    assert volume != old_volume
    assert volume == signed_volume(expected)

    w1 = np.array(new.w1)
    w1[-1, -1] = np.nan
    header = {"n_inputs": new.n_inputs, "n_hidden": new.n_hidden, "n_outputs": new.n_outputs}
    sidecar.save(cfg.weights_stem, "mlp", header, [("w1", w1), ("b1", new.b1), ("w2", new.w2), ("b2", new.b2)])
    with pytest.raises(DataError, match="^parameters must be finite"):  # at load, not in reconstruct
        pipeline.cmd_reconstruct(cfg, subject=sid)


def test_inward_prediction_is_numerical_error(small_run, tmp_path, capsys):
    cfg_path = shutil.copytree(small_run[0], tmp_path / "run") / "config.json"
    cfg = load_config(cfg_path)
    space = load_ssm(cfg.ssm_stem)
    # with W1 = 0 every input predicts b2; a large multiple of one mode turns the mean shape inside out
    inward = [
        b2
        for mode in np.eye(space.n_components)
        for b2 in (scale * mode for scale in (-1e3, 1e3, -1e4, 1e4))
        if oriented_volume_mm3(reconstruct(space, b2)) < 0
    ]
    assert inward
    old = load_weights(cfg.weights_stem)
    save_weights(
        regressor.MlpParams(np.zeros_like(old.w1), np.zeros_like(old.b1), old.w2, inward[0]), cfg.weights_stem
    )
    sid = pipeline.split_ids(cfg)[1][0]
    shutil.rmtree(cfg.output_dir / "recon", ignore_errors=True)  # earlier tests reconstruct into the copied run
    assert main(["reconstruct", "--config", str(cfg_path), "--subject", sid]) == 3
    assert f"reconstruction of {sid} is inward-oriented" in capsys.readouterr().err
    assert not (cfg.output_dir / "recon" / f"{sid}.obj").exists()
    assert main(["evaluate", "--config", str(cfg_path)]) == 3
    assert "is inward-oriented" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_stats_vectors_exit_zero(capsys):
    assert main(["stats-vectors"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"slicer": {"oops": 1}}')
    assert main(["slice", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_data_error_exit_code(tmp_path, capsys):
    cfg_path = make_config(tmp_path)  # population never generated
    assert main(["build-ssm", "--config", str(cfg_path)]) == 2
    assert "data error" in capsys.readouterr().err


def test_cli_reconstruct_usage_error(small_run, capsys):
    tmp, _, _, _ = small_run
    assert main(["reconstruct", "--config", str(tmp / "config.json")]) == 1


def test_cli_full_run(tmp_path, capsys):
    # two-slice variant driven end-to-end through the CLI entry point
    cfg_path = make_config(tmp_path, {"slicer": {"offsets": [0.4, 0.6]}})
    for cmd in ("synth", "build-ssm", "slice", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
    out = capsys.readouterr().out
    assert "report written" in out
    doc = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    assert doc["n_test"] == 2
    stack_doc = json.loads((tmp_path / "out" / "masks" / "s000" / "stack.json").read_text())
    assert len(stack_doc["members"]) == 2
