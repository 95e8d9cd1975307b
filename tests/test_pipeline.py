import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from ssmrecon import pipeline, regressor, sidecar, stats, synth
from ssmrecon.cli import main
from ssmrecon.config import load_config
from ssmrecon.errors import ConfigError, DataError
from ssmrecon.metrics import rmse
from ssmrecon.mesh import TriMesh, load_mesh, save_mesh, signed_volume
from ssmrecon.regressor import load_weights, save_weights
from ssmrecon.shape_space import load_ssm, reconstruct
from ssmrecon.threads import thread_count

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


def test_report_text_rows_are_the_paired_tests(small_run):
    _, _, json_path, text_path = small_run
    subjects = json.loads(json_path.read_text())["subjects"]
    truth, pred, base = ([r[f"volume_{k}_cm3"] for r in subjects] for k in ("truth", "predicted", "baseline"))
    assert text_path.read_text().splitlines()[3:6] == [
        stats.PairedTestReport.text_header(),
        stats.paired_t_test(truth, pred).text_row("truth & predicted"),
        stats.paired_t_test(truth, base).text_row("truth & baseline"),
    ]


def test_report_per_subject_count(small_run):
    _, cfg, json_path, _ = small_run
    doc = json.loads(json_path.read_text())
    _, test = pipeline.split_ids(cfg)
    assert doc["n_test"] == len(test)
    assert [r["subject"] for r in doc["subjects"]] == test


def test_oracle_injection_gives_null_result(small_run, monkeypatch):
    """Evaluate scores each subject's own truth, predicted in place of the regressor, as a null result."""
    tmp, cfg, _, _ = small_run
    oracle_cfg = load_config(make_config(tmp, {"paths": {"output_dir": "out_oracle"}}, name="config_oracle.json"))
    subjects = synth.load_population_manifest(cfg.population_dir)["subjects"]

    def truth(space, params, stack, sid):
        return load_mesh(cfg.population_dir / f"{sid}.obj"), subjects[sid]["volume_cm3"]

    monkeypatch.setattr(pipeline, "_predict", truth)
    json_path, _ = pipeline.cmd_evaluate(oracle_cfg)
    doc = json.loads(json_path.read_text())
    agg = doc["aggregate"]
    assert agg["rmse_cm3"] == 0.0
    assert agg["paired_test"]["t"] == 0.0
    assert agg["paired_test"]["p"] == 1.0
    assert all(r["chamfer_mm"] < 1e-9 for r in doc["subjects"])


# ---------------------------------------------------------------------------
# reconstruct command


def test_build_ssm_factors_once_on_the_calling_thread(small_run, monkeypatch):
    """The pool's fits share one factorization, made on the thread that frees it: scipy's SuperLU
    leaks a factor freed on another thread."""
    tmp = small_run[0]
    cfg = load_config(make_config(tmp, {"paths": {"ssm": "out_factor/model", "output_dir": "out_factor"}},
                                  name="config_factor.json"))
    factorized = scipy.sparse.linalg.factorized
    threads = []
    monkeypatch.setattr(scipy.sparse.linalg, "factorized", lambda a: threads.append(threading.current_thread()) or factorized(a))
    monkeypatch.setenv("SSMRECON_THREADS", "2")
    pipeline.cmd_build_ssm(cfg)
    assert threads == [threading.current_thread()]
    assert (tmp / "out_factor" / "model.ssm.bin").read_bytes() == (tmp / "out" / "model.ssm.bin").read_bytes()


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


def test_stacks_sliced_before_a_new_window_are_data_errors(small_run, tmp_path, capsys):
    """A new split seed moves the dataset window once build-ssm reruns; the old stacks fail."""
    root = shutil.copytree(small_run[0], tmp_path / "run")
    cfg_path = make_config(root, {"split": {"seed": 2}})
    old_window = pipeline._load_window(load_config(cfg_path)).as_dict()
    assert main(["build-ssm", "--config", str(cfg_path)]) == 0
    assert pipeline._load_window(load_config(cfg_path)).as_dict() != old_window
    for command, *rest in (["train"], ["reconstruct", "--subject", "s000"]):
        assert main([command, "--config", str(cfg_path), *rest]) == 2, command
        err = capsys.readouterr().err
        assert "stack.json: " in err and "run slice again" in err, err
    assert f"mask stack {root / 'out' / 'masks' / 's000' / 'stack.json'}: " in err


def test_stack_checked_against_the_protocol(small_run, tmp_path, capsys):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    cfg_path = root / "config.json"
    path = root / "out" / "masks" / "s000" / "stack.json"
    doc = json.loads(path.read_text())
    argv = ["reconstruct", "--config", str(cfg_path), "--stack", str(path)]
    # a stack made elsewhere need not record its offsets and window
    path.write_text(json.dumps({k: v for k, v in doc.items() if k not in ("plane_offsets", "window")}))
    assert main(argv) == 0
    path.write_text(json.dumps({**doc, "spacing": [2 * v for v in doc["spacing"]]}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"mask stack {path}: spacing " in err and "run slice again" in err


def test_faceless_subject_mesh_fails_slice_naming_file(small_run, tmp_path, capsys):
    cfg_path = shutil.copytree(small_run[0], tmp_path / "run") / "config.json"
    path = load_config(cfg_path).population_dir / "s001.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    assert main(["slice", "--config", str(cfg_path)]) == 2
    assert f"{path}: mesh has no faces" in capsys.readouterr().err


def test_inward_reference_mesh_fails_build_ssm_before_any_fit(small_run, tmp_path, monkeypatch, capsys):
    """Every prediction takes the reference's faces, so an inverted reference is a data error at build-ssm."""
    cfg_path = shutil.copytree(small_run[0], tmp_path / "run") / "config.json"
    cfg = load_config(cfg_path)
    reference = pipeline.split_ids(cfg)[0][0]
    path = cfg.population_dir / f"{reference}.obj"
    mesh = load_mesh(path)
    save_mesh(TriMesh(mesh.vertices, mesh.faces[:, ::-1]), path)
    fits = []
    monkeypatch.setattr(pipeline, "nonrigid_fit", lambda *args: fits.append(args))
    assert main(["build-ssm", "--config", str(cfg_path)]) == 2
    assert f"subject {reference}: reference mesh is inward-oriented (signed volume -" in capsys.readouterr().err
    assert fits == []


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
        if signed_volume(reconstruct(space, b2)) < 0
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


STATS_VECTORS_OUT = """\
pair     field      computed    reference      tol  status
pair-1   sem         39.6884      39.7000    0.050    pass
pair-1   t           -5.0770      -5.1000    0.050    pass
pair-1   ci_lo     -282.1566    -282.1000    0.150    pass
pair-1   ci_hi     -120.8434    -120.8000    0.150    pass
pair-1   p          0.000014       <0.001             pass
pair-2   sem         45.3679      45.4000    0.050    pass
pair-2   t            1.7215       1.7000    0.050    pass
pair-2   ci_lo      -14.0986     -14.1000    0.150    pass
pair-2   ci_hi      170.2986     170.3000    0.150    pass
pair-2   p            0.0943       0.0940    0.002    pass
all vectors pass
"""


def test_cli_stats_vectors_exit_zero(capsys):
    assert main(["stats-vectors"]) == 0
    assert capsys.readouterr().out == STATS_VECTORS_OUT


def test_cli_stats_vectors_fails_on_a_shifted_t(monkeypatch, capsys):
    report_from_moments = stats.report_from_moments

    def shifted(*args):
        report = report_from_moments(*args)
        return dataclasses.replace(report, t=report.t + 0.1)

    monkeypatch.setattr(stats, "report_from_moments", shifted)
    assert main(["stats-vectors"]) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[:2] for line in lines if line.endswith("FAIL")]
    assert failed == [["pair-1", "t"], ["pair-2", "t"]]
    assert lines[-1] == "vector check FAILED"


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


# ---------------------------------------------------------------------------
# fresh processes

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``main([command, "--config", path, *rest])`` from argv ``command path *rest`` in the
# interpreter it starts in. Its last stdout line is JSON: the exit code and the scipy modules
# loaded once the package is imported and the config loaded, and once the command has run.
FRESH_COMMAND = """
import json, sys
import ssmrecon, ssmrecon.cli, ssmrecon.pipeline
from ssmrecon.config import load_config

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

command, path, *rest = sys.argv[1:]
load_config(path)
started = scipy_modules()
code = ssmrecon.cli.main([command, "--config", path, *rest])
print(json.dumps({"code": code, "started": started, "ended": scipy_modules()}))
"""


def fresh(args: list[str]) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter on this source tree, with two pool threads."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "SSMRECON_THREADS": "2"}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def test_fresh_commands_load_scipy_only_to_fit_and_score(small_run, tmp_path):
    """Start-up, synth, slice, train and reconstruct load no scipy. build-ssm and evaluate
    first import it on the pool's two threads, and write the in-process run's bytes."""
    tmp, cfg, _, _ = small_run
    sid = pipeline.split_ids(cfg)[1][0]
    cfg_path = make_config(tmp_path)
    for command, *rest in (["synth"], ["build-ssm"], ["slice"], ["train"], ["reconstruct", "--subject", sid], ["evaluate"]):
        done = fresh(["-c", FRESH_COMMAND, command, str(cfg_path), *rest])
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["code"] == 0 and result["started"] == [], (command, result)
        if command in ("build-ssm", "evaluate"):
            assert "scipy.spatial" in result["ended"], command
        else:
            assert result["ended"] == [], (command, result)

    pipeline.cmd_reconstruct(cfg, subject=sid)  # the same request in-process
    expected = {name: digest for name, digest in tree_digests(tmp).items() if name.startswith(("population/", "out/"))}
    assert tree_digests(tmp_path) == expected
    done = fresh(["-m", "ssmrecon.cli", "stats-vectors"])
    assert done.returncode == 0, done.stdout + done.stderr


# ---------------------------------------------------------------------------
# undecodable and incomplete files


def test_undecodable_config_and_population_exit_without_traceback(tmp_path):
    cfg_path = make_config(tmp_path)
    population = tmp_path / "population" / "population.json"
    population.parent.mkdir()
    population.write_bytes(b'{"format_version": 1, "subjects": {}}\xff')  # byte 0xff is never valid UTF-8
    done = fresh(["-m", "ssmrecon.cli", "build-ssm", "--config", str(cfg_path)])
    assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
    assert "data error: cannot read population manifest" in done.stderr and "byte 0xff" in done.stderr

    cfg_path.write_bytes(cfg_path.read_bytes() + b"\xff")
    done = fresh(["-m", "ssmrecon.cli", "synth", "--config", str(cfg_path)])
    assert (done.returncode, "Traceback" in done.stderr) == (1, False), done.stderr
    assert "config error" in done.stderr and "byte 0xff" in done.stderr


@pytest.mark.parametrize(
    "name, read",
    [
        ("population/s000.obj", lambda cfg: load_mesh(cfg.population_dir / "s000.obj")),
        ("population/population.json", pipeline.population_ids),
        ("out/model.ssm.json", lambda cfg: load_ssm(cfg.ssm_stem)),
        ("out/weights.mlp.json", lambda cfg: load_weights(cfg.weights_stem)),
        ("out/masks/s000/stack.json", lambda cfg: pipeline._load_stack(cfg, "s000")),
        ("out/model.window.json", pipeline._load_window),
    ],
    ids=["mesh", "population", "shape-space", "weights", "stack", "window"],
)
def test_undecodable_file_is_data_error(small_run, tmp_path, name, read):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / name
    path.write_bytes(path.read_bytes() + b"\xff")
    with pytest.raises(DataError, match="byte 0xff") as raised:
        read(load_config(root / "config.json"))
    assert path.name in str(raised.value)


@pytest.mark.parametrize(
    "name, key, command",
    [
        ("out/model.window.json", "window", "slice"),
        ("population/population.json", "subjects", "build-ssm"),
        ("out/masks/s000/stack.json", "members", "reconstruct"),
        ("out/masks/s000/stack.json", "spacing", "reconstruct"),
        ("out/masks/s000/stack.json", "origin", "reconstruct"),
    ],
)
def test_manifest_without_key_is_data_error(small_run, tmp_path, capsys, name, key, command):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / name
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(root / "config.json")]
    assert main(argv + (["--stack", str(path)] if command == "reconstruct" else [])) == 2
    err = capsys.readouterr().err
    assert f"{path.name} has no {key!r} key" in err


@pytest.mark.parametrize(
    "name, args",
    [
        ("population/population.json", ["build-ssm"]),
        ("out/model.window.json", ["slice"]),
        ("out/masks/s000/stack.json", ["reconstruct", "--stack"]),
        ("out/model.ssm.json", ["reconstruct", "--subject", "s000"]),
        ("out/weights.mlp.json", ["reconstruct", "--subject", "s000"]),
    ],
    ids=["population", "window", "stack", "shape-space", "weights"],
)
def test_manifest_of_another_format_version_is_data_error(small_run, tmp_path, capsys, name, args):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / name
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    command, *rest = args
    if rest == ["--stack"]:
        rest.append(str(path))
    assert main([command, "--config", str(root / "config.json"), *rest]) == 2
    err = capsys.readouterr().err
    assert f"{path.name} has format_version 2, expected 1" in err


@pytest.mark.parametrize(
    "name, replace",
    [
        ("stack.json", {"spacing": "ab"}),
        ("stack.json", {"spacing": [1.0]}),
        ("stack.json", {"spacing": 5}),
        ("stack.json", {"members": 5}),
        ("stack.json", {"members": None}),
        ("slice_0.pgm", b"P5\n-2 -3\n255\n" + bytes(6)),
        ("stack.json", {"members": []}),
    ],
    ids=[
        "spacing-text", "spacing-short", "spacing-number", "members-number", "members-null", "pgm-negative-size",
        "members-empty",
    ],
)
def test_malformed_stack_exits_without_traceback(small_run, tmp_path, name, replace):
    stack_dir = shutil.copytree(small_run[0], tmp_path / "run") / "out" / "masks" / "s000"
    path = stack_dir / name
    if isinstance(replace, bytes):
        path.write_bytes(replace)
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), **replace}))
    cfg_path = stack_dir.parents[2] / "config.json"
    done = fresh(["-m", "ssmrecon.cli", "reconstruct", "--config", str(cfg_path), "--stack", str(stack_dir / "stack.json")])
    assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
    assert str(path) in done.stderr


def test_one_subject_test_split_fails_before_scoring(tmp_path, capsys):
    cfg_path = make_config(tmp_path, {"synth": {"n": 4}})
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "test split has 1 of 4 subjects, evaluate needs at least 2 (split.train_fraction 0.75)" in err
    assert not (tmp_path / "out" / "evaluation.json").exists()


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda window: window.pop("lo"), r"model\.window\.json is malformed: KeyError\('lo'\)"),
        (lambda window: window.update(lo=window["hi"]), r"model\.window\.json is malformed: DataError"),
    ],
    ids=["no-lo", "lo-equals-hi"],
)
def test_window_without_corner_is_data_error(small_run, tmp_path, edit, match):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "out" / "model.window.json"
    doc = json.loads(path.read_text())
    edit(doc["window"])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        pipeline._load_window(load_config(root / "config.json"))


@pytest.mark.parametrize("corner, axis, text", [("hi", 1, "1e999"), ("lo", 2, "-Infinity")])
def test_non_finite_window_is_data_error(small_run, tmp_path, capsys, corner, axis, text):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "out" / "model.window.json"
    doc = json.loads(path.read_text())
    doc["window"][corner][axis] = "NOT_FINITE"
    path.write_text(json.dumps(doc).replace('"NOT_FINITE"', text))
    assert main(["slice", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"{path} is malformed" in err and "bounds must be finite" in err


@pytest.mark.parametrize("key", ["faces", "n_population"])
def test_shape_space_without_header_key_exits_without_traceback(small_run, tmp_path, key):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "out" / "model.ssm.json"
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    config = str(root / "config.json")
    for args in (["reconstruct", "--config", config, "--subject", "s000"], ["evaluate", "--config", config]):
        done = fresh(["-m", "ssmrecon.cli", *args])
        assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
        assert f"{path.name} has no {key!r} key" in done.stderr


@pytest.mark.parametrize(
    "key, value",
    [("faces", "abc"), ("n_population", "x"), ("n_population", 1), ("faces", [[0, 1, 999999]])],
    ids=["faces-text", "n-text", "n-one", "face-out-of-range"],
)
def test_shape_space_header_of_bad_value_exits_without_traceback(small_run, tmp_path, key, value):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "out" / "model.ssm.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    config = str(root / "config.json")
    for args in (["reconstruct", "--config", config, "--subject", "s000"], ["evaluate", "--config", config]):
        done = fresh(["-m", "ssmrecon.cli", *args])
        assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
        assert f"{path.name} is malformed" in done.stderr


@pytest.mark.parametrize("width", [2, 4], ids=["pairs", "quads"])
def test_shape_space_faces_not_triangles_exit_without_traceback(small_run, tmp_path, width):
    """Face indices regrouped in pairs or fours are rejected, not reshaped back into triangles."""
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "out" / "model.ssm.json"
    doc = json.loads(path.read_text())
    flat = [i for face in doc["faces"] for i in face]
    assert len(flat) % width == 0
    doc["faces"] = [flat[k : k + width] for k in range(0, len(flat), width)]
    path.write_text(json.dumps(doc))
    config = str(root / "config.json")
    for args in (["reconstruct", "--config", config, "--subject", "s000"], ["evaluate", "--config", config]):
        done = fresh(["-m", "ssmrecon.cli", *args])
        assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
        assert f"{path.name} is malformed" in done.stderr
        assert f"faces must be an (F, 3) array with F >= 1, got shape ({len(doc['faces'])}, {width})" in done.stderr


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_thread_cap_below_one_is_config_error(small_run, tmp_path, monkeypatch, capsys, threads):
    """A cap below 1 is not read as 1: each command that would start a pool exits 1 and writes nothing."""
    root = shutil.copytree(small_run[0], tmp_path / "run")
    before = tree_digests(root)
    monkeypatch.setenv("SSMRECON_THREADS", threads)
    with pytest.raises(ConfigError, match=f"SSMRECON_THREADS must be >= 1, got '{threads}'"):
        thread_count()
    for command in ("slice", "train", "evaluate"):
        assert main([command, "--config", str(root / "config.json")]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("config error: SSMRECON_THREADS must be >= 1") and "Traceback" not in err
    assert tree_digests(root) == before


def test_subject_id_reaching_outside_its_directory_writes_nothing(small_run, tmp_path, capsys):
    """Slicing an id ``../out/recon/s000`` read out/recon/s000.obj and wrote out/out/recon/s000/."""
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "population" / "population.json"
    doc = json.loads(path.read_text())
    doc["subjects"]["../out/recon/s000"] = doc["subjects"].pop("s000")
    path.write_text(json.dumps(doc))
    (root / "out" / "recon").mkdir(exist_ok=True)
    shutil.copy(root / "population" / "s000.obj", root / "out" / "recon" / "s000.obj")

    def outside_masks():
        return {p: d for p, d in tree_digests(root).items() if not p.startswith("out/masks/")}

    before = outside_masks()
    assert main(["slice", "--config", str(root / "config.json")]) == 2
    assert f"{path}: subject id '../out/recon/s000' is not one plain path component" in capsys.readouterr().err
    assert outside_masks() == before


def test_reconstruct_subject_reaching_outside_masks_dir_is_data_error(small_run, tmp_path, capsys):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    shutil.copytree(root / "out" / "masks" / "s000", root / "out" / "x")  # what masks_dir/../x names
    assert main(["reconstruct", "--config", str(root / "config.json"), "--subject", "../x"]) == 2
    assert "subject id '../x' is not one plain path component" in capsys.readouterr().err
    assert not (root / "out" / "x.obj").exists()


@pytest.mark.parametrize("replace", [lambda subjects: 5, sorted], ids=["number", "list-of-ids"])
def test_population_subjects_not_an_object_exits_without_traceback(small_run, tmp_path, replace):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "population" / "population.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "subjects": replace(doc["subjects"])}))
    config = str(root / "config.json")
    for command in ("build-ssm", "evaluate"):
        done = fresh(["-m", "ssmrecon.cli", command, "--config", config])
        assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
        assert f"{path}: 'subjects' must be an object" in done.stderr


@pytest.mark.parametrize("volume", [None, "1200.0"], ids=["missing", "string"])
def test_subject_without_numeric_volume_exits_without_traceback(small_run, tmp_path, volume):
    root = shutil.copytree(small_run[0], tmp_path / "run")
    path = root / "population" / "population.json"
    doc = json.loads(path.read_text())
    subject = pipeline.split_ids(small_run[1])[1][0]
    if volume is None:
        del doc["subjects"][subject]["volume_cm3"]
    else:
        doc["subjects"][subject]["volume_cm3"] = volume
    path.write_text(json.dumps(doc))
    done = fresh(["-m", "ssmrecon.cli", "evaluate", "--config", str(root / "config.json")])
    assert (done.returncode, "Traceback" in done.stderr) == (2, False), done.stderr
    assert f"population.json: subject {subject} has no numeric 'volume_cm3'" in done.stderr
