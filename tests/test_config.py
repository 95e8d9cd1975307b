import json
import re
from pathlib import Path

import pytest

from ssmrecon.cli import main
from ssmrecon.config import load_config
from ssmrecon.errors import ConfigError
from ssmrecon.regressor import TrainConfig


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_empty_document_uses_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {}))
    assert cfg.ssm.components == 50
    assert cfg.slicer.resolution == 192
    assert cfg.slicer.offsets == (0.35, 0.50, 0.65)
    assert cfg.split.train_fraction == pytest.approx(0.74)
    assert cfg.train.hidden == 256


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(write_config(tmp_path, {"slicerr": {}}))


def test_fit_section_rejected(tmp_path):
    # the registration's settings are constants of ssmrecon.register
    with pytest.raises(ConfigError, match="unknown config section.*fit"):
        load_config(write_config(tmp_path, {"fit": {"iterations": 50}}))


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli = readme[readme.index("\n## CLI\n") :]
    example = re.search(r"```json\n(.*?)```", cli, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = load_config(path)
    assert cfg.synth.n == 60 and cfg.ssm.components == 20


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="resolutoin"):
        load_config(write_config(tmp_path, {"slicer": {"resolutoin": 192}}))


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"split": {"train_fraction": 1.5}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"synth": {"amplitude": 0.9}}))


def test_zero_learning_rate_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError, match="train"):
        load_config(write_config(tmp_path, {"train": {"learning_rate": 0}}))


def test_full_validation_fraction_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError, match="train"):
        load_config(write_config(tmp_path, {"train": {"validation_fraction": 1.0}}))


def test_zero_hidden_units_rejected_at_load(tmp_path, capsys):
    # a first layer of no units predicts the bias b2 for every stack
    path = write_config(tmp_path, {"train": {"hidden": 0}})
    with pytest.raises(ConfigError, match=r"train\.hidden must be >= 1"):
        load_config(path)
    assert main(["synth", "--config", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_train_section_is_the_regressors_config(tmp_path):
    cfg = load_config(write_config(tmp_path, {"train": {"hidden": 16}}))
    assert type(cfg.train) is TrainConfig
    assert cfg.train.hidden == 16


def test_paths_resolve_relative_to_config(tmp_path):
    cfg = load_config(write_config(tmp_path, {"paths": {"population_dir": "data/pop"}}))
    assert cfg.population_dir == tmp_path / "data" / "pop"


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_undecodable_file_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"synth": {"n": 4}}\xff')  # byte 0xff is never valid UTF-8
    with pytest.raises(ConfigError, match="not UTF-8 text.*0xff"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_offsets_list_becomes_tuple(tmp_path):
    cfg = load_config(write_config(tmp_path, {"slicer": {"offsets": [0.4, 0.6]}}))
    assert cfg.slicer.offsets == (0.4, 0.6)


@pytest.mark.parametrize("offsets", [[0.6, 0.4], [0.0, 0.5], [0.5, 1.2], [0.5, 0.5]])
def test_bad_slicer_offsets_rejected_at_load(tmp_path, offsets):
    with pytest.raises(ConfigError, match="slicer"):
        load_config(write_config(tmp_path, {"slicer": {"offsets": offsets}}))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("slicer", "resolution", 64.5),
        ("synth", "n", 4.5),
        ("train", "epochs", 2.5),
        ("evaluate", "samples", 10.5),
        # a list's elements take the type of the default's elements
        ("synth", "jitter_levels", [3.7]),
        ("synth", "jitter_levels", [True]),
        ("synth", "jitter_levels", ["3"]),
        ("synth", "jitter_levels", [-1]),
        ("synth", "volume_range", [True, 1600]),
        ("synth", "volume_range", [800, "1600"]),
        ("slicer", "offsets", ["0.4", 0.6]),
        # a list-valued key takes only a JSON array
        ("synth", "jitter_levels", "34"),
        ("synth", "jitter_levels", {"3": 1}),
        ("synth", "volume_range", 900),
        ("slicer", "offsets", 0.5),
    ],
)
def test_value_of_wrong_type_rejected_at_load(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.*{key}"):
        load_config(write_config(tmp_path, {section: {key: value}}))


@pytest.mark.parametrize(
    "text, section, key",
    [
        ('{"synth": {"volume_range": [800, 1e999]}}', "synth", "volume_range"),
        ('{"synth": {"volume_range": [800, Infinity]}}', "synth", "volume_range"),
        ('{"train": {"learning_rate": 1e999}}', "train", "learning_rate"),
        ('{"train": {"learning_rate": NaN}}', "train", "learning_rate"),
        ('{"train": {"learning_rate": 1%s}}' % ("0" * 400), "train", "learning_rate"),
    ],
    ids=["overflow-in-list", "infinity-in-list", "overflow", "nan", "integer-past-float-range"],
)
def test_non_finite_number_rejected_at_load(tmp_path, capsys, text, section, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"section {section!r}: {key} must be finite"):
        load_config(path)
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


@pytest.mark.parametrize(
    "section, key",
    [
        ("synth", "seed"),
        ("synth", "mode_count"),
        ("split", "seed"),
        ("train", "hidden"),
        ("train", "seed"),
        ("train", "patience"),
        ("evaluate", "seed"),
    ],
)
def test_negative_integer_rejected_at_load(tmp_path, capsys, section, key):
    path = write_config(tmp_path, {section: {key: -1}})
    with pytest.raises(ConfigError, match=f"{section}.*{key} must not be negative"):
        load_config(path)
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
