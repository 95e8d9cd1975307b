import json

import pytest

from ssmrecon.config import load_config
from ssmrecon.errors import ConfigError


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
    assert cfg.fit.smoothness == 1.0


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(write_config(tmp_path, {"slicerr": {}}))


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
        ("evaluate", "oracle_injection", "no"),
        ("synth", "n", 4.5),
        ("train", "epochs", 2.5),
        ("evaluate", "samples", 10.5),
    ],
)
def test_value_of_wrong_type_rejected_at_load(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.*{key}"):
        load_config(write_config(tmp_path, {section: {key: value}}))
