import json
import re

import numpy as np
import pytest

from ssmrecon import mesh as M
from ssmrecon.errors import DataError
from ssmrecon.register import generalized_procrustes
from ssmrecon.shape_space import build_ssm
from ssmrecon.synth import SynthConfig, generate_population, load_population_manifest, write_population


def test_same_config_reproduces_population():
    cfg = SynthConfig(n=4, seed=31, jitter_levels=(2, 3))
    a, vols_a = generate_population(cfg)
    b, vols_b = generate_population(cfg)
    assert vols_a == vols_b
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.vertices, mb.vertices)
        assert np.array_equal(ma.faces, mb.faces)


def test_volumes_inside_configured_range():
    cfg = SynthConfig(n=20, seed=1, volume_range=(800.0, 1600.0), jitter_levels=(2,))
    meshes, vols = generate_population(cfg)
    for mesh, vol in zip(meshes, vols):
        assert 800.0 <= vol <= 1600.0
        assert M.signed_volume(mesh) == pytest.approx(vol, abs=1e-9)
    assert 800.0 <= np.mean(vols) <= 1600.0


def test_meshes_closed_and_outward():
    cfg = SynthConfig(n=6, seed=2, jitter_levels=(2, 3))
    meshes, _ = generate_population(cfg)
    for mesh in meshes:
        assert len(M.boundary_edges(mesh)) == 0
        assert M.signed_volume(mesh) > 0.0


def test_distinct_seeds_distinct_meshes():
    a, _ = generate_population(SynthConfig(n=3, seed=100, jitter_levels=(2,)))
    b, _ = generate_population(SynthConfig(n=3, seed=101, jitter_levels=(2,)))
    for ma, mb in zip(a, b):
        if ma.n_vertices == mb.n_vertices:
            assert np.abs(ma.vertices - mb.vertices).max() > 0.0


def test_zero_amplitude_population_is_pure_scale_family():
    cfg = SynthConfig(n=12, seed=4, amplitude=0.0, jitter_levels=(2,))
    meshes, _ = generate_population(cfg)
    aligned = generalized_procrustes(meshes)
    space = build_ssm(aligned, 1)
    rows = np.stack([m.vertices.ravel() for m in aligned])
    total_variance = float(((rows - rows.mean(axis=0)) ** 2).sum(axis=1).mean())
    explained = float(space.score_scale[0] ** 2)
    assert explained / total_variance >= 0.99


def test_tessellation_jitter_draws_from_set():
    cfg = SynthConfig(n=10, seed=6, jitter_levels=(2, 3))
    meshes, _ = generate_population(cfg)
    counts = {m.n_vertices for m in meshes}
    assert counts <= {162, 642}
    assert len(counts) == 2  # both levels appear for this seed


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n=1)
    with pytest.raises(DataError):
        SynthConfig(amplitude=0.6)
    with pytest.raises(DataError):
        SynthConfig(volume_range=(1600.0, 800.0))


def test_population_manifest_round_trip(tmp_path):
    cfg = SynthConfig(n=3, seed=8, jitter_levels=(2,))
    meshes, vols = generate_population(cfg)
    write_population(meshes, vols, cfg, tmp_path)
    doc = load_population_manifest(tmp_path)
    assert sorted(doc["subjects"]) == ["s000", "s001", "s002"]
    for i, sid in enumerate(sorted(doc["subjects"])):
        assert doc["subjects"][sid]["volume_cm3"] == vols[i]
        loaded = M.load_mesh(tmp_path / f"{sid}.obj")
        assert M.signed_volume(loaded) == pytest.approx(vols[i], abs=1e-9)


@pytest.mark.parametrize("sid", ["", ".", "..", "../s000", "a/b", "a\\b", "/abs"])
def test_subject_id_must_be_one_path_component(tmp_path, sid):
    cfg = SynthConfig(n=2, seed=8, jitter_levels=(1,))
    path = write_population(*generate_population(cfg), cfg, tmp_path)
    doc = json.loads(path.read_text())
    doc["subjects"][sid] = doc["subjects"].pop("s001")
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"population.json: subject id {re.escape(repr(sid))} is not one plain path"):
        load_population_manifest(tmp_path)
