import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmrecon import mesh as M
from ssmrecon import metrics
from ssmrecon.errors import DataError, NumericalError
from ssmrecon.shape_space import build_ssm, load_ssm, project, reconstruct, save_ssm


@pytest.fixture(scope="module")
def space20(aligned_population_20):
    return build_ssm(aligned_population_20, 10)


# ---------------------------------------------------------------------------
# build_ssm


def test_identical_population_is_degenerate(icosphere10):
    with pytest.raises(NumericalError, match="degenerate population"):
        build_ssm([icosphere10] * 5, 1)


def test_two_member_population_hand_computed(icosphere10):
    direction = np.zeros(icosphere10.n_vertices * 3)
    rng = np.random.default_rng(0)
    direction[:] = rng.normal(size=direction.size)
    other = icosphere10.with_vertices(
        icosphere10.vertices + direction.reshape(-1, 3)
    )
    space = build_ssm([icosphere10, other], 1)
    # mean is the midpoint
    assert np.allclose(space.mean, (icosphere10.vertices.ravel() + other.vertices.ravel()) / 2)
    # the single component is parallel to the difference, scale is half its norm
    unit = direction / np.linalg.norm(direction)
    dot = float(space.components[:, 0] @ unit)
    assert abs(abs(dot) - 1.0) < 1e-9
    assert space.score_scale[0] == pytest.approx(np.linalg.norm(direction) / 2.0, rel=1e-12)


def test_k_too_large_rejected(aligned_population_20):
    with pytest.raises(DataError, match="too large"):
        build_ssm(aligned_population_20, 20)


def test_topology_mismatch_rejected(aligned_population_20):
    other = M.icosphere(10.0, 2)  # coarser tessellation than the population
    with pytest.raises(DataError, match="topology"):
        build_ssm(aligned_population_20 + [other], 2)


def test_components_orthonormal(space20):
    gram = space20.components.T @ space20.components
    assert np.abs(gram - np.eye(space20.n_components)).max() < 1e-9


def test_training_scores_standardized(aligned_population_20, space20):
    scores = np.stack([project(space20, m) for m in aligned_population_20])
    assert np.abs(scores.mean(axis=0)).max() < 1e-8
    assert np.abs(scores.std(axis=0) - 1.0).max() < 1e-8


# ---------------------------------------------------------------------------
# project / reconstruct


def test_mean_mesh_projects_to_zero(space20):
    assert np.abs(project(space20, space20.mean_mesh())).max() < 1e-12


def test_project_recovers_parameters(space20):
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=space20.n_components)
    again = project(space20, reconstruct(space20, alpha))
    assert np.abs(again - alpha).max() < 1e-9


def test_full_rank_space_reproduces_members(aligned_population_20):
    space = build_ssm(aligned_population_20, 19)
    for mesh in aligned_population_20:
        rebuilt = reconstruct(space, project(space, mesh))
        rel = np.abs(rebuilt.vertices - mesh.vertices).max() / np.linalg.norm(np.ptp(mesh.vertices, axis=0))
        assert rel < 1e-8


def test_zero_parameters_give_mean(space20):
    mesh = reconstruct(space20, np.zeros(space20.n_components))
    assert np.array_equal(mesh.vertices.ravel(), space20.mean)


def test_one_hot_parameter_adds_scaled_component(space20):
    k = 3
    alpha = np.zeros(space20.n_components)
    alpha[k] = 1.0
    mesh = reconstruct(space20, alpha)
    expected = space20.mean + space20.components[:, k] * space20.score_scale[k]
    assert np.abs(mesh.vertices.ravel() - expected).max() < 1e-12


def test_reconstruction_error_decreases_with_k(aligned_population_20):
    held_out = aligned_population_20[-1]
    training = aligned_population_20[:-1]
    errors = []
    for k in (5, 10, 18):
        space = build_ssm(training, k)
        rebuilt = reconstruct(space, project(space, held_out))
        errors.append(metrics.mesh_metrics(rebuilt, held_out, 2000, 0).msd_mm)
    assert errors[0] >= errors[1] >= errors[2]


def test_training_energy_non_increasing_in_k(aligned_population_20):
    sse = []
    for k in (2, 5, 9, 15):
        space = build_ssm(aligned_population_20, k)
        total = 0.0
        for mesh in aligned_population_20:
            rebuilt = reconstruct(space, project(space, mesh))
            total += float(((rebuilt.vertices - mesh.vertices) ** 2).sum())
        sse.append(total)
    assert all(a >= b - 1e-9 for a, b in zip(sse, sse[1:]))


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_reconstruct_is_affine(space20, seed):
    rng = np.random.default_rng(seed)
    a1 = rng.normal(size=space20.n_components)
    a2 = rng.normal(size=space20.n_components)
    mid = reconstruct(space20, (a1 + a2) / 2.0)
    expect = (reconstruct(space20, a1).vertices + reconstruct(space20, a2).vertices) / 2.0
    assert np.abs(mid.vertices - expect).max() < 1e-9


def test_parameter_length_checked(space20):
    with pytest.raises(DataError):
        reconstruct(space20, np.zeros(space20.n_components + 1))
    with pytest.raises(DataError):
        reconstruct(space20, np.full(space20.n_components, np.nan))


def test_project_topology_checked(space20):
    with pytest.raises(DataError, match="topology"):
        project(space20, M.icosphere(10.0, 2))


# ---------------------------------------------------------------------------
# Persistence


def test_round_trip_bit_identical(tmp_path, space20):
    save_ssm(space20, tmp_path / "model")
    again = load_ssm(tmp_path / "model")
    assert np.array_equal(again.mean, space20.mean)
    assert np.array_equal(again.components, space20.components)
    assert np.array_equal(again.score_scale, space20.score_scale)
    assert np.array_equal(again.faces, space20.faces)
    assert again.n_population == space20.n_population


def test_manifest_payload_mismatch_rejected(tmp_path, space20):
    import json

    save_ssm(space20, tmp_path / "model")
    manifest_path = tmp_path / "model.ssm.json"
    doc = json.loads(manifest_path.read_text())
    doc["n_components"] = space20.n_components + 2
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="inconsisten"):
        load_ssm(tmp_path / "model")


def test_truncated_payload_rejected(tmp_path, space20):
    save_ssm(space20, tmp_path / "model")
    payload = tmp_path / "model.ssm.bin"
    payload.write_bytes(payload.read_bytes()[:-16])
    with pytest.raises(DataError, match="truncated|bytes"):
        load_ssm(tmp_path / "model")


def test_version_mismatch_rejected(tmp_path, space20):
    import json

    save_ssm(space20, tmp_path / "model")
    manifest_path = tmp_path / "model.ssm.json"
    doc = json.loads(manifest_path.read_text())
    doc["format_version"] = 99
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="format_version"):
        load_ssm(tmp_path / "model")
