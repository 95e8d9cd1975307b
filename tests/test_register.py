import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation, rotation_about_z

from ssmrecon import mesh as M
from ssmrecon import metrics
from ssmrecon.errors import DataError, NumericalError
from ssmrecon.register import (
    _FIT_TOL_MM,
    RigidTransform,
    generalized_procrustes,
    nonrigid_fit,
    rigid_align,
    smoothing_system,
)


# ---------------------------------------------------------------------------
# rigid_align


def test_identity_when_source_equals_target():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 10, size=(30, 3))
    tf = rigid_align(pts, pts)
    assert np.allclose(tf.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(tf.translation, 0.0, atol=1e-12)


def test_recovers_constructed_transform():
    rng = np.random.default_rng(1)
    src = rng.uniform(0, 10, size=(50, 3))
    rot = rotation_about_z(np.deg2rad(30.0))
    shift = np.array([5.0, 0.0, 0.0])
    tf = rigid_align(src, src @ rot.T + shift)
    assert np.abs(tf.rotation - rot).max() < 1e-9
    assert np.abs(tf.translation - shift).max() < 1e-9


def test_noisy_alignment_residual_bounded():
    rng = np.random.default_rng(2)
    src = rng.uniform(0, 20, size=(200, 3))
    rot = random_rotation(rng)
    sigma = 0.1
    tgt = src @ rot.T + np.array([1.0, -2.0, 3.0]) + rng.normal(0, sigma, size=src.shape)
    tf = rigid_align(src, tgt)
    residual = tf.apply(src) - tgt
    rms = np.sqrt((residual**2).sum(axis=1).mean())
    assert rms <= 3.0 * sigma


def test_degenerate_collinear_rejected():
    line = np.outer(np.arange(10.0), [1.0, 2.0, 3.0])
    with pytest.raises(NumericalError, match="degenerate"):
        rigid_align(line, line + 1.0)


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        rigid_align(np.zeros((4, 3)), np.zeros((5, 3)))


@given(seed=st.integers(0, 10_000), squash=st.floats(min_value=0.0, max_value=0.05))
@settings(max_examples=40, deadline=None)
def test_never_returns_reflection(seed, squash):
    rng = np.random.default_rng(seed)
    src = rng.uniform(-5, 5, size=(20, 3))
    src[:, 2] *= squash  # near-planar configurations included
    rot = random_rotation(rng)
    tgt = src @ rot.T + rng.normal(0, 0.2, size=src.shape)
    tf = rigid_align(src, tgt)
    assert np.linalg.det(tf.rotation) == pytest.approx(1.0, abs=1e-9)


def test_rigid_transform_rejects_reflection():
    flip = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NumericalError):
        RigidTransform(flip, np.zeros(3))


# ---------------------------------------------------------------------------
# nonrigid_fit


def test_fit_identity_is_fixed_point(blob_pair):
    template, _ = blob_pair
    fitted, log = nonrigid_fit(template, template)
    assert np.abs(fitted.vertices - template.vertices).max() < _FIT_TOL_MM
    # every vertex lies on the target (d_i == 0), so no plane step moves the pose
    assert log.plane_rounds == 0


def test_fit_recovers_rigid_motion(blob_pair):
    template, _ = blob_pair
    rot = rotation_about_z(np.deg2rad(30.0))
    # the second target lies about 500 mm from the template
    for shift in ([5.0, -3.0, 8.0], [300.0, -250.0, 320.0]):
        target = template.with_vertices(template.vertices @ rot.T + np.array(shift))
        fitted, log = nonrigid_fit(template, target)
        assert metrics.mesh_metrics(fitted, target, 4000, 0).msd_mm < 0.1
        assert log.plane_rounds > 0 and not log.plane_capped


def test_fit_far_target_reaches_same_surface_distance(blob_pair):
    template, target = blob_pair
    _, near = nonrigid_fit(template, target)
    far_target = target.with_vertices(target.vertices + np.array([1000.0, -700.0, 400.0]))
    _, far = nonrigid_fit(template, far_target)
    assert far.iterations_run == near.iterations_run
    assert far.mean_surface_distance[-1] == pytest.approx(near.mean_surface_distance[-1], rel=1e-9)


def test_fit_sphere_target_is_not_rotated():
    # a sphere leaves rotation about its centre unconstrained: the plane steps
    # must not fail on it, nor turn the template
    target = M.icosphere(60.0, 3)
    template = M.icosphere(72.0, 3)
    template = template.with_vertices(template.vertices + np.array([300.0, -250.0, 320.0]))
    fitted, log = nonrigid_fit(template, target)
    assert not (log.plane_capped or log.vertex_capped)
    assert np.abs(fitted.vertices - target.vertices).max() < 0.05


def test_fit_tracks_smooth_bump(blob_pair):
    template, _ = blob_pair
    centre = template.centroid()
    v = template.vertices - centre
    r = np.linalg.norm(v, axis=1)
    u = v / r[:, None]
    bump = 1.0 + 0.10 * np.exp(-(((u[:, 0] - 1.0) ** 2) + u[:, 1] ** 2 + u[:, 2] ** 2) / 0.3)
    target = template.with_vertices(centre + v * bump[:, None])
    fitted, _ = nonrigid_fit(template, target)
    assert metrics.mesh_metrics(fitted, target, 4000, 0).msd_mm < 0.02 * np.linalg.norm(np.ptp(target.vertices, axis=0))


def test_fit_preserves_topology(blob_pair):
    template, target = blob_pair
    fitted, _ = nonrigid_fit(template, target)
    assert fitted.n_vertices == template.n_vertices
    assert np.array_equal(fitted.faces, template.faces)


def test_fit_objective_non_increasing(blob_pair):
    template, target = blob_pair
    _, log = nonrigid_fit(template, target)
    obj = np.asarray(log.objective)
    assert (np.diff(obj) <= 1e-9 * max(1.0, obj[0])).all()


def test_fits_on_a_pool_share_one_factorization(blob_pair, monkeypatch):
    """Three fits from two threads factor the template's system once, with the bits of fresh factorizations."""
    template, target = blob_pair
    targets = [
        target,
        target.with_vertices(target.vertices * 1.05),
        template.with_vertices(template.vertices @ rotation_about_z(0.2).T + np.array([3.0, -2.0, 1.0])),
    ]
    fresh = [nonrigid_fit(M.TriMesh(template.vertices, template.faces), t) for t in targets]

    factorized = scipy.sparse.linalg.factorized
    factored = []
    monkeypatch.setattr(scipy.sparse.linalg, "factorized", lambda a: factored.append(a) or factorized(a))
    shared_template = M.TriMesh(template.vertices, template.faces)
    with ThreadPoolExecutor(max_workers=2) as pool:
        shared = list(pool.map(lambda t: nonrigid_fit(shared_template, t), targets))

    assert len(factored) == 1
    for (fresh_fit, fresh_log), (shared_fit, shared_log) in zip(fresh, shared):
        assert np.array_equal(shared_fit.vertices, fresh_fit.vertices)
        assert shared_log == fresh_log


def test_smoothing_system_factored_once_under_thread_contention(monkeypatch):
    """Eight threads, switching as often as the interpreter allows, all get the one factorization."""
    template = M.icosphere(30.0, 2)
    factorized = scipy.sparse.linalg.factorized
    factored = []
    monkeypatch.setattr(scipy.sparse.linalg, "factorized", lambda a: factored.append(a) or factorized(a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(smoothing_system, template) for _ in range(32)]
            systems = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(factored) == 1
    assert all(system is systems[0] for system in systems)


def test_fit_rejects_open_template(blob_pair):
    _, target = blob_pair
    cube = M.cube(10.0)
    open_template = M.TriMesh(cube.vertices, cube.faces[:-1])
    with pytest.raises(DataError, match="not closed"):
        nonrigid_fit(open_template, target)


# ---------------------------------------------------------------------------
# generalized_procrustes


def test_procrustes_identical_population(blob_pair):
    template, _ = blob_pair
    out = generalized_procrustes([template, template, template])
    for mesh in out:
        assert np.abs(mesh.centroid()).max() < 1e-9
        assert np.abs(mesh.vertices - out[0].vertices).max() < 1e-9


def test_procrustes_aligns_rotated_copies(blob_pair):
    template, _ = blob_pair
    rot = rotation_about_z(np.deg2rad(40.0))
    moved = template.with_vertices(template.vertices @ rot.T + 7.0)
    out = generalized_procrustes([template, moved])
    assert np.abs(out[0].vertices - out[1].vertices).max() < 1e-6


def test_procrustes_centroids_at_origin(aligned_population_20):
    for mesh in aligned_population_20:
        assert np.abs(mesh.centroid()).max() < 1e-9


def test_procrustes_idempotent(aligned_population_20):
    again = generalized_procrustes(aligned_population_20)
    for a, b in zip(aligned_population_20, again):
        assert np.abs(a.vertices - b.vertices).max() < 1e-6


def test_procrustes_topology_mismatch_rejected(blob_pair):
    template, other = blob_pair  # different tessellation levels
    with pytest.raises(DataError, match="topology"):
        generalized_procrustes([template, other])
