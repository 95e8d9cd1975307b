import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_rotation

from ssmrecon import mesh as M
from ssmrecon.errors import DataError
from ssmrecon.metrics import mask_metrics, mesh_metrics, rmse, sampled_surface


# ---------------------------------------------------------------------------
# mask_metrics


def test_identical_masks_perfect_scores():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[2:6, 3:7] = 1
    m = mask_metrics(mask, mask, spacing=1.0)
    assert m.accuracy == 1.0
    assert m.dice == 1.0
    assert m.iou == 1.0
    assert m.hausdorff_mm == 0.0


def test_disjoint_masks_zero_overlap():
    a = np.zeros((8, 8), dtype=np.uint8)
    b = np.zeros((8, 8), dtype=np.uint8)
    a[0:2, 0:2] = 1
    b[6:8, 6:8] = 1
    m = mask_metrics(a, b, spacing=1.0)
    assert m.dice == 0.0
    assert m.iou == 0.0


def test_shifted_mask_hand_counts():
    truth = np.zeros((4, 4), dtype=np.uint8)
    truth[1:3, 0:3] = 1  # 6 pixels
    pred = np.zeros((4, 4), dtype=np.uint8)
    pred[1:3, 1:4] = 1  # truth shifted by one column
    m = mask_metrics(pred, truth, spacing=2.0)
    # overlap 4 px, fp 2, fn 2 -> dice = 8/12, iou = 4/8, acc = 12/16
    assert m.dice == pytest.approx(2 * 4 / (2 * 4 + 2 + 2))
    assert m.iou == pytest.approx(4 / 8)
    assert m.accuracy == pytest.approx(12 / 16)
    assert m.hausdorff_mm == pytest.approx(2.0)


def test_empty_mask_conventions():
    empty = np.zeros((6, 6), dtype=np.uint8)
    full = np.zeros((6, 6), dtype=np.uint8)
    full[2:4, 2:4] = 1
    both = mask_metrics(empty, empty, spacing=1.0)
    assert (both.dice, both.iou, both.hausdorff_mm) == (1.0, 1.0, 0.0)
    one = mask_metrics(empty, full, spacing=1.0)
    assert (one.dice, one.iou) == (0.0, 0.0)
    assert one.hausdorff_mm == pytest.approx(np.hypot(6, 6))


def test_dimension_mismatch_rejected():
    with pytest.raises(DataError):
        mask_metrics(np.zeros((4, 4)), np.zeros((5, 5)), 1.0)


@given(
    a=arrays(np.uint8, (12, 12), elements=st.integers(0, 1)),
    b=arrays(np.uint8, (12, 12), elements=st.integers(0, 1)),
)
@settings(max_examples=60, deadline=None)
def test_dice_iou_identity(a, b):
    m = mask_metrics(a, b, spacing=1.0)
    assert m.dice == pytest.approx(2 * m.iou / (1 + m.iou), abs=1e-12)


@given(
    a=arrays(np.uint8, (10, 10), elements=st.integers(0, 1)),
    b=arrays(np.uint8, (10, 10), elements=st.integers(0, 1)),
)
@settings(max_examples=40, deadline=None)
def test_hausdorff_symmetric(a, b):
    assert mask_metrics(a, b, 1.0).hausdorff_mm == mask_metrics(b, a, 1.0).hausdorff_mm


def test_hausdorff_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(15):
        masks = [(rng.random((9, 9)) < 0.35).astype(np.uint8) for _ in range(3)]
        if not all(m.any() for m in masks):
            continue
        h = lambda x, y: mask_metrics(x, y, 1.0).hausdorff_mm
        a, b, c = masks
        assert h(a, c) <= h(a, b) + h(b, c) + 1e-12


# ---------------------------------------------------------------------------
# chamfer / msd


def test_identical_meshes_zero(icosphere10):
    assert mesh_metrics(icosphere10, icosphere10, 2000, 0).chamfer_mm < 1e-9
    assert mesh_metrics(icosphere10, icosphere10, 2000, 0).msd_mm < 1e-9


def test_nested_spheres_analytic():
    inner = M.icosphere(10.0, 4)
    outer = M.icosphere(12.0, 4)
    assert mesh_metrics(inner, outer, 8000, 1).chamfer_mm == pytest.approx(4.0, rel=0.02)
    assert mesh_metrics(inner, outer, 8000, 1).msd_mm == pytest.approx(2.0, rel=0.02)


def test_chamfer_symmetric_exactly(blob_pair):
    a, b = blob_pair
    assert mesh_metrics(a, b, 2000, 7).chamfer_mm == mesh_metrics(b, a, 2000, 7).chamfer_mm


def test_msd_is_half_chamfer_exactly(blob_pair):
    a, b = blob_pair
    assert mesh_metrics(a, b, 2000, 7).msd_mm == mesh_metrics(a, b, 2000, 7).chamfer_mm / 2.0


def test_mesh_metrics_consistent(blob_pair):
    a, b = blob_pair
    both = mesh_metrics(a, b, 2000, 7)
    assert both.chamfer_mm == mesh_metrics(a, b, 2000, 7).chamfer_mm
    assert both.msd_mm == both.chamfer_mm / 2.0


def test_mesh_metrics_from_prepared_surfaces_exact(blob_pair):
    a, b = blob_pair
    both = mesh_metrics(a, b, 2000, 7)
    prep_a, prep_b = sampled_surface(a, 2000, 7), sampled_surface(b, 2000, 7)
    assert mesh_metrics(prep_a, prep_b, 2000, 7) == both
    assert mesh_metrics(a, prep_b, 2000, 7) == both
    assert mesh_metrics(prep_a, b, 2000, 7) == both
    assert mesh_metrics(prep_a, prep_b, 2000, 7).chamfer_mm == both.chamfer_mm


@pytest.mark.parametrize("n, seed", [(500, 7), (2000, 1)])
def test_prepared_surface_sampled_differently_rejected(blob_pair, n, seed):
    a, b = blob_pair
    with pytest.raises(DataError, match="sampled with n=2000, seed=7"):
        mesh_metrics(sampled_surface(a, 2000, 7), b, n, seed)


def test_rigid_motion_invariance(blob_pair):
    a, b = blob_pair
    base = mesh_metrics(a, b, 4000, 3).chamfer_mm
    rng = np.random.default_rng(8)
    rot = random_rotation(rng)
    shift = rng.uniform(-30, 30, 3)
    a2 = a.with_vertices(a.vertices @ rot.T + shift)
    b2 = b.with_vertices(b.vertices @ rot.T + shift)
    assert mesh_metrics(a2, b2, 4000, 3).chamfer_mm == pytest.approx(base, rel=0.01)


def test_empty_mesh_rejected():
    with pytest.raises(DataError, match="^mesh has no faces$"):
        M.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))


# ---------------------------------------------------------------------------
# rmse


def test_rmse_zero_on_equal():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_rmse_hand_value():
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)


def test_rmse_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    diffs = [(x - y) ** 2 for x, y in zip(a, b)]
    oracle = (sum(diffs) / len(diffs)) ** 0.5
    assert rmse(a, b) == pytest.approx(oracle, abs=1e-12)


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_rmse_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    perm = rng.permutation(12)
    assert rmse(a, b) == pytest.approx(rmse(a[perm], b[perm]), abs=1e-12)


def test_rmse_length_mismatch():
    with pytest.raises(DataError):
        rmse([1.0], [1.0, 2.0])
