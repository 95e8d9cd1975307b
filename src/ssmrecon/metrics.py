"""Mask- and mesh-level evaluation metrics.

Mesh comparisons sample each surface area-uniformly and measure exact
point-to-triangle distances against the other surface. Chamfer distance is
the sum of the two directed mean distances; mean surface distance is their
average, so msd == chamfer / 2 by construction. scipy is imported inside
`mask_metrics`, so loading the package does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .mesh import TriMesh, surface_samples
from .spatial import SurfaceIndex

DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class MaskMetrics:
    accuracy: float
    dice: float
    iou: float
    hausdorff_mm: float


@dataclass(frozen=True)
class MeshMetrics:
    chamfer_mm: float
    msd_mm: float


def _boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """(n, 2) indices of on-pixels with at least one off 4-neighbour."""
    m = mask.astype(bool)
    padded = np.pad(m, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return np.argwhere(m & ~interior)


def mask_metrics(pred: np.ndarray, truth: np.ndarray, spacing: float) -> MaskMetrics:
    """Accuracy, Dice, IoU and boundary Hausdorff distance between binary masks.

    ``spacing`` is isotropic mm per pixel. Two empty masks score perfect
    overlap with zero Hausdorff distance; empty-vs-nonempty scores zero
    overlap and the grid diagonal as a sentinel Hausdorff value.
    """
    from scipy.spatial import cKDTree

    p = np.asarray(pred).astype(bool)
    t = np.asarray(truth).astype(bool)
    if p.shape != t.shape:
        raise DataError(f"mask shapes differ: {p.shape} vs {t.shape}")
    if spacing <= 0:
        raise DataError("spacing must be positive")
    tp = float(np.count_nonzero(p & t))
    fp = float(np.count_nonzero(p & ~t))
    fn = float(np.count_nonzero(~p & t))
    tn = float(np.count_nonzero(~p & ~t))
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 1.0

    p_empty, t_empty = not p.any(), not t.any()
    if p_empty and t_empty:
        return MaskMetrics(accuracy, 1.0, 1.0, 0.0)
    if p_empty != t_empty:
        h, w = p.shape
        return MaskMetrics(accuracy, 0.0, 0.0, float(spacing * np.hypot(h, w)))

    dice = 2.0 * tp / (2.0 * tp + fp + fn)
    iou = tp / (tp + fp + fn)
    bp = _boundary_pixels(p).astype(np.float64)
    bt = _boundary_pixels(t).astype(np.float64)
    d_pt = cKDTree(bt).query(bp)[0].max()
    d_tp = cKDTree(bp).query(bt)[0].max()
    return MaskMetrics(accuracy, dice, iou, float(spacing * max(d_pt, d_tp)))


@dataclass(frozen=True)
class SampledSurface:
    """A mesh's ``n`` seeded surface samples and its closest-point index."""

    samples: np.ndarray
    index: SurfaceIndex
    n: int
    seed: int


def sampled_surface(mesh: TriMesh, n: int = DEFAULT_SAMPLES, seed: int = 0) -> SampledSurface:
    """Sample and index ``mesh`` once, for several comparisons with the same ``n`` and ``seed``."""
    if mesh.is_empty:
        raise DataError("mesh metrics need non-empty meshes")
    return SampledSurface(surface_samples(mesh, n, seed), SurfaceIndex(mesh), n, seed)


# A mesh, or one already sampled and indexed by ``sampled_surface``.
Surface = TriMesh | SampledSurface


def _sampled(surface: Surface, n: int, seed: int) -> SampledSurface:
    if not isinstance(surface, SampledSurface):
        return sampled_surface(surface, n, seed)
    if (surface.n, surface.seed) != (n, seed):
        raise DataError(
            f"surface was sampled with n={surface.n}, seed={surface.seed}; "
            f"this comparison asks for n={n}, seed={seed}"
        )
    return surface


def chamfer(mesh_a: Surface, mesh_b: Surface, n: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Sum of the two directed mean sample-to-surface distances (mm)."""
    return mesh_metrics(mesh_a, mesh_b, n, seed).chamfer_mm


def msd(mesh_a: Surface, mesh_b: Surface, n: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Average of the two directed mean distances (mm); equals chamfer / 2."""
    return mesh_metrics(mesh_a, mesh_b, n, seed).msd_mm


def mesh_metrics(mesh_a: Surface, mesh_b: Surface, n: int = DEFAULT_SAMPLES, seed: int = 0) -> MeshMetrics:
    """Chamfer and mean surface distance computed from one sampling pass.

    Either side may be a ``SampledSurface``, so one surface can be sampled
    and indexed once and compared many times; it must have been sampled
    with this ``n`` and ``seed``.
    """
    a, b = _sampled(mesh_a, n, seed), _sampled(mesh_b, n, seed)
    d_ab = float(b.index.query(a.samples)[1].mean())
    d_ba = float(a.index.query(b.samples)[1].mean())
    return MeshMetrics(d_ab + d_ba, (d_ab + d_ba) / 2.0)


def rmse(pred, truth) -> float:
    """Root mean squared error between two equal-length value lists."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.size != t.size:
        raise DataError(f"length mismatch: {p.size} vs {t.size}")
    if p.size == 0:
        raise DataError("need at least one value")
    return float(np.sqrt(np.mean((p - t) ** 2)))
