"""Exact nearest-point queries against triangle mesh surfaces.

The accelerated path prunes candidate triangles with a k-d tree over face
centroids, then refines exactly; a brute-force path evaluates every
triangle and is used both as a fallback and as a test oracle.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError
from .mesh import TriMesh

_KNN_CANDIDATES = 8


def closest_on_triangles(points: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Closest point on each triangle to each query point, elementwise.

    Parameters
    ----------
    points : (n, 3) array
    tri : (n, 3, 3) array
        One triangle per query point (corner-major).

    Returns
    -------
    (n, 3) array of closest points. Implements the standard region
    classification over the triangle's barycentric cells.
    """
    p = np.asarray(points, dtype=np.float64)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a

    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    # vertex A
    m = (d1 <= 0) & (d2 <= 0)
    out[m] = a[m]
    done |= m
    # vertex B
    m = ~done & (d3 >= 0) & (d4 <= d3)
    out[m] = b[m]
    done |= m
    # vertex C
    m = ~done & (d6 >= 0) & (d5 <= d6)
    out[m] = c[m]
    done |= m
    # edge AB
    vc = d1 * d4 - d3 * d2
    m = ~done & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = d1[m] - d3[m]
    t = np.where(denom != 0, d1[m] / np.where(denom != 0, denom, 1.0), 0.0)
    out[m] = a[m] + t[:, None] * ab[m]
    done |= m
    # edge AC
    vb = d5 * d2 - d1 * d6
    m = ~done & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = d2[m] - d6[m]
    t = np.where(denom != 0, d2[m] / np.where(denom != 0, denom, 1.0), 0.0)
    out[m] = a[m] + t[:, None] * ac[m]
    done |= m
    # edge BC
    va = d3 * d6 - d5 * d4
    m = ~done & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4[m] - d3[m]) + (d5[m] - d6[m])
    t = np.where(denom != 0, (d4[m] - d3[m]) / np.where(denom != 0, denom, 1.0), 0.0)
    out[m] = b[m] + t[:, None] * (c[m] - b[m])
    done |= m
    # interior
    m = ~done
    if m.any():
        denom = va[m] + vb[m] + vc[m]
        denom = np.where(denom != 0, denom, 1.0)
        v = vb[m] / denom
        w = vc[m] / denom
        out[m] = a[m] + v[:, None] * ab[m] + w[:, None] * ac[m]
    return out


def closest_points_brute(points: np.ndarray, mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Exact closest surface points by evaluating every triangle.

    Returns (closest, distances). Quadratic in points x faces; intended for
    small meshes and as the oracle for the accelerated path.
    """
    if mesh.is_empty:
        raise DataError("cannot query an empty mesh")
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = mesh.triangle_corners()
    n, f = len(p), len(tri)
    best_d2 = np.full(n, np.inf)
    best_pt = np.zeros((n, 3))
    # chunk faces to bound the (n * chunk) working set to ~100 MB
    chunk = max(1, int(500_000 / max(n, 1)))
    for start in range(0, f, chunk):
        t = tri[start : start + chunk]
        m = len(t)
        pp = np.repeat(p, m, axis=0)
        tt = np.tile(t, (n, 1, 1))
        cand = closest_on_triangles(pp, tt).reshape(n, m, 3)
        d2 = ((cand - p[:, None, :]) ** 2).sum(axis=2)
        idx = d2.argmin(axis=1)
        dmin = d2[np.arange(n), idx]
        better = dmin < best_d2
        best_d2[better] = dmin[better]
        best_pt[better] = cand[np.arange(n), idx][better]
    return best_pt, np.sqrt(best_d2)


class SurfaceIndex:
    """Exact nearest-surface queries accelerated by a centroid k-d tree.

    Candidates from a k-NN centroid query give an upper bound on the true
    distance; every face whose centroid ball could still beat that bound is
    then checked exactly, so results match the brute-force path.
    """

    def __init__(self, mesh: TriMesh):
        if mesh.is_empty:
            raise DataError("cannot index an empty mesh")
        self.mesh = mesh
        self.tri = mesh.triangle_corners()
        self.centroids = self.tri.mean(axis=1)
        # max distance from any centroid to its triangle's farthest corner
        spread = np.linalg.norm(self.tri - self.centroids[:, None, :], axis=2).max(axis=1)
        self.max_spread = float(spread.max())
        self.tree = cKDTree(self.centroids)

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (closest points, distances) for an (n, 3) array of queries."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = len(p)
        f = len(self.tri)
        if f <= _KNN_CANDIDATES * 4:
            return closest_points_brute(p, self.mesh)

        k = min(_KNN_CANDIDATES, f)
        _, knn_idx = self.tree.query(p, k=k)
        knn_idx = np.atleast_2d(knn_idx)
        flat_pts = np.repeat(p, k, axis=0)
        cand = closest_on_triangles(flat_pts, self.tri[knn_idx.ravel()]).reshape(n, k, 3)
        d2 = ((cand - p[:, None, :]) ** 2).sum(axis=2)
        sel = d2.argmin(axis=1)
        best_pt = cand[np.arange(n), sel]
        best_d = np.sqrt(d2[np.arange(n), sel])

        # any face whose centroid lies farther than best + spread cannot win
        radii = best_d + self.max_spread + 1e-12
        balls = self.tree.query_ball_point(p, radii)
        counts = np.fromiter((len(b) for b in balls), dtype=np.int64, count=n)
        if counts.sum() == 0:
            return best_pt, best_d
        flat_faces = np.concatenate([np.asarray(b, dtype=np.int64) for b in balls if len(b)])
        owners = np.repeat(np.arange(n), counts)
        # faces the k-NN pass already tested cannot beat best_d strictly
        fresh = ~(knn_idx[owners] == flat_faces[:, None]).any(axis=1)
        owners, flat_faces = owners[fresh], flat_faces[fresh]
        cand = closest_on_triangles(p[owners], self.tri[flat_faces])
        d = np.linalg.norm(cand - p[owners], axis=1)
        order = np.argsort(d, kind="stable")
        owners_sorted = owners[order]
        first = np.full(n, -1, dtype=np.int64)
        pos_first = np.unique(owners_sorted, return_index=True)
        first[pos_first[0]] = order[pos_first[1]]
        has = first >= 0
        better = np.zeros(n, dtype=bool)
        better[has] = d[first[has]] < best_d[has]
        best_pt[better] = cand[first[better]]
        best_d[better] = d[first[better]]
        return best_pt, best_d


def closest_points(points: np.ndarray, mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """One-shot accelerated exact query; build a SurfaceIndex for repeated use."""
    return SurfaceIndex(mesh).query(points)


def nearest_surface_distance(point, mesh: TriMesh) -> float:
    """Exact minimum distance (mm) from a single point to the mesh surface."""
    _, d = closest_points(np.asarray(point, dtype=np.float64).reshape(1, 3), mesh)
    return float(d[0])
