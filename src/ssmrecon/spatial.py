"""Exact nearest-point queries against triangle mesh surfaces.

`SurfaceIndex` gathers candidate triangles with a k-d tree over face
centroids, prunes them by a lower bound on the distance to each triangle (the
slab-disc that holds it), then refines exactly; `closest_points_brute`
evaluates every triangle and is the test oracle. Both return the closest point of the face
with the smallest squared distance and, among tied faces, the lowest face id,
so their points agree bit for bit. A query runs in fixed blocks of points,
so its working memory is set by the block size, not by the number of points.
scipy is imported where the tree is built, so commands that never index a
surface start without it.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import DataError
from .mesh import TriMesh

# Largest coordinate magnitude, in mm, of an indexed mesh or a query point. The
# exact test multiplies pairs of dot products (d1 * d4 in closest_on_triangles),
# degree 4 in the coordinates: below 1e60 mm they stay under about 1e250. On
# triangle soups the query stays exact up to 1e75 mm, and by 1e80 mm these
# products overflow to inf and it returns wrong rows or fails.
MAX_COORDINATE_MM = 1e60

# Points per block of `SurfaceIndex.query`. A block's candidate arrays take about 100 bytes
# per candidate, 7 kB per point for liver samples against another liver (68 candidates), so a
# query's temporaries stay near 15 MB however many points it has. Smaller blocks cost more per
# point: each block pays about 0.4 ms of fixed calls, and more handoffs of the interpreter lock
# between the pool's threads.
_QUERY_BLOCK_POINTS = 2048


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

    Returns (closest, distances). Quadratic in points x faces; the oracle for
    `SurfaceIndex`. Among tied faces the lowest face id wins.
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

    The face of the nearest centroid bounds each point's distance from above.
    The ball of that bound plus the largest spread (centroid to farthest
    corner) around each point holds every centroid that could matter; each
    face in it is then bounded from below by the slab-disc that holds its
    triangle, and only faces whose bound does not exceed the upper bound are
    tested exactly. The winner is the smallest squared distance, ties going
    to the lowest face id: the rule of `closest_points_brute`, so points and
    distances match it exactly.

    The slab-disc of face f is centred on its centroid ``c_f`` with unit
    normal ``n_f``: half-thickness ``t_f = max_k |n_f . (v_k - c_f)|`` along
    the normal and radius ``spread_f`` in the plane. Every corner lies in it,
    and so, by convexity, does the whole triangle, whatever direction
    rounding gave ``n_f``, as long as its length is 1; ``t_f`` is about 0 for
    an ordinary triangle and absorbs the normal's error on a sliver. Splitting ``p - c_f`` into a normal part
    ``h`` and an in-plane part of length ``r`` then gives the lower bound
    ``sqrt(max(0, |h| - t_f)^2 + max(0, r - spread_f)^2)`` on the distance
    from ``p`` to any point of the face. A zero-area face has a NaN normal
    and so a NaN bound, which never compares above the limit: it is kept.

    A query runs on consecutive blocks of ``_QUERY_BLOCK_POINTS`` points and
    writes each block's winners into its output arrays. The candidate lists
    and bound arrays live for one block at a time, so a query's working
    memory does not grow with its point count (evaluate's pool runs
    10,000-sample queries side by side). Each point's answer depends on that
    point alone, so the blocks change no bit.

    A mesh or query point with a coordinate beyond ``MAX_COORDINATE_MM`` is
    rejected with DataError, since the exact test's products would overflow.
    """

    def __init__(self, mesh: TriMesh):
        from scipy.spatial import cKDTree

        if mesh.is_empty:
            raise DataError("cannot index an empty mesh")
        if np.abs(mesh.vertices).max() > MAX_COORDINATE_MM:
            raise DataError(f"mesh coordinates must lie within +-{MAX_COORDINATE_MM:g} mm")
        self.mesh = mesh
        self.tri = mesh.triangle_corners()
        self.centroids = self.tri.mean(axis=1)
        offsets = self.tri - self.centroids[:, None, :]
        # distance from each centroid to its triangle's farthest corner
        self.spread = np.linalg.norm(offsets, axis=2).max(axis=1)
        self.max_spread = float(self.spread.max())
        normal = np.cross(self.tri[:, 1] - self.tri[:, 0], self.tri[:, 2] - self.tri[:, 0])
        with np.errstate(invalid="ignore"):
            # scaled to a largest component of 1 first, so that its length neither underflows
            # nor overflows and the normal has length 1 for tiny and huge faces alike
            normal /= np.abs(normal).max(axis=1, keepdims=True)
        self.normals = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        # half-thickness of the slab about the centroid that holds all three corners
        self.thickness = np.abs(np.einsum("fkj,fj->fk", offsets, self.normals)).max(axis=1)
        self.tree = cKDTree(self.centroids)

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (closest points, distances) for an (n, 3) array of queries."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if p.ndim != 2 or p.shape[1] != 3:
            raise DataError(f"query points must form an (n, 3) array, not one of shape {p.shape}")
        if not (np.abs(p) <= MAX_COORDINATE_MM).all():
            raise DataError(f"query points must be finite and lie within +-{MAX_COORDINATE_MM:g} mm")
        closest = np.empty_like(p)
        distances = np.empty(len(p))
        for start in range(0, len(p), _QUERY_BLOCK_POINTS):
            block = slice(start, start + _QUERY_BLOCK_POINTS)
            closest[block], distances[block] = self._query_block(p[block])
        return closest, distances

    def _query_block(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`query` for one block of validated points."""
        n = len(p)
        _, nearest = self.tree.query(p, k=1)
        bound = np.sqrt(((closest_on_triangles(p, self.tri[nearest]) - p) ** 2).sum(axis=1))
        # slack for rounding in the bounds, so no tied face is pruned; the absolute part covers
        # meshes so small (below ~1e-150 mm) that squared distances and the exact test underflow
        limit = bound + 1e-9 * (np.abs(p).max(axis=1) + bound + self.max_spread) + 1e-150

        # the winner below does not depend on candidate order, so the lists need no sorting
        balls = self.tree.query_ball_point(p, limit + self.max_spread, return_sorted=False)
        counts = np.fromiter(map(len, balls), dtype=np.int64, count=n)
        faces = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64, count=int(counts.sum()))
        del balls  # free the lists before the prune, where the block peaks in memory
        # the slab-disc lower bound, written ~(lb > limit) so that a NaN bound keeps its face
        d = np.repeat(p, counts, axis=0)
        d -= self.centroids.take(faces, axis=0)
        normal = self.normals.take(faces, axis=0)
        h = np.einsum("ij,ij->i", d, normal)
        d -= h[:, None] * normal
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        normal_gap = np.maximum(np.abs(h) - self.thickness.take(faces), 0.0)
        plane_gap = np.maximum(r - self.spread.take(faces), 0.0)
        keep = ~(np.sqrt(normal_gap**2 + plane_gap**2) > np.repeat(limit, counts))
        owners = np.repeat(np.arange(n), counts)[keep]
        faces = faces[keep]

        q = p.take(owners, axis=0)
        cand = closest_on_triangles(q, self.tri.take(faces, axis=0))
        d2 = ((cand - q) ** 2).sum(axis=1)
        # owners ascend, so each point's candidates form one segment, never empty:
        # the face of the nearest centroid is within the limit
        starts = np.flatnonzero(np.diff(owners, prepend=-1))
        tied = d2 == np.minimum.reduceat(d2, starts)[owners]
        lowest = np.minimum.reduceat(np.where(tied, faces, len(self.tri)), starts)
        first = np.flatnonzero(tied & (faces == lowest[owners]))
        return cand[first], np.sqrt(d2[first])


def closest_points(points: np.ndarray, mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """One-shot accelerated exact query; build a SurfaceIndex for repeated use."""
    return SurfaceIndex(mesh).query(points)


def nearest_surface_distance(point, mesh: TriMesh) -> float:
    """Exact minimum distance (mm) from a single point to the mesh surface."""
    _, d = closest_points(np.asarray(point, dtype=np.float64).reshape(1, 3), mesh)
    return float(d[0])
