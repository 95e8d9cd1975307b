"""Exact nearest-point queries against triangle mesh surfaces.

`SurfaceIndex` gathers candidate triangles from a k-d tree over face
centroids, with k-nearest-neighbour calls and a ball query for the few
largest balls, prunes them by a lower bound on the distance
to each triangle (the slab-disc that holds it), then refines exactly;
it returns the closest point of the face with the smallest squared distance
and, among tied faces, the lowest face id. The test oracle
``tests/oracles.py::closest_points_brute`` evaluates every triangle under the
same rule, so their points agree bit for bit. A query runs in blocks of at
most a fixed number of points, so its working memory is set by the block
size, not by the number of points. scipy is imported where the tree is
built, so commands that never index a surface start without it.
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

# Most points per block of `SurfaceIndex.query`; a query's points are split into the fewest
# blocks of equal size (within one point) that this allows. A block's candidate arrays take
# about 100 bytes per candidate, 7 kB per point for liver samples against another liver (68
# candidates), so a query's temporaries stay near 15 MB however many points it has. Smaller
# blocks cost more per point: each block pays about 0.4 ms of fixed calls, and more handoffs of
# the interpreter lock between the pool's threads.
_QUERY_BLOCK_POINTS = 2048

# Neighbours asked for in a point's k-nearest-neighbour call. A point whose ball holds more
# candidates is answered by a ball query instead. Registration balls hold a median of 6
# candidates and evaluate's 9-11, but up to about 60 against a 20,480-face surface, where a k-NN
# call costs more per candidate than a ball query: it keeps a heap of k and sorts it. With k = 64
# a fine-mesh build sends 0.01% of its registration points to the ball query, and evaluate
# 0.2-14% of its points against a 20,480-face surface, by seed.
_KNN_K = 64

# Points per k-nearest-neighbour call. The points are taken in order of ball radius and each
# call is bounded by the largest radius of its points, so the tree neither visits nor keeps
# centroids beyond it: the cost follows the candidates found, not k. A call's arrays (128 x k
# distances and face ids) stay in cache while its points are settled.
_BOUNDED_CALL_POINTS = 128


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


class SurfaceIndex:
    """Exact nearest-surface queries accelerated by a centroid k-d tree.

    The face of the nearest centroid bounds each point's distance from above.
    The ball of that bound plus the largest spread (centroid to farthest
    corner) around each point holds every centroid that could matter; each
    face in it is then bounded from below by the slab-disc that holds its
    triangle, and only faces whose bound does not exceed the upper bound are
    tested exactly. The winner is the smallest squared distance, ties going
    to the lowest face id: the rule of the exhaustive test oracle
    ``tests/oracles.py::closest_points_brute``, so points and distances match
    it exactly.

    The ball is gathered with k-nearest-neighbour calls, which return whole
    arrays and release the interpreter lock once per call, so the queries of
    the pool's threads run side by side (a ball query builds a Python list
    per point and takes the lock back for each). A k = 1 call gives each
    point's nearest centroid and so its ball. The points are then taken in
    order of ball radius, ``_BOUNDED_CALL_POINTS`` at a time, and asked for
    ``_KNN_K`` neighbours bounded by the largest radius among them (a
    neighbour the bound leaves out reads as infinitely far). A point whose
    k-th neighbour lies beyond its ball, or whose mesh has at most k faces,
    takes the neighbours inside its ball as candidates. The others, points
    far off the surface or near a fine one, hold more candidates than k,
    and one ball query gathers theirs: its cost follows the candidates,
    where a k-NN call with a larger k would keep and sort more neighbours
    per point than a ball query lists. An unbounded first call with k > 1
    would search past the ball for neighbours it then drops.

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

    A query runs on consecutive blocks of at most ``_QUERY_BLOCK_POINTS``
    points, as few as that allows and equal in size to within one point, and
    writes each block's winners into its output arrays. The candidate and
    bound arrays live for one block at a time, so a query's working
    memory does not grow with its point count (evaluate's pool runs
    10,000-sample queries side by side). Each point's answer depends on that
    point alone, so the blocks change no bit.

    A mesh or query point with a coordinate beyond ``MAX_COORDINATE_MM`` is
    rejected with DataError, since the exact test's products would overflow.
    """

    def __init__(self, mesh: TriMesh):
        from scipy.spatial import cKDTree

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
        blocks = -(-len(p) // _QUERY_BLOCK_POINTS)
        for b in range(blocks):
            block = slice(b * len(p) // blocks, (b + 1) * len(p) // blocks)
            closest[block], distances[block] = self._query_block(p[block])
        return closest, distances

    def _query_block(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`query` for one block of validated points."""
        n_faces = len(self.tri)
        _, nearest = self.tree.query(p, k=1)
        bound = np.sqrt(((closest_on_triangles(p, self.tri[nearest]) - p) ** 2).sum(axis=1))
        # slack for rounding in the bounds, so no tied face is pruned; the absolute part covers
        # meshes so small (below ~1e-150 mm) that squared distances and the exact test underflow
        limit = bound + 1e-9 * (np.abs(p).max(axis=1) + bound + self.max_spread) + 1e-150
        radius = limit + self.max_spread

        owner_parts, face_parts, crowded = [], [], []
        rows = np.argsort(radius)  # so that each call's bound is tight for its points
        k = min(_KNN_K, n_faces)
        for start in range(0, len(rows), _BOUNDED_CALL_POINTS):
            g = rows[start:start + _BOUNDED_CALL_POINTS]
            dist, nbrs = self.tree.query(p[g], k=k, distance_upper_bound=radius[g[-1]])
            dist, nbrs = dist.reshape(len(g), k), nbrs.reshape(len(g), k)
            # settled: the k-th neighbour lies beyond the ball, or every face is a neighbour
            settled = (dist[:, -1] > radius[g]) | (k == n_faces)
            at, col = np.nonzero((dist <= radius[g, None]) & settled[:, None])
            owner_parts.append(g[at])
            face_parts.append(nbrs[at, col])
            crowded.append(g[~settled])
        rows = np.concatenate(crowded)
        if len(rows):
            balls = self.tree.query_ball_point(p[rows], radius[rows], return_sorted=False)
            counts = np.fromiter(map(len, balls), dtype=np.int64, count=len(rows))
            owner_parts.append(np.repeat(rows, counts))
            face_parts.append(np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64, count=int(counts.sum())))
            del balls  # free the lists before the prune, where the block peaks in memory
        # each point's candidates form one segment, never empty (the face of its nearest centroid
        # is within the limit), and the segments come in order of radius, not of point
        owners = np.concatenate(owner_parts)
        faces = np.concatenate(face_parts)

        # the slab-disc lower bound, written ~(lb > limit) so that a NaN bound keeps its face
        d = p.take(owners, axis=0)
        d -= self.centroids.take(faces, axis=0)
        normal = self.normals.take(faces, axis=0)
        h = np.einsum("ij,ij->i", d, normal)
        d -= h[:, None] * normal
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        normal_gap = np.maximum(np.abs(h) - self.thickness.take(faces), 0.0)
        plane_gap = np.maximum(r - self.spread.take(faces), 0.0)
        keep = ~(np.sqrt(normal_gap**2 + plane_gap**2) > limit.take(owners))
        owners = owners[keep]
        faces = faces[keep]

        q = p.take(owners, axis=0)
        cand = closest_on_triangles(q, self.tri.take(faces, axis=0))
        d2 = ((cand - q) ** 2).sum(axis=1)
        change = np.diff(owners, prepend=-1) != 0
        starts = np.flatnonzero(change)
        segment = np.cumsum(change) - 1
        tied = d2 == np.minimum.reduceat(d2, starts)[segment]
        lowest = np.minimum.reduceat(np.where(tied, faces, n_faces), starts)
        first = np.flatnonzero(tied & (faces == lowest[segment]))
        closest = np.empty_like(p)
        distances = np.empty(len(p))
        closest[owners[first]] = cand[first]
        distances[owners[first]] = np.sqrt(d2[first])
        return closest, distances
