"""Triangle meshes: representation, Wavefront OBJ I/O, volume and sampling.

All coordinates are millimetres. Volumes are reported in cubic centimetres;
the mm^3 -> cm^3 conversion lives in a single constant below.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

MM3_PER_CM3 = 1000.0


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangle mesh.

    Attributes
    ----------
    vertices : (M, 3) float64 array
        Vertex positions in millimetres.
    faces : (F, 3) int array
        Vertex indices per triangle, counter-clockwise when viewed from
        outside for an outward-oriented mesh.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64)).reshape(-1, 3)
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64)).reshape(-1, 3)
        if f.size:
            if f.min() < 0 or f.max() >= len(v):
                raise DataError(
                    f"face index out of range: indices span [{f.min()}, {f.max()}] "
                    f"for {len(v)} vertices"
                )
            degenerate = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
            if degenerate.any():
                raise DataError(f"degenerate face (repeated vertex index) at row {int(np.argmax(degenerate))}")
        if not np.isfinite(v).all():
            raise DataError("non-finite vertex coordinate")
        v.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def is_empty(self) -> bool:
        return len(self.faces) == 0

    def triangle_corners(self) -> np.ndarray:
        """Return an (F, 3, 3) array of triangle corner coordinates."""
        return self.vertices[self.faces]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) corners of the axis-aligned bounding box."""
        if self.n_vertices == 0:
            raise DataError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bounds()
        return float(np.linalg.norm(hi - lo))

    def centroid(self) -> np.ndarray:
        """Mean of the vertex positions (not the volumetric centroid)."""
        if self.n_vertices == 0:
            raise DataError("empty mesh has no centroid")
        return self.vertices.mean(axis=0)

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """Same topology, new vertex positions; a closedness result already found is kept."""
        mesh = TriMesh(vertices, self.faces)
        if "_boundary" in self.__dict__:
            mesh.__dict__["_boundary"] = self._boundary
        return mesh

    @cached_property
    def _boundary(self) -> np.ndarray:
        """``boundary_edges(self)``, found once: it depends only on the immutable faces."""
        bad = boundary_edges(self)
        bad.flags.writeable = False
        return bad

    def face_areas(self) -> np.ndarray:
        tri = self.triangle_corners()
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def same_topology(self, other: "TriMesh") -> bool:
        return self.n_vertices == other.n_vertices and np.array_equal(self.faces, other.faces)


@dataclass(frozen=True)
class Plane:
    """Axis-aligned cutting plane with normal along +x, at ``offset`` mm."""

    offset: float

    def __post_init__(self):
        if not np.isfinite(self.offset):
            raise DataError("plane offset must be finite")


# ---------------------------------------------------------------------------
# Wavefront OBJ I/O


def load_mesh(path) -> TriMesh:
    """Read an ASCII Wavefront OBJ file into a TriMesh.

    Only ``v`` and ``f`` records are used; normals, texture coordinates and
    grouping statements are ignored. Faces with more than three vertices are
    fan-triangulated. Indices are 1-based; negative (relative) indices count
    back from the current vertex list.
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise DataError(f"{path}:{lineno}: vertex record needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad vertex coordinate: {exc}") from exc
            elif tag == "f":
                if len(parts) < 4:
                    raise DataError(f"{path}:{lineno}: face record needs at least 3 indices")
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise DataError(f"{path}:{lineno}: bad face index {token!r}") from exc
                    if i < 0:
                        i = len(vertices) + 1 + i
                    if i < 1 or i > len(vertices):
                        raise DataError(
                            f"{path}:{lineno}: face index {token} out of range "
                            f"(file has {len(vertices)} vertices so far)"
                        )
                    idx.append(i - 1)
                for k in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[k], idx[k + 1]])
            else:
                # vn / vt / s / o / g / usemtl and friends are ignored
                continue
    try:
        return TriMesh(np.array(vertices, dtype=np.float64).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a TriMesh as ASCII OBJ.

    Coordinates are written with ``repr`` so a save/load round trip
    reproduces vertices bit-exactly. Each record kind is one ``%`` format over
    all its rows.
    """
    text = ("v %r %r %r\n" * mesh.n_vertices) % tuple(mesh.vertices.ravel().tolist())
    text += ("f %d %d %d\n" * mesh.n_faces) % tuple((mesh.faces + 1).ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Closedness


def boundary_edges(mesh: TriMesh) -> np.ndarray:
    """Undirected edges not shared by exactly two faces, as an (n, 2) array."""
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    edges = np.sort(edges, axis=1)
    # one int64 key per edge sorts like the (lo, hi) rows, far faster than unique(axis=0)
    n = mesh.n_vertices
    keys, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
    bad = keys[counts != 2]
    return np.stack([bad // n, bad % n], axis=1)


def is_closed(mesh: TriMesh) -> bool:
    if mesh.is_empty:
        return True
    return len(mesh._boundary) == 0


def validate_closed(mesh: TriMesh) -> None:
    """Raise DataError naming an unmatched edge if the mesh is not closed."""
    bad = mesh._boundary
    if len(bad):
        a, b = int(bad[0, 0]), int(bad[0, 1])
        raise DataError(f"mesh is not closed: edge ({a}, {b}) is not shared by exactly two faces")


# ---------------------------------------------------------------------------
# Volume


def oriented_volume_mm3(mesh: TriMesh) -> float:
    """Signed enclosed volume in mm^3 via the divergence theorem.

    Positive for outward-oriented closed meshes. Raises if the mesh is open.
    """
    validate_closed(mesh)
    if mesh.is_empty:
        return 0.0
    tri = mesh.triangle_corners()
    # det[v0 v1 v2] / 6 summed over faces
    det = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
    return float(det.sum() / 6.0)


def signed_volume(mesh: TriMesh) -> float:
    """Enclosed volume in cm^3 (magnitude of the signed volume).

    Inward-oriented meshes are accepted; a warning is logged because the
    orientation of segmentation-derived meshes is unreliable.
    """
    raw = oriented_volume_mm3(mesh)
    if raw < 0:
        log.warning("mesh is inward-oriented (signed volume %.3f mm^3); returning magnitude", raw)
    return abs(raw) / MM3_PER_CM3


# ---------------------------------------------------------------------------
# Surface sampling


def surface_samples(mesh: TriMesh, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` area-uniform points on the mesh surface, deterministic in ``seed``."""
    if mesh.is_empty:
        raise DataError("cannot sample an empty mesh")
    if n < 1:
        raise DataError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        raise DataError("mesh has zero surface area")
    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    tri = mesh.vertices[mesh.faces[face_idx]]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    return tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])


# ---------------------------------------------------------------------------
# Primitives (test fixtures and synthetic data building blocks)

_CUBE_FACES = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # z = lo
        [4, 5, 6], [4, 6, 7],  # z = hi
        [0, 1, 5], [0, 5, 4],  # y = lo
        [2, 3, 7], [2, 7, 6],  # y = hi
        [0, 4, 7], [0, 7, 3],  # x = lo
        [1, 2, 6], [1, 6, 5],  # x = hi
    ],
    dtype=np.int64,
)


def cube(edge: float = 1.0, origin=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned cube with outward orientation, min corner at ``origin``."""
    o = np.asarray(origin, dtype=np.float64)
    corners = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=np.float64,
    )
    return TriMesh(o + edge * corners, _CUBE_FACES)


def icosphere(radius: float = 1.0, subdivisions: int = 2) -> TriMesh:
    """Unit icosahedron subdivided ``subdivisions`` times, projected to a sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        verts_list = list(verts)
        midpoint: dict[tuple[int, int], int] = {}

        def midpoint_index(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                m = m / np.linalg.norm(m)
                midpoint[key] = len(verts_list)
                verts_list.append(m)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab = midpoint_index(a, b)
            bc = midpoint_index(b, c)
            ca = midpoint_index(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    return TriMesh(radius * verts, faces)
