"""Population registration: rigid alignment and non-rigid template fitting.

Fitting drags a closed template mesh onto an arbitrarily tessellated target
surface so every population member ends up with the template's topology;
rigid alignment then removes pose. Scale is deliberately never touched:
subject size carries the volume signal. scipy is imported in the functions
that fit, so loading the package (and every command but build-ssm and
evaluate) does not load it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .mesh import TriMesh, validate_closed
from .spatial import SurfaceIndex

_DEGENERATE_RTOL = 1e-12
_GPA_MAX_ROUNDS = 50  # generalized Procrustes rounds before the mean shape must have settled
_ICP_MAX_ROUNDS = 60  # rounds of each rigid initialisation phase before it counts as capped
_FIT_ITERATIONS = 50  # non-rigid iterations of one fit at most
_FIT_SMOOTHNESS = 1.0  # weight of the Laplacian term in each displacement solve
_FIT_DAMPING = 0.5  # share of each solved displacement that is applied
_FIT_TOL_MM = 0.01  # a fit ends when its mean applied step drops below this

# Held while a template's smoothing system is factored, so that fits sharing a template on
# different threads factor it once between them.
_FACTOR_LOCK = threading.Lock()


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion x -> R @ x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise NumericalError("rotation is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-9):
            raise NumericalError("rotation determinant is not +1 (reflection?)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


def rigid_align(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid motion taking ``source`` onto ``target`` (Kabsch).

    Minimises sum ||R s_i + t - t_i||^2 over proper rotations and
    translations. No scaling. Raises NumericalError for degenerate (rank < 2)
    configurations, where the rotation is not determined.
    """
    s = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if len(s) != len(t):
        raise DataError(f"point lists differ in length ({len(s)} vs {len(t)})")
    if len(s) < 3:
        raise DataError("need at least 3 point pairs")
    sc = s.mean(axis=0)
    tc = t.mean(axis=0)
    h = (s - sc).T @ (t - tc)
    u, sing, vt = np.linalg.svd(h)
    if sing[1] <= _DEGENERATE_RTOL * max(sing[0], 1.0):
        raise NumericalError("degenerate configuration: correspondence covariance has rank < 2")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, tc - r @ sc)


# ---------------------------------------------------------------------------
# Non-rigid fitting


def _uniform_laplacian(mesh: TriMesh):
    """Umbrella operator L = I - D^-1 A over the template's edge graph, as a CSR matrix."""
    import scipy.sparse as sp

    f = mesh.faces
    i = np.concatenate([f[:, 0], f[:, 1], f[:, 1], f[:, 2], f[:, 2], f[:, 0]])
    j = np.concatenate([f[:, 1], f[:, 0], f[:, 2], f[:, 1], f[:, 0], f[:, 2]])
    a = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(mesh.n_vertices, mesh.n_vertices))
    a = (a.tocsr() > 0).astype(np.float64)
    deg = np.asarray(a.sum(axis=1)).ravel()
    if (deg == 0).any():
        raise DataError("template has an isolated vertex")
    dinv = sp.diags(1.0 / deg)
    return (sp.identity(mesh.n_vertices, format="csr") - dinv @ a).tocsr()


def smoothing_system(template: TriMesh):
    """``(L, solve)``: the template's Laplacian and a solver for ``I + _FIT_SMOOTHNESS * L^T L``.

    The system depends only on the template's immutable faces, so it is
    factored once per template and kept on it, like its closedness: every
    fit onto it, on any thread, shares the one factorization, and its solves
    give the bits a fresh one would. scipy's SuperLU factor leaks its memory
    when it is freed on another thread than the one that made it (about 7 MB
    for a 2,562-vertex template, scipy 1.17), so a caller that fits on a
    pool calls this first, on the thread that holds the template, as
    ``cmd_build_ssm`` does.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import factorized

    with _FACTOR_LOCK:
        if "_smoothing_system" not in template.__dict__:
            lap = _uniform_laplacian(template)
            system = sp.identity(template.n_vertices, format="csc") + _FIT_SMOOTHNESS * (lap.T @ lap).tocsc()
            template.__dict__["_smoothing_system"] = lap, factorized(system)
        return template.__dict__["_smoothing_system"]


@dataclass
class FitLog:
    """Diagnostics from nonrigid_fit.

    The rigid initialisation records the steps each of its two phases took
    and whether the phase stopped at its round cap rather than by stalling;
    the non-rigid loop records one entry per iteration.
    """

    mean_surface_distance: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    iterations_run: int = 0
    plane_rounds: int = 0
    plane_capped: bool = False
    vertex_rounds: int = 0
    vertex_capped: bool = False


def _icp_rounds(v: np.ndarray, match_fn, step_fn, max_rounds: int) -> tuple[np.ndarray, int]:
    """Apply ``step_fn(v, *match_fn(v))`` until the mean distance stalls.

    The distance stalls when a round improves it by under 1% of
    ``_FIT_TOL_MM``. A step of None keeps the current pose and ends the
    rounds. Returns the pose and the number of steps applied, which is
    ``max_rounds`` exactly when the cap ended the rounds.
    """
    prev = np.inf
    for r in range(max_rounds):
        matched, dist = match_fn(v)
        mean_d = float(dist.mean())
        if not np.isfinite(mean_d):
            raise NumericalError("non-finite distances during rigid initialisation")
        if prev - mean_d < 0.01 * _FIT_TOL_MM:
            return v, r
        prev = mean_d
        step = step_fn(v, matched, dist)
        if step is None:
            return v, r
        v = step.apply(v)
    return v, max_rounds


def _plane_step(v: np.ndarray, feet: np.ndarray, dist: np.ndarray) -> RigidTransform | None:
    """Linearised point-to-plane step (Chen & Medioni 1992; Low, UNC TR04-004).

    The normal at each foot is the distance gradient n_i = (v_i - q_i) / d_i:
    the face normal at a foot inside a face, the generalised normal at an
    edge or a vertex. Solves the least squares

        [ (v_i - c) x n_i , n_i ] [w; t] = -d_i

    for a small rotation vector w about the centroid c and a translation t,
    then rotates by w exactly. The min-norm solution leaves rotation about an
    axis through c that the surface does not constrain (a sphere's, with c at
    its centre) at zero. Vertices on the surface (d_i == 0) have no normal
    and are left out; with none left the pose is kept (None).
    """
    from scipy.spatial.transform import Rotation

    off = dist > 0
    if not off.any():
        return None
    c = v.mean(axis=0)
    n = (v[off] - feet[off]) / dist[off, None]
    a = np.hstack([np.cross(v[off] - c, n), n])
    x = np.linalg.lstsq(a, -dist[off], rcond=None)[0]
    r = Rotation.from_rotvec(x[:3]).as_matrix()
    return RigidTransform(r, c + x[3:] - r @ c)


def _kabsch_step(v: np.ndarray, matched: np.ndarray, dist: np.ndarray) -> RigidTransform | None:
    try:
        return rigid_align(v, matched)
    except NumericalError:
        return None  # near-degenerate correspondences: keep current pose


def _rigid_icp_init(vertices: np.ndarray, index: SurfaceIndex, log: FitLog) -> np.ndarray:
    """Centroid shift, point-to-plane rounds, then nearest-vertex Kabsch rounds.

    Each plane round matches every vertex to its closest surface point and
    takes one linearised point-to-plane step, which converges in a few
    rounds where point-to-point pairs would slide along the surface. A
    nearest-vertex phase follows: once the pose error drops under the vertex
    spacing those pairs become the true correspondence and the remaining
    motion is recovered essentially exactly. Both phases stop when the mean
    distance improves by less than 1% of ``_FIT_TOL_MM``, or after ``_ICP_MAX_ROUNDS``;
    ``log`` records the steps and caps of each.
    """
    from scipy.spatial import cKDTree

    v = vertices + (index.mesh.centroid() - vertices.mean(axis=0))
    v, log.plane_rounds = _icp_rounds(v, index.query, _plane_step, _ICP_MAX_ROUNDS)
    vertex_tree = cKDTree(index.mesh.vertices)

    def match_vertices(x):
        dist, idx = vertex_tree.query(x)
        return index.mesh.vertices[idx], dist

    v, log.vertex_rounds = _icp_rounds(v, match_vertices, _kabsch_step, _ICP_MAX_ROUNDS)
    log.plane_capped = log.plane_rounds == _ICP_MAX_ROUNDS
    log.vertex_capped = log.vertex_rounds == _ICP_MAX_ROUNDS
    return v


def nonrigid_fit(template: TriMesh, target: TriMesh) -> tuple[TriMesh, FitLog]:
    """Deform ``template`` onto the surface of ``target``; returns ``(fitted, log)``.

    The fitted mesh has the template's topology. Each iteration matches every
    template vertex to its nearest point on the target surface and solves

        min_d  sum ||d_i - c_i||^2 + _FIT_SMOOTHNESS * sum ||(L d)_i||^2

    for the displacement field d (L the uniform graph Laplacian of the
    template), then applies ``_FIT_DAMPING * d``. Stops after
    ``_FIT_ITERATIONS`` iterations or when the mean applied displacement
    drops below ``_FIT_TOL_MM``. The system is factored once per template
    (`smoothing_system`) and shared by every fit onto that template.
    """
    validate_closed(template)

    index = SurfaceIndex(target)
    log = FitLog()
    v = _rigid_icp_init(template.vertices.copy(), index, log)

    lap, solve = smoothing_system(template)

    for it in range(_FIT_ITERATIONS):
        matched, dist = index.query(v)
        c = matched - v
        if not np.isfinite(c).all():
            raise NumericalError(f"non-finite correspondence at iteration {it}")
        d = np.column_stack([solve(c[:, k]) for k in range(3)])
        if not np.isfinite(d).all():
            raise NumericalError(f"non-finite displacement solve at iteration {it}")
        residual = d - c
        objective = float((residual**2).sum() + _FIT_SMOOTHNESS * np.asarray((lap @ d) ** 2).sum())
        log.mean_surface_distance.append(float(dist.mean()))
        log.objective.append(objective)
        step = _FIT_DAMPING * d
        v = v + step
        log.iterations_run = it + 1
        if float(np.linalg.norm(step, axis=1).mean()) < _FIT_TOL_MM:
            break

    return template.with_vertices(v), log


# ---------------------------------------------------------------------------
# Generalized Procrustes


def generalized_procrustes(population: list[TriMesh]) -> list[TriMesh]:
    """Rigidly align a same-topology population to its evolving mean shape.

    Output meshes all have centroid at the origin. Iterates until the mean
    shape moves less than 1e-6 mm between rounds, for at most ``_GPA_MAX_ROUNDS`` rounds.
    """
    if len(population) < 2:
        raise DataError("need at least 2 meshes")
    ref = population[0]
    for m in population[1:]:
        if not ref.same_topology(m):
            raise DataError("population topology mismatch")

    stacks = [m.vertices - m.vertices.mean(axis=0) for m in population]
    for _ in range(_GPA_MAX_ROUNDS):
        mean = np.mean(stacks, axis=0)
        new_stacks = [rigid_align(v, mean).apply(v) for v in stacks]
        change = float(np.abs(np.mean(new_stacks, axis=0) - mean).max())
        stacks = new_stacks
        if change < 1e-6:
            break
    return [ref.with_vertices(v) for v in stacks]
