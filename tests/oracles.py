"""Independent reference implementations used only to check the package.

Each oracle takes a different computational route from the code it checks:
point-to-triangle distance goes through plane/segment projections, mask
fill classifies every pixel centre by ray parity, a section mask counts
x-parallel ray crossings below the plane instead of cutting the mesh,
volume comes from voxel column parity counting, the t CDF from
adaptive Simpson quadrature, the initial weights come from one serial
``uniform`` call per layer instead of threaded parts of the stream,
regressor training steps the full first-layer weight matrix (the primal
form) instead of its dual coefficients, an OBJ file is written one
formatted line at a time and read one line at a time, an icosphere is subdivided one face at a time
through a dict of edge midpoints, and a mesh's unmatched edges are counted
with ``np.unique`` over row-sorted edge pairs.
"""
import math

import numpy as np

from ssmrecon.errors import DataError, NumericalError
from ssmrecon.mesh import TriMesh, icosphere
from ssmrecon.regressor import MlpParams, TrainingLog, _as_batch, _backprop, _flat_input, _forward_batch, init_params


# ---------------------------------------------------------------------------
# Exact point-triangle distance via plane projection + segment distances


def _point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_triangle_distance(p, tri):
    """Min distance from one point to one triangle (independent formulation)."""
    a, b, c = (np.asarray(x, dtype=np.float64) for x in tri)
    p = np.asarray(p, dtype=np.float64)
    n = np.cross(b - a, c - a)
    nn = float(n @ n)
    if nn > 0.0:
        # barycentric coordinates of the in-plane projection
        w = p - a
        u = b - a
        v = c - a
        d00, d01, d11 = float(u @ u), float(u @ v), float(v @ v)
        dw0, dw1 = float(w @ u), float(w @ v)
        denom = d00 * d11 - d01 * d01
        if denom != 0.0:
            s = (d11 * dw0 - d01 * dw1) / denom
            t = (d00 * dw1 - d01 * dw0) / denom
            if s >= 0.0 and t >= 0.0 and s + t <= 1.0:
                return abs(float(w @ n)) / math.sqrt(nn)
    return min(
        _point_segment_distance(p, a, b),
        _point_segment_distance(p, b, c),
        _point_segment_distance(p, c, a),
    )


def brute_nearest_distance(p, mesh):
    tri = mesh.triangle_corners()
    return min(point_triangle_distance(p, tri[i]) for i in range(len(tri)))


# ---------------------------------------------------------------------------
# Per-pixel even-odd fill


def even_odd_fill(polygons, window_2d, resolution):
    """Classify every pixel centre by counting edge crossings to its right."""
    (y_lo, z_lo), (y_hi, z_hi) = window_2d
    r = resolution
    dy = (y_hi - y_lo) / r
    dz = (z_hi - z_lo) / r
    grid = np.zeros((r, r), dtype=np.uint8)
    edges = []
    for loop in polygons:
        loop = np.asarray(loop, dtype=np.float64)
        nxt = np.roll(loop, -1, axis=0)
        edges.extend(zip(loop, nxt))
    for i in range(r):
        yc = y_lo + (i + 0.5) * dy
        for j in range(r):
            zc = z_lo + (j + 0.5) * dz
            inside = False
            for p1, p2 in edges:
                if (p1[0] <= yc) != (p2[0] <= yc):
                    z_cross = p1[1] + (yc - p1[0]) / (p2[0] - p1[0]) * (p2[1] - p1[1])
                    if zc < z_cross:
                        inside = not inside
            grid[i, j] = 1 if inside else 0
    return grid


# ---------------------------------------------------------------------------
# Ray-parity section mask


def ray_parity_mask(mesh, x, window_2d, resolution):
    """Mask of a mesh's section at plane ``x`` without cutting the mesh.

    Casts one x-parallel ray per pixel centre and counts the triangles it
    crosses below the plane; a centre is inside when the count is odd.
    """
    (y_lo, z_lo), (y_hi, z_hi) = window_2d
    r = resolution
    y_centres = y_lo + (np.arange(r) + 0.5) * (y_hi - y_lo) / r
    z_centres = z_lo + (np.arange(r) + 0.5) * (z_hi - z_lo) / r
    count = np.zeros((r, r), dtype=np.int64)
    for t in mesh.triangle_corners():
        if t[:, 0].min() >= x:
            continue  # wholly above the plane: no crossing below it
        ys = t[:, 1]
        zs = t[:, 2]
        iy0 = np.searchsorted(y_centres, ys.min())
        iy1 = np.searchsorted(y_centres, ys.max())
        iz0 = np.searchsorted(z_centres, zs.min())
        iz1 = np.searchsorted(z_centres, zs.max())
        if iy0 == iy1 or iz0 == iz1:
            continue
        yy, zz = np.meshgrid(y_centres[iy0:iy1], z_centres[iz0:iz1], indexing="ij")
        # 2D barycentric test in the (y, z) projection
        d = (zs[1] - zs[2]) * (ys[0] - ys[2]) + (ys[2] - ys[1]) * (zs[0] - zs[2])
        if d == 0.0:
            continue  # projection degenerate: ray can only graze
        l1 = ((zs[1] - zs[2]) * (yy - ys[2]) + (ys[2] - ys[1]) * (zz - zs[2])) / d
        l2 = ((zs[2] - zs[0]) * (yy - ys[2]) + (ys[0] - ys[2]) * (zz - zs[2])) / d
        l3 = 1.0 - l1 - l2
        x_cross = l1 * t[0, 0] + l2 * t[1, 0] + l3 * t[2, 0]
        count[iy0:iy1, iz0:iz1] += (l1 > 0.0) & (l2 > 0.0) & (l3 > 0.0) & (x_cross < x)
    return (count % 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# Voxel-column parity volume


def voxel_volume_cm3(mesh, h=0.25):
    """Volume by counting voxel centres inside the mesh, column by column.

    Casts one x-parallel ray per (y, z) voxel centre, collecting crossings
    from each triangle's (y, z) projection; grid origins carry irrational
    jitter so ray/edge ties do not occur in practice.
    """
    lo, hi = mesh.bounds()
    pad = 2.0 * h
    y0 = lo[1] - pad + h * (math.sqrt(2.0) - 1.0) * 0.25
    z0 = lo[2] - pad + h * (math.sqrt(3.0) - 1.0) * 0.25
    x0 = lo[0] - pad + h * (math.sqrt(5.0) - 1.0) * 0.25
    ny = int(np.ceil((hi[1] + pad - y0) / h))
    nz = int(np.ceil((hi[2] + pad - z0) / h))
    nx = int(np.ceil((hi[0] + pad - x0) / h))
    y_centres = y0 + (np.arange(ny) + 0.5) * h
    z_centres = z0 + (np.arange(nz) + 0.5) * h
    x_centres = x0 + (np.arange(nx) + 0.5) * h

    tri = mesh.triangle_corners()
    col_idx = []
    col_x = []
    for t in tri:
        ys = t[:, 1]
        zs = t[:, 2]
        iy0 = np.searchsorted(y_centres, ys.min())
        iy1 = np.searchsorted(y_centres, ys.max())
        iz0 = np.searchsorted(z_centres, zs.min())
        iz1 = np.searchsorted(z_centres, zs.max())
        if iy0 == iy1 or iz0 == iz1:
            continue
        yy, zz = np.meshgrid(y_centres[iy0:iy1], z_centres[iz0:iz1], indexing="ij")
        # 2D barycentric test in the (y, z) projection
        d = (zs[1] - zs[2]) * (ys[0] - ys[2]) + (ys[2] - ys[1]) * (zs[0] - zs[2])
        if d == 0.0:
            continue  # projection degenerate: ray can only graze, measure zero
        l1 = ((zs[1] - zs[2]) * (yy - ys[2]) + (ys[2] - ys[1]) * (zz - zs[2])) / d
        l2 = ((zs[2] - zs[0]) * (yy - ys[2]) + (ys[0] - ys[2]) * (zz - zs[2])) / d
        l3 = 1.0 - l1 - l2
        inside = (l1 > 0.0) & (l2 > 0.0) & (l3 > 0.0)
        if not inside.any():
            continue
        x_cross = l1 * t[0, 0] + l2 * t[1, 0] + l3 * t[2, 0]
        iy, iz = np.nonzero(inside)
        col_idx.append((iy + iy0) * nz + (iz + iz0))
        col_x.append(x_cross[inside])
    if not col_idx:
        return 0.0
    cols = np.concatenate(col_idx)
    xs = np.concatenate(col_x)
    order = np.lexsort((xs, cols))
    cols = cols[order]
    xs = xs[order]
    count = 0
    start = 0
    while start < len(cols):
        end = start
        while end < len(cols) and cols[end] == cols[start]:
            end += 1
        crossings = xs[start:end]
        assert (end - start) % 2 == 0, "odd crossing parity; jittered grid should prevent ties"
        for a, b in zip(crossings[0::2], crossings[1::2]):
            count += np.searchsorted(x_centres, b) - np.searchsorted(x_centres, a)
        start = end
    return count * h**3 / 1000.0


# ---------------------------------------------------------------------------
# Student-t CDF by adaptive Simpson quadrature


def _t_pdf(x, df):
    ln = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log1p(x * x / df)
    )
    return math.exp(ln)


def _adaptive_simpson(f, a, b, tol, whole, fa, fm, fb, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, left, fa, flm, fm, depth - 1) + _adaptive_simpson(
        f, m, b, tol / 2.0, right, fm, frm, fb, depth - 1
    )


def integrate(f, a, b, tol=1e-13):
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, whole, fa, fm, fb, depth=60)


def t_cdf_by_quadrature(t, df):
    """CDF as 0.5 + integral of the density from 0 to t."""
    if t == 0.0:
        return 0.5
    hi = abs(t)
    total = 0.0
    # integrate in unit-ish chunks so the adaptive rule resolves the peak
    edges = np.linspace(0.0, hi, max(2, int(hi) + 2))
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate(lambda x: _t_pdf(x, df), a, b)
    return 0.5 + total if t > 0 else 0.5 - total


# ---------------------------------------------------------------------------
# Initial weights from one serial `uniform` call per layer


def init_params_by_uniform(n_inputs, n_hidden, n_outputs, seed):
    """``regressor.init_params`` drawing W1 with a single ``rng.uniform`` call on one thread."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (n_inputs + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + n_outputs))
    return MlpParams(
        rng.uniform(-lim1, lim1, size=(n_hidden, n_inputs)),
        np.zeros(n_hidden),
        rng.uniform(-lim2, lim2, size=(n_outputs, n_hidden)),
        np.zeros(n_outputs),
    )


# ---------------------------------------------------------------------------
# Primal mini-batch SGD: every step forms the (H, D) gradient of W1


def _primal_mse(params, x, y):
    _, pred = _forward_batch(params, x)
    return float(((pred - y) ** 2).sum(axis=1).mean() / params.n_outputs)


def primal_sgd_train(dataset, cfg, n_hidden=256):
    """``regressor.train`` with W1 itself as the trained variable.

    Same RNG draws (init, split, shuffles), log and errors as the package's
    dual-form loop; only the first layer's arithmetic route differs.
    """
    if len(dataset) < 2:
        raise DataError("need at least 2 training samples")
    x_all, y_all = _as_batch(dataset, _flat_input(dataset[0][0]).size)
    n, k = y_all.shape

    rng = np.random.default_rng(cfg.seed)
    params = init_params(x_all.shape[1], n_hidden, k, seed=int(rng.integers(2**31 - 1)))

    n_val = int(round(n * cfg.validation_fraction))
    if cfg.validation_fraction > 0 and n_val == 0:
        n_val = 1
    if n - n_val < 1:
        raise DataError("validation split leaves no training samples")
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    x_val, y_val = x_all[val_idx], y_all[val_idx]

    log = TrainingLog([], [], [], best_epoch=0, n_train=len(train_idx), n_val=n_val)
    best = params
    best_val = np.inf
    since_best = 0
    lr = cfg.learning_rate
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    grads = _backprop(params, x_train[idx], y_train[idx])
                    old = (params.w1, params.b1, params.w2, params.b2)
                    params = MlpParams(*(p - lr * g for p, g in zip(old, grads)))
            except DataError as exc:
                raise NumericalError(f"training diverged at epoch {epoch}: {exc}") from exc
        t_loss = _primal_mse(params, x_train, y_train)
        v_loss = _primal_mse(params, x_val, y_val) if n_val else t_loss
        if not np.isfinite(t_loss) or not np.isfinite(v_loss):
            raise NumericalError(f"training diverged at epoch {epoch} (non-finite loss)")
        log.epochs.append(epoch)
        log.train_loss.append(t_loss)
        log.val_loss.append(v_loss)
        if v_loss < best_val:
            best_val = v_loss
            best = params
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if cfg.patience and since_best >= cfg.patience:
                break
    return best, log


# ---------------------------------------------------------------------------
# Closedness by np.unique


def boundary_edges_by_unique(mesh):
    """``mesh.boundary_edges`` with one ``np.unique`` over the row-sorted edges."""
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    edges = np.sort(edges, axis=1)
    # one int64 key per edge sorts like the (lo, hi) rows, far faster than unique(axis=0)
    n = mesh.n_vertices
    keys, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
    bad = keys[counts != 2]
    return np.stack([bad // n, bad % n], axis=1)


# ---------------------------------------------------------------------------
# Line-by-line OBJ writer


def save_mesh_by_lines(mesh, path):
    """``mesh.save_mesh`` as one f-string per vertex and per face."""
    lines = []
    for x, y, z in mesh.vertices.tolist():
        lines.append(f"v {x!r} {y!r} {z!r}")
    for a, b, c in mesh.faces.tolist():
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# Line-by-line OBJ reader


def load_mesh_by_lines(path):
    """``mesh.load_mesh`` as one Python statement loop over the file's lines."""
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


# ---------------------------------------------------------------------------
# Dict-of-midpoints icosphere subdivision


def icosphere_by_dict(radius=1.0, subdivisions=2):
    """``mesh.icosphere``, subdividing one face at a time with a dict of edge midpoints.

    Starts from the package's unsubdivided icosahedron (level 0).
    """
    base = icosphere(1.0, 0)
    verts, faces = base.vertices, base.faces
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
