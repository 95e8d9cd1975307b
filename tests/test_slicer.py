import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import even_odd_fill, ray_parity_mask

from ssmrecon import mesh as M
from ssmrecon import synth
from ssmrecon.errors import DataError
from ssmrecon.slicer import (
    MaskStack,
    SliceProtocol,
    Window,
    cross_section,
    load_mask,
    load_mask_stack,
    loop_area,
    make_mask_stack,
    rasterize,
    save_mask,
    save_mask_stack,
    section_area,
    window_for_population,
)


def star_polygon(rng, n_points, radius, centre=(0.0, 0.0)):
    """Simple (non self-intersecting) star-shaped polygon."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, n_points))
    radii = rng.uniform(0.3 * radius, radius, n_points)
    return np.column_stack(
        [centre[0] + radii * np.cos(angles), centre[1] + radii * np.sin(angles)]
    )


# ---------------------------------------------------------------------------
# cross_section


def test_cube_mid_plane_square(centered_cube):
    loops = cross_section(centered_cube, M.Plane(0.0))
    assert len(loops) == 1
    assert section_area(loops) == pytest.approx(100.0, abs=1e-9)
    ys = loops[0][:, 0]
    zs = loops[0][:, 1]
    assert ys.min() == pytest.approx(-5.0) and ys.max() == pytest.approx(5.0)
    assert zs.min() == pytest.approx(-5.0) and zs.max() == pytest.approx(5.0)


def test_icosphere_centre_plane_area():
    loops = cross_section(M.icosphere(10.0, 4), M.Plane(0.0))
    assert len(loops) == 1
    assert section_area(loops) == pytest.approx(np.pi * 100.0, rel=0.01)


def test_plane_outside_gives_empty(centered_cube):
    assert cross_section(centered_cube, M.Plane(1000.0)) == []


def test_open_mesh_rejected(centered_cube):
    open_mesh = M.TriMesh(centered_cube.vertices, centered_cube.faces[:-1])
    with pytest.raises(DataError, match="not closed"):
        cross_section(open_mesh, M.Plane(0.0))


def test_loops_close_on_synthetic_population():
    cfg = synth.SynthConfig(n=4, seed=13, jitter_levels=(2, 3))
    meshes, _ = synth.generate_population(cfg)
    for mesh in meshes:
        lo, hi = mesh.bounds()
        for f in (0.2, 0.45, 0.5, 0.8):
            loops = cross_section(mesh, M.Plane(float(lo[0] + f * (hi[0] - lo[0]))))
            assert loops, "plane through the body must intersect"
            for loop in loops:
                assert len(loop) >= 3


def test_section_area_continuous_in_offset():
    ellipsoid = M.icosphere(10.0, 3)
    ellipsoid = ellipsoid.with_vertices(ellipsoid.vertices * np.array([1.6, 1.2, 1.0]))
    lo, hi = ellipsoid.bounds()
    fractions = np.arange(0.25, 0.76, 0.01)
    areas = []
    for f in fractions:
        loops = cross_section(ellipsoid, M.Plane(float(lo[0] + f * (hi[0] - lo[0]))))
        areas.append(section_area(loops))
    areas = np.array(areas)
    rel_jump = np.abs(np.diff(areas)) / np.maximum(areas[:-1], areas[1:])
    assert rel_jump.max() < 0.20


def test_plane_through_vertices_at_either_edge_end():
    # x = 0 holds icosphere vertices; a random renumbering puts them at the
    # higher-index end of some cut edges as well as the lower
    base = M.icosphere(10.0, 3)
    perm = np.random.default_rng(5).permutation(base.n_vertices)
    v = np.empty_like(base.vertices)
    v[perm] = base.vertices * np.array([1.6, 1.2, 1.0])
    mesh = M.TriMesh(v, perm[base.faces])
    assert (mesh.vertices[:, 0] == 0.0).sum() > 0
    loops = cross_section(mesh, M.Plane(0.0))
    assert len(loops) == 1
    # faces touching the plane at one vertex add no repeated point
    edges = np.linalg.norm(loops[0] - np.roll(loops[0], -1, axis=0), axis=1)
    assert edges.min() > 1e-6
    nudged = section_area(cross_section(mesh, M.Plane(1e-9)))
    assert section_area(loops) == pytest.approx(nudged, rel=1e-6)


def test_inverted_face_fails_to_close():
    mesh = M.icosphere(10.0, 2)
    tri = mesh.triangle_corners()
    fi = int(np.argmax(np.ptp(tri[:, :, 0], axis=1)))
    faces = mesh.faces.copy()
    faces[fi] = faces[fi, ::-1]
    x = 0.5 * (tri[fi, :, 0].min() + tri[fi, :, 0].max())
    with pytest.raises(DataError, match="failed to close"):
        cross_section(M.TriMesh(mesh.vertices, faces), M.Plane(float(x)))


# ---------------------------------------------------------------------------
# rasterize


def test_full_window_square_all_on():
    sq = np.array([[-1.0, -1.0], [11.0, -1.0], [11.0, 11.0], [-1.0, 11.0]])
    grid = rasterize([sq], ((0.0, 0.0), (10.0, 10.0)), 32)
    assert grid.all()


def test_half_window_square_half_on():
    r = 64
    half = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 10.0], [0.0, 10.0]])
    grid = rasterize([half], ((0.0, 0.0), (10.0, 10.0)), r)
    assert abs(int(grid.sum()) - r * r // 2) <= r


def test_empty_polygon_list_all_off():
    assert rasterize([], ((0.0, 0.0), (1.0, 1.0)), 16).sum() == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_scanline_matches_per_pixel_oracle(seed):
    rng = np.random.default_rng(seed)
    polys = [star_polygon(rng, int(rng.integers(3, 12)), 4.0, centre=rng.uniform(2, 8, 2))]
    if rng.random() < 0.5:
        polys.append(star_polygon(rng, int(rng.integers(3, 8)), 2.0, centre=rng.uniform(3, 7, 2)))
    window = ((0.0, 0.0), (10.0, 10.0))
    r = 32
    assert np.array_equal(rasterize(polys, window, r), even_odd_fill(polys, window, r))


def lattice_polygon(rng, size):
    """Closed loop whose vertices sit on pixel centres of a size-px unit grid.

    Most loops alternate moves along z and along y, so every edge is either
    horizontal (runs along a row) or vertical and passes through centres;
    the rest join arbitrary centres, so some edges cross rows exactly at one.
    """
    m = int(rng.integers(2, 7))
    y = rng.integers(0, size, m) + 0.5
    z = rng.integers(0, size, m) + 0.5
    if rng.random() < 0.75:
        return np.column_stack([np.repeat(y, 2), np.stack([z, np.roll(z, -1)], axis=1).ravel()])
    return np.column_stack([y, z])


def test_lattice_ties_match_per_pixel_oracle():
    # vertices and crossings exactly on pixel centres exercise the half-open
    # row test and the at-or-before-centre column rule
    rng = np.random.default_rng(41)
    window = ((0.0, 0.0), (16.0, 16.0))
    for _ in range(200):
        polys = [lattice_polygon(rng, 16) for _ in range(int(rng.integers(1, 3)))]
        assert np.array_equal(rasterize(polys, window, 16), even_odd_fill(polys, window, 16))


def test_ring_polygon_even_odd():
    outer = np.array([[1.0, 1.0], [9.0, 1.0], [9.0, 9.0], [1.0, 9.0]])
    inner = np.array([[3.0, 3.0], [7.0, 3.0], [7.0, 7.0], [3.0, 7.0]])
    window = ((0.0, 0.0), (10.0, 10.0))
    grid = rasterize([outer, inner], window, 64)
    oracle = even_odd_fill([outer, inner], window, 64)
    assert np.array_equal(grid, oracle)
    centre = grid[32, 32]
    assert centre == 0  # the hole is off


def test_raster_area_converges_to_shoelace():
    # error for any single placement oscillates with grid alignment, so the
    # halving rate is measured averaged over seeded placements
    rng = np.random.default_rng(2)
    centres = rng.uniform(4.0, 6.0, size=(10, 2))
    angles = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    window = ((0.0, 0.0), (10.0, 10.0))
    errors = []
    for r in (32, 64, 128, 256):
        pixel_area = (10.0 / r) ** 2
        total = 0.0
        for cy, cz in centres:
            circle = np.column_stack([cy + 3.7 * np.cos(angles), cz + 3.7 * np.sin(angles)])
            grid = rasterize([circle], window, r)
            total += abs(float(grid.sum()) * pixel_area - abs(loop_area(circle)))
        errors.append(total / len(centres))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 2.0 + 1e-9


# ---------------------------------------------------------------------------
# make_mask_stack


@pytest.fixture(scope="module")
def small_population():
    cfg = synth.SynthConfig(n=3, seed=17, jitter_levels=(2,))
    meshes, _ = synth.generate_population(cfg)
    return meshes


@pytest.fixture(scope="module")
def shared_window(small_population):
    from ssmrecon.slicer import window_for_population

    return window_for_population(small_population)


def test_three_masks_nonempty(small_population, shared_window):
    protocol = SliceProtocol((0.35, 0.5, 0.65), shared_window, 64)
    stack = make_mask_stack(small_population[0], protocol)
    assert len(stack.masks) == 3
    for mask in stack.masks:
        assert mask.sum() > 0


def test_two_offset_protocol(small_population, shared_window):
    protocol = SliceProtocol((0.4, 0.6), shared_window, 64)
    stack = make_mask_stack(small_population[0], protocol)
    assert len(stack.masks) == 2


def test_masks_match_ray_parity_oracle():
    meshes, _ = synth.generate_population(synth.SynthConfig(n=3, seed=17, jitter_levels=(2, 3)))
    win = window_for_population(meshes)
    protocol = SliceProtocol((0.35, 0.5, 0.65), win, 64)
    window_2d = ((win.lo[1], win.lo[2]), (win.hi[1], win.hi[2]))
    for mesh in meshes:
        stack = make_mask_stack(mesh, protocol)
        for off, mask in zip(protocol.offsets, stack.masks):
            oracle = ray_parity_mask(mesh, win.plane_at(off).offset, window_2d, 64)
            assert np.array_equal(mask, oracle)


def test_scaling_mesh_grows_every_mask(small_population, shared_window):
    mesh = small_population[1]
    protocol = SliceProtocol((0.35, 0.5, 0.65), shared_window, 96)
    base = make_mask_stack(mesh, protocol)
    bigger = make_mask_stack(mesh.with_vertices(mesh.vertices * 1.1), protocol)
    for a, b in zip(base.masks, bigger.masks):
        assert int(b.sum()) > int(a.sum())


def test_protocol_validation(shared_window):
    with pytest.raises(DataError):
        SliceProtocol((0.5,), shared_window, 64)
    with pytest.raises(DataError):
        SliceProtocol((0.6, 0.4), shared_window, 64)
    with pytest.raises(DataError):
        SliceProtocol((0.4, 0.6), shared_window, 8)
    with pytest.raises(DataError):
        SliceProtocol((0.4, 0.6), shared_window, 64.5)


# ---------------------------------------------------------------------------
# mask and stack files


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    mask = (rng.random((48, 48)) < 0.4).astype(np.uint8)
    save_mask(mask, tmp_path / "m.pgm")
    again = load_mask(tmp_path / "m.pgm")
    assert np.array_equal(mask, again)


def test_nonbinary_pgm_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    data = np.full((4, 4), 7, dtype=np.uint8)
    path.write_bytes(b"P5\n4 4\n255\n" + data.tobytes())
    with pytest.raises(DataError, match="binary masks must be 0 or 255"):
        load_mask(path)


@pytest.mark.parametrize("header", [b"P5\n-2 -3\n255\n", b"P5\n0 0\n255\n"], ids=["negative", "zero"])
def test_pgm_without_pixels_rejected(tmp_path, header):
    path = tmp_path / "empty.pgm"
    path.write_bytes(header + bytes(6))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: PGM width and height must be at least 1"):
        load_mask(path)


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n8 8\n255\n" + b"\x00" * 10)
    with pytest.raises(DataError, match="truncated"):
        load_mask(path)
    path2 = tmp_path / "notpgm.pgm"
    path2.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(DataError, match="P5"):
        load_mask(path2)


def test_mixed_resolution_stack_refused():
    with pytest.raises(DataError, match="resolution|square"):
        MaskStack((np.zeros((16, 16), dtype=np.uint8), np.zeros((32, 32), dtype=np.uint8)), (1.0, 1.0), (0.0, 0.0))


def test_stack_round_trip(tmp_path, small_population, shared_window):
    protocol = SliceProtocol((0.35, 0.5, 0.65), shared_window, 48)
    stack = make_mask_stack(small_population[2], protocol)
    manifest = save_mask_stack(stack, tmp_path / "s002", protocol)
    again = load_mask_stack(manifest, protocol)
    assert len(again.masks) == 3
    for a, b in zip(stack.masks, again.masks):
        assert np.array_equal(a, b)
    assert again.spacing == stack.spacing
    assert json.loads(manifest.read_text())["plane_offsets"] == [0.35, 0.5, 0.65]


def test_stack_loaded_with_another_protocol_rejected(tmp_path, small_population, shared_window):
    protocol = SliceProtocol((0.35, 0.5, 0.65), shared_window, 48)
    manifest = save_mask_stack(make_mask_stack(small_population[2], protocol), tmp_path / "s002", protocol)
    for other, field in (
        (SliceProtocol((0.4, 0.6), shared_window, 48), "mask count"),
        (SliceProtocol(protocol.offsets, shared_window, 64), "resolution"),
        (SliceProtocol((0.3, 0.5, 0.65), shared_window, 48), "plane_offsets"),
    ):
        with pytest.raises(DataError, match=f"^mask stack {re.escape(str(manifest))}: {field} .*run slice again"):
            load_mask_stack(manifest, other)
