"""Mesh generators, file ingestion, and structural validation."""

import numpy as np
import pytest

from hhonl.harness import build_mesh
from hhonl.mesh import (
    MeshFormatError,
    MeshInvalidError,
    PolytopalMesh,
    generate_cartesian,
    generate_hexagonal,
    generate_kershaw,
    generate_triangular,
    mesh_regularity,
    mesh_size,
    polygon_area,
    polygon_centroid,
    polygon_diameter,
    quasi_uniformity,
    read_mesh,
    write_mesh,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_polygon_helpers():
    assert polygon_area(SQUARE) == pytest.approx(1.0)
    assert polygon_area(SQUARE[::-1]) == pytest.approx(-1.0)
    np.testing.assert_allclose(polygon_centroid(SQUARE), [0.5, 0.5])
    # The centroid formula must not depend on orientation.
    np.testing.assert_allclose(polygon_centroid(SQUARE[::-1]), [0.5, 0.5])
    assert polygon_diameter(SQUARE) == pytest.approx(np.sqrt(2.0))


def test_cartesian_generator_counts():
    n = 4
    mesh = generate_cartesian(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_cells == n**2
    assert mesh.num_faces == 2 * n * (n + 1)
    assert len(mesh.boundary_faces) == 4 * n
    assert len(mesh.interior_faces) == mesh.num_faces - 4 * n
    assert mesh.orientation_repairs == 0
    assert mesh_size(mesh) == pytest.approx(np.sqrt(2.0) / n)


def test_triangular_generator_counts():
    n = 3
    mesh = generate_triangular(n)
    assert mesh.num_cells == 2 * n**2
    assert mesh.num_vertices == (n + 1) ** 2
    # Grid edges plus one diagonal per square.
    assert mesh.num_faces == 2 * n * (n + 1) + n**2
    assert len(mesh.boundary_faces) == 4 * n
    assert mesh_size(mesh) == pytest.approx(np.sqrt(2.0) / n)


def test_generators_reject_a_nonpositive_argument():
    for generate, bad in ((generate_cartesian, (0, -2)), (generate_triangular, (0, -2)),
                          (generate_hexagonal, (0, -2)), (generate_kershaw, (0, -6, 8))):
        for n in bad:
            with pytest.raises(ValueError, match="n must be a positive"):
                generate(n)


def test_refinement_halves_mesh_size():
    for gen in (generate_cartesian, generate_triangular):
        assert mesh_size(gen(8)) == pytest.approx(0.5 * mesh_size(gen(4)), rel=1e-14)


def test_cell_areas_partition_unit_square():
    for mesh in (generate_cartesian(5), generate_triangular(4)):
        assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(mesh.cell_areas > 0.0)


def test_boundary_perimeter():
    mesh = generate_triangular(6)
    assert mesh.face_lengths[mesh.boundary_faces].sum() == pytest.approx(4.0)


def test_face_normals():
    mesh = generate_triangular(3)
    np.testing.assert_allclose(
        np.hypot(mesh.face_normals[:, 0], mesh.face_normals[:, 1]), 1.0,
        atol=1e-14)
    # Owner and neighbor see opposite unit normals on interior faces.
    for fi in mesh.interior_faces:
        n_own = mesh.outward_normal(int(mesh.face_owner[fi]), fi)
        n_nei = mesh.outward_normal(int(mesh.face_neighbor[fi]), fi)
        np.testing.assert_allclose(n_own, -n_nei, atol=1e-15)
    # Outward means away from the cell centroid (cells here are convex).
    for ci in range(mesh.num_cells):
        for fi in mesh.cell_faces[ci]:
            d = mesh.face_midpoints[fi] - mesh.cell_centroids[ci]
            assert d @ mesh.outward_normal(ci, fi) > 0.0
    # Closed-cell identity: the length-weighted outward normals sum to zero.
    for ci in range(mesh.num_cells):
        total = np.zeros(2)
        for fi in mesh.cell_faces[ci]:
            total += mesh.face_lengths[fi] * mesh.outward_normal(ci, fi)
        np.testing.assert_allclose(total, 0.0, atol=1e-13)


def test_outward_normal_rejects_foreign_cell():
    mesh = generate_cartesian(2)
    fi = int(mesh.cell_faces[0][0])
    foreign = next(ci for ci in range(mesh.num_cells)
                   if ci not in (mesh.face_owner[fi], mesh.face_neighbor[fi]))
    with pytest.raises(ValueError):
        mesh.outward_normal(foreign, fi)


def test_clockwise_cells_are_repaired():
    ref = generate_cartesian(2)
    cells = [list(c) for c in ref.cells]
    cells[1] = cells[1][::-1]
    cells[3] = cells[3][::-1]
    mesh = PolytopalMesh(ref.vertices.copy(), cells)
    assert mesh.orientation_repairs == 2
    assert np.all(mesh.cell_areas > 0.0)
    assert mesh.num_faces == ref.num_faces
    np.testing.assert_allclose(mesh.cell_areas, ref.cell_areas)


def test_geometry_arrays_are_read_only():
    mesh = generate_cartesian(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.cell_areas[0] = 2.0


def test_cell_with_repeated_vertex_raises():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(MeshInvalidError, match="simplicity"):
        PolytopalMesh(verts, [[0, 1, 1, 2]])


def test_cell_with_too_few_vertices_raises():
    with pytest.raises(MeshInvalidError, match="fewer than 3"):
        PolytopalMesh(SQUARE, [[0, 1]])


def test_cell_referencing_missing_vertex_raises():
    with pytest.raises(MeshInvalidError, match="missing vertex"):
        PolytopalMesh(SQUARE, [[0, 1, 99]])


def test_degenerate_cell_raises():
    verts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    with pytest.raises(MeshInvalidError, match="degenerate"):
        PolytopalMesh(verts, [[0, 1, 2]])


def test_self_intersecting_cell_raises():
    verts = [[0.0, 0.0], [3.0, 2.0], [3.0, 0.0], [0.0, 1.0]]
    with pytest.raises(MeshInvalidError, match="self-intersects"):
        PolytopalMesh(verts, [[0, 1, 2, 3]])


def test_edge_shared_by_three_cells_raises():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]]
    cells = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    with pytest.raises(MeshInvalidError, match="face incidence"):
        PolytopalMesh(verts, cells)


def test_overlapping_cells_with_same_traversal_raise():
    # Both cells are counterclockwise and traverse the shared edge in the
    # same direction, which only happens when they lie on the same side.
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.8]]
    cells = [[0, 1, 2], [0, 1, 3]]
    with pytest.raises(MeshInvalidError, match="face conformity"):
        PolytopalMesh(verts, cells)


def test_quality_metrics_on_uniform_meshes():
    mesh = generate_cartesian(4)
    assert quasi_uniformity(mesh) == pytest.approx(1.0)
    # Face/diameter ratio of a square cell is 1/sqrt(2), so rho = 2^(-1/4).
    assert mesh_regularity(mesh) == pytest.approx(2.0 ** -0.25, rel=1e-12)
    tri = generate_triangular(4)
    assert quasi_uniformity(tri) == pytest.approx(1.0)
    assert mesh_regularity(tri) == pytest.approx(2.0 ** -0.25, rel=1e-12)


@pytest.mark.parametrize("family, level", [("kershaw-files", 4), ("hexagonal-files", 3),
                                           ("triangular", 4)])
def test_mesh_regularity_matches_a_loop_over_cells(family, level):
    mesh = build_mesh(family, level)
    ratios = [(mesh.face_lengths[faces] / mesh.cell_diameters[ci]).min()
              for ci, faces in enumerate(mesh.cell_faces)]
    assert mesh_regularity(mesh) == float(np.sqrt(min(ratios)))


ORDERED_MESHES = {
    "cartesian": lambda: generate_cartesian(16),
    "triangular": lambda: generate_triangular(12),
    "hexagonal": lambda: build_mesh("hexagonal-files", 2),
}


def _median_split(mesh, cells):
    """The two halves of a cell-tree node: rank median along the longer centroid extent."""
    pts = mesh.cell_centroids[cells]
    axis = int(np.ptp(pts[:, 1]) > np.ptp(pts[:, 0]))
    ranked = cells[np.argsort(pts[:, axis], kind="stable")]
    return ranked[:len(cells) // 2], ranked[len(cells) // 2:], axis


@pytest.mark.parametrize("family", sorted(ORDERED_MESHES))
def test_interior_face_order_is_a_cached_permutation(family):
    mesh = ORDERED_MESHES[family]()
    order = mesh.interior_face_order
    assert not np.array_equal(order, np.arange(len(mesh.interior_faces)))
    assert np.array_equal(np.sort(order), np.arange(len(mesh.interior_faces)))
    assert mesh.interior_face_order is order
    assert not order.flags.writeable


@pytest.mark.parametrize("family", sorted(ORDERED_MESHES))
def test_nested_dissection_top_level_separates_the_halves(family):
    mesh = ORDERED_MESHES[family]()
    left, right, axis = _median_split(mesh, np.arange(mesh.num_cells))
    assert min(len(left), len(right)) > mesh.num_cells / 4
    assert mesh.cell_centroids[left, axis].max() <= mesh.cell_centroids[right, axis].min()
    interior = mesh.interior_faces
    crossing = np.flatnonzero(np.isin(mesh.face_owner[interior], left)
                              != np.isin(mesh.face_neighbor[interior], left))
    assert len(crossing) > 0
    # The order eliminates both halves before the faces between them.
    order = mesh.interior_face_order
    assert np.array_equal(np.sort(order[len(order) - len(crossing):]), crossing)


@pytest.mark.parametrize("family", sorted(ORDERED_MESHES))
def test_each_face_follows_the_faces_inside_the_halves_of_its_node(family):
    mesh = ORDERED_MESHES[family]()
    interior = mesh.interior_faces
    owner, neighbor = mesh.face_owner[interior], mesh.face_neighbor[interior]
    position = np.empty(len(interior), dtype=np.int64)
    position[mesh.interior_face_order] = np.arange(len(interior))
    separated = []

    def visit(cells, faces):
        # ``faces`` holds the interior faces with both cells in ``cells``.
        if len(cells) == 1:
            assert len(faces) == 0
            return
        left, right, _ = _median_split(mesh, cells)
        a, b = np.isin(owner[faces], left), np.isin(neighbor[faces], left)
        inner, separator = faces[a == b], faces[a != b]
        if len(inner) and len(separator):
            assert position[separator].min() > position[inner].max()
        separated.append(separator)
        visit(left, faces[a & b])
        visit(right, faces[~a & ~b])

    visit(np.arange(mesh.num_cells), np.arange(len(interior)))
    # Each face is in the separator of exactly one node.
    assert np.array_equal(np.sort(np.concatenate(separated)), np.arange(len(interior)))


def test_json_round_trip(tmp_path):
    mesh = generate_cartesian(3)
    path = tmp_path / "grid.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.num_cells == mesh.num_cells
    np.testing.assert_allclose(back.vertices, mesh.vertices)
    for a, b in zip(back.cells, mesh.cells):
        np.testing.assert_array_equal(a, b)


def test_typ2_reader(tmp_path):
    path = tmp_path / "two_tri.typ2"
    path.write_text(
        "vertices\n"
        "4\n"
        "0.0 0.0\n"
        "1.0 0.0\n"
        "1.0 1.0\n"
        "0.0 1.0\n"
        "cells\n"
        "2\n"
        "3 1 2 3\n"
        "3 1 3 4\n",
        encoding="utf-8")
    mesh = read_mesh(path)
    assert (mesh.num_vertices, mesh.num_cells, mesh.num_faces) == (4, 2, 5)
    assert mesh.cell_areas.sum() == pytest.approx(1.0)
    # Explicit format selection bypasses suffix inference.
    again = read_mesh(path, format="fvca-typ2")
    assert again.num_cells == 2


def test_json_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[0, 0],\n  "oops"', encoding="utf-8")
    with pytest.raises(MeshFormatError, match="line"):
        read_mesh(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"vertices": [[0.0, 0.0]]}', encoding="utf-8")
    with pytest.raises(MeshFormatError, match="cells"):
        read_mesh(missing)
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]], "cells": 5}', encoding="utf-8")
    with pytest.raises(MeshFormatError, match=r"scalar\.json: 'cells' is not a list"):
        read_mesh(scalar)


def test_typ2_format_errors(tmp_path):
    path = tmp_path / "broken.typ2"
    path.write_text("3\n0 0\n1 0\n0 1\n1\n3 1 2 9\n", encoding="utf-8")
    with pytest.raises(MeshFormatError, match="references vertex 9"):
        read_mesh(path)
    short = tmp_path / "short.typ2"
    short.write_text("4\n0 0\n1 0\n", encoding="utf-8")
    with pytest.raises(MeshFormatError, match="end of file"):
        read_mesh(short)


def test_read_mesh_path_and_format_errors(tmp_path):
    with pytest.raises(MeshFormatError, match="no such file"):
        read_mesh(tmp_path / "absent.json")
    odd = tmp_path / "mesh.dat"
    odd.write_text("1\n", encoding="utf-8")
    with pytest.raises(MeshFormatError, match="cannot infer"):
        read_mesh(odd)
    with pytest.raises(MeshFormatError, match="unknown mesh format"):
        read_mesh(odd, format="vtk")


def test_cell_geometry_matches_polygon_helpers_per_cell():
    # hexagonal level 1 mixes 4-, 5- and 6-gons, so each vertex-count stack
    # of the batched geometry is checked against the one-polygon helpers.
    mesh = build_mesh("hexagonal-files", 1)
    assert sorted({len(c) for c in mesh.cells}) == [4, 5, 6]
    for ci in range(mesh.num_cells):
        v = mesh.cell_vertices(ci)
        assert abs(mesh.cell_areas[ci] - polygon_area(v)) <= 1e-14
        np.testing.assert_allclose(mesh.cell_centroids[ci], polygon_centroid(v),
                                   rtol=0, atol=1e-14)
        assert abs(mesh.cell_diameters[ci] - polygon_diameter(v)) <= 1e-14


def test_polygon_helpers_take_stacks():
    stack = np.stack((SQUARE, 2.0 * SQUARE[::-1] + 1.0))
    np.testing.assert_allclose(polygon_area(stack), [1.0, -4.0])
    np.testing.assert_allclose(polygon_centroid(stack), [[0.5, 0.5], [2.0, 2.0]])
    np.testing.assert_allclose(polygon_diameter(stack), [np.sqrt(2.0), 2.0 * np.sqrt(2.0)])


def test_invalid_cells_are_named_across_vertex_counts():
    # Cells of different vertex counts are validated in separate stacks; the
    # error still names the offending cell by its index in the input.
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
             [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [5.0, 0.0]]
    with pytest.raises(MeshInvalidError, match="cell 2 is degenerate"):
        PolytopalMesh(verts, [[0, 1, 2], [0, 1, 3, 2], [4, 5, 6, 7]])
    bowtie = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 0.0], [6.0, 2.0],
              [6.0, 0.0], [3.0, 1.0]]
    with pytest.raises(MeshInvalidError, match="cell 1 self-intersects"):
        PolytopalMesh(bowtie, [[0, 1, 2], [3, 4, 5, 6]])
