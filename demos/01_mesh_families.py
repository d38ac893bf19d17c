"""Tour of the four supported mesh families.

All four are generated on the fly: Cartesian and triangular meshes of the
unit square at any resolution, and four refinement levels each of the
polygonal hexagonal and Kershaw families.  All of them end up as the same
PolytopalMesh structure: vertex coordinates, cells as counterclockwise
vertex loops, and a face table with ownership and outward normals.
"""

import numpy as np

from hhonl.harness import build_mesh
from hhonl.mesh import (
    generate_cartesian,
    generate_triangular,
    mesh_regularity,
    mesh_size,
)


def describe(name, mesh):
    print(f"{name}:")
    print(f"  vertices   {mesh.num_vertices}")
    print(f"  cells      {mesh.num_cells}")
    print(f"  faces      {mesh.num_faces} "
          f"({len(mesh.boundary_faces)} on the boundary)")
    print(f"  mesh size  {mesh_size(mesh):.4f}")
    print(f"  regularity {mesh_regularity(mesh):.4f}")
    print(f"  total area {mesh.cell_areas.sum():.12f}")


# Cartesian and triangular: any resolution you like.
describe("cartesian 8x8", generate_cartesian(8))
describe("triangular 8x8 (two triangles per square)", generate_triangular(8))

# Polygonal families: four refinement levels each, level 1 the coarsest.
for family in ("hexagonal-files", "kershaw-files"):
    print()
    describe(f"{family} level 1", build_mesh(family, 1))

# The mesh is a plain data object.  Cell 0 of the coarse hexagonal mesh:
mesh = build_mesh("hexagonal-files", 1)
cell = mesh.cells[0]
print("\nfirst hexagonal cell:")
print("  vertex ids ", cell)
with np.printoptions(precision=3, suppress=True):
    print("  coordinates", mesh.vertices[cell].tolist())
print("  area        %.6f" % mesh.cell_areas[0])
print("  diameter    %.6f" % mesh.cell_diameters[0])
