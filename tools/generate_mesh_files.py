"""Generate the shipped hexagonal and Kershaw mesh files.

Run from the repository root:

    python3 tools/generate_mesh_files.py

Writes four refinement levels per family into src/hhonl/data/ as native
JSON, plus one FVCA typ2 copy of the coarsest hexagonal mesh used by the
format round-trip tests.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hhonl.mesh import PolytopalMesh, mesh_size, mesh_regularity, write_mesh

# Brick rows (hexagonal) and cells per side (Kershaw) of levels 1 to 4.
HEXAGONAL_LEVELS = (8, 16, 32, 64)
KERSHAW_LEVELS = (12, 24, 48, 96)


def hexagonal_mesh(n):
    """Hexagonal-dominant mesh of the unit square with n brick rows.

    Rows of width-1/n bricks are offset by half a brick every other row;
    each interior brick junction is displaced vertically by 1/(4n), turning
    the bricks into convex hexagons (with quads and pentagons where rows
    meet the boundary).
    """
    w = 1.0 / n
    delta = 0.25 * w

    def walls(r):
        off = 0.5 * (r % 2)
        xs = [(i + off) * w for i in range(-1, n + 1)]
        return [x for x in xs if 1e-12 < x < 1.0 - 1e-12]

    # Stations per horizontal interface: wall ends of the rows below and
    # above, displaced down/up respectively; boundary interfaces keep the
    # wall ends of their single adjacent row but stay flat.
    stations = []
    for j in range(n + 1):
        st = {0.0: 0.0, 1.0: 0.0}
        if j > 0:
            for x in walls(j - 1):
                st[x] = -delta if j < n else 0.0
        if j < n:
            for x in walls(j):
                st[x] = delta if j > 0 else 0.0
        stations.append(sorted(st.items()))

    vertex_index = {}
    vertices = []

    def vid(j, x, d):
        key = (j, round(x, 12))
        if key not in vertex_index:
            vertex_index[key] = len(vertices)
            vertices.append((x, j * w + d))
        return vertex_index[key]

    cells = []
    for r in range(n):
        cuts = [0.0] + walls(r) + [1.0]
        for xl, xr in zip(cuts, cuts[1:]):
            bottom = [(x, d) for x, d in stations[r] if xl - 1e-12 <= x <= xr + 1e-12]
            top = [(x, d) for x, d in stations[r + 1] if xl - 1e-12 <= x <= xr + 1e-12]
            poly = [vid(r, x, d) for x, d in bottom]
            poly += [vid(r + 1, x, d) for x, d in reversed(top)]
            cells.append(poly)
    return PolytopalMesh(np.asarray(vertices), cells)


def _kershaw_right(eps, y):
    y = np.asarray(y, dtype=float)
    return np.where(y <= 0.5, (2.0 - eps) * y, 1.0 + eps * (y - 1.0))


def _kershaw_left(eps, y):
    return 1.0 - _kershaw_right(eps, 1.0 - np.asarray(y, dtype=float))


def kershaw_mesh(n, eps=0.75):
    """Kershaw distortion of an n-by-n grid (n divisible by 6).

    The vertical coordinate blends between a left and a right zigzag
    profile across six horizontal layers, producing the classic slanted
    layered cells; eps controls the distortion strength (1 = undistorted).
    """
    if n % 6 != 0:
        raise ValueError("Kershaw construction needs n divisible by 6")
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    layer = np.minimum((X * 6.0).astype(int), 5)
    lam = X * 6.0 - layer
    lft = _kershaw_left(eps, Y)
    rgt = _kershaw_right(eps, Y)
    Ynew = np.empty_like(Y)
    for L in range(6):
        m = layer == L
        if L == 0:
            Ynew[m] = lft[m]
        elif L in (1, 4):
            Ynew[m] = (1.0 - lam[m]) * lft[m] + lam[m] * rgt[m]
        elif L == 2:
            s = 0.5 * lam[m]
            Ynew[m] = (1.0 - s) * rgt[m] + s * lft[m]
        elif L == 3:
            s = 0.5 * (1.0 + lam[m])
            Ynew[m] = (1.0 - s) * rgt[m] + s * lft[m]
        else:
            Ynew[m] = rgt[m]
    verts = np.column_stack((X.ravel(), Ynew.ravel()))

    def gid(i, j):
        return i * (n + 1) + j

    cells = [[gid(i, j), gid(i + 1, j), gid(i + 1, j + 1), gid(i, j + 1)]
             for i in range(n) for j in range(n)]
    return PolytopalMesh(verts, cells)


def write_typ2(mesh, path):
    lines = ["vertices", str(mesh.num_vertices)]
    lines += [f"{x:.16g} {y:.16g}" for x, y in mesh.vertices]
    lines += ["cells", str(mesh.num_cells)]
    for cell in mesh.cells:
        lines.append(" ".join([str(len(cell))] + [str(v + 1) for v in cell]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main():
    out = Path(__file__).resolve().parents[1] / "src" / "hhonl" / "data"
    out.mkdir(parents=True, exist_ok=True)
    for level, n in enumerate(HEXAGONAL_LEVELS, start=1):
        mesh = hexagonal_mesh(n)
        assert abs(mesh.cell_areas.sum() - 1.0) < 1e-12, "hexagonal tiling leaks area"
        write_mesh(mesh, out / f"hexagonal_{level}.json")
        print(f"hexagonal_{level}.json: n={n} cells={mesh.num_cells} "
              f"h={mesh_size(mesh):.4f} regularity={mesh_regularity(mesh):.3f}")
        if level == 1:
            write_typ2(mesh, out / "hexagonal_1.typ2")
    for level, n in enumerate(KERSHAW_LEVELS, start=1):
        mesh = kershaw_mesh(n)
        assert abs(mesh.cell_areas.sum() - 1.0) < 1e-12, "Kershaw tiling leaks area"
        write_mesh(mesh, out / f"kershaw_{level}.json")
        print(f"kershaw_{level}.json: n={n} cells={mesh.num_cells} "
              f"h={mesh_size(mesh):.4f} regularity={mesh_regularity(mesh):.3f}")


if __name__ == "__main__":
    main()
