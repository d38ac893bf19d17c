"""The mesh-file generator still reproduces the shipped mesh files.

The generator is loaded as a module and only its builders and writers are
called: its ``main()`` would overwrite ``src/hhonl/data``.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "tools" / "generate_mesh_files.py"


@pytest.fixture
def generator():
    if not GENERATOR.is_file():
        pytest.skip("tools/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("generate_mesh_files", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_the_shipped_mesh_files_byte_for_byte(generator, tmp_path):
    written = []
    for level, n in enumerate(generator.HEXAGONAL_LEVELS, start=1):
        mesh = generator.hexagonal_mesh(n)
        written.append(f"hexagonal_{level}.json")
        generator.write_mesh(mesh, tmp_path / written[-1])
        if level == 1:
            written.append("hexagonal_1.typ2")
            generator.write_typ2(mesh, tmp_path / written[-1])
    for level, n in enumerate(generator.KERSHAW_LEVELS, start=1):
        written.append(f"kershaw_{level}.json")
        generator.write_mesh(generator.kershaw_mesh(n), tmp_path / written[-1])
    shipped = ROOT / "src" / "hhonl" / "data"
    assert sorted(written) == sorted(p.name for p in shipped.iterdir() if p.is_file())
    for name in written:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
