"""Smoke test: the lattice-vector search still imports the module's
constants and reproduces a small vector."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lattice_vector_search_is_deterministic():
    lattice_vectors = _load("lattice_vectors")
    z, quality = lattice_vectors.search(3, 5, 10, 16, 0)
    assert lattice_vectors.search(3, 5, 10, 16, 0)[0] == z
    assert len(z) == len(quality) == 3
    assert z[0] == 1
    assert all(component % 2 == 1 for component in z)
