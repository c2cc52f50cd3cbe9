"""Search the generating vector of the embedded rank-1 lattice rules that
``forward_verifier.forward_quadform_mc`` uses.

A rank-1 lattice rule with N points and generating vector z takes the points
{k z / N}, k = 0..N-1. For N = 2^m the rule with z mod 2^m is the first
2^m-point piece of the 2^M-point rule (every 2^(M-m)-th point), so one
vector serves every power of two up to 2^M.

The search is component by component (CBC): z_1 = 1, and each next
component is the candidate, from a seeded pool of odd integers below 2^M,
that minimises the worst, over M_MIN <= m <= M, of the squared worst-case
error e_m^2 in the Korobov space of smoothness 2 with unit product weights
(the P_2 criterion),

    e_m^2(z) = -1 + 2^-m sum_k prod_j (1 + 2 pi^2 B_2({k z_j / 2^m})),

each divided by the smallest e_m^2 in the pool, with B_2(t) = t^2 - t + 1/6
(Sloan & Joe, Lattice Methods for Multiple Integration, 1994; Cools, Kuo
& Nuyens, SIAM J. Sci. Comput. 28, 2006). The vector's first n components
serve dimension n. The dimension cap and M are forward_verifier's own
_MC_DIM_CAP and _LATTICE_M_MAX, so the vector always fits the module.

Run from the root of a checkout with the package importable (about 45 s):

    PYTHONPATH=src python3 tools/lattice_vectors.py

It prints the vector, each component's worst e_m^2 relative to the pool's
best, and whether the vector is the module's _LATTICE_Z.
"""

from __future__ import annotations

import math

import numpy as np

from fraclamb.forward_verifier import _LATTICE_M_MAX, _LATTICE_Z, _MC_DIM_CAP

M_MIN = 5     # smallest rule checked: 2^5 points
POOL = 1024   # seeded odd candidates per component
SEED = 0


def _omega(z: int, size: int) -> np.ndarray:
    """1 + 2 pi^2 B_2({k z / size}) for k = 0..size-1 (size a power of two)."""
    t = ((np.arange(size, dtype=np.int64) * z) & (size - 1)) / size
    return 1.0 + 2.0 * math.pi ** 2 * (t * t - t + 1.0 / 6.0)


def _errors(prod: np.ndarray, levels: range) -> np.ndarray:
    """e_m^2 for each m in levels, from the product over all components."""
    size = prod.size
    return np.array([np.mean(prod[::size >> m]) - 1.0 for m in levels])


def search(dims: int, m_min: int, m_max: int, pool: int, seed: int):
    """The CBC vector and, per component, its e_m^2 over the pool's best."""
    size = 1 << m_max
    levels = range(m_min, m_max + 1)
    rng = np.random.default_rng(seed)
    prod = _omega(1, size)
    z, quality = [1], [np.ones(len(levels))]
    for _ in range(1, dims):
        candidates = 2 * rng.choice(size // 2, size=pool, replace=False) + 1
        errors = np.array([_errors(prod * _omega(int(c), size), levels) for c in candidates])
        ratios = errors / errors.min(axis=0)
        best = int(np.argmin(ratios.max(axis=1)))
        z.append(int(candidates[best]))
        quality.append(ratios[best])
        prod *= _omega(z[-1], size)
    return z, quality


def main() -> int:
    z, quality = search(_MC_DIM_CAP, M_MIN, _LATTICE_M_MAX, POOL, SEED)
    for j, ratios in enumerate(quality, start=1):
        print(f"z_{j} = {z[j - 1]:>7d}  worst e_m^2 / pool best: {ratios.max():.3f}")
    print(f"_LATTICE_Z = {tuple(z)}  (module's: {'same' if tuple(z) == _LATTICE_Z else 'differs'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
