"""Chebyshev series checked on a nested 257-point grid, and the cubic
Hermite table built over one and read: for ``function_model.sample``, one
series per grid panel, and for ``forward_verifier``, one table per probe."""

from __future__ import annotations

import numpy as np

from .errors import FracLambError

_DEGREE = 128
# The 257 second-kind points of [-1, 1], descending: the even ones are a
# series' nodes, the odd ones (midpoints in angle) its possible checks.
_GRID = np.sin(np.pi * np.arange(_DEGREE, -_DEGREE - 1, -1) / (2 * _DEGREE))
_NODES, _ODD = _GRID[::2], _GRID[1::2]
_TAIL = 16
# The Hermite table's first and largest number of cells, and how close to
# the series it must stay at every cell midpoint, relative to its largest
# edge value (inside the proxy chop's 2.6e-11 budget and the default tol).
_CELLS = 2048
_CELLS_CAP = 2 ** 16
_TABLE_LEVEL = 1e-11

# The Chebyshev-Vandermonde matrix at _CELLS, built lazily: no other
# number of cells has one.
_vander = None


def _clenshaw(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(t): numpy's chebval recurrence, bit for bit, run in
    place over four buffers instead of three new arrays per term. chebval
    itself made the solve_grid deck's median op 1-3% slower (seed 7, 4 of
    4 in-process pairs, 2-core Xeon VM)."""
    if coef.size == 1:
        coef = np.append(coef, 0.0)
    x2, c0, c1, spare = np.empty((4,) + t.shape)
    np.multiply(2.0, t, out=x2)
    c0.fill(coef[-2])
    c1.fill(coef[-1])
    for ck in coef[-3::-1]:
        np.subtract(ck, c1, out=spare)
        c1 *= x2
        c1 += c0
        c0, spare = spare, c0
    c1 *= t
    c1 += c0
    return c1


def _checked_series(f, lo: float, hi: float, checks: np.ndarray, chop: float, level: float):
    """(coefficients, f at the nodes then at the checks) of the Chebyshev
    series of f on [lo, hi], or None where that series does not stand.

    A point t of [-1, 1] stands for x = lo + (t + 1) (hi - lo) / 2. The
    series interpolates f at the _NODES, and checks are odd points t of
    _GRID. f, a vectorized callable, is called once, at the nodes then the
    checks. The series stands unless that call raises FracLambError or
    gives a non-finite value, fewer than _TAIL trailing coefficients are at
    most chop times the largest, or it is off f at the checks by more than
    level * max|f(checks)|. The coefficients returned are the chopped ones.
    """
    half = 0.5 * (hi - lo)
    try:
        read = np.asarray(f(lo + (np.concatenate([_NODES, checks]) + 1.0) * half))
    except FracLambError:
        return None
    if not np.isfinite(read).all():
        return None
    n = _NODES.size
    # The DCT-I of the node values, as the real FFT of their even extension.
    coef = np.fft.rfft(np.concatenate([read[:n], read[n - 2:0:-1]])).real / _DEGREE
    coef[0] /= 2.0
    coef[-1] /= 2.0
    # chebtrim keeps one coefficient of an all-zero series, so it stands.
    kept = np.polynomial.chebyshev.chebtrim(coef, chop * np.max(np.abs(coef)))
    if coef.size - kept.size < _TAIL:
        return None
    if not np.max(np.abs(_clenshaw(kept, checks) - read[n:])) <= level * np.max(np.abs(read[n:])):
        return None
    return kept, read


def _hermite_table(coef: np.ndarray):
    """A (4, M + 1) cubic Hermite table of the series sum_k coef[k] T_k on
    [-1, 1] cut into M equal cells, or None where it does not stand.

    Cell i holds its Horner coefficients in the fraction of the cell, y0,
    d0, 3 (y1 - y0) - 2 d0 - d1 and 2 (y0 - y1) + d0 + d1, from the
    series' values y and slopes d (in cell units) at its edges; a closing
    cell M holds [y_M, 0, 0, 0]. M starts at _CELLS and doubles until the
    table is within _TABLE_LEVEL * max|y at the edges| of the series at
    every midpoint, where a cell's error peaks; past _CELLS_CAP it does not
    stand. At _CELLS, y at the edges then midpoints and d at the edges are
    products with numpy's column-major ``chebvander``, kept with the most
    columns a series has needed (1.2 MB for 37 terms); column k comes from
    columns k - 1 and k - 2 alone, so no float depends on what the cache
    holds. A doubled table sums them by ``_clenshaw``, building no matrix.
    """
    global _vander
    slope = np.polynomial.chebyshev.chebder(coef)
    cells = _CELLS
    while cells <= _CELLS_CAP:
        t = np.concatenate([np.arange(cells + 1), np.arange(cells) + 0.5]) * (2.0 / cells) - 1.0
        if cells > _CELLS:
            y, d = _clenshaw(coef, t), _clenshaw(slope, t[:cells + 1])
        else:
            if _vander is None or _vander.shape[1] < coef.size:
                _vander = np.polynomial.chebyshev.chebvander(t, coef.size - 1)
            y, d = _vander[:, :coef.size] @ coef, _vander[:cells + 1, :slope.size] @ slope
        d *= 2.0 / cells
        y0, y1, d0, d1 = y[:cells], y[1:cells + 1], d[:-1], d[1:]
        table = np.zeros((4, cells + 1))
        table[0] = y[:cells + 1]
        table[1:, :-1] = d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, 2.0 * (y0 - y1) + d0 + d1
        mid = ((table[3] * 0.5 + table[2]) * 0.5 + table[1]) * 0.5 + table[0]
        if np.max(np.abs(mid[:-1] - y[cells + 1:])) <= _TABLE_LEVEL * np.max(np.abs(table[0])):
            return table
        cells *= 2
    return None


def _table_values(table: np.ndarray, s: np.ndarray, top: float, out: np.ndarray,
                  cell: np.ndarray, term: np.ndarray) -> np.ndarray:
    """The series a ``_hermite_table`` holds, mapped onto [0, top], at s
    (in [0, top], overwritten) into out: cell = floor(s M / top), one
    gather per table row into term, then Horner in s's fraction of the cell."""
    s *= (table.shape[1] - 1) / top
    np.copyto(cell, s, casting="unsafe")  # floor, as s >= 0
    s -= cell
    np.take(table[3], cell, out=out, mode="clip")
    for row in table[2::-1]:
        out *= s
        out += np.take(row, cell, out=term, mode="clip")
    return out
