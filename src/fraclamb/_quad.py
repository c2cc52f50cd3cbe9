"""Composite Gauss-Legendre panels with doubling-based error control.

Every improper integral here reduces, by a change of variables, to a smooth
int_0^U s^d g(x - s^p) ds; ``fractional_ops._power_kernel``, its integrand, is
this module's only caller. A 32-node rule per panel, doubled until two
refinements agree, is simple, robust and spectral-fast for analytic integrands.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import QuadratureConfig
from .errors import ConvergenceError

NODES_PER_PANEL = 32
# Cap on composite panels; doubling from one panel, so a power of two.
MAX_PANELS = 4096


@functools.lru_cache(maxsize=None)
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, 1] with the given panel count."""
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    width = 1.0 / panels
    offsets = (np.arange(panels) + 0.5) * width
    nodes = (offsets[:, None] + 0.5 * width * x[None, :]).ravel()
    weights = np.tile(0.5 * width * w, panels)
    return nodes, weights


def integrate_batch(integrand, uppers: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """Integrate ``integrand`` over [0, upper_i] for each element of a batch.

    ``integrand(s)`` must accept an array shaped (batch, nodes) and return
    values of the same shape; each row i is evaluated on nodes scaled to
    [0, uppers[i]]. Panels double until successive estimates agree to
    cfg.tol * (1 + |estimate|) elementwise.

    Raises:
        ConvergenceError: if MAX_PANELS is reached first (the error object
            carries the last estimate and max|I_L - I_(L-1)| over the batch
            for the last two levels, or nan if only one level ran).
    """
    uppers = np.atleast_1d(np.asarray(uppers, dtype=float))
    previous = estimate = None
    panels = 1
    while panels <= MAX_PANELS:
        previous = estimate
        nodes, weights = _unit_rule(panels)
        s = uppers[:, None] * nodes[None, :]
        vals = integrand(s)
        estimate = uppers * (vals @ weights)
        if previous is not None:
            err = np.abs(estimate - previous)
            if np.all(err <= cfg.tol * (1.0 + np.abs(estimate))):
                return estimate
        panels *= 2
    err = float(np.max(np.abs(estimate - previous))) if previous is not None else float("nan")
    raise ConvergenceError(
        f"quadrature did not converge within {MAX_PANELS} panels "
        f"(last error estimate {err:.3g})",
        estimate=estimate, error_estimate=err,
    )
