"""Forward integral operators and residual certification.

Solving is only half the job: every solution here is meant to be pushed
back through the original integral operator and compared against the
right-hand side. ``forward(spec, u, xs, cfg)`` maps each equation variant
to its forward evaluator, in this one place, one call per probe, so each
value depends on its own point only:

* every deterministic variant is one weighted power kernel,
  w * int_0^inf y^alpha u(x - y^m) dy (``_forward_kernel``):
  ``forward_power`` is (0, m, 1), for the classic (m = 2) and power
  variants; ``forward_radial`` is (n - 1, 2, Vol(S^(n-1))), the exact
  polar reduction of the full-space integral, for symmetric_ndim;
* ``forward_quadform_mc``: Monte Carlo over a truncated box in Cartesian
  coordinates, up to n = 4, for the quadratic-form variant.
  ``forward_montecarlo`` is the same estimator with A = identity.
  Agreement between the Monte Carlo and radial routes is the numerical
  witness for the polar Jacobian r^(n-1) sin^(n-2)(...) that justifies
  the reduction.

Monte Carlo uses the counter-based Philox generator keyed on (seed, probe
point), so estimates are bit-identical for a fixed seed and independent
across probe points regardless of evaluation order. A quadrature-valued u
(a fractional-order solution, one Weyl integral per value) is read at the
samples off a chopped Chebyshev interpolant of s -> u(x - s^2), checked
against direct u on a fixed subset of the samples; see ``_sample_values``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DimensionCapError, DomainError
from .function_model import (CUTOFF_EPSILON, SmoothFunction, check_finite, check_window,
                             effective_lower_cutoff)
from .lamb_solver import PosDefMatrix, ProblemSpec, check_exponent, solve_problem
from .special_functions import check_dimension, check_integer, sphere_volume

__all__ = [
    "ResidualReport",
    "forward_radial",
    "forward_power",
    "forward_montecarlo",
    "forward_quadform_mc",
    "forward",
    "verify",
]

# Relative truncation bias allowed for the Monte Carlo box. Tighter boxes
# mean lower estimator variance, so this is deliberately looser than
# CUTOFF_EPSILON while staying far below the estimator's standard error.
_MC_BOX_BIAS = 1e-8

_MC_DIM_CAP = 4

# Chebyshev proxy for a quadrature-valued u: its degree, the level below
# which its trailing coefficients are dropped (relative to the largest), and
# how many of the first samples check it against direct values.
_PROXY_DEGREE = 128
_PROXY_CHOP = 1e-13
_PROXY_CHECKS = 256


def _decay_span(u: SmoothFunction, x: float, epsilon: float) -> float:
    """Distance below x past which |u| stays under epsilon * local scale."""
    value = float(u(x))
    check_finite(u.label, x, value)
    L = effective_lower_cutoff(u, epsilon * (abs(value) or 1.0), value_only=True)
    return max(float(x) - L, 1e-12)


def _forward_kernel(u: SmoothFunction, alpha: int, m: int, w: float, x: float,
                    cfg: QuadratureConfig) -> float:
    """w * int_0^inf y^alpha u(x - y^m) dy, truncated where u's tail dies.

    Integrated in y: for integer alpha and m the integrand is analytic there,
    while s = y^m would bring a weak endpoint singularity.
    """
    x = float(x)
    Y = _decay_span(u, x, CUTOFF_EPSILON) ** (1.0 / m)

    def integrand(y):
        return y ** alpha * u.evaluate(x - y ** m)

    return w * float(_quad.integrate_batch(integrand, np.array([Y]), cfg)[0])


def forward_radial(u: SmoothFunction, n: int, x: float,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Vol(S^(n-1)) * int_0^inf r^(n-1) u(x - r^2) dr."""
    return _forward_kernel(u, check_dimension(n) - 1, 2, sphere_volume(n), x, cfg)


def forward_power(u: SmoothFunction, m: int, x: float,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int_0^inf u(x - y^m) dy."""
    return _forward_kernel(u, 0, check_exponent(m), 1.0, x, cfg)


def _probe_rng(seed: int, x: float) -> np.random.Generator:
    # Counter-based generator keyed on (seed, probe point): deterministic
    # for a fixed seed, split across probe points.
    xbits = np.array(float(x), dtype=np.float64).view(np.uint64)
    key = np.array([np.uint64(seed), xbits], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_values(u: SmoothFunction, forms: np.ndarray, x: float,
                   cfg: QuadratureConfig) -> np.ndarray:
    """u(x - form) at the samples' quadratic forms, all of them >= 0.

    A quadrature-valued u is read off the degree-_PROXY_DEGREE Chebyshev
    interpolant of s -> u(x - s^2) on [0, sqrt(max(forms))], built from
    _PROXY_DEGREE + 1 direct values and evaluated at s = sqrt(form). In s a
    tail that decays like exp(lam * xi) becomes a Gaussian, which the series
    resolves at this degree where one in x may not. Trailing coefficients
    below _PROXY_CHOP of the largest are dropped first: max|c| <= 2 max|u|,
    so this moves a value by at most 128 * 2e-13 * max|u| = 2.6e-11 max|u|,
    40x inside the check at the default tol. The interpolant stands only if
    it is within cfg.tol * max|u| of direct u on the first _PROXY_CHECKS
    samples (a NaN fails); otherwise u is evaluated directly at every
    sample, as it is for any other u.
    """
    if u.quadrature_valued:
        proxy = np.polynomial.Chebyshev.interpolate(
            lambda s: u.evaluate(x - s * s), _PROXY_DEGREE,
            domain=[0.0, math.sqrt(float(np.max(forms)))])
        # A NaN level marks no coefficient small, so a NaN is kept to fail the check.
        small = np.abs(proxy.coef) <= _PROXY_CHOP * np.max(np.abs(proxy.coef))
        proxy = proxy.truncate(proxy.coef.size - np.argmin(small[::-1]))
        vals = proxy(np.sqrt(forms))
        direct = u.evaluate(x - forms[:_PROXY_CHECKS])
        if np.max(np.abs(vals[:_PROXY_CHECKS] - direct)) <= cfg.tol * np.max(np.abs(direct)):
            return vals
    return u.evaluate(x - forms)


def forward_quadform_mc(u: SmoothFunction, A: PosDefMatrix, x: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Monte Carlo estimate of int_{R^n} u(x - y^T A y) dy, n <= 4.

    Samples are uniform on a box outside which |u| stays below 1e-8 of
    |u(x)|. Each quadratic form y^T A y is built from A.entries in two
    passes, (y A) . y, never from A's Cholesky factor. u is evaluated at
    each sample directly, unless it is quadrature_valued: then a chopped
    Chebyshev interpolant in s = sqrt(y^T A y), checked against direct
    values, stands in for it (``_sample_values``).

    Returns (estimate, standard_error); bit-identical for a fixed
    cfg.mc_seed.
    """
    if not isinstance(A, PosDefMatrix):
        A = PosDefMatrix(A)
    n = A.n
    if n > _MC_DIM_CAP:
        raise DimensionCapError(
            f"Cartesian Monte Carlo is capped at n <= {_MC_DIM_CAP}, got {n}; "
            "use the radial route for higher dimensions"
        )
    x = float(x)
    # y^T A y >= min_pivot |y|^2 on the box, so this radius pushes the
    # integrand below the bias target at the box boundary.
    R = math.sqrt(_decay_span(u, x, _MC_BOX_BIAS) / A.min_pivot)

    rng = _probe_rng(cfg.mc_seed, x)
    y = rng.uniform(-R, R, size=(cfg.mc_samples, n))
    form = np.einsum("ij,ij->i", y @ A.entries, y)
    vals = _sample_values(u, form, x, cfg)
    volume = (2.0 * R) ** n
    estimate = volume * float(np.mean(vals))
    std_error = volume * float(np.std(vals, ddof=1)) / math.sqrt(cfg.mc_samples)
    return estimate, std_error


def forward_montecarlo(u: SmoothFunction, n: int, x: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Monte Carlo estimate of int_{R^n} u(x - |y|^2) dy, n <= 4:
    forward_quadform_mc with A = identity."""
    return forward_quadform_mc(u, PosDefMatrix.identity(check_dimension(n)), x, cfg)


def forward(spec: ProblemSpec, u: SmoothFunction, xs,
            cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply the forward operator of ``spec``'s equation to u at each probe.

    Returns (values, standard_errors) as 1-D arrays over the flattened xs.
    The standard errors are None for the deterministic quadrature routes;
    only the quadform variant, certified by Monte Carlo, has them. Every
    value depends on its own probe point only.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    if spec.variant == "quadform":
        values, std_errors = np.array(
            [forward_quadform_mc(u, spec.A, x, cfg) for x in xs]).reshape(-1, 2).T
        return values, std_errors
    if spec.variant == "symmetric_ndim":
        values = [forward_radial(u, spec.n, x, cfg) for x in xs]
    else:
        m = 2 if spec.variant == "classic" else spec.m
        values = [forward_power(u, m, x, cfg) for x in xs]
    return np.array(values, dtype=float), None


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Round-trip certificate: forward(solution) compared with f per probe."""

    window: tuple[float, float]
    probe_count: int
    max_abs_residual: float
    max_rel_residual: float
    rows: list = field(repr=False)  # (x, f, forward, residual) per probe
    std_errors: list | None = field(default=None, repr=False)

    def to_csv(self) -> str:
        return "x,f,forward,residual\n" + "".join(
            ["%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in self.rows])

    def to_json(self) -> str:
        """Strict JSON: a non-finite number is written as null."""
        num = lambda v: v if math.isfinite(v) else None
        obj = {
            "window": [num(self.window[0]), num(self.window[1])],
            "probe_count": self.probe_count,
            "max_abs_residual": num(self.max_abs_residual),
            "max_rel_residual": num(self.max_rel_residual),
            "rows": [
                {"x": num(x), "f": num(fx), "forward": num(fwd), "residual": num(res)}
                for x, fx, fwd, res in self.rows
            ],
        }
        if self.std_errors is not None:
            obj["std_errors"] = [num(se) for se in self.std_errors]
        return json.dumps(obj, allow_nan=False)


def verify(spec: ProblemSpec, f: SmoothFunction, window, probes: int,
           cfg: QuadratureConfig = DEFAULT_CONFIG) -> ResidualReport:
    """Solve ``spec`` for u, apply the matching forward operator at equispaced
    probe points, and report the residuals forward(u) - f.

    Relative residuals are normalized by max(|f(x)|, 1e-300 * max|f|) so
    windows where f vanishes do not blow up the report. A NaN residual
    makes both maxima NaN.
    """
    a, b = check_window(*window)
    probes = check_integer("probes", probes)
    if probes < 3:
        raise DomainError(f"need at least 3 probes, got {probes}")

    u = solve_problem(spec, f, cfg)
    xs = a + np.arange(probes) * ((b - a) / (probes - 1))
    f_vals = np.asarray(f(xs), dtype=float)
    forwards, std_errors = forward(spec, u, xs, cfg)
    res = forwards - f_vals
    denom = np.maximum(np.abs(f_vals), 1e-300 * np.max(np.abs(f_vals)))
    rels = np.divide(np.abs(res), denom, out=np.where(res == 0.0, 0.0, math.inf),
                     where=denom > 0.0)

    # np.max lets a NaN residual through to the report.
    return ResidualReport(
        window=(a, b),
        probe_count=probes,
        max_abs_residual=float(np.max(np.abs(res))),
        max_rel_residual=float(np.max(rels)),
        rows=list(zip(xs.tolist(), f_vals.tolist(), forwards.tolist(), res.tolist())),
        std_errors=None if std_errors is None else std_errors.tolist(),
    )
