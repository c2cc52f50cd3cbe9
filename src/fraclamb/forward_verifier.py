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
* ``forward_quadform_mc``: a randomized rank-1 lattice rule in Cartesian
  coordinates, up to n = 4, for the quadratic-form variant, with a
  logistic map of the unit cube onto all of R^n. ``forward_montecarlo``
  is the same estimator with A = identity. Agreement between the lattice
  and radial routes is the numerical witness for the polar Jacobian
  r^(n-1) sin^(n-2)(...) that justifies the reduction.

The lattice rule's random shifts come from the counter-based Philox
generator keyed on (seed, probe point), so estimates are bit-identical for
a fixed seed and independent across probe points regardless of evaluation
order; its standard error comes from the spread of the shifts. A
quadrature-valued u (one Weyl integral per value) is read below its decay
span off a checked Chebyshev interpolant of s -> u(x - s^2), and past it
directly in bounded blocks (``_sample_values``).
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

_MC_DIM_CAP = 4

# Randomized rank-1 lattice rule for the quadratic-form certificate. The
# generating vector comes from tools/lattice_vectors.py, a component-by-
# component search good at every 2^m points up to 2^_LATTICE_M_MAX; its
# first n components serve dimension n. At least _LATTICE_SHIFTS random
# shifts give the standard error 15 or more degrees of freedom.
_LATTICE_Z = (1, 683381, 509385, 950201)
_LATTICE_M_MAX = 20
_LATTICE_SHIFTS = 16
# The logistic map's scale c is _LOGISTIC_KAPPA times
# sqrt(D / (ln(1 / _LOGISTIC_DECAY) min_pivot)), with D the span over which
# u decays by _LOGISTIC_DECAY and min_pivot A's smallest Cholesky pivot: for
# an exponential u, the length in y over which u(x - y^T A y) falls by e.
_LOGISTIC_KAPPA = 0.75
_LOGISTIC_DECAY = 1e-8

# Chebyshev proxy for a quadrature-valued u: its degree, the level below
# which its trailing coefficients are dropped (relative to the largest), and
# how many samples check it against direct values.
_PROXY_DEGREE = 128
_PROXY_CHOP = 1e-13
_PROXY_CHECKS = 256
# Most samples per direct read of a quadrature-valued u, so that the Weyl
# batch's rows x nodes arrays stay bounded.
_DIRECT_BLOCK = 4096


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


def _clenshaw(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(t): numpy's chebval recurrence, bit for bit, run in
    place over preallocated buffers instead of three new arrays per term."""
    if coef.size == 1:
        coef = np.append(coef, 0.0)
    x2 = 2.0 * t
    c0 = np.full_like(t, coef[-2])
    c1 = np.full_like(t, coef[-1])
    spare = np.empty_like(t)
    for ck in coef[-3::-1]:
        np.subtract(ck, c1, out=spare)
        c1 *= x2
        c1 += c0
        c0, spare = spare, c0
    c1 *= t
    c1 += c0
    return c1


def _read_direct(u: SmoothFunction, forms: np.ndarray, x: float) -> np.ndarray:
    """u(x - forms), _DIRECT_BLOCK consecutive samples per call of u."""
    vals = np.empty_like(forms)
    for i in range(0, forms.size, _DIRECT_BLOCK):
        vals[i:i + _DIRECT_BLOCK] = u.evaluate(x - forms[i:i + _DIRECT_BLOCK])
    return vals


def _sample_values(u: SmoothFunction, forms: np.ndarray, x: float,
                   cfg: QuadratureConfig) -> np.ndarray:
    """u(x - form) at the samples' quadratic forms, all of them >= 0, as a
    new array. A u that is not quadrature-valued is evaluated in one call.

    Otherwise u is read off the degree-_PROXY_DEGREE Chebyshev interpolant of
    s -> u(x - s^2) on [0, sqrt(S)], from _PROXY_DEGREE + 1 direct values, at
    s = sqrt(form); in s an exponential tail becomes a Gaussian, which this
    degree resolves. Past the cap S = _decay_span(u, x, CUTOFF_EPSILON),
    |u| < CUTOFF_EPSILON |u(x)|, and the few samples there (1-3% of the
    benchmark's) are read by ``_read_direct``. Trailing coefficients below
    _PROXY_CHOP of the largest are cut: max|c| <= 2 max|u|, so a value moves
    by at most 128 * 2e-13 max|u| = 2.6e-11 max|u|, 40x inside the check at
    the default tol. The interpolant stands if it is within cfg.tol * max|u|
    of direct u on _PROXY_CHECKS samples spread evenly below the cap (a NaN
    fails); otherwise ``_read_direct`` reads those samples as well.
    """
    if not u.quadrature_valued:
        return u.evaluate(x - forms)
    span = _decay_span(u, x, CUTOFF_EPSILON)
    proxy = np.polynomial.Chebyshev.interpolate(
        lambda s: u.evaluate(x - s * s), _PROXY_DEGREE, domain=[0.0, math.sqrt(span)])
    # A NaN level marks no coefficient small, so a NaN is kept to fail the check.
    small = np.abs(proxy.coef) <= _PROXY_CHOP * np.max(np.abs(proxy.coef))
    coef = proxy.coef[:proxy.coef.size - np.argmin(small[::-1])]
    inside = forms <= span
    vals = np.empty_like(forms)
    # The proxy's own map of [0, sqrt(S)] onto [-1, 1].
    off, scl = proxy.mapparms()
    s = np.sqrt(forms[inside])
    s *= scl
    s += off
    vals[inside] = _clenshaw(coef, s)
    vals[~inside] = _read_direct(u, forms[~inside], x)
    checked = np.flatnonzero(inside)
    checked = checked[::max(1, checked.size // _PROXY_CHECKS)][:_PROXY_CHECKS]
    direct = u.evaluate(x - forms[checked])
    if checked.size and not (np.max(np.abs(vals[checked] - direct))
                             <= cfg.tol * np.max(np.abs(direct))):
        vals[inside] = _read_direct(u, forms[inside], x)
    return vals


def forward_quadform_mc(u: SmoothFunction, A: PosDefMatrix, x: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Randomized lattice estimate of int_{R^n} u(x - y^T A y) dy, n <= 4.

    A rank-1 lattice rule of N = 2^m points, m the largest with
    N <= cfg.mc_samples / _LATTICE_SHIFTS (and m <= _LATTICE_M_MAX), is
    taken under q = cfg.mc_samples // N independent Cranley-Patterson random
    shifts, drawn from the Philox stream keyed on (cfg.mc_seed, x): a budget
    of N q <= cfg.mc_samples integrand values (49152 for 5e4). A point t of
    the unit cube maps to y = c log(t / (1 - t)) per coordinate, Jacobian
    prod c / (t (1 - t)), so nothing is truncated and a point on the cube's
    boundary contributes 0. Each y^T A y is built from A.entries in two
    passes, (y A) . y, never from A's determinant, Cholesky factor or the
    polar reduction. The scale c moves only the variance, never the mean; it
    is sized from u's decay and A's smallest pivot. ``_sample_values`` reads
    u, a quadrature-valued one in batches that do not grow with N q.

    Returns (estimate, standard_error): the mean of the q shift means, and
    the standard error of that mean combined in quadrature with
    cfg.tol * |estimate|, the resolution u itself is computed to.
    Bit-identical for a fixed cfg.mc_seed.
    """
    if not isinstance(A, PosDefMatrix):
        A = PosDefMatrix(A)
    n = A.n
    if n > _MC_DIM_CAP:
        raise DimensionCapError(
            f"the Cartesian lattice rule is capped at n <= {_MC_DIM_CAP}, got {n}; "
            "use the radial route for higher dimensions"
        )
    x = float(x)
    m = min((cfg.mc_samples // _LATTICE_SHIFTS).bit_length() - 1, _LATTICE_M_MAX)
    N = 1 << m
    q = cfg.mc_samples // N
    c = _LOGISTIC_KAPPA * math.sqrt(_decay_span(u, x, _LOGISTIC_DECAY)
                                    / (-math.log(_LOGISTIC_DECAY) * A.min_pivot))

    # Coordinates run along rows. A point k z / N and a shift are multiples
    # of 2^-53 in [0, 1), so t is one in [0, 1) too: 0 is its only boundary.
    rng = _probe_rng(cfg.mc_seed, x)
    points = (np.outer(_LATTICE_Z[:n], np.arange(N)) & (N - 1)) / N
    t = (points[:, None, :] + rng.random((n, q, 1))).reshape(n, -1)
    np.subtract(t, 1.0, out=t, where=t >= 1.0)
    edge = ~np.all(t, axis=0)
    t[:, edge] = 0.5
    rest = 1.0 - t
    weight = t[0] * rest[0]
    for j in range(1, n):
        weight *= t[j]
        weight *= rest[j]
    np.divide(c ** n, weight, out=weight)
    weight[edge] = 0.0
    logit = np.divide(t, rest, out=t)
    del rest
    np.log(logit, out=logit)
    form = A.entries @ logit
    form *= logit
    form = form.sum(axis=0)
    form *= c * c
    del t, logit  # freed before u is sampled, which needs the memory
    weight *= _sample_values(u, form, x, cfg)
    means = weight.reshape(q, N).mean(axis=1)
    estimate = float(np.mean(means))
    shift_error = float(np.std(means, ddof=1)) / math.sqrt(q)
    return estimate, math.hypot(shift_error, cfg.tol * estimate)


def forward_montecarlo(u: SmoothFunction, n: int, x: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Randomized lattice estimate of int_{R^n} u(x - |y|^2) dy, n <= 4:
    forward_quadform_mc with A = identity."""
    return forward_quadform_mc(u, PosDefMatrix.identity(check_dimension(n)), x, cfg)


def forward(spec: ProblemSpec, u: SmoothFunction, xs,
            cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply the forward operator of ``spec``'s equation to u at each probe.

    Returns (values, standard_errors) as 1-D arrays over the flattened xs.
    The standard errors are None for the deterministic quadrature routes;
    only the quadform variant, certified by a randomized lattice rule, has them. Every
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
