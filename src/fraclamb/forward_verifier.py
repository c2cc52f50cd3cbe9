"""Forward integral operators and residual certification.

Solving is only half the job: every solution here is meant to be pushed
back through the original integral operator and compared against the
right-hand side. ``forward`` maps each equation variant to its forward
evaluator, in this one place:

* ``forward_power``: the half-line integral int_0^inf u(x - y^m) dy, for
  the classic (m = 2) and power variants;
* ``forward_radial``: the polar-coordinate reduction of the full-space
  integral, Vol(S^(n-1)) * int_0^inf r^(n-1) u(x - r^2) dr, exact up to
  1-D quadrature in any dimension, for the symmetric n-dimensional variant;
* ``forward_quadform_mc``: plain Monte Carlo over a truncated box in
  Cartesian coordinates, up to n = 4, for the quadratic-form variant.
  ``forward_montecarlo`` is the same estimator with A = identity.
  Agreement between the Monte Carlo and radial routes is the numerical
  witness for the polar Jacobian r^(n-1) sin^(n-2)(...) that justifies
  the reduction.

Monte Carlo uses the counter-based Philox generator keyed on (seed, probe
point), so estimates are bit-identical for a fixed seed and independent
across probe points regardless of evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DimensionCapError, DomainError, FracLambError
from .function_model import CUTOFF_EPSILON, SmoothFunction, check_window, effective_lower_cutoff
from .lamb_solver import PosDefMatrix, ProblemSpec, solve_problem
from .special_functions import sphere_volume

__all__ = [
    "QuadratureConfig",
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


def _decay_span(u: SmoothFunction, x: float, epsilon: float) -> float:
    """Distance below x past which |u| stays under epsilon * local scale."""
    scale = abs(float(u(x))) or 1.0
    if not math.isfinite(scale):
        raise FracLambError(f"{u.label}: non-finite value ({scale}) at x = {x}")
    L = effective_lower_cutoff(u, epsilon * scale, value_only=True)
    return max(float(x) - L, 1e-12)


def forward_radial(u: SmoothFunction, n: int, x: float,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Vol(S^(n-1)) * int_0^inf r^(n-1) u(x - r^2) dr.

    The radial integrand is analytic in r for every integer n, so it is
    integrated in the r variable directly; the equivalent s = r^2 form
    would reintroduce a weak endpoint singularity for odd n.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    x = float(x)
    R = math.sqrt(_decay_span(u, x, CUTOFF_EPSILON))
    vol = sphere_volume(n)

    def integrand(r):
        return r ** (n - 1) * u.evaluate(x - r * r)

    return vol * float(_quad.integrate_batch(integrand, np.array([R]), cfg)[0])


def forward_power(u: SmoothFunction, m: int, x: float,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int_0^inf u(x - y^m) dy, truncated where u's tail dies."""
    m = int(m)
    if m < 1:
        raise DomainError(f"power exponent must be >= 1, got {m}")
    x = float(x)
    Y = _decay_span(u, x, CUTOFF_EPSILON) ** (1.0 / m)

    def integrand(y):
        return u.evaluate(x - y ** m)

    return float(_quad.integrate_batch(integrand, np.array([Y]), cfg)[0])


def _probe_rng(seed: int, x: float) -> np.random.Generator:
    # Counter-based generator keyed on (seed, probe point): deterministic
    # for a fixed seed, split across probe points.
    xbits = np.array(float(x), dtype=np.float64).view(np.uint64)
    key = np.array([np.uint64(seed), xbits], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def forward_quadform_mc(u: SmoothFunction, A: PosDefMatrix, x: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Monte Carlo estimate of int_{R^n} u(x - y^T A y) dy, n <= 4.

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
    form = np.einsum("ij,jk,ik->i", y, A.entries, y)
    vals = u.evaluate(x - form)
    volume = (2.0 * R) ** n
    estimate = volume * float(np.mean(vals))
    spread = float(np.std(vals, ddof=1)) if cfg.mc_samples > 1 else 0.0
    std_error = volume * spread / math.sqrt(cfg.mc_samples)
    return estimate, std_error


def forward_montecarlo(u: SmoothFunction, n: int, x: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Plain Monte Carlo estimate of int_{R^n} u(x - |y|^2) dy, n <= 4:
    forward_quadform_mc with A = identity."""
    n = int(n)
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return forward_quadform_mc(u, PosDefMatrix.identity(n), x, cfg)


def forward(spec: ProblemSpec, u: SmoothFunction, x: float,
            cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float | None]:
    """Apply the forward operator of ``spec``'s equation to u at x.

    Returns (value, standard_error). The standard error is None for the
    deterministic quadrature routes; only the quadform variant, certified
    by Monte Carlo, has one.
    """
    if spec.variant == "classic":
        return forward_power(u, 2, x, cfg), None
    if spec.variant == "power":
        return forward_power(u, spec.m, x, cfg), None
    if spec.variant == "symmetric_ndim":
        return forward_radial(u, spec.n, x, cfg), None
    return forward_quadform_mc(u, spec.A, x, cfg)


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
        lines = ["x,f,forward,residual"]
        for x, fx, fwd, res in self.rows:
            lines.append(f"{x:.17g},{fx:.17g},{fwd:.17g},{res:.17g}")
        return "\n".join(lines) + "\n"

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
    probes = int(probes)
    if probes < 3:
        raise DomainError(f"need at least 3 probes, got {probes}")

    u = solve_problem(spec, f, cfg)
    xs = a + np.arange(probes) * ((b - a) / (probes - 1))
    f_vals = [float(f(x)) for x in xs]
    pairs = [forward(spec, u, x, cfg) for x in xs]
    forwards = [value for value, _ in pairs]
    std_errors = [se for _, se in pairs]
    if std_errors[0] is None:
        std_errors = None

    f_max = max((abs(v) for v in f_vals), default=0.0)
    rows = []
    rels = []
    for x, fx, fwd in zip(xs, f_vals, forwards):
        res = fwd - fx
        denom = max(abs(fx), 1e-300 * f_max)
        if denom > 0.0:
            rels.append(abs(res) / denom)
        else:
            rels.append(0.0 if res == 0.0 else math.inf)
        rows.append((float(x), fx, fwd, res))

    # np.max, unlike max(), lets a NaN residual through to the report.
    return ResidualReport(
        window=(a, b),
        probe_count=probes,
        max_abs_residual=float(np.max([abs(row[3]) for row in rows])),
        max_rel_residual=float(np.max(rels)),
        rows=rows,
        std_errors=std_errors,
    )
