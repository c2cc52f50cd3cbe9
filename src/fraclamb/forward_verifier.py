"""Forward integral operators and residual certification.

Solving is only half the job: every solution here is meant to be pushed
back through the original integral operator and compared against the
right-hand side. ``forward(spec, u, xs, cfg)`` maps each equation variant
to its forward evaluator, in this one place, one call per probe, so each
value depends on its own point only:

* every deterministic variant is one weighted power kernel,
  w * int_0^inf y^alpha u(x - y^m) dy (``_forward_kernel``, on the Weyl
  integral's integrand ``fractional_ops._power_kernel``): ``forward_power``
  is (0, m, 1), for classic (m = 2) and power; ``forward_radial`` is
  (n - 1, 2, Vol(S^(n-1))), the exact polar reduction, for symmetric_ndim;
* ``forward_quadform_mc``: a randomized rank-1 lattice rule in Cartesian
  coordinates, up to n = 4, for the quadratic-form variant, with a
  logistic map of the unit cube onto all of R^n. ``forward_montecarlo``
  is the same estimator with A = identity. Agreement between the lattice
  and radial routes is the numerical witness for the polar Jacobian
  r^(n-1) sin^(n-2)(...) that justifies the reduction.

The lattice rule's random shifts come from the counter-based Philox
generator keyed on (seed, probe point), so estimates are bit-identical for
a fixed seed and independent across probe points regardless of evaluation
order; its standard error comes from the spread of the shifts. Every
forward integral stops at u's decay span S (``_decay_span``). A
quadrature-valued u (one Weyl integral per value) is never read past S, and
below it off a cubic Hermite table built once per probe, before its first
block. ``_cheb``, the core ``function_model.sample`` reads grids through
too, builds it over one checked Chebyshev series from one cached matrix
product and reads it, a gather per table row and a Horner step per sample;
it stands only within 1e-11 of max|u| of the series.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._cheb import _ODD, _checked_series, _hermite_table, _table_values
from ._csv import format_csv
from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DimensionCapError, DomainError
from .fractional_ops import _cutoff_span, _power_kernel
from .function_model import CUTOFF_EPSILON, SmoothFunction, _read_direct, check_window
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

# Chebyshev proxy for a quadrature-valued u: the level below which its
# trailing coefficients are dropped (relative to the largest).
_PROXY_CHOP = 1e-13
# The lattice rule runs its samples in blocks of whole shifts, of at most
# _BLOCK_SAMPLES samples (one shift where a shift is longer), through
# buffers held per thread (_work), so that a probe's memory does not grow
# with its sample count and no probe returns its heap to the OS. Of 2^13
# to 2^17, 2^14 ran the verify deck's n=2 and n=3 ops fastest at 5e4
# samples (2^15 refaulted the heap under an elementwise u's 256 KB
# temporaries); at the CLI default, where one shift is 2^15 samples,
# 2^13 to 2^15 all make it one block (63 ms for a 3x3 exp probe, against
# 70 ms at 2^16 and 93 ms at 2^17).
_BLOCK_SAMPLES = 2 ** 14

_thread_work = threading.local()


def _work(dtype, *shapes) -> list:
    """Views of the given shapes, one after another, into this thread's flat
    work array of dtype, which grows to fit and is never shrunk: calls of
    one size reuse the memory, whatever shapes they view it in."""
    sizes = [math.prod(shape) for shape in shapes]
    name = np.dtype(dtype).name
    flat = getattr(_thread_work, name, None)
    if flat is None or flat.size < sum(sizes):
        flat = np.empty(sum(sizes), dtype)
        setattr(_thread_work, name, flat)
    views, start = [], 0
    for size, shape in zip(sizes, shapes):
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


@functools.lru_cache(maxsize=2 * _MC_DIM_CAP)
def _lattice_points(n: int, m: int) -> np.ndarray:
    """The 2^m points k z / 2^m mod 1 of the rank-1 lattice in dimension n,
    coordinates along rows; read-only, as it is cached and shared. The
    cache holds every n at two sample budgets."""
    N = 1 << m
    points = (np.outer(_LATTICE_Z[:n], np.arange(N)) & (N - 1)) / N
    points.flags.writeable = False
    return points


def _decay_span(u: SmoothFunction, x: float, value: float, epsilon: float) -> float:
    """Distance below x past which u's tail bound stays under epsilon *
    |u(x)| (epsilon where u(x) = 0), given value = u(x); every forward
    integral stops at S = _decay_span(u, x, u(x), CUTOFF_EPSILON). >= 1e-12."""
    return max(_cutoff_span(u, float(x), float(value), epsilon), 1e-12)


def _forward_kernel(u: SmoothFunction, alpha: int, m: int, w: float, x: float,
                    cfg: QuadratureConfig) -> float:
    """w * int_0^inf y^alpha u(x - y^m) dy, truncated where u's tail dies.

    Integrated in y: for integer alpha and m the integrand is analytic there,
    while s = y^m would bring a weak endpoint singularity.
    """
    x = float(x)
    Y = _decay_span(u, x, u(x), CUTOFF_EPSILON) ** (1.0 / m)
    return w * float(_power_kernel(u, alpha, m, np.array([x]), np.array([Y]), cfg)[0])


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
    # for a fixed seed, split across probe points. x + 0.0 keys -0.0 as 0.0.
    xbits = np.array(float(x) + 0.0, dtype=np.float64).view(np.uint64)
    key = np.array([np.uint64(seed), xbits], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _proxy_table(u: SmoothFunction, x: float, span: float, cfg: QuadratureConfig):
    """The cubic Hermite table ``_sample_values`` reads a quadrature-valued
    u off (``_cheb._hermite_table``, in s), or None where it does not stand.

    It is built over the checked Chebyshev series of s -> u(x - min(s^2,
    span)) on [0, sqrt(span)], read at 257 points, 129 nodes and 128 checks;
    in s an exponential tail becomes a Gaussian, which degree 128 resolves.
    The series stands if at least 16 trailing coefficients are below
    _PROXY_CHOP of the largest (dropped, with max|c| <= 2 max|u|, they move a
    value by at most 2.6e-11 max|u|, 40x inside the check at the default
    tol) and it is within cfg.tol * max|u(checks)| of u at the checks.
    """
    got = _checked_series(lambda s: u.evaluate(x - np.minimum(s * s, span)),
                          0.0, math.sqrt(span), _ODD, _PROXY_CHOP, cfg.tol)
    return None if got is None else _hermite_table(got[0])


def _sample_values(u: SmoothFunction, forms: np.ndarray, x: float, span: float,
                   past: np.ndarray, table, work: np.ndarray, cell: np.ndarray,
                   shift: int) -> np.ndarray:
    """u(x - form) at the samples' quadratic forms, all >= 0, for the caller
    to zero past span (past is forms > span): at every sample in one call
    for a u that is not quadrature-valued. Otherwise off the probe's table
    at s = sqrt(min(form, span)) (``_cheb._table_values``, past span its
    closing cell), into work (3 floats) and cell (1 intp) per sample; where
    table is None, read at every sample below span, shift by shift
    (``shift`` samples each), with the values past span 0."""
    if not u.quadrature_valued:
        return u.evaluate(x - forms)
    p, vals, term = work
    if table is None:
        for i in range(0, forms.size, shift):
            below = ~past[i:i + shift]
            vals[i:i + shift][below] = _read_direct(u, x - forms[i:i + shift][below])
        np.copyto(vals, 0.0, where=past)
        return vals
    np.minimum(forms, span, out=p)
    np.sqrt(p, out=p)
    return _table_values(table, p, math.sqrt(span), vals, cell, term)


def forward_quadform_mc(u: SmoothFunction, A: PosDefMatrix, x: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Randomized lattice estimate of int_{R^n} u(x - y^T A y) dy, n <= 4.

    A rank-1 lattice rule of N = 2^m points, m the largest with
    N <= cfg.mc_samples / _LATTICE_SHIFTS (and m <= _LATTICE_M_MAX), is
    taken under q = cfg.mc_samples // N independent Cranley-Patterson random
    shifts, drawn from the Philox stream keyed on (cfg.mc_seed, x): a budget
    of N q <= cfg.mc_samples integrand values (49152 for 5e4). A point t of
    the unit cube maps to y = c log(t / (1 - t)) per coordinate, Jacobian
    prod c / (t (1 - t)). A point on the cube's boundary, or with y^T A y
    past the span S where _forward_kernel stops too, contributes 0. Each
    y^T A y is built from A.entries in two passes, (y A) . y, never from A's
    determinant, Cholesky factor or the polar reduction. The scale c moves
    only the variance, never the mean; it is sized from u's decay and A's
    smallest pivot. ``_sample_values`` reads u.

    The samples run in blocks of whole shifts, at most _BLOCK_SAMPLES
    (2^14) samples or one shift, through flat buffers held per thread and
    reused by every later probe on that thread, whatever its n: (2 n + 5)
    floats, 1 intp and 2 bools per sample of a block, at n = 3 1.6 MB for
    5e4 samples and 3.2 MB for the default 1e6, beside the cached lattice
    points (n N floats), a quadrature-valued u's proxy table, built once
    before the first block (``_proxy_table``: 4 (M + 1) floats, 64 KB at
    M = 2048), and ``_cheb``'s cached matrix. Each shift's mean is taken
    over its own N values, and a direct read never spans two shifts, so the
    result is the same in one block or several, and on any thread.

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
    value = u(x)
    c = _LOGISTIC_KAPPA * math.sqrt(_decay_span(u, x, value, _LOGISTIC_DECAY)
                                    / (-math.log(_LOGISTIC_DECAY) * A.min_pivot))
    span = _decay_span(u, x, value, CUTOFF_EPSILON)
    table = _proxy_table(u, x, span, cfg) if u.quadrature_valued else None

    # Coordinates run along rows. A point k z / N and a shift are multiples
    # of 2^-53 in [0, 1), so t is one in [0, 1) too: 0 is its only boundary.
    points = _lattice_points(n, m)
    shifts = _probe_rng(cfg.mc_seed, x).random((n, q, 1))
    means = np.empty(q)
    per = max(1, _BLOCK_SAMPLES // N)
    for k in range(0, q, per):
        size = min(per, q - k) * N
        t, prod, weight, form, work = _work(float, (n, size), (n, size), (size,), (size,),
                                            (3, size))
        flag, kept = _work(bool, (size,), (size,))
        (cell,) = _work(np.intp, (size,))
        np.add(points[:, None, :], shifts[:, k:k + per], out=t.reshape(n, -1, N))
        for tj in t:
            tj -= np.greater_equal(tj, 1.0, out=flag)
        np.all(t, axis=0, out=kept)
        edge = None if kept.all() else ~kept
        if edge is not None:
            t[:, edge] = 0.5
        rest = form  # 1 - t, one coordinate at a time, before form is built
        for j, tj in enumerate(t):
            np.subtract(1.0, tj, out=rest)
            if j == 0:
                np.multiply(tj, rest, out=weight)
            else:
                weight *= tj
                weight *= rest
            tj /= rest
        np.divide(c ** n, weight, out=weight)
        if edge is not None:
            weight[edge] = 0.0
        logit = np.log(t, out=t)
        np.matmul(A.entries, logit, out=prod)
        prod *= logit
        np.add.reduce(prod, axis=0, out=form)
        form *= c * c
        past = np.greater(form, span, out=flag)
        weight *= _sample_values(u, form, x, span, past, table, work, cell, N)
        np.copyto(weight, 0.0, where=past)
        np.mean(weight.reshape(-1, N), axis=1, out=means[k:k + per])
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
        """``x,f,forward,residual[,std_error]`` rows, as ``"%.17g"`` writes floats."""
        header, table = "x,f,forward,residual", np.array(self.rows, dtype=float).reshape(-1, 4)
        if self.std_errors is not None:
            header, table = header + ",std_error", np.column_stack((table, self.std_errors))
        return format_csv(header, table)

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
