"""Weyl-type fractional integral and the fractional derivatives built on it.

The fractional integral of order mu in (0, 1] is

    D^(-mu) g(x) = (1 / Gamma(mu)) * int_{-inf}^{x} g(xi) (x - xi)^(mu-1) dxi,

whose kernel is weakly singular at xi = x. A positive order nu is evaluated
as the composition D^(-mu) applied to the plain k-th derivative, with
nu = k - mu from split_order (the solvers make the same split); both
ingredients land on the decaying function class this package works with,
where the two composition orders coincide.

Singularity removal: substituting xi = x - t^2 gives

    D^(-mu) g(x) = (2 / Gamma(mu)) * int_0^inf g(x - t^2) t^(2 mu - 1) dt,

a smooth integrand for mu = 1/2 (the weight is constant). For other orders
a further power substitution t = s^q is chosen so the weight becomes a plain
monomial whenever 2 mu q is an integer for some q <= 16, keeping the
integrand analytic and the panels spectral; other orders take q = 1/(2 mu),
whose weight is constant.
"""

from __future__ import annotations

import math

import numpy as np

from . import _quad
from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DomainError, UnsupportedOrderError
from .function_model import (CUTOFF_EPSILON, CallableFunction, SmoothFunction, _inherit_decay,
                             _restore_shape, check_finite, effective_lower_cutoff)
from .special_functions import gamma

__all__ = ["split_order", "weyl_integral", "frac_derivative"]

_INTEGER_SNAP = 1e-12
_MAX_FLATTEN_Q = 16
# Integrand nodes per row block in _power_kernel (128 KiB of float64); chosen
# by a sweep over 2^13..2^17 on solve_grid. No value depends on it.
_BLOCK_NODES = 2 ** 14


def split_order(nu: float) -> tuple[int, float]:
    """Split nu = k - mu with k = max(0, ceil(nu)) and mu in [0, 1]; an order
    within 1e-12 of a non-negative integer snaps to it (mu = 0).

    Raises:
        DomainError: nu is not finite or is below -1.
    """
    nu = float(nu)
    if not (math.isfinite(nu) and nu >= -1.0):
        raise DomainError(f"order must be finite and >= -1, got {nu}")
    nearest = round(nu)
    if abs(nu - nearest) <= _INTEGER_SNAP and nearest >= 0:
        return int(nearest), 0.0
    k = max(0, math.ceil(nu))
    return k, k - nu


def _flatten_exponent(mu: float) -> tuple[float, float]:
    """Pick the substitution t = s^q and return (q, weight exponent).

    The weight after substitution is s^(2 mu q - 1) up to the factor q. An
    integer q <= 16 making 2 mu q an integer yields an analytic integrand;
    otherwise q = 1/(2 mu) makes the weight constant. Against scipy's QAWS
    rule its worst error was lower than that of q = 1 with weight s^(2 mu - 1).
    """
    for q in range(1, _MAX_FLATTEN_Q + 1):
        d = 2.0 * mu * q
        if abs(d - round(d)) <= 1e-9 and round(d) >= 1:
            return float(q), float(round(d) - 1)
    return 1.0 / (2.0 * mu), 0.0


def _power_kernel(g: SmoothFunction, d: float, p: float, xs: np.ndarray,
                  uppers: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """int_0^U_i s^d g(x_i - s^p) ds per row i: the Weyl and forward integrand."""
    def integrand(s):
        # Row blocks of about _BLOCK_NODES nodes keep each elementwise pass
        # of g in cache; every value is computed as in one whole-batch pass.
        out = np.empty_like(s)
        rows = max(1, _BLOCK_NODES // s.shape[1])
        for i in range(0, s.shape[0], rows):
            block = s[i:i + rows]
            weight = block ** d if d != 0.0 else 1.0
            xi = block ** p
            np.subtract(xs[i:i + rows, None], xi, out=xi)
            np.multiply(weight, g.evaluate(xi), out=out[i:i + rows])
        return out

    return _quad.integrate_batch(integrand, uppers, cfg)


def _cutoff_span(g: SmoothFunction, xs, values, epsilon: float, value_only: bool = False):
    """xs - L, for L where g's tail bound (value bound if value_only) falls
    to epsilon * max|values| (epsilon where all are 0; at least 5e-324), the
    values being g at xs; FracLambError where one of them is not finite."""
    check_finite(g.label, xs, values)
    scale = float(np.max(np.abs(values)))
    return xs - effective_lower_cutoff(g, max(epsilon * (scale or 1.0), 5e-324), value_only)


def _weyl_batch(g: SmoothFunction, mu: float, xs,
                cfg: QuadratureConfig) -> np.ndarray:
    mu = float(mu)
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"weyl_integral requires mu in (0, 1], got {mu}")
    xs = np.asarray(xs, dtype=float)
    shape = xs.shape
    flat = np.atleast_1d(xs).ravel()

    # Truncation point of the -inf limit, one per batch.
    T = np.sqrt(np.maximum(_cutoff_span(g, flat, g.evaluate(flat), CUTOFF_EPSILON), 0.0))

    q, d = _flatten_exponent(mu)
    result = 2.0 * q / gamma(mu) * _power_kernel(g, d, 2.0 * q, flat, T ** (1.0 / q), cfg)
    return result.reshape(shape)


def weyl_integral(g: SmoothFunction, mu: float, x,
                  cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Fractional integral D^(-mu) g at x for mu in (0, 1].

    x may be a scalar (a float is returned) or an array; array inputs share
    one truncation point and are integrated in a single vectorized pass.

    Raises:
        DomainError: mu is outside (0, 1].
        NoDecayError: g lacks decay metadata; declare a tail bound with
            materialize(decay_like=...) or CallableFunction(tail_bound=...).
        FracLambError: g is not finite on the points (its scale sets the
            truncation point).
        ConvergenceError: panel doubling hit _quad.MAX_PANELS.
    """
    return _restore_shape(x, _weyl_batch(g, mu, x, cfg))


def derivative_view(f: SmoothFunction, k: int) -> SmoothFunction:
    """f^(k) as a SmoothFunction, inheriting f's tail bound.

    Its j-th derivative is f^(k+j), for j up to K - k. The bound on
    max_{j <= K+1} |f^(j)| left of L covers the derivatives of f^(k) up to
    order K - k + 1, which is all the view exposes.

    Raises:
        UnsupportedOrderError: k exceeds f.derivative_order.
    """
    if k == 0:
        return f
    if k > f.derivative_order:
        raise UnsupportedOrderError(
            f"{f.label}: needs derivative order {k}, has {f.derivative_order}"
        )
    view = CallableFunction(
        lambda x: np.asarray(f.derivative(k, x), dtype=float),
        derivative=lambda j, x: f.derivative(k + j, x),
        derivative_order=max(f.derivative_order - k, 0),
        label=f"D^{k}[{f.label}]",
    )
    return _inherit_decay(view, f, value_bound=False) if f.has_decay else view


def frac_derivative(f: SmoothFunction, nu: float, x,
                    cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Fractional derivative D^nu f at x, for any nu >= -1 that f's
    derivatives allow.

    split_order(nu) = (k, mu) turns the operator into the Weyl integral of
    order mu of f^(k); integer orders (mu = 0) are the plain derivative.
    Negative orders are fractional integrals.

    Raises:
        DomainError: nu is not finite or is below -1.
        UnsupportedOrderError: f cannot supply the k-th derivative.
    """
    k, mu = split_order(nu)
    if mu == 0.0:
        return f.derivative(k, x)
    return weyl_integral(derivative_view(f, k), mu, x, cfg)
