"""Weyl-type fractional integral and the fractional derivatives built on it.

The fractional integral of order mu in (0, 1] is

    D^(-mu) g(x) = (1 / Gamma(mu)) * int_{-inf}^{x} g(xi) (x - xi)^(mu-1) dxi,

whose kernel is weakly singular at xi = x. A positive order nu is evaluated
as the composition D^(-mu) applied to the plain k-th derivative, with
nu = k - mu; both ingredients land on the decaying function class this
package works with, where the two composition orders coincide.

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
from dataclasses import dataclass

import numpy as np

from . import _quad
from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DomainError, FracLambError, UnsupportedOrderError
from .function_model import (CUTOFF_EPSILON, NUMERIC_ORDER_SLACK, CallableFunction,
                             SmoothFunction, effective_lower_cutoff)
from .special_functions import gamma

__all__ = ["FractionalOrder", "weyl_integral", "frac_derivative"]

_INTEGER_SNAP = 1e-12
_MAX_ORDER = 5.0  # orders >= 5 are out of scope
_MAX_FLATTEN_Q = 16


@dataclass(frozen=True)
class FractionalOrder:
    """An order nu split as nu = k - mu with integer k >= 0 and mu in [0,1].

    mu = 0 marks a pure integer derivative; otherwise the operator is the
    k-th derivative followed by the Weyl integral of order mu.
    """

    nu: float
    k: int
    mu: float

    def __post_init__(self):
        if self.k < 0:
            raise DomainError(f"integer part must be >= 0, got {self.k}")
        if not (0.0 <= self.mu <= 1.0):
            raise DomainError(f"mu must lie in [0, 1], got {self.mu}")
        if abs((self.k - self.mu) - self.nu) > 1e-12:
            raise DomainError(
                f"inconsistent split: k - mu = {self.k - self.mu} but nu = {self.nu}"
            )

    @classmethod
    def from_order(cls, nu: float) -> "FractionalOrder":
        """Canonical split: k = ceil(nu), mu = k - nu; integers get mu = 0."""
        nu = float(nu)
        if nu < -1.0 or nu >= _MAX_ORDER:
            raise DomainError(f"order must lie in [-1, {_MAX_ORDER}), got {nu}")
        nearest = round(nu)
        if abs(nu - nearest) <= _INTEGER_SNAP and nearest >= 0:
            return cls(nu=float(nearest), k=int(nearest), mu=0.0)
        k = max(0, math.ceil(nu))
        return cls(nu=nu, k=k, mu=k - nu)

    @property
    def is_integer(self) -> bool:
        return self.mu == 0.0


def _coerce_order(order) -> FractionalOrder:
    if isinstance(order, FractionalOrder):
        return order
    return FractionalOrder.from_order(order)


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


def _weyl_batch(g: SmoothFunction, mu: float, xs,
                cfg: QuadratureConfig) -> np.ndarray:
    mu = float(mu)
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"weyl_integral requires mu in (0, 1], got {mu}")
    xs = np.asarray(xs, dtype=float)
    shape = xs.shape
    flat = np.atleast_1d(xs).ravel()

    # Truncation point of the -inf limit, relative to the batch's own scale
    # so windows deep in the decaying tail keep their relative accuracy.
    scale = float(np.max(np.abs(g.evaluate(flat)))) or 1.0
    if not math.isfinite(scale):
        raise FracLambError(f"{g.label}: non-finite values ({scale}) on the evaluation points")
    L = effective_lower_cutoff(g, CUTOFF_EPSILON * scale)
    T = np.sqrt(np.maximum(flat - L, 0.0))

    q, d = _flatten_exponent(mu)
    uppers = T ** (1.0 / q)
    constant = 2.0 * q / gamma(mu)

    def integrand(s):
        weight = s ** d if d != 0.0 else 1.0
        return weight * g.evaluate(flat[:, None] - s ** (2.0 * q))

    result = constant * _quad.integrate_batch(integrand, uppers, cfg)
    return result.reshape(shape)


def weyl_integral(g: SmoothFunction, mu: float, x,
                  cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Fractional integral D^(-mu) g at x for mu in (0, 1].

    x may be a scalar or an array; array inputs share one truncation point
    and are integrated in a single vectorized pass.

    Raises:
        NoDecayError: g lacks decay metadata; declare a tail bound with
            materialize(decay_like=...) or CallableFunction(tail_bound=...).
        FracLambError: g is not finite on the points (its scale sets the
            truncation point).
        ConvergenceError: panel doubling hit _quad.MAX_PANELS.
    """
    result = _weyl_batch(g, mu, x, cfg)
    if np.ndim(x) == 0:
        return float(result)
    return result


def derivative_view(f: SmoothFunction, k: int) -> SmoothFunction:
    """f^(k) as a SmoothFunction, inheriting f's tail bound.

    The bound on max_{j <= K+1} |f^(j)| left of L covers the derivatives of
    f^(k) up to order K - k + 1, which is all the view exposes.
    """
    if k == 0:
        return f
    if k > f.derivative_order and not (
        f.numeric_fallback and k <= f.derivative_order + NUMERIC_ORDER_SLACK
    ):
        raise UnsupportedOrderError(
            f"{f.label}: needs derivative order {k}, has {f.derivative_order}"
        )
    tail = f.tail_bound if f.has_decay else None
    return CallableFunction(
        lambda x: np.asarray(f.derivative(k, x), dtype=float),
        derivative_order=max(f.derivative_order - k, 0),
        tail_bound=tail,
        label=f"D^{k}[{f.label}]",
    )


def frac_derivative(f: SmoothFunction, order, x,
                    cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Fractional derivative D^nu f at x.

    ``order`` is a FractionalOrder or a plain float; the split nu = k - mu
    turns the operator into the Weyl integral of f^(k). Integer orders
    short-circuit to the analytic derivative.
    """
    order = _coerce_order(order)
    if order.is_integer:
        return f.derivative(order.k, x)
    return weyl_integral(derivative_view(f, order.k), order.mu, x, cfg)
