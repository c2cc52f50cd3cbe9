"""Right-hand sides and solutions as evaluable functions with decay metadata.

The solvers differentiate their input up to several orders and truncate
integrals whose lower limit is -inf, so a bare callable is not enough. A
:class:`SmoothFunction` bundles vectorized evaluation, analytic derivatives
up to a declared order, and a tail bound that makes the truncation point
computable. Decay is declared by the constructor, never inferred: sniffing
decay rates numerically is unreliable.

The built-in test family (exponential, saturated exponential, shifted
Gaussian) decays to zero with all derivatives as x -> -inf and carries
closed-form derivatives, which is what the solver accuracy contracts assume.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FracLambError, NoDecayError, UnsupportedOrderError

__all__ = [
    "BUILTIN_ORDER",
    "CUTOFF_EPSILON",
    "SmoothFunction",
    "CallableFunction",
    "Exponential",
    "GaussTail",
    "ShiftedGaussian",
    "GridFunction",
    "numeric_derivative",
    "effective_lower_cutoff",
    "check_window",
    "sample",
    "linear_combination",
    "materialize",
    "zero_function",
]

# How many orders past the declared analytic order the finite-difference
# fallback will go. Stacked differences beyond that are numerically useless.
NUMERIC_ORDER_SLACK = 4

# Relative tail mass at which integrals with lower limit -inf are truncated.
CUTOFF_EPSILON = 1e-12

# Analytic derivative order of the built-in family: symmetric_ndim needs
# f^(n/2) for even n, f^((n+1)/2) for odd n, so it reaches n <= 16 or 15.
BUILTIN_ORDER = 8


def _restore_shape(x, result):
    """Return a plain float for scalar input, ndarray otherwise."""
    if np.ndim(x) == 0:
        return float(result)
    return np.asarray(result, dtype=float)


class SmoothFunction:
    """A real function with derivative access and tail-decay metadata.

    Subclasses or wrappers provide:

    * ``evaluate(x)``, vectorized over numpy arrays;
    * analytic derivatives up to ``derivative_order`` (K);
    * ``tail_bound(L)``, an upper bound on sup_{xi <= L} max_{k <= K+1}
      |f^(k)(xi)|, monotone non-increasing as L decreases and -> 0, which is
      what permits truncating integrals with lower limit -inf.

    Instances are immutable after construction and safe to share across
    threads for read-only evaluation.
    """

    derivative_order: int = 0
    numeric_fallback: bool = False
    label: str = "f"

    def evaluate(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return _restore_shape(x, self.evaluate(np.asarray(x, dtype=float)))

    def derivative(self, k: int, x):
        """k-th derivative at x (scalar or array).

        Orders up to ``derivative_order`` are analytic; the rest, up to
        ``max_order``, are central-difference estimates.
        """
        k = int(k)
        if k < 0:
            raise DomainError(f"derivative order must be >= 0, got {k}")
        if k == 0:
            return self.__call__(x)
        if k <= self.derivative_order:
            xs = np.asarray(x, dtype=float)
            return _restore_shape(x, self._analytic_derivative(k, xs))
        if k <= self.max_order:
            value, _ = numeric_derivative(self, k, x)
            return value
        raise UnsupportedOrderError(
            f"{self.label}: derivative order {k} exceeds max_order {self.max_order}")

    def _analytic_derivative(self, k: int, x: np.ndarray) -> np.ndarray:
        raise UnsupportedOrderError(f"{self.label}: no analytic derivatives")

    @property
    def max_order(self) -> int:
        """derivative_order, plus NUMERIC_ORDER_SLACK numeric orders if
        numeric_fallback is set: the highest order ``derivative`` serves."""
        return self.derivative_order + (NUMERIC_ORDER_SLACK if self.numeric_fallback else 0)

    @property
    def has_decay(self) -> bool:
        return True

    def tail_bound(self, L: float) -> float:
        """Upper bound on all derivatives up to order K+1 left of L."""
        raise NoDecayError(f"{self.label}: no decay metadata")

    def value_tail_bound(self, L: float) -> float:
        """Upper bound on |f| alone left of L; defaults to tail_bound."""
        return self.tail_bound(L)

    def __repr__(self):
        return f"<SmoothFunction {self.label}>"


class CallableFunction(SmoothFunction):
    """SmoothFunction assembled from plain callables.

    Used for lazily evaluated solver outputs, operator compositions, and
    linear combinations.
    """

    def __init__(self, evaluate, derivative=None, derivative_order=0,
                 tail_bound=None, value_tail_bound=None,
                 numeric_fallback=False, label="f"):
        self._evaluate = evaluate
        self._derivative = derivative
        self.derivative_order = int(derivative_order)
        self._tail_bound = tail_bound
        self._value_tail_bound = value_tail_bound
        self.numeric_fallback = bool(numeric_fallback)
        self.label = label

    def evaluate(self, x):
        return self._evaluate(np.asarray(x, dtype=float))

    def _analytic_derivative(self, k, x):
        if self._derivative is None:
            raise UnsupportedOrderError(f"{self.label}: no analytic derivatives")
        return self._derivative(k, x)

    @property
    def has_decay(self):
        return self._tail_bound is not None

    def tail_bound(self, L):
        if self._tail_bound is None:
            raise NoDecayError(f"{self.label}: no decay metadata")
        return float(self._tail_bound(float(L)))

    def value_tail_bound(self, L):
        if self._value_tail_bound is not None:
            return float(self._value_tail_bound(float(L)))
        return self.tail_bound(L)


# ---------------------------------------------------------------------------
# Built-in test family
# ---------------------------------------------------------------------------

def _finite(name: str, value, positive: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise DomainError(f"{name} must be finite{' and > 0' if positive else ''}, got {value}")
    return value


class Exponential(SmoothFunction):
    """x -> exp(lam * x), lam > 0. Eigenfunction of every operator here."""

    derivative_order = BUILTIN_ORDER

    def __init__(self, lam: float = 1.0):
        self.lam = _finite("lambda", lam, positive=True)
        self.label = f"exp(lambda={self.lam:g})"

    def evaluate(self, x):
        return np.exp(self.lam * x)

    def _analytic_derivative(self, k, x):
        return self.lam ** k * np.exp(self.lam * x)

    def tail_bound(self, L):
        # sup over k <= K+1 of lam^k e^(lam xi), xi <= L
        return max(1.0, self.lam) ** (self.derivative_order + 1) * math.exp(self.lam * L)

    def value_tail_bound(self, L):
        return math.exp(self.lam * L)


@functools.lru_cache(maxsize=None)
def _logistic_poly(k: int) -> np.ndarray:
    """Coefficients (ascending) of P_k with sigma^(k) = P_k(sigma).

    P_0(s) = s and P_{k+1}(s) = P_k'(s) * s * (1 - s).
    """
    if k == 0:
        return np.array([0.0, 1.0])
    p = _logistic_poly(k - 1)
    dp = np.polynomial.polynomial.polyder(p)
    return np.polynomial.polynomial.polymul(dp, np.array([0.0, 1.0, -1.0]))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class GaussTail(SmoothFunction):
    """x -> exp(lam x) / (1 + exp(lam (x - c))): exponential growth saturating
    near x = c, with clean exponential decay (all derivatives) toward -inf.

    Equivalently exp(lam c) * sigmoid(lam (x - c)), which is how derivatives
    are computed: sigmoid derivatives are polynomials in sigmoid itself.
    """

    derivative_order = BUILTIN_ORDER

    def __init__(self, lam: float = 1.0, c: float = 0.0):
        self.lam = _finite("lambda", lam, positive=True)
        self.c = _finite("c", c)
        self.label = f"gauss_tail(lambda={self.lam:g}, c={self.c:g})"

    def evaluate(self, x):
        t = np.atleast_1d(self.lam * (np.asarray(x, dtype=float) - self.c))
        out = math.exp(self.lam * self.c) * _sigmoid(t)
        return out.reshape(np.shape(x))

    def _analytic_derivative(self, k, x):
        t = np.atleast_1d(self.lam * (x - self.c))
        s = _sigmoid(t)
        poly = _logistic_poly(k)
        val = math.exp(self.lam * self.c) * self.lam ** k \
            * np.polynomial.polynomial.polyval(s, poly)
        return val.reshape(np.shape(x))

    def tail_bound(self, L):
        # |P_k(s)| <= s * sum|coeffs| on [0,1] since P_k(0) = 0,
        # and sigmoid(t) <= e^t, so each derivative is <= C_k lam^k e^(lam xi).
        worst = max(
            self.lam ** k * float(np.abs(_logistic_poly(k)).sum())
            for k in range(self.derivative_order + 2)
        )
        return worst * math.exp(self.lam * L)

    def value_tail_bound(self, L):
        return math.exp(self.lam * L)


@functools.lru_cache(maxsize=None)
def _hermite_coeffs(k: int) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k, ascending power-series coefficients."""
    return np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])


class ShiftedGaussian(SmoothFunction):
    """x -> exp(-(x - c)^2 / (2 sigma^2)); derivatives via Hermite polynomials."""

    derivative_order = BUILTIN_ORDER

    def __init__(self, sigma: float = 1.0, c: float = 0.0):
        self.sigma = _finite("sigma", sigma, positive=True)
        self.c = _finite("c", c)
        self.label = f"shifted_gaussian(sigma={self.sigma:g}, c={self.c:g})"

    def evaluate(self, x):
        t = (x - self.c) / self.sigma
        return np.exp(-0.5 * t * t)

    def _analytic_derivative(self, k, x):
        t = (x - self.c) / self.sigma
        he = np.polynomial.polynomial.polyval(t, _hermite_coeffs(k))
        return (-1.0 / self.sigma) ** k * he * np.exp(-0.5 * t * t)

    def tail_bound(self, L):
        t = (float(L) - self.c) / self.sigma
        worst = 0.0
        for k in range(self.derivative_order + 2):
            hk = float(np.abs(_hermite_coeffs(k)).sum())
            # max over tau <= t of max(1,|tau|)^k e^(-tau^2/2); the envelope
            # peaks at |tau| = sqrt(k) and decreases beyond it.
            peak = max(1.0, math.sqrt(k) if k else 1.0)
            if t <= -peak:
                envelope = abs(t) ** k * math.exp(-0.5 * t * t)
            else:
                envelope = max(1.0, k ** (k / 2.0) * math.exp(-k / 2.0) if k else 1.0)
            worst = max(worst, self.sigma ** (-k) * hk * envelope)
        return worst

    def value_tail_bound(self, L):
        t = (float(L) - self.c) / self.sigma
        return math.exp(-0.5 * t * t) if t < 0 else 1.0


# ---------------------------------------------------------------------------
# Derived functions
# ---------------------------------------------------------------------------

def linear_combination(coeffs, functions, label=None) -> CallableFunction:
    """alpha_1 f_1 + ... + alpha_n f_n as a SmoothFunction.

    Derivative order is the minimum over the terms; decay metadata is the
    absolute-coefficient sum of the terms' bounds (present only if every
    term has decay).
    """
    coeffs = [float(a) for a in coeffs]
    functions = list(functions)
    if len(coeffs) != len(functions):
        raise DomainError("coefficient/function count mismatch")
    order = min((f.derivative_order for f in functions), default=0)
    all_decay = all(f.has_decay for f in functions)

    def ev(x):
        out = np.zeros(np.shape(x), dtype=float)
        for a, f in zip(coeffs, functions):
            out += a * f.evaluate(x)
        return out

    def dv(k, x):
        out = np.zeros(np.shape(x), dtype=float)
        for a, f in zip(coeffs, functions):
            out += a * np.asarray(f.derivative(k, x), dtype=float)
        return out

    tail = None
    vtail = None
    if all_decay:
        tail = lambda L: sum(abs(a) * f.tail_bound(L) for a, f in zip(coeffs, functions))
        vtail = lambda L: sum(abs(a) * f.value_tail_bound(L) for a, f in zip(coeffs, functions))
    return CallableFunction(
        ev, derivative=dv, derivative_order=order, tail_bound=tail,
        value_tail_bound=vtail, label=label or "linear_combination",
    )


def materialize(func, decay_like=None, decay_scale=1.0, numeric_fallback=False,
                label="materialized") -> CallableFunction:
    """Wrap a vectorized callable as a SmoothFunction.

    ``decay_like`` transfers another function's tail bound (scaled by
    ``decay_scale``); used when composing operators whose outputs provably
    decay like their inputs.
    """
    tail = None
    vtail = None
    if decay_like is not None:
        tail = lambda L: decay_scale * decay_like.tail_bound(L)
        vtail = lambda L: decay_scale * decay_like.value_tail_bound(L)
    return CallableFunction(
        lambda x: np.asarray(func(x), dtype=float),
        tail_bound=tail, value_tail_bound=vtail,
        numeric_fallback=numeric_fallback, label=label,
    )


def zero_function() -> CallableFunction:
    return CallableFunction(
        lambda x: np.zeros(np.shape(x), dtype=float),
        derivative=lambda k, x: np.zeros(np.shape(x), dtype=float),
        derivative_order=BUILTIN_ORDER,
        tail_bound=lambda L: 0.0,
        label="zero",
    )


# ---------------------------------------------------------------------------
# Numeric differentiation
# ---------------------------------------------------------------------------

_TUNED_STEPS = {3: 0.012, 4: 0.02}


def _default_step(k: int) -> float:
    # Balances O(h^4) truncation (after Richardson) against roundoff
    # amplification 2^k eps / h^k of the k-th difference; the tuned entries
    # come from sweeping the built-in family over [-5, 5].
    if k in _TUNED_STEPS:
        return _TUNED_STEPS[k]
    eps = np.finfo(float).eps
    return (2.0 ** k * eps) ** (1.0 / (k + 4))


def _central_difference(f: SmoothFunction, k: int, x: np.ndarray, h: float) -> np.ndarray:
    # k-th order central stencil with nodes x + (k/2 - j) h, j = 0..k.
    acc = np.zeros(np.shape(x), dtype=float)
    for j in range(k + 1):
        acc += (-1.0) ** j * math.comb(k, j) * f.evaluate(x + (k / 2.0 - j) * h)
    return acc / h ** k


def numeric_derivative(f: SmoothFunction, k: int, x, h: float | None = None):
    """Central-difference estimate of f^(k)(x) with Richardson extrapolation.

    Evaluates the k-th central stencil at steps h and h/2 and eliminates the
    leading O(h^2) error term. Returns ``(value, error_estimate)``; the error
    estimate is the Richardson correction magnitude.

    Raises:
        UnsupportedOrderError: if k exceeds the analytic order by more than 4.
    """
    k = int(k)
    if k < 0:
        raise DomainError(f"derivative order must be >= 0, got {k}")
    if k > f.derivative_order + NUMERIC_ORDER_SLACK:
        raise UnsupportedOrderError(
            f"numeric_derivative supports k <= K+{NUMERIC_ORDER_SLACK} "
            f"(K={f.derivative_order}), got {k}"
        )
    xs = np.asarray(x, dtype=float)
    if k == 0:
        return _restore_shape(x, f.evaluate(xs)), 0.0
    if h is None:
        h = _default_step(k)
    h = float(h)
    if h <= 0.0:
        raise DomainError(f"step must be > 0, got {h}")
    coarse = _central_difference(f, k, xs, h)
    fine = _central_difference(f, k, xs, h / 2.0)
    value = (4.0 * fine - coarse) / 3.0
    err = np.max(np.abs(fine - coarse)) / 3.0
    return _restore_shape(x, value), float(err)


# ---------------------------------------------------------------------------
# Truncation of the -inf limit
# ---------------------------------------------------------------------------

def effective_lower_cutoff(f: SmoothFunction, epsilon: float, value_only: bool = False) -> float:
    """Smallest-effort L with tail_bound(L) <= epsilon.

    ``value_only`` uses the bound on |f| alone (enough for integrals of f
    itself, giving tighter boxes than the all-derivatives bound). A bound
    that overflows (the built-ins' math.exp past L ~ 709) reads as inf.

    Raises:
        NoDecayError: if f has no decay metadata.
    """
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    if not f.has_decay:
        raise NoDecayError(f"{f.label}: no decay metadata; declare a tail bound")
    raw_bound = f.value_tail_bound if value_only else f.tail_bound

    def bound(L):
        try:
            return raw_bound(L)
        except OverflowError:
            return math.inf

    # Bracket [lo, hi] with bound(lo) <= epsilon < bound(hi); the bound is
    # monotone non-decreasing in L.
    if bound(0.0) > epsilon:
        lo, hi, step = -1.0, 0.0, 1.0
        while bound(lo) > epsilon:
            hi = lo
            lo -= step
            step *= 2.0
            if step > 2.0 ** 60:
                raise NoDecayError(f"{f.label}: tail bound never fell below {epsilon}")
    else:
        lo, hi = 0.0, 1.0
        for _ in range(64):
            if bound(hi) > epsilon:
                break
            lo = hi
            hi *= 2.0
        else:
            return lo  # bound is flat below epsilon (e.g. the zero function)

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bound(mid) <= epsilon:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Sampled output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Samples of u on a uniform grid; the unit of file I/O.

    The i-th value corresponds to ``x_start + i * x_step`` exactly.
    """

    x_start: float
    x_step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("values must be a non-empty 1-D sequence")
        if not self.x_step > 0.0:
            raise DomainError(f"x_step must be > 0, got {self.x_step}")

    @property
    def nodes(self) -> np.ndarray:
        return self.x_start + np.arange(self.values.size) * self.x_step

    def to_csv(self) -> str:
        lines = ["x,value"]
        for x, v in zip(self.nodes, self.values):
            lines.append(f"{x:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        rows = [line for line in text.strip().splitlines() if line]
        if not rows or rows[0].strip() != "x,value":
            raise DomainError("expected CSV header 'x,value'")
        xs, vs = [], []
        for line in rows[1:]:
            sx, sv = line.split(",")
            xs.append(float(sx))
            vs.append(float(sv))
        if len(xs) < 1:
            raise DomainError("empty grid")
        step = (xs[-1] - xs[0]) / (len(xs) - 1) if len(xs) > 1 else 1.0
        # to_csv writes the nodes as x_start + i * x_step; take the step within
        # one ulp of the endpoint estimate that reproduces every one of them.
        index = np.arange(len(xs))
        for candidate in (step, math.nextafter(step, -math.inf), math.nextafter(step, math.inf)):
            if np.array_equal(xs[0] + index * candidate, xs):
                step = candidate
                break
        return cls(x_start=xs[0], x_step=step, values=np.array(vs))

    def to_json(self) -> str:
        return json.dumps({
            "x_start": self.x_start,
            "x_step": self.x_step,
            "values": [float(v) for v in self.values],
        })

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        obj = json.loads(text)
        return cls(x_start=float(obj["x_start"]), x_step=float(obj["x_step"]),
                   values=np.array(obj["values"], dtype=float))


def check_window(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; DomainError unless a < b with a finite width b - a."""
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise DomainError(f"window needs finite a < b with a finite width b - a, got [{a}, {b}]")
    return a, b


def sample(f: SmoothFunction, a: float, b: float, count: int) -> GridFunction:
    """Sample f at ``count`` equispaced nodes on [a, b] (endpoints included).

    Raises:
        DomainError: a >= b, the width b - a overflows, or count < 2.
        FracLambError: a sampled value is not finite.
    """
    a, b = check_window(a, b)
    count = int(count)
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    step = (b - a) / (count - 1)
    nodes = a + np.arange(count) * step
    values = np.asarray(f(nodes), dtype=float)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise FracLambError(f"{f.label}: non-finite value {values[i]} at x = {nodes[i]:.17g}")
    return GridFunction(x_start=a, x_step=step, values=values)
