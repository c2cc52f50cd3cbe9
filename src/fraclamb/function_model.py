"""Right-hand sides and solutions as evaluable functions with decay metadata.

The solvers differentiate their input up to several orders and truncate
integrals whose lower limit is -inf, so a bare callable is not enough. A
:class:`SmoothFunction` bundles vectorized evaluation, analytic derivatives
up to a declared order (refused above it), and a tail bound that makes the
truncation point computable. Decay is declared by the constructor, never
inferred: sniffing decay rates numerically is unreliable.

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
from .special_functions import check_integer

__all__ = [
    "BUILTIN_ORDER",
    "CUTOFF_EPSILON",
    "SmoothFunction",
    "CallableFunction",
    "Exponential",
    "GaussTail",
    "ShiftedGaussian",
    "GridFunction",
    "effective_lower_cutoff",
    "check_window",
    "sample",
    "materialize",
]

# Relative tail mass at which integrals with lower limit -inf are truncated.
CUTOFF_EPSILON = 1e-12

# Analytic derivative order of the built-in family: symmetric_ndim needs
# f^(n/2) for even n, f^((n+1)/2) for odd n, so it reaches n <= 16 or 15.
BUILTIN_ORDER = 8

_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _restore_shape(x, result):
    """Return a plain float for scalar input, ndarray otherwise."""
    if np.ndim(x) == 0:
        return float(result)
    return np.asarray(result, dtype=float)


class SmoothFunction:
    """A real function with derivative access and tail-decay metadata.

    Subclasses or wrappers provide:

    * ``evaluate(x)``, vectorized over numpy arrays;
    * analytic derivatives up to ``derivative_order`` (K), none above it;
    * ``tail_bound(L)``, an upper bound on sup_{xi <= L} max_{k <= K+1}
      |f^(k)(xi)|, monotone non-increasing as L decreases and -> 0, which is
      what permits truncating integrals with lower limit -inf.

    ``quadrature_valued`` is True when every value costs a quadrature of
    its own (a Weyl integral) while the function stays smooth, so a
    caller that needs many values may interpolate it and check the
    interpolant against direct values.

    Instances are immutable after construction and safe to share across
    threads for read-only evaluation.
    """

    derivative_order: int = 0
    label: str = "f"
    quadrature_valued: bool = False

    def evaluate(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return _restore_shape(x, self.evaluate(np.asarray(x, dtype=float)))

    def derivative(self, k: int, x):
        """k-th derivative at x (scalar or array), analytic up to
        ``derivative_order``; a higher order raises UnsupportedOrderError."""
        k = int(k)
        if k < 0:
            raise DomainError(f"derivative order must be >= 0, got {k}")
        if k == 0:
            return self.__call__(x)
        if k > self.derivative_order:
            raise UnsupportedOrderError(
                f"{self.label}: needs derivative order {k}, has {self.derivative_order}")
        return _restore_shape(x, self._analytic_derivative(k, np.asarray(x, dtype=float)))

    def _analytic_derivative(self, k: int, x: np.ndarray) -> np.ndarray:
        raise UnsupportedOrderError(f"{self.label}: no analytic derivatives")

    @property
    def has_decay(self) -> bool:
        return True

    def tail_bound(self, L: float) -> float:
        """Upper bound on all derivatives up to order K+1 left of L."""
        raise NoDecayError(f"{self.label}: no decay metadata")

    def value_tail_bound(self, L: float) -> float:
        """Upper bound on |f| alone left of L; defaults to tail_bound."""
        return self.tail_bound(L)

    def _cutoff_guess(self, log_eps: float, value_only: bool):
        """Where the bound crosses e^log_eps, from a closed-form inverse, or
        None without one. effective_lower_cutoff keeps a guess only after
        checking it against the bound itself."""
        return None

    def __repr__(self):
        return f"<SmoothFunction {self.label}>"


class CallableFunction(SmoothFunction):
    """SmoothFunction assembled from plain callables.

    ``derivative(k, x)`` supplies orders 1..``derivative_order``. Used for
    lazily evaluated solver outputs and operator compositions.
    """

    def __init__(self, evaluate, derivative=None, derivative_order=0,
                 tail_bound=None, value_tail_bound=None, label="f"):
        self._evaluate = evaluate
        self._derivative = derivative
        self.derivative_order = int(derivative_order)
        self._tail_bound = tail_bound
        self._value_tail_bound = value_tail_bound
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


class _ExponentialTail(SmoothFunction):
    """Tail bounds C e^(lam L) (C = _tail_constant) and e^(lam L) for |f|."""

    def tail_bound(self, L):
        return self._tail_constant * math.exp(self.lam * L)

    def value_tail_bound(self, L):
        return math.exp(self.lam * L)

    def _cutoff_guess(self, log_eps, value_only):
        return (log_eps - (0.0 if value_only else math.log(self._tail_constant))) / self.lam


class Exponential(_ExponentialTail):
    """x -> exp(lam * x), lam > 0. Eigenfunction of every operator here."""

    derivative_order = BUILTIN_ORDER

    def __init__(self, lam: float = 1.0):
        self.lam = _finite("lambda", lam, positive=True)
        self.label = f"exp(lambda={self.lam:g})"

    def evaluate(self, x):
        return np.exp(self.lam * x)

    def _analytic_derivative(self, k, x):
        return self.lam ** k * np.exp(self.lam * x)

    @functools.cached_property
    def _tail_constant(self):
        # sup over k <= K+1 of lam^k; raises OverflowError for a huge lam,
        # which effective_lower_cutoff reads as an infinite bound.
        return max(1.0, self.lam) ** (self.derivative_order + 1)


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
    """1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) below, which never
    overflows, from e = e^-|t| without masks. min(t, -t) is -|t| that keeps
    a NaN's sign, so the floats are those of the two masked formulas."""
    e = np.negative(t)
    np.exp(np.minimum(t, e, out=e), out=e)
    s = np.where(t >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def _horner(x, coeffs: np.ndarray):
    """numpy's polyval(x, coeffs) for ascending coeffs, in place and in
    polyval's own operation order, so with the same floats."""
    out = x * 0.0
    out += coeffs[-1]
    for a in coeffs[-2::-1]:
        out *= x
        out += a
    return out


class GaussTail(_ExponentialTail):
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

    def _sigmoid_at(self, x):
        t = np.atleast_1d(np.asarray(x, dtype=float) - self.c)
        t *= self.lam
        return _sigmoid(t)

    def evaluate(self, x):
        out = self._sigmoid_at(x)
        out *= math.exp(self.lam * self.c)
        return out.reshape(np.shape(x))

    def _analytic_derivative(self, k, x):
        val = _horner(self._sigmoid_at(x), _logistic_poly(k))
        val *= math.exp(self.lam * self.c) * self.lam ** k
        return val.reshape(np.shape(x))

    @functools.cached_property
    def _tail_constant(self):
        # max over k <= K+1 of C_k lam^k, with C_k = sum|coeffs of P_k|:
        # |P_k(s)| <= s * sum|coeffs| on [0,1] since P_k(0) = 0, and
        # sigmoid(t) <= e^t, so each derivative is <= C_k lam^k e^(lam xi).
        return max(
            self.lam ** k * float(np.abs(_logistic_poly(k)).sum())
            for k in range(self.derivative_order + 2)
        )


@functools.lru_cache(maxsize=None)
def _hermite_coeffs(k: int) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k, ascending power-series coefficients."""
    return np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])


def _half_gauss(t: np.ndarray) -> np.ndarray:
    """exp(-0.5 * t * t) for an array t, with one temporary."""
    e = t * -0.5
    e *= t
    return np.exp(e, out=e)


class ShiftedGaussian(SmoothFunction):
    """x -> exp(-(x - c)^2 / (2 sigma^2)); derivatives via Hermite polynomials."""

    derivative_order = BUILTIN_ORDER

    def __init__(self, sigma: float = 1.0, c: float = 0.0):
        self.sigma = _finite("sigma", sigma, positive=True)
        self.c = _finite("c", c)
        self.label = f"shifted_gaussian(sigma={self.sigma:g}, c={self.c:g})"

    def _scaled(self, x):
        t = np.atleast_1d(np.asarray(x, dtype=float) - self.c)
        t /= self.sigma
        return t

    def evaluate(self, x):
        return _half_gauss(self._scaled(x)).reshape(np.shape(x))

    def _analytic_derivative(self, k, x):
        t = self._scaled(x)
        he = _horner(t, _hermite_coeffs(k))
        he *= (-1.0 / self.sigma) ** k
        he *= _half_gauss(t)
        return he.reshape(np.shape(x))

    @functools.cached_property
    def _tail_terms(self):
        """(k, peak_k, sigma^(-k) sum|He_k coeffs|, flat envelope_k) for k <= K+1.

        The envelope max over tau <= t of max(1,|tau|)^k e^(-tau^2/2) peaks at
        |tau| = sqrt(k) and decreases beyond it: left of -peak_k it is
        |t|^k e^(-t^2/2), elsewhere the flat maximum. sigma^(-k) raises
        OverflowError for a tiny sigma, which effective_lower_cutoff reads as
        an infinite bound.
        """
        terms = []
        for k in range(self.derivative_order + 2):
            hk = float(np.abs(_hermite_coeffs(k)).sum())
            peak = max(1.0, math.sqrt(k) if k else 1.0)
            flat = max(1.0, k ** (k / 2.0) * math.exp(-k / 2.0) if k else 1.0)
            terms.append((k, peak, self.sigma ** (-k) * hk, flat))
        return tuple(terms)

    @functools.cached_property
    def _log_tail_terms(self):
        """(k, peak_k, log scale_k, log envelope_k) for _cutoff_guess."""
        return tuple((k, peak, math.log(scale) if scale else -math.inf, math.log(flat))
                     for k, peak, scale, flat in self._tail_terms)

    def tail_bound(self, L):
        t = (float(L) - self.c) / self.sigma
        gauss = math.exp(-0.5 * t * t)
        worst = 0.0
        for k, peak, scale, flat in self._tail_terms:
            envelope = abs(t) ** k * gauss if t <= -peak else flat
            worst = max(worst, scale * envelope)
        return worst

    def value_tail_bound(self, L):
        t = (float(L) - self.c) / self.sigma
        return math.exp(-0.5 * t * t) if t < 0 else 1.0

    def _cutoff_guess(self, log_eps, value_only):
        # In s = -t the value bound crosses eps at s^2/2 = -log eps. Term k
        # crosses it where h_k(s) = s^2/2 - k log s - R_k = 0, with
        # R_k = log scale_k - log eps, or at its jump s = peak_k if
        # h_k(peak_k) >= 0; the bound crosses at the largest of these, so a
        # term is solved only if it still exceeds eps there. h_k is convex
        # right of peak_k: Newton converges once its first step overshoots.
        if value_only:
            return self.c - self.sigma * math.sqrt(-2.0 * log_eps) if log_eps < 0.0 else None
        s = 0.0
        for k, peak, log_scale, log_flat in reversed(self._log_tail_terms):
            R = log_scale - log_eps
            if (0.5 * s * s - k * math.log(s) >= R) if s >= peak else (log_flat <= -R):
                continue  # term k is within eps left of s
            s = peak
            if 0.5 * s * s - k * math.log(s) < R:
                s = math.sqrt(max(2.0 * R, peak * peak)) + 1.0
                for _ in range(6):
                    s -= (0.5 * s * s - k * math.log(s) - R) / (s - k / s)
        # Where e^(-s^2/2) is subnormal the bound steps in units far wider
        # than an ulp of L and need not be monotone.
        if s == 0.0 or math.exp(-0.5 * s * s) < _TINY:
            return None
        return self.c - self.sigma * s


# ---------------------------------------------------------------------------
# Derived functions
# ---------------------------------------------------------------------------

def materialize(func, decay_like=None, decay_scale=1.0,
                label="materialized") -> CallableFunction:
    """Wrap a vectorized callable as a SmoothFunction with no derivatives.

    ``decay_like`` transfers another function's tail bound (scaled by
    ``decay_scale``); used when composing operators whose outputs provably
    decay like their inputs.
    """
    g = CallableFunction(lambda x: np.asarray(func(x), dtype=float), label=label)
    return g if decay_like is None else _inherit_decay(g, decay_like, decay_scale)


def _inherit_decay(g: CallableFunction, parent: SmoothFunction, scale=1.0,
                   value_bound: bool = True) -> CallableFunction:
    """Give g the tail bound scale * parent.tail_bound, and as value bound
    scale * parent.value_tail_bound, or with ``value_bound`` False the tail
    bound itself. Since scale * bound <= eps where bound <= eps / scale, g's
    cutoff guess is parent's at eps / scale, i.e. at log eps - log scale."""
    g._tail_bound = lambda L: scale * parent.tail_bound(L)
    if value_bound:
        g._value_tail_bound = lambda L: scale * parent.value_tail_bound(L)
    if scale > 0.0:
        log_scale = math.log(scale)
        g._cutoff_guess = lambda log_eps, value_only: parent._cutoff_guess(
            log_eps - log_scale, value_only and value_bound)
    return g


# ---------------------------------------------------------------------------
# Truncation of the -inf limit
# ---------------------------------------------------------------------------

def effective_lower_cutoff(f: SmoothFunction, epsilon: float, value_only: bool = False) -> float:
    """The point L where f's tail bound crosses epsilon, with bound(L) <= epsilon.

    Left of L every |f^(k)| the bound covers is at most epsilon, so an
    integral with lower limit -inf may be truncated at L. Doubling steps
    bracket the crossing in [L, R] with bound(R) > epsilon; bisection then
    narrows the bracket for at most 60 steps, stopping early once it is one
    ulp wide. A bound that never exceeds epsilon on [0, 2^63] gives L = 2^63.

    The built-ins, and the wrappers that scale their bounds, invert the
    bound in closed form. A guess G in [-2^58, -2] is taken in place of the
    search only where it is the search's own answer: the doubling bracket
    [-2^(j+1), -2^j] holding G must hold the crossing, and after at most
    three one-ulp nudges bound(G) <= epsilon < bound(nextafter(G, +inf)).
    Any other guess, an overflow while guessing, and every function
    without an inverse take the search above.

    ``value_only`` uses the bound on |f| alone (enough for integrals of f
    itself, giving shorter decay spans than the all-derivatives bound). A
    bound that overflows (the built-ins' math.exp past L ~ 709) reads as inf.

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

    try:
        guess = f._cutoff_guess(math.log(epsilon), value_only)
    except OverflowError:
        guess = None
    if guess is not None and -2.0 ** 58 <= guess <= -2.0:
        # The bracket the doubling walk stops at: 2^j < -guess <= 2^(j+1).
        m, e = math.frexp(-guess)
        lo = -math.ldexp(1.0, e - 1 if m == 0.5 else e)
        if bound(lo) <= epsilon < bound(0.5 * lo):
            up = math.nextafter(guess, math.inf)
            at, above = bound(guess), bound(up)
            for _ in range(3):
                if at > epsilon:
                    guess, up, above = math.nextafter(guess, -math.inf), guess, at
                    at = bound(guess)
                elif above <= epsilon:
                    guess, at, up = up, above, math.nextafter(up, math.inf)
                    above = bound(up)
            if at <= epsilon < above:
                return guess

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
        if mid == lo or mid == hi:
            break  # one ulp wide: every further step would leave [lo, hi] as is
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
    """Samples of u on a uniform grid, written out by ``solve`` and ``forward``.

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
        rows = zip(self.nodes.tolist(), self.values.tolist())
        return "x,value\n" + "".join(["%.17g,%.17g\n" % row for row in rows])

    def to_json(self) -> str:
        return json.dumps({
            "x_start": self.x_start,
            "x_step": self.x_step,
            "values": [float(v) for v in self.values],
        })


def check_window(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; DomainError unless a < b with a finite width b - a."""
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise DomainError(f"window needs finite a < b with a finite width b - a, got [{a}, {b}]")
    return a, b


def check_finite(label: str, xs, values) -> None:
    """FracLambError naming the first point of xs where values is not finite."""
    xs, values = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(values, dtype=float))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise FracLambError(f"{label}: non-finite value {values.flat[i]} at x = {xs.flat[i]:.17g}")


def sample(f: SmoothFunction, a: float, b: float, count: int) -> GridFunction:
    """Sample f at ``count`` equispaced nodes on [a, b] (endpoints included).

    Raises:
        DomainError: a >= b, the width b - a overflows, or count is not an integer >= 2.
        FracLambError: a sampled value is not finite.
    """
    a, b = check_window(a, b)
    count = check_integer("count", count)
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    step = (b - a) / (count - 1)
    nodes = a + np.arange(count) * step
    values = np.asarray(f(nodes), dtype=float)
    check_finite(f.label, nodes, values)
    return GridFunction(x_start=a, x_step=step, values=values)
