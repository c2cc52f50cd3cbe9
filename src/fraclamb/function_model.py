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

from ._cheb import _NODES, _ODD, _checked_series, _clenshaw
from ._csv import format_csv
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
      what permits truncating integrals with lower limit -inf. It is f's
      one decay bound, on |f| (k = 0) too, and every -inf cutoff reads it.
      The exact bound is monotone; its float need not be where a factor
      underflows, as ShiftedGaussian's |t|^k e^(-t^2/2) where e^(-t^2/2)
      is subnormal.

    ``quadrature_valued`` is True when every value costs a quadrature of
    its own (a Weyl integral) while the function stays smooth, so a
    caller that needs many values may read them off a Chebyshev series
    checked against direct values (``_cheb._checked_series``): ``sample``
    one per fixed panel, the quadratic-form certificate one per probe.

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
        """Upper bound on |f| and all derivatives up to order K+1 left of L."""
        raise NoDecayError(f"{self.label}: no decay metadata")

    def _cutoff_guess(self, log_eps: float):
        """Where the bound crosses e^log_eps, from a closed-form inverse, or
        None without one. effective_lower_cutoff keeps a guess only after
        checking it against the bound itself."""
        return None

    def __repr__(self):
        return f"<SmoothFunction {self.label}>"


class CallableFunction(SmoothFunction):
    """SmoothFunction assembled from plain callables.

    ``derivative(k, x)`` supplies orders 1..``derivative_order``, and
    ``tail_bound``, if given, is the bound SmoothFunction.tail_bound
    describes, on |f| too. Used for solver outputs and compositions.
    """

    def __init__(self, evaluate, derivative=None, derivative_order=0,
                 tail_bound=None, label="f"):
        self._evaluate = evaluate
        self._derivative = derivative
        self.derivative_order = int(derivative_order)
        self._tail_bound = tail_bound
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


# ---------------------------------------------------------------------------
# Built-in test family
# ---------------------------------------------------------------------------

def _finite(name: str, value, positive: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise DomainError(f"{name} must be finite{' and > 0' if positive else ''}, got {value}")
    return value


class _ExponentialTail(SmoothFunction):
    """Tail bound C e^(lam L), C = _tail_constant."""

    def tail_bound(self, L):
        return self._tail_constant * math.exp(self.lam * L)

    def _cutoff_guess(self, log_eps):
        return (log_eps - math.log(self._tail_constant)) / self.lam


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
    polyval's own operation order, so with the same floats. polyval itself
    made the verify deck's median op 6-7% slower and its shifted_gaussian
    ops' 5-7% (seed 1, 3 of 3 in-process pairs, 2-core Xeon VM)."""
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
    def _top_term(self):
        """(k, peak_k, sigma^(-k) sum|He_k coeffs|, flat envelope_k) for k = K+1.

        The envelope max over tau <= t of max(1,|tau|)^k e^(-tau^2/2) peaks at
        |tau| = sqrt(k) and decreases beyond it: left of -peak_k it is
        |t|^k e^(-t^2/2), elsewhere the flat maximum k^(k/2) e^(-k/2). Both
        it and sigma^(-k) sum|He_k| (the involution numbers 1, 1, 2, 4, 10,
        ...) are log-convex in k, so over k <= K+1 the bound on |f^(k)| is
        largest at k = 0 or at k = K+1, the only two terms tail_bound keeps.
        sigma^(-k) raises OverflowError for a tiny sigma, which
        effective_lower_cutoff reads as an infinite bound.
        """
        k = self.derivative_order + 1
        hk = float(np.abs(_hermite_coeffs(k)).sum())
        return k, math.sqrt(k), self.sigma ** (-k) * hk, k ** (k / 2.0) * math.exp(-k / 2.0)

    def tail_bound(self, L):
        t = (float(L) - self.c) / self.sigma
        gauss = math.exp(-0.5 * t * t)
        k, peak, scale, flat = self._top_term
        return max(gauss if t <= -1.0 else 1.0,
                   scale * (abs(t) ** k * gauss if t <= -peak else flat))

    def _cutoff_guess(self, log_eps):
        # In s = -t the order-0 term crosses eps at max(1, sqrt(-2 log eps)).
        # The top term k crosses it where h(s) = s^2/2 - k log s - R = 0,
        # with R = log scale_k - log eps, or at its jump s = peak_k if
        # h(peak_k) >= 0; h is convex right of peak_k, so Newton converges
        # once its first step overshoots. The bound crosses at the larger.
        root = math.sqrt(-2.0 * log_eps) if log_eps < 0.0 else 0.0
        k, peak, scale, flat = self._top_term
        R = (math.log(scale) if scale else -math.inf) - log_eps
        s = 0.0
        if math.log(flat) > -R:
            s = peak
            if 0.5 * s * s - k * math.log(s) < R:
                s = math.sqrt(max(2.0 * R, peak * peak)) + 1.0
                for _ in range(6):
                    s -= (0.5 * s * s - k * math.log(s) - R) / (s - k / s)
        s = max(s, 1.0, root) if root else s
        return None if s == 0.0 else self.c - self.sigma * s


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


def _inherit_decay(g: CallableFunction, parent: SmoothFunction, scale=1.0) -> CallableFunction:
    """Give g the tail bound scale * parent.tail_bound. Since scale * bound
    <= eps where bound <= eps / scale, g's cutoff guess is parent's at
    eps / scale, i.e. at log eps - log scale."""
    g._tail_bound = lambda L: scale * parent.tail_bound(L)
    if scale > 0.0:
        log_scale = math.log(scale)
        g._cutoff_guess = lambda log_eps: parent._cutoff_guess(log_eps - log_scale)
    return g


# ---------------------------------------------------------------------------
# Truncation of the -inf limit
# ---------------------------------------------------------------------------

def effective_lower_cutoff(f: SmoothFunction, epsilon: float) -> float:
    """The point L where f's tail bound crosses epsilon, with bound(L) <= epsilon.

    Left of L, |f| and every |f^(k)| the bound covers are at most
    epsilon, so an integral of any of them with lower limit -inf may be
    truncated at L. The built-ins, and the wrappers that scale their
    bounds, invert the bound in closed form: a guess G with |G| <= 2^58 is
    returned if bound(G) <= epsilon, else G stepped 4 ulps of max(|G|, 1)
    left if that passes.
    Any other guess, an overflow while guessing, and every function
    without an inverse take the search: doubling steps bracket the
    crossing in [L, R] with bound(R) > epsilon, and bisection narrows the
    bracket for at most 60 steps, stopping early once it is one ulp wide.
    A bound that never exceeds epsilon on [0, 2^63] gives L = 2^63. A
    kept guess satisfies the bound but need not be the search's float. A
    bound that overflows (the built-ins' math.exp past L ~ 709) reads as inf.

    Raises:
        DomainError: epsilon is not > 0.
        NoDecayError: if f has no decay metadata, or its bound stays above
            epsilon out to L = -2^61 (a guess past 2^58 is never kept).
    """
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    if not f.has_decay:
        raise NoDecayError(f"{f.label}: no decay metadata; declare a tail bound")

    def bound(L):
        try:
            return f.tail_bound(L)
        except OverflowError:
            return math.inf

    try:
        guess = f._cutoff_guess(math.log(epsilon))
    except OverflowError:
        guess = None
    if guess is not None and abs(guess) <= 2.0 ** 58:
        for L in (guess, guess - 4.0 * math.ulp(max(abs(guess), 1.0))):
            if bound(L) <= epsilon:
                return L

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
        """``x,value`` rows, floats byte for byte as ``"%.17g"`` writes them."""
        return format_csv("x,value", np.column_stack((self.nodes, self.values)))

    def to_json(self) -> str:
        return json.dumps({
            "x_start": self.x_start,
            "x_step": self.x_step,
            "values": self.values.tolist(),
        })


def check_window(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; DomainError unless a < b with a finite width b - a."""
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise DomainError(f"window needs finite a < b with a finite width b - a, got [{a}, {b}]")
    return a, b


def check_finite(label: str, xs, values) -> None:
    """FracLambError naming the first point of xs where values is not finite."""
    values = np.asarray(values, dtype=float)
    if np.isfinite(values).all():
        return
    xs, values = np.broadcast_arrays(np.asarray(xs, dtype=float), values)
    i = np.flatnonzero(~np.isfinite(values))[0]
    raise FracLambError(f"{label}: non-finite value {values.flat[i]} at x = {xs.flat[i]:.17g}")


# Grid panels for a quadrature-valued f in sample. Panel k is
# [k _PANEL_WIDTH, (k + 1) _PANEL_WIDTH), a power of two wide so that
# floor(x / _PANEL_WIDTH) is exact. Its series, on the panel's part inside
# the window, is checked at 4 odd grid points (near both ends and inside)
# at _PANEL_CHOP and _PANEL_CHECK, and stands only if f does not keep one
# sign at the nodes and checks while |f| spans more than a factor
# 1 / _PANEL_RANGE. Of the chops 1e-13, 1e-14 and 3e-15, the last kept the
# most certified digits on solve_grid, with no panel left unresolved. The
# series' error is about 6e-16 of max|f| on the panel, so the range bound
# keeps a one-signed value's relative error below about 6e-16 / _PANEL_RANGE;
# near a zero of f neither route is relatively accurate.
_PANEL_WIDTH = 1.0
_PANEL_CHECKS = _ODD[[0, 42, 85, 127]]
_PANEL_CHOP = 3e-15
_PANEL_CHECK = 1e-11
_PANEL_RANGE = 1e-2
# A panel with fewer grid points than this is read directly: its series
# would cost more reads of f than the points themselves.
_PANEL_COST = _NODES.size + _PANEL_CHECKS.size
# Most points per direct read of a quadrature-valued f, so that the Weyl
# batch's rows x nodes arrays stay bounded.
_DIRECT_BLOCK = 4096


def _read_direct(f: SmoothFunction, xs: np.ndarray) -> np.ndarray:
    """f at the 1-D array xs, _DIRECT_BLOCK points per call of f.evaluate."""
    values = np.empty_like(xs)
    for i in range(0, xs.size, _DIRECT_BLOCK):
        values[i:i + _DIRECT_BLOCK] = f.evaluate(xs[i:i + _DIRECT_BLOCK])
    return values


def sample(f: SmoothFunction, a: float, b: float, count: int) -> GridFunction:
    """Sample f at ``count`` equispaced nodes on [a, b] (endpoints included).

    A function that is not ``quadrature_valued`` is read at the nodes in
    one call. A quadrature-valued one is read on the fixed panels
    [k w, (k + 1) w), w = _PANEL_WIDTH. A panel holding at least
    _PANEL_COST (133) nodes is read off a Chebyshev series on its part
    inside the window (``_cheb._checked_series``, which the quadratic-form
    certificate reads u through too): one call of f at 129 nodes and 4
    checks. Where that series does not stand, as where f keeps one sign
    there while |f| spans more than a factor 100, the panel's own nodes are
    read directly, as are the nodes of all sparser panels, together, in
    chunks of _DIRECT_BLOCK (4096) points per call (``_read_direct``). So
    f is read only inside the window (up to rounding at its ends), at no
    more than 2 * count points, and at no more than count when every dense
    panel's series stands.

    A value on a dense panel wholly inside the window depends only on its
    panel, f and f's config, not on the window or the count. A value on a
    panel the window cuts depends on the cut too, and one on a sparse panel
    shares its Weyl batch, and so its cutoff, with its chunk. A series
    value differs from f at its node by at most 1.7e-11 relative on the
    solve_grid decks: the check holds it to 1e-11 of max|f| at the checks
    (_PANEL_CHECK) whatever the tol f was built with.

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
    if f.quadrature_valued:
        values = _sample_panels(f, nodes)
    else:
        values = np.asarray(f(nodes), dtype=float)
    check_finite(f.label, nodes, values)
    return GridFunction(x_start=a, x_step=step, values=values)


def _sample_panels(f: SmoothFunction, nodes: np.ndarray) -> np.ndarray:
    """f at the ascending nodes, panel by panel, as sample describes."""
    values = np.empty_like(nodes)
    panel = np.floor(nodes / _PANEL_WIDTH)
    starts = np.flatnonzero(np.diff(panel, prepend=-np.inf))
    ends = np.append(starts[1:], nodes.size)
    dense = ends - starts >= _PANEL_COST
    sparse = np.ones(nodes.size, dtype=bool)
    for i, j in zip(starts[dense], ends[dense]):
        xs = nodes[i:j]
        left = panel[i] * _PANEL_WIDTH
        lo, hi = max(left, nodes[0]), min(left + _PANEL_WIDTH, nodes[-1])
        got = _checked_series(f.evaluate, lo, hi, _PANEL_CHECKS, _PANEL_CHOP, _PANEL_CHECK)
        if got is not None:
            low, high = np.min(got[1]), np.max(got[1])
            if 0.0 < low < _PANEL_RANGE * high or _PANEL_RANGE * low < high < 0.0:
                got = None
        values[i:j] = (_read_direct(f, xs) if got is None
                       else _clenshaw(got[0], (xs - lo) / (0.5 * (hi - lo)) - 1.0))
        sparse[i:j] = False
    if sparse.any():
        values[sparse] = _read_direct(f, nodes[sparse])
    return values
