"""Closed-form solvers for the Lamb-Bateman equation and its generalizations.

Four variants share one mechanism, inverting the forward integral through a
fractional derivative of the right-hand side:

    classic          int_0^inf u(x - y^2) dy = f(x)
                     -> u = (2 / sqrt(pi)) D^(1/2) f
    symmetric n-dim  int_{R^n} u(x - |y|^2) dy = f(x)
                     -> u = pi^(-n/2) D^(n/2) f
    power            int_0^inf u(x - y^m) dy = f(x)
                     -> u = D^(1/m) f / Gamma(1 + 1/m)
    quadratic form   int_{R^n} u(x - y^T A y) dy = f(x)
                     -> u = sqrt(det A) pi^(-n/2) D^(n/2) f

For even n the order n/2 is an integer and the solution is a plain scaled
derivative; odd n routes through the Weyl half-integral of f^(m+1). The
power and quadratic-form formulas are obtained by the same shift-operator
calculus as the rest (using int_0^inf e^{-a y^m} dy = Gamma(1+1/m) a^{-1/m}
and y = A^{-1/2} z respectively); every solver output is meant to be
certified against its forward operator, see forward_verifier.

Solutions are returned lazily: evaluation happens on demand and is
vectorized, because downstream verification picks its quadrature nodes
adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DomainError, NotPositiveDefiniteError
from .fractional_ops import derivative_view, split_order, _weyl_batch
from .function_model import CallableFunction, SmoothFunction, _inherit_decay
from .special_functions import check_dimension, check_positive_integer, gamma

__all__ = [
    "PosDefMatrix",
    "ProblemSpec",
    "solve_classic",
    "solve_ndim",
    "solve_power",
    "solve_quadform",
    "solve_problem",
]

# Tail-transfer margin: |c * D^nu f| <= 4 |c| * tail_bound(f) holds for the
# exponential- and Gaussian-type decay of the built-in family (rates >= 1/4).
_TAIL_MARGIN = 4.0


# ---------------------------------------------------------------------------
# Matrices and problem descriptions
# ---------------------------------------------------------------------------

class PosDefMatrix:
    """Symmetric positive-definite matrix with cached Cholesky data.

    The factorization doubles as the positive-definiteness certificate: it
    must succeed and every pivot (squared diagonal of the factor) must
    exceed 1e-12 times the largest diagonal entry.
    """

    def __init__(self, entries):
        try:
            M = np.array(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"matrix entries must be a rectangular array of numbers: {exc}") from None
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
            raise DomainError(f"expected a square matrix, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise DomainError("matrix entries must be finite")
        if not np.array_equal(M, M.T):
            raise DomainError("matrix must be symmetric (exact entry equality)")
        try:
            factor = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"Cholesky failed: {exc}") from exc
        pivots = np.diag(factor) ** 2
        if np.min(pivots) <= 1e-12 * np.max(np.diag(M)):
            raise NotPositiveDefiniteError(
                f"negligible pivot {np.min(pivots):.3g}; matrix is not "
                "positive-definite to working precision"
            )
        self.entries = M
        self.factor = factor
        with np.errstate(over="ignore"):  # det may overflow where sqrt(det) does not
            self.det = float(np.prod(pivots))
        self.n = M.shape[0]

    @classmethod
    def identity(cls, n: int) -> "PosDefMatrix":
        return cls(np.eye(int(n)))

    @property
    def min_pivot(self) -> float:
        return float(np.min(np.diag(self.factor) ** 2))

    def __repr__(self):
        return f"PosDefMatrix(n={self.n}, det={self.det:g})"


VARIANTS = ("classic", "symmetric_ndim", "power", "quadform")
# The ProblemSpec field each variant cannot do without.
REQUIRED_DATUM = {"symmetric_ndim": "n", "power": "m", "quadform": "A"}


def check_exponent(m) -> int:
    """m as an int; DomainError unless m is an integer >= 1."""
    return check_positive_integer("power exponent", m)


@dataclass(frozen=True)
class ProblemSpec:
    """Which equation to solve: a variant and exactly the data it takes. n
    is implied (1, or A.n for quadform) but for symmetric_ndim."""

    variant: str
    n: int | None = None
    m: int | None = None
    A: PosDefMatrix | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        needed = REQUIRED_DATUM.get(self.variant)
        if needed is not None and getattr(self, needed) is None:
            raise DomainError(f"{self.variant} requires {needed}")
        if self.A is not None and self.variant != "quadform":
            raise DomainError(f"variant {self.variant!r} does not take a matrix")
        if self.m is not None and self.variant != "power":
            raise DomainError(f"variant {self.variant!r} does not take an exponent m")
        if self.variant == "power":
            object.__setattr__(self, "m", check_exponent(self.m))
        implied_n = self.A.n if self.variant == "quadform" else 1
        if self.variant != "symmetric_ndim" and self.n not in (None, implied_n):
            raise DomainError(f"variant {self.variant!r} has n = {implied_n}, got n = {self.n}")
        object.__setattr__(self, "n", check_dimension(implied_n if self.n is None else self.n))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _solution(f: SmoothFunction, nu: float, const: float, label: str,
              cfg: QuadratureConfig) -> SmoothFunction:
    """u = const * D^nu f, the shape of every solution here.

    With (k, mu) = split_order(nu), the split frac_derivative makes too, an
    integer order (mu = 0) is the scaled derivative const * f^(k); otherwise
    u is const times the Weyl integral of order mu of f^(k), and is marked
    quadrature_valued.
    """
    k, mu = split_order(nu)
    fk = derivative_view(f, k)
    if mu == 0.0:
        evaluate = lambda xs: const * fk.evaluate(xs)
    else:
        evaluate = lambda xs: const * _weyl_batch(fk, mu, xs, cfg)
    u = CallableFunction(evaluate, derivative_order=0, label=label)
    if f.has_decay:
        _inherit_decay(u, f, _TAIL_MARGIN * abs(const))
    u.quadrature_valued = mu != 0.0
    return u


def solve_classic(f: SmoothFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = (2 / sqrt(pi)) D^(1/2) f, the Bateman solution of the classic
    half-line equation."""
    return _solution(f, 0.5, 2.0 / math.sqrt(math.pi), f"u_classic[{f.label}]", cfg)


def solve_ndim(f: SmoothFunction, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = pi^(-n/2) D^(n/2) f for the symmetric full-space equation.

    Even n = 2m is the plain derivative pi^(-m) f^(m) (exact constants, no
    quadrature); odd n = 2m + 1 is the Weyl half-integral of f^(m+1).

    Raises:
        DomainError: n < 1.
        UnsupportedOrderError: f cannot supply the derivative order needed.
    """
    n = check_dimension(n)
    return _solution(f, n / 2.0, math.pi ** (-n / 2.0), f"u_ndim[n={n}]({f.label})", cfg)


def solve_power(f: SmoothFunction, m: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = D^(1/m) f / Gamma(1 + 1/m) for the half-line power equation.

    m = 2 reproduces solve_classic (Gamma(3/2)^(-1) = 2/sqrt(pi)); m = 1
    degenerates to u = f'. It is certified by the residual of forward_power,
    the forward kernel w int_0^inf y^alpha u(x - y^m) dy at alpha=0, w=1.
    """
    m = check_exponent(m)
    return _solution(f, 1.0 / m, 1.0 / gamma(1.0 + 1.0 / m), f"u_power[m={m}]({f.label})", cfg)


def solve_quadform(f: SmoothFunction, A: PosDefMatrix,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = sqrt(det A) pi^(-n/2) D^(n/2) f for the quadratic-form equation.

    Substituting z = A^(1/2) y reduces the equation to the symmetric case
    with the Jacobian det(A)^(-1/2); certified by the randomized lattice
    forward residual.
    """
    if not isinstance(A, PosDefMatrix):
        A = PosDefMatrix(A)
    n = A.n
    # sqrt(det A) is the product of the factor's diagonal, which fits where
    # det itself is 0, subnormal or inf.
    root_det = math.prod(np.diag(A.factor).tolist())
    return _solution(f, n / 2.0, root_det * math.pi ** (-n / 2.0),
                     f"u_quadform[det={A.det:g}]({f.label})", cfg)


def solve_problem(spec: ProblemSpec, f: SmoothFunction,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """Dispatch a ProblemSpec to the matching solver."""
    if spec.variant == "classic":
        return solve_classic(f, cfg)
    if spec.variant == "symmetric_ndim":
        return solve_ndim(f, spec.n, cfg)
    if spec.variant == "power":
        return solve_power(f, spec.m, cfg)
    return solve_quadform(f, spec.A, cfg)
