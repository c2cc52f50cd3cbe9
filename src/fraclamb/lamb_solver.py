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

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DomainError, NotPositiveDefiniteError, UnsupportedOrderError
from .fractional_ops import derivative_view, _weyl_batch
from .function_model import CallableFunction, SmoothFunction
from .special_functions import gamma

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


def _lazy_solution(batch_eval, f: SmoothFunction, scale: float, label: str) -> CallableFunction:
    tail = None
    vtail = None
    if f.has_decay:
        tail = lambda L: _TAIL_MARGIN * abs(scale) * f.tail_bound(L)
        vtail = tail
    return CallableFunction(
        batch_eval,
        derivative_order=0,
        tail_bound=tail,
        value_tail_bound=vtail,
        label=label,
    )


def _require_order(f: SmoothFunction, k: int, what: str):
    if f.derivative_order < k and not (
        f.numeric_fallback and k <= f.derivative_order + 4
    ):
        raise UnsupportedOrderError(
            f"{what} needs {k} derivative(s) of {f.label}, "
            f"which declares order {f.derivative_order}"
        )


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
        M = np.array(entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
            raise DomainError(f"expected a square matrix, got shape {M.shape}")
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
        self.det = float(np.prod(pivots))
        self.n = M.shape[0]

    @classmethod
    def identity(cls, n: int) -> "PosDefMatrix":
        return cls(np.eye(int(n)))

    @property
    def min_pivot(self) -> float:
        return float(np.min(np.diag(self.factor) ** 2))

    def to_list(self):
        return [[float(v) for v in row] for row in self.entries]

    def __repr__(self):
        return f"PosDefMatrix(n={self.n}, det={self.det:g})"


_VARIANTS = ("classic", "symmetric_ndim", "power", "quadform")


@dataclass(frozen=True)
class ProblemSpec:
    """Which equation to solve: variant plus its variant-specific data."""

    variant: str
    n: int = 1
    m: int | None = None
    A: PosDefMatrix | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}; expected one of {_VARIANTS}")
        if self.variant == "quadform":
            if self.A is None:
                raise DomainError("quadform requires a matrix A")
            object.__setattr__(self, "n", self.A.n)
        elif self.A is not None:
            raise DomainError(f"variant {self.variant!r} does not take a matrix")
        if self.variant == "power":
            if self.m is None or int(self.m) < 1:
                raise DomainError("power requires an integer exponent m >= 1")
            object.__setattr__(self, "m", int(self.m))
        elif self.m is not None:
            raise DomainError(f"variant {self.variant!r} does not take an exponent m")
        if self.variant in ("classic", "power") and self.n != 1:
            raise DomainError(f"variant {self.variant!r} is one-dimensional (n=1)")
        if int(self.n) < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def to_json(self) -> str:
        obj = {"variant": self.variant, "n": self.n}
        if self.m is not None:
            obj["m"] = self.m
        if self.A is not None:
            obj["A"] = self.A.to_list()
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        obj = json.loads(text)
        A = PosDefMatrix(obj["A"]) if "A" in obj and obj["A"] is not None else None
        return cls(
            variant=obj["variant"],
            n=int(obj.get("n", A.n if A is not None else 1)),
            m=obj.get("m"),
            A=A,
        )


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def solve_classic(f: SmoothFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = (2 / sqrt(pi)) D^(1/2) f, the Bateman solution of the classic
    half-line equation."""
    _require_order(f, 1, "solve_classic")
    const = 2.0 / math.sqrt(math.pi)
    fp = derivative_view(f, 1)

    def evaluate(xs):
        return const * _weyl_batch(fp, 0.5, xs, cfg)

    return _lazy_solution(evaluate, f, const, f"u_classic[{f.label}]")


def solve_ndim(f: SmoothFunction, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
               fractional_path: bool = False) -> SmoothFunction:
    """u = pi^(-n/2) D^(n/2) f for the symmetric full-space equation.

    Even n uses the direct derivative pi^(-m) f^(m) (exact constants, no
    quadrature). Odd n = 2m + 1 evaluates the Weyl half-integral of
    f^(m+1). ``fractional_path`` forces even n through the integral
    machinery as well (as D^(-1) f^(m+1)); it exists for consistency
    checking, not for production use.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    const = math.pi ** (-n / 2.0)
    if n % 2 == 0:
        m = n // 2
        if fractional_path:
            _require_order(f, m + 1, "solve_ndim (fractional path)")
            fd = derivative_view(f, m + 1)
            evaluate = lambda xs: const * _weyl_batch(fd, 1.0, xs, cfg)
        else:
            _require_order(f, m, "solve_ndim")
            evaluate = lambda xs: const * np.asarray(f.derivative(m, xs), dtype=float)
    else:
        m = (n - 1) // 2
        _require_order(f, m + 1, "solve_ndim")
        fd = derivative_view(f, m + 1)
        evaluate = lambda xs: const * _weyl_batch(fd, 0.5, xs, cfg)
    return _lazy_solution(evaluate, f, const, f"u_ndim[n={n}]({f.label})")


def solve_power(f: SmoothFunction, m: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = D^(1/m) f / Gamma(1 + 1/m) for the half-line power equation.

    m = 2 reproduces solve_classic (Gamma(3/2)^(-1) = 2/sqrt(pi)); m = 1
    degenerates to u = f'. The formula is certified by the forward_power
    residual in the verification suite.
    """
    m = int(m)
    if m < 1:
        raise DomainError(f"power exponent must be >= 1, got {m}")
    _require_order(f, 1, "solve_power")
    const = 1.0 / gamma(1.0 + 1.0 / m)
    if m == 1:
        evaluate = lambda xs: np.asarray(f.derivative(1, xs), dtype=float)
    else:
        mu = 1.0 - 1.0 / m  # D^(1/m) = D^(-(1 - 1/m)) applied to f'
        fp = derivative_view(f, 1)
        evaluate = lambda xs: const * _weyl_batch(fp, mu, xs, cfg)
    return _lazy_solution(evaluate, f, const, f"u_power[m={m}]({f.label})")


def solve_quadform(f: SmoothFunction, A: PosDefMatrix,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothFunction:
    """u = sqrt(det A) pi^(-n/2) D^(n/2) f for the quadratic-form equation.

    Substituting z = A^(1/2) y reduces the equation to the symmetric case
    with the Jacobian det(A)^(-1/2); certified by the Monte Carlo forward
    residual.
    """
    if not isinstance(A, PosDefMatrix):
        A = PosDefMatrix(A)
    base = solve_ndim(f, A.n, cfg)
    scale = math.sqrt(A.det)
    return CallableFunction(
        lambda xs: scale * base.evaluate(xs),
        derivative_order=0,
        tail_bound=(lambda L: scale * base.tail_bound(L)) if base.has_decay else None,
        value_tail_bound=(lambda L: scale * base.value_tail_bound(L)) if base.has_decay else None,
        label=f"u_quadform[det={A.det:g}]({f.label})",
    )


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
